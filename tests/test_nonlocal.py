"""Kernel-based nonlocal operators on the staircase coordinate."""

import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fractalcalc import (
    CantorSpec,
    ConjugatedFn,
    DomainError,
    IdentityMap,
    OperatorKind,
    OperatorSpec,
    Side,
    StaircaseFn,
    caputo_derivative,
    composition_residual,
    evaluate,
    evaluate_u,
    power_rule_derivative,
    power_rule_integral,
    rgamma,
    rl_derivative,
    rl_integral,
)
from fractalcalc import nonlocal_ops, quadrature


@pytest.fixture(scope="module")
def sf():
    return StaircaseFn(CantorSpec())


@pytest.fixture(scope="module")
def ident():
    return IdentityMap()


class TestSpecValidation:
    def test_order_must_be_positive(self):
        with pytest.raises(DomainError):
            OperatorSpec(OperatorKind.RL_INTEGRAL, 0.0, 0.0)
        with pytest.raises(DomainError):
            OperatorSpec(OperatorKind.RL_DERIVATIVE, -0.5, 0.0)

    @pytest.mark.parametrize("kind", list(OperatorKind))
    @pytest.mark.parametrize("beta", [math.inf, math.nan])
    def test_order_must_be_finite(self, kind, beta):
        with pytest.raises(DomainError):
            OperatorSpec(kind, beta, 0.0)

    @pytest.mark.parametrize("beta", [1e-300, 1e-14, 0.999e-9])
    def test_integral_orders_near_zero_rejected(self, beta):
        # beta - 1 keeps too few of beta's digits, or rounds to -1
        with pytest.raises(DomainError):
            OperatorSpec(OperatorKind.RL_INTEGRAL, beta, 0.0)

    def test_integral_order_at_the_gap_keeps_its_accuracy(self, sf):
        x = sf.quantile_exact(Fraction(1, 2))
        spec = OperatorSpec(OperatorKind.RL_INTEGRAL, 1e-9, 0.0)
        got = rl_integral(spec, lambda t: sf.eval(t) ** 0.5, sf, x)
        assert got == pytest.approx(power_rule_integral(1e-9, 0.5, sf, 0.0, x), rel=1e-7)

    def test_integer_order_differentiation_rejected(self):
        with pytest.raises(DomainError):
            OperatorSpec(OperatorKind.RL_DERIVATIVE, 1.0, 0.0)
        with pytest.raises(DomainError):
            OperatorSpec(OperatorKind.CAPUTO, 2.0, 0.0)

    @pytest.mark.parametrize("beta", [0.9999999999999999, 1.0 - 1e-12, 1.0 + 1e-10, 2.0 - 1e-15])
    def test_orders_next_to_an_integer_rejected(self, beta):
        # -beta - 1 rounds to an integer, or keeps too few of beta's digits
        for kind in (OperatorKind.RL_DERIVATIVE, OperatorKind.CAPUTO):
            with pytest.raises(DomainError):
                OperatorSpec(kind, beta, 0.0)

    @pytest.mark.parametrize("beta", [1.0 - 1e-8, 1.0 + 1e-8])
    def test_orders_just_off_an_integer_keep_their_accuracy(self, sf, beta):
        got = evaluate_u(OperatorSpec(OperatorKind.RL_DERIVATIVE, beta, 0.0), lambda v: v**2, sf, 0.5)
        want = math.gamma(3.0) / math.gamma(3.0 - beta) * 0.5 ** (2.0 - beta)
        assert got == pytest.approx(want, rel=1e-7)

    def test_derivative_orders_above_two_rejected(self):
        # the quadratic rule needs beta < 2, and the Caputo Taylor stencils stop at n = 2
        for kind in (OperatorKind.RL_DERIVATIVE, OperatorKind.CAPUTO):
            with pytest.raises(DomainError):
                OperatorSpec(kind, 2.5, 0.0)
        assert OperatorSpec(OperatorKind.RL_INTEGRAL, 2.5, 0.0).n == 3

    def test_n_is_the_integer_ceiling(self):
        assert OperatorSpec(OperatorKind.RL_DERIVATIVE, 0.5, 0.0).n == 1
        assert OperatorSpec(OperatorKind.RL_DERIVATIVE, 1.5, 0.0).n == 2
        assert OperatorSpec(OperatorKind.CAPUTO, 1.2, 0.0).n == 2


class TestClassicalValuesOnIdentity:
    # oracle: mpmath closed forms for f(t) = t^2 from terminal 0 at x = 0.8
    def test_rl_integral(self, ident):
        spec = OperatorSpec(OperatorKind.RL_INTEGRAL, 0.5, 0.0)
        got = rl_integral(spec, lambda t: float(t) ** 2, ident, 0.8)
        assert got == pytest.approx(0.34449169367315252, rel=1e-4)

    def test_rl_derivative(self, ident):
        spec = OperatorSpec(OperatorKind.RL_DERIVATIVE, 0.5, 0.0)
        got = rl_derivative(spec, lambda t: float(t) ** 2, ident, 0.8)
        assert got == pytest.approx(1.0765365427286016, rel=1e-4)

    def test_caputo_above_order_one(self, ident):
        spec = OperatorSpec(OperatorKind.CAPUTO, 1.5, 0.0)
        got = caputo_derivative(spec, lambda t: float(t) ** 2, ident, 0.8)
        assert got == pytest.approx(2.018506017616128, rel=1e-3)


class TestUSpaceEntry:
    @pytest.mark.parametrize(
        "kind, beta, rule",
        [
            (OperatorKind.RL_INTEGRAL, 0.5, power_rule_integral),
            (OperatorKind.RL_DERIVATIVE, 0.5, power_rule_derivative),
            (OperatorKind.RL_DERIVATIVE, 1.5, power_rule_derivative),
            (OperatorKind.CAPUTO, 0.5, power_rule_derivative),
        ],
    )
    def test_u_native_power_against_rule(self, sf, kind, beta, rule):
        # g(u) = u^2 in closed form: no quantile, arrays evaluated in one call
        calls = []

        def g(u):
            calls.append(np.ndim(u))
            return u**2

        spec = OperatorSpec(kind, beta, 0.0)
        x = sf.quantile_exact(Fraction(4, 5))
        got = evaluate_u(spec, g, sf, sf.eval(x))
        assert got == pytest.approx(rule(beta, 2.0, sf, 0.0, x), rel=1e-3)
        assert 1 in calls

    def test_evaluate_is_evaluate_u_of_the_conjugate(self, sf):
        f = lambda t: float(sf.eval_exact(t)) ** 1.5
        x = sf.quantile_exact(Fraction(3, 5))
        for kind in OperatorKind:
            spec = OperatorSpec(kind, 0.5, 0.0)
            want = evaluate_u(spec, ConjugatedFn(f, sf), sf, sf.eval(x))
            assert evaluate(spec, f, sf, x) == want


class TestPowerRules:
    def test_integral_rule_against_operator(self, sf):
        beta, eta = 0.5, 2.0
        f = lambda t: float(sf.eval_exact(t)) ** eta
        spec = OperatorSpec(OperatorKind.RL_INTEGRAL, beta, 0.0)
        x = sf.quantile_exact(Fraction(4, 5))
        got = rl_integral(spec, f, sf, x)
        want = power_rule_integral(beta, eta, sf, 0.0, x)
        assert got == pytest.approx(want, rel=1e-3)

    def test_derivative_rule_against_operator(self, sf):
        beta, eta = 0.5, 2.0
        f = lambda t: float(sf.eval_exact(t)) ** eta
        spec = OperatorSpec(OperatorKind.RL_DERIVATIVE, beta, 0.0)
        x = sf.quantile_exact(Fraction(4, 5))
        got = rl_derivative(spec, f, sf, x)
        want = power_rule_derivative(beta, eta, sf, 0.0, x)
        assert got == pytest.approx(want, rel=1e-3)

    def test_zero_exponent_derivative(self, sf):
        # constant in S: the rule keeps the kernel tail S^(-beta)/Gamma(1-beta)
        x = sf.quantile_exact(Fraction(1, 2))
        want = 0.5**-0.5 / math.gamma(0.5)
        assert power_rule_derivative(0.5, 0.0, sf, 0.0, x) == pytest.approx(want, rel=1e-12)

    def test_gamma_pole_gives_zero(self, sf):
        # eta = beta - 1 hits the reciprocal Gamma zero: derivative vanishes
        got = power_rule_derivative(0.5, -0.5, sf, 0.0, sf.quantile_exact(Fraction(1, 2)))
        assert got == 0.0

    def test_validation(self, sf):
        with pytest.raises(DomainError):
            power_rule_integral(0.5, -1.0, sf, 0.0, 0.8)
        with pytest.raises(DomainError):
            power_rule_integral(-0.5, 1.0, sf, 0.0, 0.8)
        with pytest.raises(DomainError):
            power_rule_integral(0.5, 1.0, sf, 0.8, 0.2)


class TestOperatorBasics:
    def test_integral_at_terminal_is_zero(self, sf):
        spec = OperatorSpec(OperatorKind.RL_INTEGRAL, 0.5, 0.0)
        assert rl_integral(spec, lambda t: float(t) ** 2, sf, 0.0) == 0.0

    def test_derivative_at_terminal_rejected(self, sf):
        spec = OperatorSpec(OperatorKind.RL_DERIVATIVE, 0.5, 0.0)
        with pytest.raises(DomainError):
            rl_derivative(spec, lambda t: 1.0, sf, 0.0)

    def test_left_operator_rejects_points_before_terminal(self, sf):
        spec = OperatorSpec(OperatorKind.RL_INTEGRAL, 0.5, 0.5)
        with pytest.raises(DomainError):
            rl_integral(spec, lambda t: 1.0, sf, 0.2)

    def test_right_operator_rejects_points_after_terminal(self, sf):
        spec = OperatorSpec(OperatorKind.RL_INTEGRAL, 0.5, 0.5, side=Side.RIGHT)
        with pytest.raises(DomainError):
            rl_integral(spec, lambda t: 1.0, sf, 0.9)

    def test_kind_mismatch_rejected(self, sf):
        spec = OperatorSpec(OperatorKind.RL_DERIVATIVE, 0.5, 0.0)
        with pytest.raises(DomainError):
            rl_integral(spec, lambda t: 1.0, sf, 0.5)
        ispec = OperatorSpec(OperatorKind.RL_INTEGRAL, 0.5, 0.0)
        with pytest.raises(DomainError):
            rl_derivative(ispec, lambda t: 1.0, sf, 0.5)

    def test_evaluate_dispatch(self, sf):
        f = lambda t: float(sf.eval_exact(t)) ** 2
        x = sf.quantile_exact(Fraction(3, 4))
        for kind, direct in (
            (OperatorKind.RL_INTEGRAL, rl_integral),
            (OperatorKind.RL_DERIVATIVE, rl_derivative),
            (OperatorKind.CAPUTO, caputo_derivative),
        ):
            spec = OperatorSpec(kind, 0.5, 0.0)
            assert evaluate(spec, f, sf, x) == direct(spec, f, sf, x)

    def test_mirror_symmetry(self, ident):
        # left acting on f(t) at x equals right acting on f(1 - t) at 1 - x
        f = lambda t: 1.0 + float(t) ** 2
        for kind in OperatorKind:
            for beta in (0.3, 0.7, 1.4):
                left = OperatorSpec(kind, beta, 0.0, side=Side.LEFT)
                right = OperatorSpec(kind, beta, 1.0, side=Side.RIGHT)
                dl = evaluate(left, f, ident, 0.3)
                dr = evaluate(right, lambda t: f(1.0 - float(t)), ident, 0.7)
                # 1 - 0.7 is not 0.3 exactly, and for n = 2 the finite-part
                # weights next to the anchor, of size width^-beta, turn one
                # unit in the last place of g into about 1e-9 (2.8e-9 here)
                floor = 1e-8 if beta > 1.0 else 1e-12
                assert dl == pytest.approx(dr, rel=1e-10, abs=floor), (kind, beta)

    def test_caputo_matches_rl_when_zero_at_terminal(self, sf):
        f = lambda t: float(sf.eval_exact(t)) ** 2
        x = sf.quantile_exact(Fraction(3, 4))
        rspec = OperatorSpec(OperatorKind.RL_DERIVATIVE, 0.5, 0.0)
        cspec = OperatorSpec(OperatorKind.CAPUTO, 0.5, 0.0)
        rv = rl_derivative(rspec, f, sf, x)
        cv = caputo_derivative(cspec, f, sf, x)
        assert cv == pytest.approx(rv, rel=1e-3)

    def test_caputo_annihilates_constants(self, sf):
        spec = OperatorSpec(OperatorKind.CAPUTO, 0.5, 0.0)
        got = caputo_derivative(spec, lambda t: 4.2, sf, sf.quantile_exact(Fraction(1, 2)))
        assert got == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("beta", [0.5, 1.5])
    def test_caputo_refuses_a_non_finite_terminal_value(self, sf, beta):
        # u^-1/2 is inf at the terminal, so the Taylor head has no value there
        # (its remainder would be inf - inf on the whole mesh)
        spec = OperatorSpec(OperatorKind.CAPUTO, beta, 0.0)
        with np.errstate(divide="ignore"):
            with pytest.raises(DomainError, match="at the terminal"):
                evaluate_u(spec, lambda u: 1.0 / np.sqrt(u), sf, 0.5)

    @pytest.mark.parametrize("beta", [0.5, 1.5])
    def test_caputo_refuses_an_integrand_raising_at_the_terminal(self, sf, beta):
        # 1/S(x) divides by zero at the terminal 0, before the mesh is sampled
        spec = OperatorSpec(OperatorKind.CAPUTO, beta, 0.0)
        with pytest.raises(DomainError, match="^integrand raised at the terminal: float division by zero$") as info:
            caputo_derivative(spec, lambda x: 1 / sf.eval(x), sf, 0.5)
        assert isinstance(info.value.__cause__, ZeroDivisionError)

    def test_smooth_paths_do_not_warn(self, sf, ident):
        # no warning of any kind, on both maps, for every kind and both n
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in (sf, ident):
                for kind in OperatorKind:
                    for beta in (0.5, 1.5):
                        spec = OperatorSpec(kind, beta, 0.0)
                        evaluate(spec, lambda t, m=m: float(m.eval(t)) ** 2, m, 0.8)

    def test_right_side_integral(self, sf):
        # right integral of 1 is (S(1) - S(x))^beta / Gamma(beta + 1)
        spec = OperatorSpec(OperatorKind.RL_INTEGRAL, 0.5, 1.0, side=Side.RIGHT)
        x = sf.quantile_exact(Fraction(1, 4))
        got = rl_integral(spec, lambda t: 1.0, sf, x)
        assert got == pytest.approx(0.75**0.5 / math.gamma(1.5), rel=1e-6)

    @pytest.mark.parametrize(
        "kind, beta, eta",
        [
            (OperatorKind.RL_INTEGRAL, 0.5, 2.0),
            (OperatorKind.RL_INTEGRAL, 1.4, 1.5),
            (OperatorKind.RL_DERIVATIVE, 0.5, 2.0),
            (OperatorKind.RL_DERIVATIVE, 1.5, 2.5),
            (OperatorKind.CAPUTO, 0.7, 2.0),
            (OperatorKind.CAPUTO, 1.4, 2.5),
        ],
    )
    def test_right_side_power_rules(self, sf, kind, beta, eta):
        # I_{b-}^beta (S(b) - S)^eta = G(eta+1)/G(eta+beta+1) (S(b) - S(x))^(eta+beta),
        # with -beta for the derivatives; Caputo agrees with RL here because
        # the power and its first derivative vanish at the terminal
        order = beta if kind is OperatorKind.RL_INTEGRAL else -beta
        spec = OperatorSpec(kind, beta, 1.0, side=Side.RIGHT)
        f = lambda t: (1.0 - float(sf.eval_exact(t))) ** eta
        for u in (Fraction(1, 4), Fraction(3, 5)):
            x = sf.quantile_exact(u)
            want = math.gamma(eta + 1.0) / math.gamma(eta + order + 1.0) * float(1 - u) ** (eta + order)
            assert evaluate(spec, f, sf, x) == pytest.approx(want, rel=1e-3)

    def test_left_sided_values_keep_their_bits(self, sf, ident):
        # recorded when every value became one finite-part product integral
        # on the piecewise-quadratic rule; the closed rules are met to 1.3e-6
        # relative (1.4e-3 before). Per map, kind and order: x = 0.25, x = 0.8,
        # then u = 0.7. Each may move by an ulp or two with the CPU, as numpy's
        # power kernels behind the reference mesh and weights round
        # differently with and without AVX-512
        want = [
            # Cantor staircase
            0.5951166309271174, 1.1417120562861889, 1.0650199155364755,
            0.20834966082418968, 0.6521199533037219, 0.5871334886314138,
            1.0970648690366502, 1.5886178815248202, 1.4819094504085621,
            -0.15691972836447704, 1.7997984717836712, 1.5985778786240008,
            0.2255396217327862, 1.0528576644621206, 0.923505610727882,
            0.8070994917099005, 2.135728198072309, 1.966029885713618,
            # identity map
            0.49378472818039054, 1.2231842732228824, 1.0650199155364755,
            0.14233066205621886, 0.7210832958393586, 0.5871334886314138,
            1.1662907639596616, 1.7056222222703503, 1.4819094504085621,
            -0.8297394050683087, 1.9988106828160694, 1.5985778786240008,
            0.13056873194462768, 1.1902117627135176, 0.923505610727882,
            0.5714796903314321, 2.3077058378679616, 1.966029885713618,
        ]
        values = []
        for m in (sf, ident):
            f = lambda t, m=m: 1.0 + float(m.eval(t)) ** 2.5
            for kind in OperatorKind:
                for beta in (0.6, 1.3):
                    spec = OperatorSpec(kind, beta, 0.0)
                    for x in (0.25, 0.8):
                        values.append(evaluate(spec, f, m, x))
                    values.append(evaluate_u(spec, lambda u: 1.0 + u**2.5, m, 0.7))
        assert len(values) == len(want)
        for got, w in zip(values, want):
            assert abs(got - w) <= 2 * np.spacing(abs(w)), (got, w)


# -- one integrand call per grid ------------------------------------------------


def _reference_values(spec, g, sf, us):
    """One value per point as it was before grids shared a call, with none
    of the code under test: each point builds its own graded mesh, calls g
    on it (retrying past a raising terminal with a nan there), subtracts the
    fitted terminal power, and sums against its own weights, span^(mu + 1)
    times the product weights of the reference mesh."""
    right = spec.side is Side.RIGHT
    ua = -sf.eval(spec.terminal) if right else sf.eval(spec.terminal)
    h = (lambda t: g(-t)) if right else g
    order = spec.beta if spec.kind is OperatorKind.RL_INTEGRAL else -spec.beta
    mu = order - 1.0
    out = []
    for u in us:
        v = -u if right else u
        r = h
        if spec.kind is OperatorKind.CAPUTO:
            c0, c1 = nonlocal_ops._taylor_head(h, spec, ua)
            r = lambda w: h(w) - c0 - c1 * (w - ua)
        if v == ua:
            if order < 0.0:
                raise DomainError("derivative is not defined at the terminal itself")
            out.append(0.0)
            continue
        ref = quadrature._reference_mesh(_cells(ua, v))
        mesh = _graded_mesh(ua, v)
        try:
            vals = np.asarray(r(mesh), dtype=float)
        except ZeroDivisionError:
            vals = np.concatenate(([math.nan], r(mesh[1:])))
        head = 0.0
        if not math.isfinite(vals[0]):
            z = mesh - ua
            c, gamma, d = quadrature._terminal_power(z, vals)
            vals = np.concatenate(([d], vals[1:] - c * z[1:] ** gamma))
            s = gamma + mu + 2.0
            head = c * z[-1] ** (s - 1.0) * (math.gamma(gamma + 1.0) * math.gamma(mu + 1.0) / math.gamma(s))
        weights = (v - ua) ** (mu + 1.0) * quadrature.product_weights(ref, mu)
        out.append((float((weights * vals).sum()) + head) * rgamma(order))
    return out


def _cells(ua, u):
    # the cell count of a lone point's mesh, as test_core checks it
    nodes, _ = quadrature._graded_nodes(ua, (u,))
    return len(nodes) - 1


def _graded_mesh(ua, u):
    # ua + (u - ua) * ref on the reference mesh of the point's cell count, ending at u
    mesh = ua + (u - ua) * quadrature._reference_mesh(_cells(ua, u))
    mesh[-1] = u
    return mesh


def _outcome(run):
    # the values' bits, or the exception's type and message
    try:
        return [v.hex() for v in run()]
    except (DomainError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)


def _grid_integrand(name, m, ua):
    """An integrand of u whose terminal, at ua, is regular ("smooth", through
    the quantile of the map m), a blow-up ("blow-up", the fitted power) or
    raises ("raising", the nan retry)."""
    if name == "smooth":
        return ConjugatedFn(lambda t: 1.0 + abs(float(m.eval(t)) - ua) ** 2.5 + math.cos(float(m.eval(t))), m)

    def singular(u):
        if name == "raising" and (u == ua).any():
            raise ZeroDivisionError("float division by zero")
        with np.errstate(divide="ignore"):
            return 1.0 / np.sqrt(np.abs(u - ua)) + 1.0

    return singular


class TestGridSampling:
    @pytest.mark.parametrize("map_name", ["staircase", "identity"])
    @pytest.mark.parametrize("side", list(Side))
    @pytest.mark.parametrize("kind", list(OperatorKind))
    @given(
        integrand=st.sampled_from(["smooth", "blow-up", "raising"]),
        beta=st.sampled_from([0.4, 0.7, 1.3, 1.6]),
        ds=st.lists(st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1.0)), min_size=1, max_size=4),
    )
    @settings(max_examples=12, deadline=None)
    @example(integrand="raising", beta=0.7, ds=[0.5, 0.0, 1.0])
    @example(integrand="blow-up", beta=1.3, ds=[0.0, 0.25, 0.8])
    def test_values_keep_the_bits_of_one_product_integral_per_point(
        self, sf, ident, map_name, side, kind, integrand, beta, ds
    ):
        # ds are distances from the terminal, 0 being the terminal itself
        m = sf if map_name == "staircase" else ident
        terminal = 0.0 if side is Side.LEFT else 1.0
        spec = OperatorSpec(kind, beta, terminal, side)
        ua = m.eval(terminal)
        us = [ua + d if side is Side.LEFT else ua - d for d in ds]
        g = _grid_integrand(integrand, m, ua)
        got = _outcome(lambda: nonlocal_ops._values_u(spec, g, m, us))
        assert got == _outcome(lambda: _reference_values(spec, g, m, us))

    def test_one_call_samples_every_mesh(self, sf):
        # the shared terminal, then each point's mesh past it, in grid order
        calls = []

        def g(u):
            calls.append(u.copy())
            return np.cos(u)

        spec = OperatorSpec(OperatorKind.RL_DERIVATIVE, 0.5, 0.0)
        us = [0.3, 1.0, 0.6]
        nonlocal_ops._values_u(spec, g, sf, us)
        meshes = [_graded_mesh(0.0, u) for u in us]
        assert len(calls) == 1
        assert np.array_equal(calls[0], np.concatenate([[0.0]] + [mesh[1:] for mesh in meshes]))

    @pytest.mark.parametrize("kind", list(OperatorKind))
    def test_a_grid_is_one_product_rule_pass_and_one_terminal(self, sf, monkeypatch, kind):
        # 25 points: one product_integrate call with every point's end, and
        # the terminal's S evaluated once (g is in u, so no other sf.eval)
        calls, evals = [], []
        product_integrate = quadrature.product_integrate

        def counted(vals, nodes, mu, ends):
            calls.append(len(ends))
            return product_integrate(vals, nodes, mu, ends)

        class Counted:
            def eval(self, x):
                evals.append(x)
                return sf.eval(x)

        monkeypatch.setattr(quadrature, "product_integrate", counted)
        us = list(np.linspace(0.04, 1.0, 25))
        got = nonlocal_ops._values_u(OperatorSpec(kind, 0.7, 0.0), lambda u: np.exp(-u), Counted(), us)
        assert calls == [25] and evals == [0.0] and len(got) == 25

    def test_a_terminal_that_raises_is_a_nan_terminal(self, sf):
        # v^-1/2 + 1 blows up at the terminal v = 0: one g raises there, the
        # other returns nan; both get the fitted power, with the same bits
        calls = []

        def raising(u):
            calls.append(len(u))
            if u[0] == 0.0:
                raise ZeroDivisionError("float division by zero")
            return 1.0 / np.sqrt(u) + 1.0

        def nan_at_terminal(u):
            with np.errstate(divide="ignore"):
                return np.where(u == 0.0, np.nan, 1.0 / np.sqrt(u) + 1.0)

        spec = OperatorSpec(OperatorKind.RL_INTEGRAL, 0.5, 0.0)
        got = nonlocal_ops._values_u(spec, raising, sf, [0.6, 0.9])
        nodes = 1 + _cells(0.0, 0.6) + _cells(0.0, 0.9)
        assert calls == [nodes, nodes - 1]
        want = nonlocal_ops._values_u(spec, nan_at_terminal, sf, [0.6, 0.9])
        assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_an_interior_raise_is_a_domain_error(self, sf):
        # g divides by zero at an interior node of the second point: the
        # whole call and the call past the terminal both raise, and the
        # second error is the cause
        calls = []

        def g(u):
            calls.append(len(u))
            if ((u > 0.4) & (u < 0.6)).any():
                raise ZeroDivisionError("float division by zero")
            return np.cos(u)

        spec = OperatorSpec(OperatorKind.RL_DERIVATIVE, 0.5, 0.0)
        with pytest.raises(DomainError, match="past the terminal: float division by zero") as info:
            nonlocal_ops._values_u(spec, g, sf, [0.3, 1.0])
        assert isinstance(info.value.__cause__, ZeroDivisionError)
        nodes = 1 + _cells(0.0, 0.3) + _cells(0.0, 1.0)
        assert calls == [nodes, nodes - 1]

    @pytest.mark.parametrize(
        "kind, side, us, message",
        [
            (OperatorKind.RL_INTEGRAL, Side.LEFT, [0.8, 0.2, 0.9], "precedes the left terminal"),
            (OperatorKind.RL_DERIVATIVE, Side.LEFT, [0.8, 0.5, 0.9], "at the terminal itself"),
            (OperatorKind.CAPUTO, Side.RIGHT, [0.2, 0.8, 0.1], "follows the right terminal"),
        ],
        ids=["integral-precedes", "derivative-at-terminal", "caputo-follows"],
    )
    def test_a_grid_raises_its_first_failing_point(self, sf, kind, side, us, message):
        # the whole grid is checked before g is called on it; the Caputo
        # Taylor head, taken at the terminal, comes after the side check
        seen = []

        def g(u):
            seen.append(u.copy())
            return 1.0 + u * u

        spec = OperatorSpec(kind, 0.5, 0.5, side)
        with pytest.raises(DomainError, match=message):
            nonlocal_ops._values_u(spec, g, sf, us)
        assert seen == []

    def test_an_operator_nested_in_an_integrand_keeps_the_outer_grid(self, ident):
        # each inner value builds its own grid and so evicts the outer one
        # from the cache; the outer rule still takes the nodes it sampled,
        # with the bits of the same values sampled beforehand.
        # I^(1/2) D^(1/2) v^2 = v^2, so near 0.25 at u = 0.5
        derivative = OperatorSpec(OperatorKind.RL_DERIVATIVE, 0.5, 0.0)
        integral = OperatorSpec(OperatorKind.RL_INTEGRAL, 0.5, 0.0)

        def nested(v):
            return np.array([evaluate_u(derivative, lambda w: w * w, ident, x) if x != 0.0 else 0.0 for x in v])

        got = evaluate_u(integral, nested, ident, 0.5)
        sampled = nested(quadrature._graded_nodes(0.0, (0.5,))[0])
        assert got == evaluate_u(integral, lambda v: sampled, ident, 0.5)
        # recorded with numpy's AVX-512 kernels; without them it rounds 4 ulps higher
        want = float.fromhex("0x1.000000039bde4p-2")
        assert abs(got - want) <= 4 * np.spacing(want), got.hex()

    def test_an_integral_at_the_terminal_is_zero_among_other_points(self, sf):
        spec = OperatorSpec(OperatorKind.RL_INTEGRAL, 0.5, 0.0)
        g = lambda u: 1.0 + u * u
        got = nonlocal_ops._values_u(spec, g, sf, [0.4, 0.0, 0.9])
        assert got[1] == 0.0
        assert got[0] == evaluate_u(spec, g, sf, 0.4) and got[2] == evaluate_u(spec, g, sf, 0.9)


def _derivative(kind, beta, side):
    """The derivative spec of a composition on [0, 1], and the interval's other end."""
    terminal, end = (0.0, 1.0) if side is Side.LEFT else (1.0, 0.0)
    return OperatorSpec(kind, beta, terminal, side), end


RL, CAPUTO = OperatorKind.RL_DERIVATIVE, OperatorKind.CAPUTO


class TestCompositions:
    def test_rl_left_round_trip(self, sf):
        f = lambda t: float(sf.eval_exact(t)) ** 2
        spec, end = _derivative(RL, 0.5, Side.LEFT)
        assert composition_residual(spec, f, sf, end) < 5e-3

    def test_caputo_left_round_trip(self, sf):
        f = lambda t: float(sf.eval_exact(t)) ** 2
        spec, end = _derivative(CAPUTO, 0.5, Side.LEFT)
        assert composition_residual(spec, f, sf, end) < 5e-3

    @pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
    @pytest.mark.parametrize("name", ["exp(-S)", "S^2"])
    def test_rl_round_trip_with_f_nonzero_at_the_terminal(self, sf, side, name):
        # e^-S is 1 at the left terminal and S^2 at the right one; a boundary
        # term probed 1e-9 from a terminal where f is 1 is off by about
        # 1e-9^0.2 / Gamma(1.2) = 2e-2 unless f(terminal) is taken out first
        f = {"exp(-S)": lambda t: math.exp(-sf.eval(t)), "S^2": lambda t: sf.eval(t) ** 2}[name]
        spec, end = _derivative(RL, 0.8, side)
        assert composition_residual(spec, f, sf, end) < 1e-4

    def test_rl_above_order_one_needs_zero_at_terminal(self, sf):
        # S^2 vanishes at 0, so the left identity holds; at the right terminal
        # S(1)^2 = 1 leaves a non-integrable head
        f = lambda t: float(sf.eval_exact(t)) ** 2
        spec, end = _derivative(RL, 1.5, Side.LEFT)
        assert composition_residual(spec, f, sf, end) < 5e-3
        spec, end = _derivative(RL, 1.5, Side.RIGHT)
        with pytest.raises(DomainError):
            composition_residual(spec, f, sf, end)

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
    def test_caputo_below_order_one_is_the_rl_composition(self, sf, beta, side):
        # both compose on g - g(terminal), the remainder the Caputo
        # derivative takes the RL derivative of
        f = lambda t: math.exp(-sf.eval(t)) + sf.eval(t) ** 1.5
        rl, end = _derivative(RL, beta, side)
        caputo, _ = _derivative(CAPUTO, beta, side)
        assert composition_residual(rl, f, sf, end) == composition_residual(caputo, f, sf, end)

    def test_inner_derivative_singular_at_the_terminal(self, sf):
        # D^1.5 (S^1.5 + S) = Gamma(2.5) + u^-1/2 / Gamma(1/2) is singular at
        # the terminal; integrating a linear interpolant of its samples read
        # 1.25e-2, the product rule on the samples' own mesh 1.5e-5
        f = lambda t: sf.eval(t) ** 1.5 + sf.eval(t)
        spec, end = _derivative(RL, 1.5, Side.LEFT)
        assert composition_residual(spec, f, sf, end) < 1e-4

    @pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
    @pytest.mark.parametrize("beta", [1.3, 1.5])
    def test_caputo_above_order_one_round_trip(self, sf, side, beta):
        # the remainder drops the Taylor head's slope as well; S^2 is 1 at the
        # right terminal, where an RL kind above order 1 refuses it
        f = lambda t: sf.eval(t) ** 2
        spec, end = _derivative(CAPUTO, beta, side)
        assert composition_residual(spec, f, sf, end) < 1e-4

    def test_refuses_an_integral_spec(self, sf):
        spec = OperatorSpec(OperatorKind.RL_INTEGRAL, 0.5, 0.0)
        with pytest.raises(DomainError, match="derivative spec"):
            composition_residual(spec, lambda t: sf.eval(t) ** 2, sf, 1.0)

    @pytest.mark.parametrize("side, end", [(Side.LEFT, -0.5), (Side.RIGHT, 1.5)])
    def test_refuses_an_end_on_the_wrong_side(self, sf, side, end):
        # the terminal is 0.5 on either side; the other end lies past it
        spec = OperatorSpec(RL, 0.5, 0.5, side)
        with pytest.raises(DomainError, match="terminal"):
            composition_residual(spec, lambda t: sf.eval(t) ** 2, sf, end)

    @pytest.mark.parametrize("kind", [RL, CAPUTO])
    def test_refuses_an_integrand_raising_at_the_terminal(self, sf, kind):
        spec = OperatorSpec(kind, 0.5, 0.0)
        with pytest.raises(DomainError, match="^integrand raised at the terminal: float division by zero$") as info:
            composition_residual(spec, lambda x: 1 / sf.eval(x), sf, 1.0)
        assert isinstance(info.value.__cause__, ZeroDivisionError)

    @pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
    def test_refuses_an_interval_of_zero_staircase_measure(self, sf, side):
        # [0.4, 0.6] lies in the central gap, where S is 1/2 throughout
        terminal, end = (0.4, 0.6) if side is Side.LEFT else (0.6, 0.4)
        spec = OperatorSpec(CAPUTO, 0.5, terminal, side)
        with pytest.raises(DomainError, match="empty staircase measure"):
            composition_residual(spec, lambda t: sf.eval(t) ** 2, sf, end)


# -- the finite-part product rule against independent oracles -----------------

orders = st.floats(min_value=0.01, max_value=1.9).filter(lambda b: abs(b - 1.0) >= 1e-9)


def _exp_rule(order: float, u: float, skip: int = 0) -> float:
    """sum_k u^(k + order) / Gamma(k + 1 + order), k >= skip, at 30 digits.

    The RL operator of order `order` (negative for derivatives) of e^u from
    0; skipping the first n terms gives the Caputo derivative.
    """
    with mpmath.workdps(30):
        u = mpmath.mpf(u)
        return float(mpmath.nsum(lambda k: u ** (k + order) / mpmath.gamma(k + 1 + order), [skip, mpmath.inf]))


def _inner_integral(g, order: float, cells: int = 128):
    """v -> I^order g(v) for arrays of v, one product rule per element.

    Each mesh on [0, v] is v times one reference mesh, so the weights are
    v^order times the reference weights and a whole array of v is one
    broadcast product, not a loop over v.
    """
    ref = quadrature._reference_mesh(cells)
    weights = quadrature.product_weights(ref, order - 1.0) / math.gamma(order)

    def inner(v):
        v = np.asarray(v, dtype=float)
        return (g(v[..., None] * ref) * weights).sum(axis=-1) * v**order

    return inner


class TestFinitePartRule:
    @given(
        kind=st.sampled_from((OperatorKind.RL_INTEGRAL, OperatorKind.RL_DERIVATIVE)),
        beta=orders,
        eta=st.floats(min_value=0.0, max_value=3.0),
        u=st.floats(min_value=0.2, max_value=1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_u_native_powers_meet_the_closed_rules(self, sf, kind, beta, eta, u):
        # I^{+-beta} u^eta = Gamma(eta + 1) / Gamma(eta +- beta + 1) u^(eta +- beta),
        # on both sides of order 1. The floor is relative to the power before
        # its reciprocal Gamma factor, which vanishes at the rule's poles.
        order = beta if kind is OperatorKind.RL_INTEGRAL else -beta
        got = evaluate_u(OperatorSpec(kind, beta, 0.0), lambda v: v**eta, sf, u)
        power = math.gamma(eta + 1.0) * u ** (eta + order)
        want = power * rgamma(eta + order + 1.0)
        assert got == pytest.approx(want, rel=1e-4, abs=1e-5 * power)

    @pytest.mark.parametrize("beta", [0.3, 0.5, 1.3, 1.5])
    @pytest.mark.parametrize("kind", list(OperatorKind))
    def test_exponential_against_its_series(self, ident, kind, beta):
        # e^u is no power: its operators are the series of the term-wise rules
        spec = OperatorSpec(kind, beta, 0.0)
        order = beta if kind is OperatorKind.RL_INTEGRAL else -beta
        skip = spec.n if kind is OperatorKind.CAPUTO else 0
        for u in (0.2, 0.5, 1.0):
            want = _exp_rule(order, u, skip)
            assert evaluate_u(spec, np.exp, ident, u) == pytest.approx(want, rel=1e-5), u

    def test_exponential_series_matches_mpmath_differint(self):
        with mpmath.workdps(30):
            other = mpmath.differint(mpmath.exp, mpmath.mpf("0.7"), mpmath.mpf("0.5"))
        assert float(other) == pytest.approx(_exp_rule(-0.5, 0.7), rel=1e-15)

    def test_known_integral_miss_is_met(self, sf):
        # order 1.5 of S^2 at u = 1/5: 1.08e-3 relative under the linear rule
        spec = OperatorSpec(OperatorKind.RL_INTEGRAL, 1.5, 0.0)
        x = sf.quantile_exact(Fraction(1, 5))
        got = rl_integral(spec, lambda t: sf.eval(t) ** 2, sf, x)
        assert got == pytest.approx(power_rule_integral(1.5, 2.0, sf, 0.0, x), rel=1e-3)

    @given(
        a=st.floats(min_value=0.05, max_value=1.9),
        b=st.floats(min_value=0.05, max_value=1.9),
        c=st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=4, max_size=4),
        u=st.floats(min_value=0.2, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_semigroup(self, ident, a, b, c, u):
        # I^a I^b g = I^(a+b) g on a cubic; the inner integral carries a
        # v^b head at the terminal, as a power u^eta does in the test above
        def g(v):
            return c[0] + v * (c[1] + v * (c[2] + v * c[3]))

        outer = evaluate_u(OperatorSpec(OperatorKind.RL_INTEGRAL, a, 0.0), _inner_integral(g, b), ident, u)
        whole = evaluate_u(OperatorSpec(OperatorKind.RL_INTEGRAL, a + b, 0.0), g, ident, u)
        assert outer == pytest.approx(whole, rel=1e-4, abs=1e-5 * (1.0 + sum(map(abs, c))))

    @given(
        kind=st.sampled_from(list(OperatorKind)),
        beta=orders,
        p=st.floats(min_value=-3.0, max_value=3.0),
        q=st.floats(min_value=-3.0, max_value=3.0),
        u=st.floats(min_value=0.2, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    @example(kind=OperatorKind.RL_DERIVATIVE, beta=1.875, p=2.0, q=1.0, u=0.375)
    def test_linearity(self, sf, kind, beta, p, q, u):
        spec = OperatorSpec(kind, beta, 0.0)
        f, g = np.cos, (lambda v: v**2.5)
        both = evaluate_u(spec, lambda v: p * f(v) + q * g(v), sf, u)
        parts = p * evaluate_u(spec, f, sf, u) + q * evaluate_u(spec, g, sf, u)
        # exact but for rounding, which the finite-part weights next to the
        # anchor amplify by up to about width^-beta, on values of size up to
        # |p| + |q|: at the example the sides are 2.2e-6 apart
        assert both == pytest.approx(parts, rel=1e-6, abs=1e-6 * (1.0 + abs(p) + abs(q)))
