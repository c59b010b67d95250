"""Kernel-based nonlocal operators on the staircase coordinate."""

import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from fractalcalc import (
    CantorSpec,
    CompositionKind,
    DifferentiationNoiseWarning,
    DomainError,
    IdentityMap,
    OperatorKind,
    OperatorSpec,
    Side,
    StaircaseFn,
    caputo_derivative,
    composition_residual,
    conjugate,
    evaluate,
    evaluate_u,
    power_rule_derivative,
    power_rule_integral,
    rl_derivative,
    rl_integral,
)


@pytest.fixture(scope="module")
def sf():
    return StaircaseFn(CantorSpec())


@pytest.fixture(scope="module")
def ident():
    return IdentityMap()


def quiet(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DifferentiationNoiseWarning)
        return fn(*args)


class TestSpecValidation:
    def test_order_must_be_positive(self):
        with pytest.raises(DomainError):
            OperatorSpec(OperatorKind.RL_INTEGRAL, 0.0, 0.0)
        with pytest.raises(DomainError):
            OperatorSpec(OperatorKind.RL_DERIVATIVE, -0.5, 0.0)

    def test_integer_order_differentiation_rejected(self):
        with pytest.raises(DomainError):
            OperatorSpec(OperatorKind.RL_DERIVATIVE, 1.0, 0.0)
        with pytest.raises(DomainError):
            OperatorSpec(OperatorKind.CAPUTO, 2.0, 0.0)

    def test_mesh_controls(self):
        with pytest.raises(DomainError):
            OperatorSpec(OperatorKind.RL_INTEGRAL, 0.5, 0.0, nodes_per_unit=0)

    def test_derivative_orders_above_two_rejected(self):
        # the difference stencils stop at n = 2
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
        got = quiet(rl_derivative, spec, lambda t: float(t) ** 2, ident, 0.8)
        assert got == pytest.approx(1.0765365427286016, rel=1e-4)

    def test_caputo_above_order_one(self, ident):
        spec = OperatorSpec(OperatorKind.CAPUTO, 1.5, 0.0)
        got = quiet(caputo_derivative, spec, lambda t: float(t) ** 2, ident, 0.8)
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
        got = quiet(evaluate_u, spec, g, sf, sf.eval(x))
        assert got == pytest.approx(rule(beta, 2.0, sf, 0.0, x), rel=1e-3)
        assert 1 in calls

    def test_evaluate_is_evaluate_u_of_the_conjugate(self, sf):
        f = lambda t: float(sf.eval_exact(t)) ** 1.5
        x = sf.quantile_exact(Fraction(3, 5))
        for kind in OperatorKind:
            spec = OperatorSpec(kind, 0.5, 0.0)
            want = quiet(evaluate_u, spec, conjugate(f, sf), sf, sf.eval(x))
            assert quiet(evaluate, spec, f, sf, x) == want


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
        got = quiet(rl_derivative, spec, f, sf, x)
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
            quiet(rl_derivative, spec, lambda t: 1.0, sf, 0.0)

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
            quiet(rl_derivative, ispec, lambda t: 1.0, sf, 0.5)

    def test_evaluate_dispatch(self, sf):
        f = lambda t: float(sf.eval_exact(t)) ** 2
        x = sf.quantile_exact(Fraction(3, 4))
        for kind, direct in (
            (OperatorKind.RL_INTEGRAL, rl_integral),
            (OperatorKind.RL_DERIVATIVE, rl_derivative),
            (OperatorKind.CAPUTO, caputo_derivative),
        ):
            spec = OperatorSpec(kind, 0.5, 0.0)
            assert quiet(evaluate, spec, f, sf, x) == quiet(direct, spec, f, sf, x)

    def test_mirror_symmetry(self, ident):
        # left acting on f(t) at x equals right acting on f(1 - t) at 1 - x
        f = lambda t: 1.0 + float(t) ** 2
        for kind in OperatorKind:
            for beta in (0.3, 0.7, 1.4):
                left = OperatorSpec(kind, beta, 0.0, side=Side.LEFT)
                right = OperatorSpec(kind, beta, 1.0, side=Side.RIGHT)
                dl = quiet(evaluate, left, f, ident, 0.3)
                dr = quiet(evaluate, right, lambda t: f(1.0 - float(t)), ident, 0.7)
                # 1 - 0.7 is not 0.3 exactly, and for n = 2 one unit in the last
                # place of a stencil sample moves the result by about 1e-9
                floor = 1e-8 if beta > 1.0 else 1e-12
                assert dl == pytest.approx(dr, rel=1e-10, abs=floor), (kind, beta)

    def test_caputo_matches_rl_when_zero_at_terminal(self, sf):
        f = lambda t: float(sf.eval_exact(t)) ** 2
        x = sf.quantile_exact(Fraction(3, 4))
        rspec = OperatorSpec(OperatorKind.RL_DERIVATIVE, 0.5, 0.0)
        cspec = OperatorSpec(OperatorKind.CAPUTO, 0.5, 0.0)
        rv = quiet(rl_derivative, rspec, f, sf, x)
        cv = quiet(caputo_derivative, cspec, f, sf, x)
        assert cv == pytest.approx(rv, rel=1e-3)

    def test_caputo_annihilates_constants(self, sf):
        spec = OperatorSpec(OperatorKind.CAPUTO, 0.5, 0.0)
        got = quiet(caputo_derivative, spec, lambda t: 4.2, sf, sf.quantile_exact(Fraction(1, 2)))
        assert got == pytest.approx(0.0, abs=1e-8)

    def test_smooth_paths_do_not_warn(self, ident):
        spec = OperatorSpec(OperatorKind.RL_DERIVATIVE, 0.5, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DifferentiationNoiseWarning)
            rl_derivative(spec, lambda t: float(t) ** 2, ident, 0.8)

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
            assert quiet(evaluate, spec, f, sf, x) == pytest.approx(want, rel=1e-3)

    def test_left_sided_values_keep_their_bits(self, sf, ident):
        # SHA-256 of the reprs, recorded before right-sided operators became
        # reflections of the left-sided ones: the left path keeps every bit
        values = []
        for m in (sf, ident):
            f = lambda t, m=m: 1.0 + float(m.eval(t)) ** 2.5
            for kind in OperatorKind:
                for beta in (0.6, 1.3):
                    spec = OperatorSpec(kind, beta, 0.0)
                    for x in (0.25, 0.8):
                        values.append(quiet(evaluate, spec, f, m, x))
                    values.append(quiet(evaluate_u, spec, lambda u: 1.0 + u**2.5, m, 0.7))
        digest = hashlib.sha256(repr(values).encode()).hexdigest()
        assert digest == "3a9dbcb46cce72cc428062c809e22b50880750e5988668325d64e88d90c0feb1"


class TestCompositions:
    def test_rl_left_round_trip(self, sf):
        f = lambda t: float(sf.eval_exact(t)) ** 2
        res = composition_residual(CompositionKind.RL_LEFT, f, 0.5, sf, (0.0, 1.0))
        assert res < 5e-3

    def test_caputo_left_round_trip(self, sf):
        f = lambda t: float(sf.eval_exact(t)) ** 2
        res = composition_residual(CompositionKind.CAPUTO_LEFT, f, 0.5, sf, (0.0, 1.0))
        assert res < 5e-3

    def test_rl_above_order_one_needs_zero_at_terminal(self, sf):
        # S^2 vanishes at 0, so the left identity holds; at the right terminal
        # S(1)^2 = 1 leaves a non-integrable head
        f = lambda t: float(sf.eval_exact(t)) ** 2
        res = composition_residual(CompositionKind.RL_LEFT, f, 1.5, sf, (0.0, 1.0))
        assert res < 5e-3
        with pytest.raises(DomainError):
            composition_residual(CompositionKind.RL_RIGHT, f, 1.5, sf, (0.0, 1.0))
