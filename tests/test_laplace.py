"""Symbolic transform algebra, rule slots, inversion and numerics."""

import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalcalc import (
    ConvergenceError,
    DomainError,
    IdentityMap,
    LaplaceExpr,
    LaplaceTerm,
    OperatorKind,
    OperatorSpec,
    TailBoundError,
    evaluate_inverse,
    gamma_classical,
    invert_terms,
    laplace_numeric,
    mittag_leffler,
    rl_integral,
    solve_resolvent,
    transform_caputo,
    transform_power,
    transform_rl_derivative,
    transform_rl_integral,
)
from fractalcalc import laplace, quadrature


# orders in (0, 1], (1, 2) and at 2, where the rules have one or two slots
_ORDERS = (Fraction(1, 2), Fraction(4, 3), Fraction(3, 2), Fraction(2))


def expr_value(expr, sigma):
    return expr.value(sigma)


class TestTermAlgebra:
    def test_power_transform(self):
        e = transform_power(Fraction(1, 2))
        (t,) = e.terms
        assert t.coeff == pytest.approx(gamma_classical(1.5))
        assert t.p == Fraction(-3, 2)
        assert t.is_pure_power

    def test_constant_transform(self):
        (t,) = transform_power(0).scaled(3.0).terms
        assert t.coeff == 3.0
        assert t.p == Fraction(-1)

    def test_power_transform_rejects_low_exponent(self):
        with pytest.raises(DomainError):
            transform_power(Fraction(-1))

    def test_sums_keep_every_term_in_order(self):
        # like terms stay apart: + and - concatenate, - negating each term
        a, b = transform_power(1), transform_power(Fraction(1, 2))
        mixed = a + b + a
        assert mixed.terms == a.terms + b.terms + a.terms
        assert (mixed - b).terms == mixed.terms + b.scaled(-1.0).terms
        assert (mixed - b).terms[-1].coeff == -b.terms[0].coeff
        e = a + a
        z = e - e
        assert [(t.coeff, t.p) for t in z.terms] == [(1.0, -2), (1.0, -2), (-1.0, -2), (-1.0, -2)]
        for sigma in (0.5, 2.0, 7.0):
            assert z.value(sigma) == 0.0

    def test_shift_and_scale(self):
        e = transform_power(2).shifted(Fraction(1, 2)).scaled(-2.0)
        (t,) = e.terms
        assert t.p == Fraction(-5, 2)
        assert t.coeff == pytest.approx(-2.0 * gamma_classical(3.0))

    def test_float_exponents_become_fractions(self):
        t = LaplaceTerm(1.0, 0.5, 1.5)
        assert type(t.p) is Fraction and t.p == Fraction(1, 2)
        assert type(t.q) is Fraction and t.q == Fraction(3, 2)

    def test_denominator_validation(self):
        with pytest.raises(DomainError):
            LaplaceTerm(1.0, Fraction(0), Fraction(-1), 1.0)

    def test_value_guards(self):
        t = LaplaceTerm(1.0, Fraction(-1), Fraction(1, 2), 1.0)
        with pytest.raises(DomainError):
            t.value(0.0)
        with pytest.raises(DomainError):
            t.value(1.0)  # sigma^(1/2) - 1 = 0
        assert t.value(4.0) == pytest.approx(0.25)


class TestRules:
    def test_integral_rule_shifts_down(self):
        e = transform_rl_integral(transform_power(Fraction(1, 2)), Fraction(1, 2))
        (t,) = e.terms
        assert t.p == Fraction(-2)

    def test_derivative_rule_with_data(self):
        # sigma^beta F - c_j sigma^(j - 1): slot j takes the order beta - j
        # datum, and a datum of order o lands at sigma^(beta - 1 - o)
        for beta in _ORDERS:
            n = math.ceil(beta)
            data = [2.0 + j for j in range(n)]
            e = transform_rl_derivative(transform_power(0), beta, data=data)
            shifted, *known = e.terms
            assert (shifted.coeff, shifted.p) == (1.0, beta - 1)
            orders = [beta - j for j in range(1, n + 1)]
            assert [(t.coeff, t.p) for t in known] == [
                (-c, beta - 1 - o) for c, o in zip(data, orders)
            ]
            assert [t.p for t in known] == [Fraction(j) for j in range(n)]
            assert transform_rl_derivative(LaplaceExpr.zero(), beta, data).terms == tuple(known)

    def test_caputo_rule_with_data(self):
        # sigma^beta F - c_j sigma^(beta - j): slot j takes the order j - 1
        # datum, and a datum of order o lands at sigma^(beta - 1 - o)
        for beta in _ORDERS:
            n = math.ceil(beta)
            data = [3.0 + j for j in range(n)]
            e = transform_caputo(transform_power(0), beta, data=data)
            shifted, *known = e.terms
            assert (shifted.coeff, shifted.p) == (1.0, beta - 1)
            orders = [Fraction(j - 1) for j in range(1, n + 1)]
            assert [(t.coeff, t.p) for t in known] == [
                (-c, beta - 1 - o) for c, o in zip(data, orders)
            ]
            assert [t.p for t in known] == [beta - j for j in range(1, n + 1)]
            assert transform_caputo(LaplaceExpr.zero(), beta, data).terms == tuple(known)

    def test_too_much_data_rejected(self):
        for beta in _ORDERS:
            data = [1.0] * (math.ceil(beta) + 1)
            for rule in (transform_caputo, transform_rl_derivative):
                with pytest.raises(DomainError, match=f"at most {len(data) - 1} data values"):
                    rule(LaplaceExpr.zero(), beta, data=data)

    def test_nonpositive_order_rejected(self):
        with pytest.raises(DomainError):
            transform_rl_integral(transform_power(0), Fraction(0))
        with pytest.raises(DomainError):
            transform_rl_derivative(transform_power(0), -1)


class TestResolventAndInversion:
    def test_resolvent_divides_pure_powers(self):
        r = solve_resolvent(transform_power(0), Fraction(1, 2), -1.0)
        (t,) = r.terms
        assert (t.p, t.q, t.lam) == (Fraction(-1), Fraction(1, 2), -1.0)

    def test_resolvent_rejects_nested(self):
        nested = LaplaceExpr.of(LaplaceTerm(1.0, Fraction(-1), Fraction(1, 2), 1.0))
        with pytest.raises(DomainError):
            solve_resolvent(nested, Fraction(1, 2), -1.0)

    def test_pure_power_round_trip(self):
        for eta in (Fraction(0), Fraction(1, 2), Fraction(2), Fraction(-1, 2)):
            inv = invert_terms(transform_power(eta))
            got = evaluate_inverse(inv, 0.7)
            assert got == pytest.approx(0.7 ** float(eta), rel=1e-12)

    def test_resolvent_inverts_to_ml_term(self):
        # 1 / (sigma (sigma^(1/2) - lam)) pairs with S^(1/2) E_{1/2,3/2}(lam S^(1/2))
        r = solve_resolvent(transform_power(0), Fraction(1, 2), -1.0)
        (term,) = invert_terms(r)
        assert (term.power, term.ml_eta, term.ml_nu) == (
            Fraction(1, 2),
            Fraction(1, 2),
            Fraction(3, 2),
        )
        u = 0.36
        want = math.sqrt(u) * mittag_leffler(0.5, 1.5, -math.sqrt(u))
        assert evaluate_inverse([term], u) == pytest.approx(want, rel=1e-12)

    def test_improper_fraction_rejected(self):
        bad = LaplaceExpr.of(LaplaceTerm(1.0, Fraction(1), Fraction(1, 2), -1.0))
        with pytest.raises(DomainError):
            invert_terms(bad)

    def test_evaluate_inverse_at_zero(self):
        # the list form, which solution values and figures use
        const = invert_terms(transform_power(0).scaled(2.0))
        assert evaluate_inverse(const, [0.0])[0] == pytest.approx(2.0)
        assert evaluate_inverse(const, np.array([0.0]))[0] == pytest.approx(2.0)
        singular = invert_terms(LaplaceExpr.of(LaplaceTerm(1.0, Fraction(-1, 2))))
        with pytest.raises(DomainError):
            evaluate_inverse(singular, [0.0])

    def test_inverse_of_a_power_image(self):
        terms = invert_terms(transform_power(2))
        assert evaluate_inverse(terms, 0.5) == pytest.approx(0.25, rel=1e-12)

    def test_evaluate_inverse_on_arrays(self):
        # power and resolvent terms, as example 4 inverts them
        q = Fraction(4, 3)
        terms = invert_terms(
            solve_resolvent(transform_power(2) + transform_power(0).scaled(1.0).shifted(1), q, -0.5)
        ) + invert_terms(transform_power(Fraction(1, 2)))
        u = np.array([0.0, 1e-9, 0.01, 0.3, 0.99, 1.7])
        got = evaluate_inverse(terms, u)
        assert got.shape == u.shape
        for v, value in zip(u, got):
            assert value == pytest.approx(evaluate_inverse(terms, float(v)), rel=1e-13)

    def test_inverse_terms_keep_exact_exponents_and_their_bits(self):
        q = Fraction(4, 3)
        terms = invert_terms(
            solve_resolvent(transform_power(2) + transform_power(0).scaled(1.0).shifted(1), q, -0.5)
        ) + invert_terms(transform_power(Fraction(1, 2)))
        for t in terms:
            assert all(type(v) is Fraction for v in (t.power, t.ml_eta, t.ml_nu) if v is not None)
            for u in (0.01, 0.3, 1.7, np.array([0.2, 0.9])):
                # the per-call conversion the term used to make
                want = t.coeff * u ** float(t.power)
                if t.ml_eta is not None:
                    z = t.lam * u ** float(t.ml_eta)
                    want = want * mittag_leffler(float(t.ml_eta), float(t.ml_nu), z)
                assert np.array_equal(t.evaluate_u(u), want)

    def test_evaluate_inverse_array_at_zero(self):
        # an integrand array is +-inf where a negative power meets 0 (nan for
        # a zero coefficient), without a warning, and finite elsewhere
        singular = invert_terms(LaplaceExpr.of(LaplaceTerm(1.0, Fraction(-1, 2))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scale, want in ((1.0, math.inf), (-1.0, -math.inf), (0.0, math.nan)):
                terms = invert_terms(LaplaceExpr.of(LaplaceTerm(scale, Fraction(-1, 2))))
                got = evaluate_inverse(terms, np.array([0.5, 0.0]))
                assert got[0] == pytest.approx(scale / math.sqrt(0.5 * math.pi))
                assert got[1] == want or (math.isnan(want) and math.isnan(got[1]))
        assert np.isfinite(evaluate_inverse(singular, np.array([0.5, 1e-300]))).all()


class TestNumericTransform:
    def test_power_against_rule(self, sf):
        # oracle: mpmath, L{S^(1/2)}(2) = Gamma(3/2) 2^(-3/2) = 0.31332853432887506
        got = laplace_numeric(lambda x: sf.eval(x) ** 0.5, sf, 2.0)
        assert got == pytest.approx(0.31332853432887506, rel=1e-10)

    def test_constant(self, sf):
        assert laplace_numeric(lambda x: 1.0, sf, 3.0) == pytest.approx(1.0 / 3.0, rel=1e-10)

    def test_identity_degeneration(self):
        got = laplace_numeric(lambda x: float(x) ** 2, IdentityMap(), 2.0)
        assert got == pytest.approx(0.25, rel=1e-10)

    def test_symbolic_matches_numeric(self, sf):
        for sigma in (1.0, 2.0, 5.0):
            want = expr_value(transform_power(Fraction(2)), sigma)
            got = laplace_numeric(lambda x: sf.eval(x) ** 2, sf, sigma)
            assert got == pytest.approx(want, rel=1e-9)

    def test_sigma_validation(self, sf):
        with pytest.raises(DomainError):
            laplace_numeric(lambda x: 1.0, sf, 0.0)

    def test_tail_bound_guard(self, sf):
        with pytest.raises(TailBoundError):
            laplace_numeric(lambda x: math.exp(2.0 * sf.eval(x)), sf, 1.0)

    def test_a_tail_bound_past_the_largest_float_raises_no_numpy_warning(self, sf):
        # at sigma = 1e-300 the bound's division by sigma overflows to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TailBoundError, match="^tail bound inf "):
                laplace_numeric(sf.eval, sf, 1e-300)

    @pytest.mark.parametrize("eta", [2.2, 3.0])
    def test_a_tail_above_tol_but_small_beside_a_large_transform_is_kept(self, sf, eta):
        # at sigma = 0.1 the tail bound exceeds tol = 1e-9 (1.3e-9 at eta = 2.2)
        # but is 3.5e-13 to 2.5e-12 of the transform; the tail truncated past
        # u = 364 is 1.3e-12 of it at eta = 3. Oracle: Gamma(eta + 1) / sigma^(eta + 1)
        got = laplace_numeric(lambda x: sf.eval(x) ** eta, sf, 0.1)
        assert got == pytest.approx(math.gamma(eta + 1.0) / 0.1 ** (eta + 1.0), rel=5e-12)

    def test_one_tanh_sinh_rule_and_no_gauss_panels(self, sf, monkeypatch):
        calls = []
        tanh_sinh = quadrature.tanh_sinh

        def counted(g, lo, hi, *args, **kwargs):
            calls.append((lo, hi))
            return tanh_sinh(g, lo, hi, *args, **kwargs)

        monkeypatch.setattr(quadrature, "tanh_sinh", counted)
        monkeypatch.setattr(quadrature, "gauss_composite", lambda *a, **k: pytest.fail("Gauss panels called"))
        for sigma in (1.0, 2.0, 5.0):
            laplace_numeric(lambda x: sf.eval(x) ** 1.3, sf, sigma)
        assert calls == [(0.0, 40.0), (0.0, 22.0), (0.0, 11.2)]

    @pytest.mark.parametrize("k", [1, 3, 8, 20, 50, 100, 149, 150])
    def test_oscillating_integrand(self, sf, k):
        # oracle: L{cos(k S)} = sigma / (sigma^2 + k^2), L{sin(k S)} = k / (sigma^2 + k^2)
        for sigma in (1.0, 2.0, 5.0):
            cos = laplace_numeric(lambda x: math.cos(k * sf.eval(x)), sf, sigma)
            sin = laplace_numeric(lambda x: math.sin(k * sf.eval(x)), sf, sigma)
            assert abs(cos - sigma / (sigma**2 + k**2)) <= 1e-14
            assert abs(sin - k / (sigma**2 + k**2)) <= 1e-14

    @given(st.floats(0.0, 3.0), st.floats(0.5, 30.0))
    @settings(max_examples=60, deadline=None)
    def test_power_rule_to_twelve_digits(self, sf, eta, sigma):
        # oracle: mpmath, L{S^eta}(sigma) = Gamma(eta + 1) / sigma^(eta + 1)
        want = float(mpmath.gamma(mpmath.mpf(eta) + 1) / mpmath.mpf(sigma) ** (mpmath.mpf(eta) + 1))
        got = laplace_numeric(lambda x: sf.eval(x) ** eta, sf, sigma)
        assert got == pytest.approx(want, rel=1e-12)

    def test_a_small_transform_is_converged_relative_to_itself(self, sf):
        # L{S}(10) = 0.01: a gap test made absolute by max(1, |value|) would
        # stop a level early, 4e-9 off
        assert abs(laplace_numeric(sf.eval, sf, 10.0) - 0.01) <= 1e-13

    @pytest.mark.parametrize("k", [149, 150])
    @pytest.mark.parametrize("fn", [math.cos, math.sin], ids=["cos", "sin"])
    def test_cosine_and_sine_too_fast_for_the_levels_raise(self, sf, fn, k):
        with pytest.raises(ConvergenceError, match="no two levels agree"):
            laplace_numeric(lambda x: fn(k * sf.eval(x)), sf, 0.5)

    def test_tail_that_vanishes_at_the_truncation_point_is_refused(self, sf):
        # sin^2(pi S / 40) e^(0.99 S) at sigma = 1 is 0 at the truncation
        # point u = 40 but e^(-0.6) at u = 60; its transform is 49.798, of
        # which [0, 40] holds 16.417
        with pytest.raises(TailBoundError, match="tail bound"):
            laplace_numeric(lambda x: math.sin(math.pi * sf.eval(x) / 40.0) ** 2 * math.exp(0.99 * sf.eval(x)), sf, 1.0)

    def test_integrand_with_a_zero_at_the_truncation_point(self, sf):
        # (S - 40)^2 and sin^2(pi S / 40) vanish at u = 40 but their tails are
        # below 1e-16: oracles 1600 - 80 + 2 and (1 - 1 / (1 + (pi / 20)^2)) / 2
        got = laplace_numeric(lambda x: (sf.eval(x) - 40.0) ** 2, sf, 1.0)
        assert got == pytest.approx(1522.0, rel=1e-14)
        got = laplace_numeric(lambda x: math.sin(math.pi * sf.eval(x) / 40.0) ** 2, sf, 1.0)
        assert got == pytest.approx((1.0 - 1.0 / (1.0 + (math.pi / 20.0) ** 2)) / 2.0, rel=1e-13)

    def test_tail_probe_is_one_call(self, sf, monkeypatch):
        shapes = []

        class Counted(laplace.ConjugatedFn):
            def __call__(self, u):
                shapes.append(u.shape)
                return super().__call__(u)

        monkeypatch.setattr(laplace, "ConjugatedFn", Counted)
        monkeypatch.setattr(quadrature, "tanh_sinh", lambda g, lo, hi: 0.0)
        laplace_numeric(sf.eval, sf, 2.0)
        assert shapes == [(6,)]

    def test_levels_that_never_agree_raise(self, sf):
        # x^2 conjugated is Q(u)^2, which jumps at every dyadic u, so no two
        # levels agree on its transform
        with pytest.raises(ConvergenceError, match="no two levels agree"):
            laplace_numeric(lambda x: float(x) ** 2, sf, 2.0)


class TestInversionConsistency:
    def test_resolvent_terms_round_trip_through_numeric(self, sf):
        # invariant: numeric transform of the inverted function returns the
        # expression value, checked at three probe points; at sigma = 1.35 the
        # Mittag-Leffler factor is inside its series cap of 50 up to the
        # truncation point u = 36/sigma + 4 but not at 1.1 times it
        numerator = LaplaceExpr.of(LaplaceTerm(1.0, _p := Fraction(0))) + transform_power(2)
        expr = solve_resolvent(numerator, Fraction(4, 3), -0.5)
        terms = invert_terms(expr)
        for sigma in (1.35, 2.0, 4.0):
            want = expr_value(expr, sigma)
            got = laplace_numeric(lambda x: evaluate_inverse(terms, sf.eval(x)), sf, sigma)
            assert got == pytest.approx(want, rel=1e-3)


def power_convolution(k, f, sf, x):
    """(S^k * f)(x), u-space convolution with S^k, as k! times the order k + 1 RL integral."""
    spec = OperatorSpec(OperatorKind.RL_INTEGRAL, k + 1, 0.0)
    return math.factorial(k) * rl_integral(spec, f, sf, x)


class TestConvolution:
    def test_matches_closed_form(self, sf):
        # S * S at a staircase point: (S^1 * S^1)(u) = u^3 / 6
        x = float(sf.quantile_exact(Fraction(1, 2)))
        got = power_convolution(1, lambda t: sf.eval(t), sf, x)
        assert got == pytest.approx(0.5**3 / 6.0, rel=1e-8)

    def test_commutes(self, sf):
        x = float(sf.quantile_exact(Fraction(3, 4)))
        a = power_convolution(1, lambda t: sf.eval(t) ** 2, sf, x)
        b = power_convolution(2, lambda t: sf.eval(t), sf, x)
        assert a == pytest.approx(b, rel=1e-8)

    def test_transform_of_convolution_is_product(self, sf):
        # L{S * S}(sigma) = (Gamma(2) sigma^-2)^2 via the closed cube
        sigma = 2.0
        got = laplace_numeric(lambda x: sf.eval(x) ** 3 / 6.0, sf, sigma)
        want = expr_value(transform_power(1), sigma) ** 2
        assert got == pytest.approx(want, rel=1e-9)

