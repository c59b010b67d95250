"""Gamma, Beta and Mittag-Leffler evaluation."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalcalc import (
    CantorSpec,
    ConvergenceError,
    DomainError,
    IdentityMap,
    PoleError,
    StaircaseFn,
    beta_fractal,
    beta_fractal_quadrature,
    gamma_classical,
    gamma_fractal,
    mittag_leffler,
    ml_half_half_closed,
    ml_special_case_residuals,
    rgamma,
)


class TestGamma:
    def test_reference_values(self):
        # oracle: mpmath.gamma, dps=30
        assert gamma_fractal(0.5) == pytest.approx(1.7724538509055160, rel=1e-14)
        assert gamma_fractal(1.0) == 1.0
        assert gamma_fractal(4.0) == pytest.approx(6.0, rel=1e-14)
        assert gamma_fractal(0.25) == pytest.approx(3.6256099082219083, rel=1e-13)

    def test_reflection_negative_argument(self):
        # oracle: Gamma(-0.5) = -2 sqrt(pi)
        assert gamma_fractal(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-13)

    def test_poles(self):
        for t in (0.0, -1.0, -2.0, -17.0):
            with pytest.raises(PoleError):
                gamma_fractal(t)

    def test_staircase_composed_mode(self):
        sf = StaircaseFn(CantorSpec())
        # S(1/3) = 1/2, so the composed variant evaluates Gamma(1/2)
        got = gamma_fractal(1.0 / 3.0, sf)
        assert got == pytest.approx(math.sqrt(math.pi), abs=1e-9)
        assert gamma_fractal(0.5, IdentityMap()) == gamma_fractal(0.5) == math.gamma(0.5)

    def test_quadrature_cross_check(self):
        # oracle: mpmath.quad of the Euler integral of u^(t-1) e^(-u); at
        # 30 digits its endpoint singularity for t = 0.3 leaves 6e-11
        for t in (0.3, 0.5, 1.0, 1.7, 2.5):
            with mpmath.workdps(50):
                want = mpmath.quad(lambda u: u ** (t - 1) * mpmath.exp(-u), [0, 1, mpmath.inf])
            assert gamma_fractal(t) == pytest.approx(float(want), rel=1e-10)

    def test_rgamma_is_entire(self):
        assert rgamma(-1.0) == 0.0
        assert rgamma(0.0) == 0.0
        assert rgamma(0.5) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)

    def test_classical_alias(self):
        assert gamma_classical(5.0) == pytest.approx(24.0, rel=1e-14)


class TestBeta:
    def test_reference_values(self):
        # oracle: B(1/2, 3/2) = pi/2, B(1, 1) = 1, B(2, 3) = 1/12
        assert beta_fractal(0.5, 1.5) == pytest.approx(math.pi / 2.0, rel=1e-13)
        assert beta_fractal(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert beta_fractal(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-13)

    def test_symmetry(self):
        assert beta_fractal(0.7, 2.2) == pytest.approx(beta_fractal(2.2, 0.7), rel=1e-13)

    def test_gamma_relation(self):
        r, s = 0.8, 1.3
        want = gamma_fractal(r) * gamma_fractal(s) / gamma_fractal(r + s)
        assert beta_fractal(r, s) == pytest.approx(want, rel=1e-13)

    def test_quadrature_cross_check(self):
        for r, s in ((0.5, 0.5), (0.5, 1.5), (1.0, 2.0), (2.5, 0.3), (0.1, 0.1)):
            assert beta_fractal_quadrature(r, s) == pytest.approx(beta_fractal(r, s), rel=1e-10)

    @given(st.floats(0.05, 5.0), st.floats(0.05, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_quadrature_to_fourteen_digits(self, r, s):
        # oracle: mpmath's Beta, the Gamma ratio
        assert beta_fractal_quadrature(r, s) == pytest.approx(float(mpmath.beta(r, s)), rel=1e-14)

    def test_quadrature_small_argument(self):
        # below r = 0.046, u^(r - 1) overflows at denormal u. At r = 0.04 the
        # mass past the overflow is negligible; at r = 0.01 it is 7.6e-4 of
        # Beta(0.01, 0.5) = 101.380 (mpmath), which the quadrature must not drop
        assert beta_fractal_quadrature(0.04, 1.0) == pytest.approx(25.0, rel=1e-12)
        with pytest.raises(ConvergenceError):
            beta_fractal_quadrature(0.01, 0.5)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            beta_fractal(0.0, 1.0)
        with pytest.raises(DomainError):
            beta_fractal(1.0, -0.5)

    @pytest.mark.parametrize(
        "beta", [beta_fractal, beta_fractal_quadrature], ids=["closed", "quadrature"]
    )
    @pytest.mark.parametrize(
        "r, s", [(1.0, math.inf), (math.inf, 1.0), (1.0, math.nan), (math.nan, 2.0)]
    )
    def test_rejects_non_finite(self, beta, r, s):
        # B(1, inf) gave nan in closed form and 1.4e-17 by quadrature
        with pytest.raises(DomainError, match="positive finite arguments"):
            beta(r, s)

    @pytest.mark.parametrize("r, s", [(1.0, 1e-320), (1e-320, 1e-320), (1.7e308, 1.7e308)])
    def test_overflow_raises_domain_error(self, r, s):
        # 1/s overflows below s = 5.6e-309; lgamma overflows near the largest float
        with pytest.raises(DomainError, match=r"^beta\(.*\) overflows$") as exc:
            beta_fractal(r, s)
        assert isinstance(exc.value.__cause__, OverflowError)


class TestMittagLeffler:
    def test_frozen_oracles(self):
        # oracle: mpmath series summation, dps=30
        assert mittag_leffler(0.5, 0.5, 0.7) == pytest.approx(2.4812810553406779, rel=1e-12)
        assert mittag_leffler(4.0 / 3.0, 4.0 / 3.0, -0.5) == pytest.approx(
            0.82623321805363235, rel=1e-12
        )
        assert mittag_leffler(4.0 / 3.0, 13.0 / 3.0, -0.5) == pytest.approx(
            0.10103722208428719, rel=1e-12
        )
        assert mittag_leffler(4.0 / 3.0, 5.0 / 6.0, -0.5) == pytest.approx(
            0.49287074512154104, rel=1e-12
        )

    def test_classical_special_cases(self):
        assert mittag_leffler(1.0, 1.0, 1.3) == pytest.approx(math.exp(1.3), rel=1e-14)
        assert mittag_leffler(2.0, 1.0, 2.25) == pytest.approx(math.cosh(1.5), rel=1e-14)
        assert mittag_leffler(1.0, 2.0, 0.5) == pytest.approx(math.expm1(0.5) / 0.5, rel=1e-14)
        assert mittag_leffler(2.0, 2.0, 2.25) == pytest.approx(math.sinh(1.5) / 1.5, rel=1e-14)

    def test_at_zero(self):
        assert mittag_leffler(0.7, 1.0, 0.0) == 1.0
        assert mittag_leffler(0.7, 2.5, 0.0) == pytest.approx(rgamma(2.5), rel=1e-14)

    def test_against_direct_series(self):
        # independent loop, no log-space bookkeeping
        eta, nu, z = 0.8, 1.2, -0.9
        acc = 0.0
        for k in range(60):
            acc += z**k * rgamma(eta * k + nu)
        assert mittag_leffler(eta, nu, z) == pytest.approx(acc, rel=1e-13)

    def test_erfc_closed_form(self):
        # oracle: E_{1/2,1/2}(z) = z e^{z^2} erfc(-z) + 1/sqrt(pi)
        for z in (-1.2, -0.3, 0.4, 1.5):
            want = z * math.exp(z * z) * math.erfc(-z) + 1.0 / math.sqrt(math.pi)
            assert ml_half_half_closed(z) == pytest.approx(want, rel=1e-14)
            assert mittag_leffler(0.5, 0.5, z) == pytest.approx(want, rel=1e-10)

    def test_special_case_residuals_small(self):
        worst = max(ml_special_case_residuals([-0.8, -0.1, 0.2, 0.9]).values())
        assert worst < 1e-12

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            mittag_leffler(0.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            mittag_leffler(-0.3, 1.0, 0.5)
        with pytest.raises(DomainError):
            mittag_leffler(0.5, 0.5, 100.0)
        with pytest.raises(DomainError):
            mittag_leffler(1.0, -180.5, 0.5)  # 1/Gamma(nu) overflows

    @pytest.mark.parametrize("z", [0.0, 0.5, np.array([0.0, 0.5])], ids=["zero", "half", "array"])
    def test_eta_must_be_finite(self, z):
        # an infinite eta gave 0.0 at z = 0, not 1/Gamma(nu), and elsewhere
        # "series did not settle in 0 terms"
        with pytest.raises(DomainError, match="eta=inf"):
            mittag_leffler(math.inf, 1.0, z)

    def test_convergence_guard(self):
        with pytest.raises(ConvergenceError):
            mittag_leffler(0.05, 1.0, 30.0)

    def test_params_validation(self):
        with pytest.raises(DomainError):
            mittag_leffler(0.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            mittag_leffler(0.5, 1.0, 0.5, tol=-1.0)
        assert mittag_leffler(0.5, 0.5, 0.0) == pytest.approx(1.0 / math.sqrt(math.pi))


# (eta, nu) pairs of the worked examples (3: (1/2, 1/2); 4: eta = 4/3 with
# nu = 4/3, 5/6, 13/3) and the exp and sinh-ratio cases.
_ML_PARAMS = ((0.5, 0.5), (4 / 3, 4 / 3), (4 / 3, 5 / 6), (4 / 3, 13 / 3), (1.0, 1.0), (2.0, 2.0))


def _abs_term_sum(eta, nu, z):
    """Sum of |z^k / Gamma(eta k + nu)| over the first 512 terms."""
    if z == 0.0:
        return abs(rgamma(nu))
    total = 0.0
    for k in range(512):
        a = eta * k + nu
        if a <= 0.0 and a == math.floor(a):
            continue
        total += math.exp(k * math.log(abs(z)) - math.lgamma(a))
    return total


def _rounding_bound(eta, nu, z):
    # eight units of the last place of the largest partial sums
    return 8.0 * 2.0**-52 * _abs_term_sum(eta, nu, z)


def _ml_mpmath(eta, nu, z):
    """The series at 60 digits, summed until the terms fall below 1e-65."""
    with mpmath.workdps(60):
        eta, nu, z = mpmath.mpf(eta), mpmath.mpf(nu), mpmath.mpf(z)
        acc = mpmath.mpf(0)
        k = 0
        while True:
            term = z**k * mpmath.rgamma(eta * k + nu)
            acc += term
            if k > 20 and abs(term) < mpmath.mpf(10) ** -65:
                return float(acc)
            k += 1


class TestMittagLefflerArray:
    @given(
        params=st.sampled_from(_ML_PARAMS),
        zs=st.lists(st.floats(min_value=-10.5, max_value=3.0), min_size=1, max_size=24),
        zero_at=st.integers(min_value=0, max_value=24),
        # a loose tol makes the tail terms the stopping rule drops large
        # enough to see, so a different rule cannot hide under rounding
        tol=st.sampled_from((1e-15, 1e-9, 1e-4)),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_loop(self, params, zs, zero_at, tol):
        # one rule and one Horner sum serve both: equal to the last bit, and
        # the array raises exactly when some element's scalar call raises
        eta, nu = params
        zs.insert(zero_at % (len(zs) + 1), 0.0)
        want = []
        for z in zs:
            try:
                want.append(mittag_leffler(eta, nu, z, tol=tol))
            except ConvergenceError:
                want.append(None)
        if None in want:
            with pytest.raises(ConvergenceError):
                mittag_leffler(eta, nu, np.array(zs), tol=tol)
            return
        got = mittag_leffler(eta, nu, np.array(zs), tol=tol)
        assert got.shape == (len(zs),)
        assert got.tolist() == want

    @pytest.mark.parametrize(
        "eta, nu, lo, hi",
        [(0.5, 0.5, -1.0, 1.0)]
        + [(4 / 3, nu, -10.5, 3.0) for nu in (4 / 3, 5 / 6, 13 / 3)]
        + [(1.0, 1.0, -10.0, 3.0), (2.0, 1.0, -10.0, 3.0)],
    )
    def test_against_mpmath_on_example_ranges(self, eta, nu, lo, hi):
        # example 3 reaches z = -+S^(1/2) <= 1 in size; example 4 z = lam S^(4/3)
        # with lam in [-10, 2]; exp and cos(sqrt(-z)) on the same range. The
        # dropped terms are each at most tol = 1e-15 in size.
        zs = np.append(np.linspace(lo, hi, 41), 0.0)
        got = mittag_leffler(eta, nu, zs)
        for z, value in zip(zs, got):
            want = _ml_mpmath(eta, nu, z)
            bound = _rounding_bound(eta, nu, z) + 1e-15 * max(1.0, abs(want))
            assert abs(value - want) <= bound

    def test_cancellation_that_needs_too_many_terms_raises(self):
        # E_{1/2,1/2}(-10) is 2.78e-3; its terms reach 1e43, and the running
        # relative stop used to return -1.62e29 from the garbage partial sum
        with pytest.raises(ConvergenceError):
            mittag_leffler(0.5, 0.5, -10.0)
        with pytest.raises(ConvergenceError):
            mittag_leffler(0.5, 0.5, np.array([0.5, -10.0]))

    def test_poles_do_not_stop_the_series(self):
        # E_{1,-20}(z) = z^21 e^z: its first 21 terms are poles (zero)
        for z in (5.0, -2.0):
            assert mittag_leffler(1.0, -20.0, z) == pytest.approx(z**21 * math.exp(z), rel=1e-13)

    def test_small_terms_before_the_peak_do_not_stop_the_series(self):
        # with nu = 30 the terms at k = 16, 17 are below 1e-20, but they
        # grow again past e^300 before k = 512: no value is trustworthy
        with pytest.raises(ConvergenceError, match="did not settle"):
            mittag_leffler(0.05, 30.0, math.e)

    def test_coefficients_below_the_float_range_are_not_summed(self):
        # E_{0.8,1}(50) needs terms with Gamma arguments above 171, whose
        # reciprocals are not normal floats
        with pytest.raises(ConvergenceError, match="did not settle"):
            mittag_leffler(0.8, 1.0, 50.0)
        assert mittag_leffler(0.8, 1.0, 20.0) == pytest.approx(
            _ml_mpmath(0.8, 1.0, 20.0), rel=1e-13
        )

    @pytest.mark.parametrize(
        "eta, nu, z",
        [(20.0, 1.0, 1.0), (20.0, 1.0, 50.0), (20.0, 1.0, -50.0), (11.0, 1.0, 0.5),
         (11.0, 1.0, -30.0), (15.0, 0.5, 10.0), (30.0, 2.0, -50.0)],
    )
    def test_a_large_eta_sums_the_terms_the_rule_needs(self, eta, nu, z):
        # the stopping rule needs 18 terms, and at a large eta the later ones
        # pass Gamma(171); the table keeps them, each 0 where its true value
        # is below 50^17 / Gamma(171) ~ 2e-278
        want = _ml_mpmath(eta, nu, z)
        assert abs(mittag_leffler(eta, nu, z) - want) <= 1e-15 * abs(want)
        got = mittag_leffler(eta, nu, np.array([z, 0.0, -z]))
        assert got.tolist() == [mittag_leffler(eta, nu, v) for v in (z, 0.0, -z)]

    @pytest.mark.parametrize("eta, nu, z", [(0.5, 165.0, 50.0), (0.5, 165.0, 30.0), (0.5, 171.0, -50.0)])
    def test_terms_past_the_float_range_still_bound_the_stop(self, eta, nu, z):
        # the terms past Gamma(171) are summed as 0, but at a small eta they
        # keep growing past k = 17, so their true lgamma must stop the rule
        with pytest.raises(ConvergenceError, match="did not settle in 18 terms"):
            mittag_leffler(eta, nu, z)
        with pytest.raises(ConvergenceError, match="did not settle in 18 terms"):
            mittag_leffler(eta, nu, np.array([1.0, z]))

    def test_shape_is_kept(self):
        z = np.array([[0.0, -0.5], [0.25, 1.5]])
        got = mittag_leffler(4 / 3, 4 / 3, z)
        assert got.shape == (2, 2)
        assert got[0, 0] == rgamma(4 / 3)
        assert isinstance(mittag_leffler(4 / 3, 4 / 3, -0.5), float)

    def test_one_element_past_the_cap_raises(self):
        z = np.array([0.0, 1.0, -50.5, 2.0])
        with pytest.raises(DomainError):
            mittag_leffler(0.5, 0.5, z)
        assert np.isfinite(mittag_leffler(0.5, 0.5, z[[0, 1, 3]])).all()

    def test_one_element_that_overflows_raises(self):
        # the scalar loop overflows at z = 30; 0.5 does not
        assert math.isfinite(mittag_leffler(0.05, 1.0, 0.5))
        with pytest.raises(ConvergenceError, match="overflows"):
            mittag_leffler(0.05, 1.0, 30.0)
        with pytest.raises(ConvergenceError, match="overflows for z=30.0"):
            mittag_leffler(0.05, 1.0, np.array([0.5, 30.0]))

    def test_one_element_that_does_not_settle_raises(self):
        # E_{1/2,1/2} stops past the end of its 1/Gamma table beyond |z| = 7.16
        with pytest.raises(ConvergenceError, match="did not settle"):
            mittag_leffler(0.5, 0.5, 8.0)
        with pytest.raises(ConvergenceError, match="did not settle in 342 terms for z=8.0"):
            mittag_leffler(0.5, 0.5, np.array([0.0, 8.0]))
