"""Gamma, Beta and Mittag-Leffler evaluation."""

import math

import pytest

from fractalcalc import (
    CantorSpec,
    ConvergenceError,
    DomainError,
    GammaMode,
    PoleError,
    StaircaseFn,
    beta_fractal,
    beta_fractal_quadrature,
    gamma_classical,
    gamma_fractal,
    gamma_fractal_quadrature,
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
        got = gamma_fractal(1.0 / 3.0, mode=GammaMode.STAIRCASE_COMPOSED, sf=sf)
        assert got == pytest.approx(math.sqrt(math.pi), abs=1e-9)
        with pytest.raises(DomainError):
            gamma_fractal(0.5, mode=GammaMode.STAIRCASE_COMPOSED)

    def test_quadrature_cross_check(self):
        for t in (0.3, 0.5, 1.0, 1.7, 2.5):
            assert gamma_fractal_quadrature(t) == pytest.approx(gamma_fractal(t), rel=1e-10)

    def test_quadrature_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            gamma_fractal_quadrature(-0.5)

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

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            beta_fractal(0.0, 1.0)
        with pytest.raises(DomainError):
            beta_fractal(1.0, -0.5)


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

    def test_convergence_guard(self):
        with pytest.raises(ConvergenceError):
            mittag_leffler(0.05, 1.0, 30.0, max_terms=8, z_max=50.0)

    def test_params_validation(self):
        with pytest.raises(DomainError):
            mittag_leffler(0.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            mittag_leffler(0.5, 1.0, 0.5, tol=-1.0)
        with pytest.raises(DomainError):
            mittag_leffler(0.5, 1.0, 0.5, max_terms=0)
        with pytest.raises(DomainError):
            mittag_leffler(0.5, 1.0, 0.5, z_max=0.0)
        assert mittag_leffler(0.5, 0.5, 0.0) == pytest.approx(1.0 / math.sqrt(math.pi))
