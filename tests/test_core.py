"""Staircase derivative, staircase integral, conjugation, growth function."""

import math
import struct
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalcalc import (
    CantorSpec,
    ConjugatedFn,
    ConvergenceError,
    DomainError,
    GridFunction,
    IdentityMap,
    StaircaseFn,
    f_alpha_derivative,
    f_alpha_integral,
    rgamma,
)
from fractalcalc import quadrature, staircase
from fractalcalc.core import difference


@pytest.fixture(scope="module")
def sf():
    return StaircaseFn(CantorSpec())


def stieltjes_sum(f, sf, a, b, n: int = 4096) -> float:
    """Direct Riemann-Stieltjes midpoint sum of f against S on an x-partition.

    Converges far slower than the conjugated quadrature; kept as an
    independent cross-check of the substitution.
    """
    xs = np.linspace(float(a), float(b), n + 1)
    s_vals = np.array([sf.eval(x) for x in xs])
    mids = 0.5 * (xs[:-1] + xs[1:])
    f_vals = np.array([float(f(x)) for x in mids])
    if not np.isfinite(f_vals).all():
        raise ValueError("integrand returned a non-finite value")
    return float(f_vals @ np.diff(s_vals))


class TestIntegral:
    def test_staircase_moments(self, sf):
        # oracle: self-similarity recursion m_k = (1/2)(m_k/3^k + sum_j C(k,j) 2^(k-j) m_j / 3^k)
        # gives integral of x dS = 1/2, x^2 dS = 3/8, x^3 dS = 5/16
        assert f_alpha_integral(lambda x: float(x), sf, 0, 1) == pytest.approx(0.5, abs=1e-12)
        assert f_alpha_integral(lambda x: float(x) ** 2, sf, 0, 1) == pytest.approx(0.375, abs=1e-12)
        assert f_alpha_integral(lambda x: float(x) ** 3, sf, 0, 1) == pytest.approx(0.3125, abs=1e-12)

    def test_sine_against_characteristic_function(self, sf):
        # oracle: mpmath, E[sin X] = Im(e^{it/2} prod_k cos(t 3^-k)) at t = 1
        got = f_alpha_integral(lambda x: math.sin(float(x)), sf, 0, 1)
        assert got == pytest.approx(0.44989550021787822, abs=1e-12)
        got = f_alpha_integral(lambda x: math.cos(float(x)), sf, 0, 1)
        assert got == pytest.approx(0.82352818920250782, abs=1e-12)

    def test_polynomial_in_staircase_coordinate(self, sf):
        # integral of S(x)^2 dS(x) over [0,1] is integral of u^2 du = 1/3;
        # the conjugated integrand is exactly u^2 so u-space panels nail it
        f = lambda x: float(sf.eval_exact(x)) ** 2
        got = f_alpha_integral(f, sf, 0, 1, method="gauss")
        assert got == pytest.approx(1.0 / 3.0, abs=1e-14)
        got_default = f_alpha_integral(lambda x: sf.eval(x) ** 2, sf, 0, 1)
        assert got_default == pytest.approx(1.0 / 3.0, abs=1e-7)

    def test_additivity_and_reversed_bounds(self, sf):
        f = lambda x: float(x) ** 2
        whole = f_alpha_integral(f, sf, 0, 1)
        left = f_alpha_integral(f, sf, 0, Fraction(1, 3))
        right = f_alpha_integral(f, sf, Fraction(2, 3), 1)
        assert left + right == pytest.approx(whole, abs=1e-12)
        with pytest.raises(DomainError):
            f_alpha_integral(f, sf, 1, 0)

    def test_gap_contributes_nothing(self, sf):
        got = f_alpha_integral(lambda x: float(x) ** 5, sf, Fraction(1, 3), Fraction(2, 3))
        assert got == pytest.approx(0.0, abs=1e-15)

    def test_tiling_cell(self, sf):
        # over [1, 2] the measure is the unit cell shifted by one:
        # integral of (1 + t)^2 dmu(t) = 1 + 2 m1 + m2 = 1 + 1 + 3/8
        got = f_alpha_integral(lambda x: float(x) ** 2, sf, 1, 2)
        assert got == pytest.approx(2.375, abs=1e-12)

    def test_identity_degeneration(self):
        ident = IdentityMap()
        got = f_alpha_integral(lambda x: float(x) ** 2, ident, 0, 2)
        assert got == pytest.approx(8.0 / 3.0, rel=1e-12)
        with pytest.raises(DomainError):
            f_alpha_integral(lambda x: 1.0, ident, 0, 1, method="measure")

    def test_u_space_methods_agree(self, sf):
        f = lambda x: math.sin(float(x))
        ref = 0.44989550021787822
        assert f_alpha_integral(f, sf, 0, 1, n=2048, method="gauss") == pytest.approx(ref, abs=1e-4)

    def test_bad_method(self, sf):
        with pytest.raises(DomainError):
            f_alpha_integral(lambda x: 1.0, sf, 0, 1, method="simpson")


class TestStieltjesSum:
    def test_matches_conjugated_integral(self, sf):
        f = lambda x: float(x) ** 2
        direct = stieltjes_sum(f, sf, 0, 1, n=8192)
        assert direct == pytest.approx(0.375, abs=1e-3)

    def test_constant(self, sf):
        assert stieltjes_sum(lambda x: 1.0, sf, 0, 1, n=256) == pytest.approx(1.0, abs=1e-12)


class TestDerivative:
    def test_power_of_staircase_on_the_set(self, sf):
        # d/dS of S(x)^2 = 2 S(x); at x = 2/3, S = 1/2
        got = f_alpha_derivative(lambda x: float(sf.eval_exact(x)) ** 2, sf, Fraction(2, 3))
        assert got == pytest.approx(1.0, abs=1e-4)

    def test_linear_in_staircase(self, sf):
        got = f_alpha_derivative(lambda x: 3.0 * float(sf.eval_exact(x)), sf, Fraction(1, 3))
        assert got == pytest.approx(3.0, abs=1e-6)

    def test_zero_off_the_set(self, sf):
        assert f_alpha_derivative(lambda x: float(x), sf, Fraction(1, 2)) == 0.0
        assert f_alpha_derivative(lambda x: float(x), sf, Fraction(2, 5)) == 0.0

    def test_identity_degeneration(self):
        ident = IdentityMap()
        got = f_alpha_derivative(lambda x: float(x) ** 3, ident, 0.5)
        assert got == pytest.approx(0.75, abs=1e-8)


class TestFundamentalTheorem:
    def test_derivative_of_running_integral(self, sf):
        # F(x) = integral_0^x S dS = S(x)^2 / 2, so dF/dS = S(x)
        f = lambda t: float(sf.eval_exact(t))
        big_f = lambda x: f_alpha_integral(f, sf, 0, x)
        x = Fraction(1, 3)
        assert f_alpha_derivative(big_f, sf, x, h=1e-5) == pytest.approx(0.5, abs=1e-4)


class TestConjugate:
    def test_pulls_back_through_quantile(self, sf):
        g = ConjugatedFn(lambda x: float(x), sf)
        assert isinstance(g, ConjugatedFn)
        half, zero, one = g(np.array([0.5, 0.0, 1.0]))
        assert half == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert zero == 0.0
        assert one == 1.0

    def test_round_trip_on_staircase_values(self, sf):
        g = ConjugatedFn(lambda x: float(sf.eval_exact(x)) ** 2, sf)
        assert g(np.array([0.25]))[0] == pytest.approx(1.0 / 16.0, abs=1e-12)

    def test_staircase_integrand_reads_no_digits(self, sf, monkeypatch):
        digits, quantiles = [], []
        kernel, quantile = staircase._unit_staircase_scaled, StaircaseFn.quantile_exact
        monkeypatch.setattr(
            staircase, "_unit_staircase_scaled", lambda *a: digits.append(a) or kernel(*a)
        )
        monkeypatch.setattr(
            StaircaseFn, "quantile_exact", lambda self, v: quantiles.append(v) or quantile(self, v)
        )
        u = np.concatenate([[0.0, 0.1, 0.5, 2.0 / 3.0, 1.0, 1.9], np.linspace(0.0, 3.0, 994)])
        u = u.reshape(2, 500)
        got = ConjugatedFn(lambda x: sf.eval(x) ** 1.5, sf)(u)
        # the whole array takes one batch quantile and reads no digit
        assert not digits and not quantiles
        # the same integrand on equal but distinct Fractions reads the digits
        want = [sf.eval(Fraction(sf.quantile_exact(v))) ** 1.5 for v in u.flat]
        assert len(digits) == len(quantiles) == u.size
        assert all(_same_bits(a, b) for a, b in zip(got.flat, want))

    @pytest.mark.parametrize("depth, dtype", [(80, np.float64), (53, np.float32)])
    def test_array_elements_reach_the_quantile_as_floats(self, monkeypatch, depth, dtype):
        # past the batch depth, and for other dtypes, each element reaches the
        # scalar quantile as a Python float
        seen = []
        quantile = StaircaseFn.quantile_exact
        monkeypatch.setattr(
            StaircaseFn, "quantile_exact", lambda self, v: seen.append(type(v)) or quantile(self, v)
        )
        sf = StaircaseFn(CantorSpec(depth))
        ConjugatedFn(lambda x: float(x), sf)(np.linspace(0.0, 1.0, 6, dtype=dtype).reshape(2, 3))
        assert seen == [float] * 6

    def test_array_call_is_the_elementwise_call(self, sf):
        # each element is f at the scalar quantile of that element
        f = lambda x: math.sin(float(x))
        u = np.array([[0.0, 0.1, 0.5], [0.75, 1.0, 1.9]])
        got = ConjugatedFn(f, sf)(u)
        assert got.shape == u.shape
        for v, value in zip(u.flat, got.flat):
            assert _same_bits(value, f(sf.quantile_exact(float(v))))

    def test_refused_element_after_the_calls_before_it(self, sf):
        # f sees the elements before a refused one, then the scalar error rises
        seen = []
        f = lambda x: seen.append(x) or 0.0
        g = ConjugatedFn(f, sf)
        u = np.array([0.25, 1.5, math.nan, 0.5])
        with pytest.raises(DomainError) as scalar:
            [f(sf.quantile_exact(v)) for v in u.tolist()]
        scalar_seen, seen[:] = list(seen), []
        with pytest.raises(DomainError) as batched:
            g(u)
        assert seen == scalar_seen == [sf.quantile_exact(0.25), sf.quantile_exact(1.5)]
        assert str(batched.value) == str(scalar.value)


class TestGridFunction:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridFunction(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            GridFunction(np.array([0.0, 1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            GridFunction(np.array([0.0, 1.0]), np.array([1.0, math.nan]))

    def test_validation_raises_domain_error(self):
        # the CLI reports a DomainError on one line; a bare ValueError escaped
        # as a traceback
        with pytest.raises(DomainError, match="strictly ascending"):
            GridFunction(np.array([0.9, 0.5, 0.1]), np.array([1.0, 2.0, 3.0]))

    def test_length(self):
        gf = GridFunction(np.array([0.0, 1.0, 2.0]), np.array([1.0, -4.0, 2.0]))
        assert len(gf) == 3


# -- reference stencils ----------------------------------------------------------
# The three hand-written copies of the second-order stencil that `difference`
# replaced, kept unchanged as the references it must match bit for bit.


def _ref_core(g, u, h, s):
    # f_alpha_derivative's inline forms (first derivative only)
    if s > 0:
        return (-3.0 * g(u) + 4.0 * g(u + h) - g(u + 2.0 * h)) / (2.0 * h)
    if s < 0:
        return (3.0 * g(u) - 4.0 * g(u - h) + g(u - 2.0 * h)) / (2.0 * h)
    return (g(u + h) - g(u - h)) / (2.0 * h)


def _ref_forward_diff(F, u, h, direction):
    s = direction
    return s * (-3.0 * F(u) + 4.0 * F(u + s * h) - F(u + 2.0 * s * h)) / (2.0 * h)


def _ref_central_diff(F, u, h):
    return (F(u + h) - F(u - h)) / (2.0 * h)


def _same_bits(got, want, zero_sign_may_differ=False):
    # The nonlocal copies negated the sum of the backward first difference,
    # so an exactly cancelling stencil gave -0.0 there and +0.0 in core.
    if zero_sign_may_differ and got == want == 0.0:
        return True
    return struct.pack("<d", got) == struct.pack("<d", want)


def _on_arrays(fn):
    """The array integrand that applies the scalar fn to each element."""
    return lambda w: np.array([fn(x) for x in w.tolist()])


coefficients = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


class TestDifferenceStencil:
    @given(
        c=st.tuples(coefficients, coefficients, coefficients, coefficients),
        k=st.floats(min_value=0.1, max_value=20.0),
        v=st.floats(min_value=-3.0, max_value=3.0),
        h=st.floats(min_value=1e-7, max_value=0.5),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_the_replaced_copies(self, c, k, v, h):
        # the references call the scalar g point by point; difference calls
        # the same g on each element of its stencil array
        def g(w):
            return c[0] + c[1] * w + c[2] * math.sin(k * w) + c[3] * math.exp(-w * w)

        arr = _on_arrays(g)
        for s in (1.0, -1.0):
            assert _same_bits(
                difference(arr, v, h, s), _ref_forward_diff(g, v, h, s), zero_sign_may_differ=s < 0
            )
        assert _same_bits(difference(arr, v, h, 0.0), _ref_central_diff(g, v, h))
        for s in (1.0, -1.0, 0.0):
            assert _same_bits(difference(arr, v, h, s), _ref_core(g, v, h, s))

    def test_exact_cancellation_gives_positive_zero(self):
        def g(w):
            return np.full_like(w, 2.5)

        for s in (1.0, -1.0, 0.0):
            assert _same_bits(difference(g, 0.5, 1e-3, s), 0.0)

    @pytest.mark.parametrize("s", [1.0, -1.0, 0.0])
    def test_exact_on_quadratics(self, s):
        # every form is second order: on dyadic steps a quadratic's slope is exact
        def g(w):
            return 1.0 + 2.0 * w - 3.0 * w * w

        assert difference(g, 0.5, 0.25, s) == 2.0 - 6.0 * 0.5


# -- quadrature on whole meshes --------------------------------------------------
# The per-node loops that array evaluation replaced, kept as the reference: an
# opaque x-space f still goes through the quantile one node at a time, so the
# array calls must give the same bits.


def _ref_gauss_composite(g, lo, hi, nodes=64):
    xg, wg = quadrature._leggauss(max(2, int(nodes)))
    total = 0.0
    edges = quadrature._panel_edges(lo, hi)
    for a, b in zip(edges[:-1], edges[1:]):
        c, m = 0.5 * (b - a), 0.5 * (a + b)
        vals = np.array([g(np.array([m + c * t]))[0] for t in xg], dtype=float)
        total += c * float(wg @ vals)
    return total


def _ref_product_integrate(g, mesh, mu):
    vals = np.array([g(mesh[i : i + 1])[0] for i in range(len(mesh))])
    return float((quadrature._mesh_weights(mesh, mu) * vals).sum())


class TestWholeMeshQuadrature:
    @pytest.mark.parametrize("lo, hi, nodes", [(0.0, 1.0, 64), (0.3, 2.7, 16), (1.25, 1.5, 7)])
    def test_gauss_composite_same_bits(self, sf, lo, hi, nodes):
        g = ConjugatedFn(lambda x: math.sin(3.0 * float(x)) + float(sf.eval_exact(x)) ** 2, sf)
        assert _same_bits(quadrature.gauss_composite(g, lo, hi, nodes), _ref_gauss_composite(g, lo, hi, nodes))

    # "hi": the kernel is anchored at the mesh's last node
    @pytest.mark.parametrize("mu", [-0.5, -0.25, 0.5, 1.0 / 3.0], ids=lambda mu: f"hi-{mu}")
    def test_product_integrate_same_bits(self, sf, mu):
        g = ConjugatedFn(lambda x: math.exp(-float(x)) + float(sf.eval_exact(x)) ** 0.5, sf)
        for lo, hi, n in ((0.0, 1.0, 256), (0.2, 0.9, 37), (1.1, 2.0, 64)):
            mesh = quadrature.graded_mesh_two_sided(lo, hi, n)
            got = quadrature.product_integrate(g(mesh), mesh, mu)
            assert _same_bits(got, _ref_product_integrate(g, mesh, mu))


# -- the Gauss-Legendre and tanh-sinh kernels ------------------------------------


class _Counted:
    """An array integrand that records the shape of each call."""

    def __init__(self, fn):
        self.fn = fn
        self.shapes = []

    def __call__(self, u):
        self.shapes.append(np.shape(u))
        return self.fn(u)


def _levels_used(g, lo, hi):
    # the level tanh-sinh stops at is the least max_level that gives its
    # value; below it no two levels agree, which raises
    want = quadrature.tanh_sinh(g, lo, hi)
    for m in range(3, 14):
        try:
            if quadrature.tanh_sinh(g, lo, hi, max_level=m) == want:
                return m - 2
        except ConvergenceError:
            pass
    raise AssertionError("no max_level gives the default's value")


class TestKernels:
    def test_gauss_composite_off_integer_span(self):
        # oracle: the antiderivative e^-u (3 sin 3u - cos 3u) / 10
        def prim(u):
            return math.exp(-u) * (3.0 * math.sin(3.0 * u) - math.cos(3.0 * u)) / 10.0

        g = _Counted(lambda u: np.exp(-u) * np.cos(3.0 * u))
        got = quadrature.gauss_composite(g, 0.3, 4.7, 16)
        assert got == pytest.approx(prim(4.7) - prim(0.3), rel=1e-14)
        # five unit-aligned panels, [0.3, 1], [1, 2], ..., [4, 4.7], in one call
        assert g.shapes == [(5 * 16,)]

    @pytest.mark.parametrize(
        "fn, want",
        [
            (lambda u: u**-0.5, 2.0),
            (lambda u: u**-0.9 * np.exp(-u), float(mpmath.gammainc(0.1, 0, 1))),
            (np.log, -1.0),
        ],
        ids=["u^-0.5", "u^-0.9 e^-u", "log u"],
    )
    def test_tanh_sinh_endpoint_singularities(self, fn, want):
        # oracles: closed forms and the lower incomplete gamma function
        g = _Counted(fn)
        assert quadrature.tanh_sinh(g, 0.0, 1.0) == pytest.approx(want, rel=1e-14)
        assert all(len(shape) == 1 for shape in g.shapes)
        assert len(g.shapes) <= 2 * _levels_used(fn, 0.0, 1.0)

    @pytest.mark.parametrize("sigma", [1.0, 2.0, 5.0])
    def test_tanh_sinh_laplace_calls(self, sf, sigma):
        # the whole rule of laplace_numeric: a conjugated integrand on its
        # truncated range, one call per level
        f = ConjugatedFn(lambda x: float(sf.eval_exact(x)) ** 1.3, sf)
        g = _Counted(lambda u: np.exp(-sigma * u) * f(u))
        upper = 36.0 / sigma + 4.0
        quadrature.tanh_sinh(g, 0.0, upper)
        assert len(g.shapes) <= _levels_used(g.fn, 0.0, upper) <= 4

    @pytest.mark.parametrize(
        "fn, lo, hi",
        [
            (lambda u: u**-0.5, 0.0, 1.0),
            (lambda u: u**-0.9 * np.exp(-u), 0.0, 1.0),
            (np.log, 0.0, 1.0),
            (lambda u: (1.0 - u) ** -0.1, 0.0, 1.0),
            (lambda u: np.exp(-1.0 / u) * u**-3.0, 0.0, 1.0),
            (lambda u: np.exp(-2.0 * u) * u**0.5, 0.0, 22.0),
            (lambda u: np.exp(-10.0 * u) * u, 0.0, 7.6),
            (lambda u: np.exp(-2.0 * u) * np.cos(50.0 * u), 0.0, 22.0),
        ],
        ids=["u^-0.5", "u^-0.9 e^-u", "log u", "(1-u)^-0.1", "e^(-1/u) u^-3",
             "e^-2u u^0.5", "e^-10u u", "e^-2u cos 50u"],
    )
    def test_stop_rule_takes_no_more_levels_than_agreement(self, monkeypatch, fn, lo, hi):
        # with a gap power of inf only two agreeing levels stop the rule:
        # that rule is the reference
        got, levels = quadrature.tanh_sinh(fn, lo, hi), _levels_used(fn, lo, hi)
        monkeypatch.setattr(quadrature, "_TS_GAP_POWER", math.inf)
        want, agreement_levels = quadrature.tanh_sinh(fn, lo, hi), _levels_used(fn, lo, hi)
        assert levels <= agreement_levels
        assert got == pytest.approx(want, rel=1e-14)

    def test_stop_rule_saves_a_level_on_a_laplace_integrand(self, monkeypatch):
        g = lambda u: np.exp(-2.0 * u) * u**0.5
        levels = _levels_used(g, 0.0, 22.0)
        monkeypatch.setattr(quadrature, "_TS_GAP_POWER", math.inf)
        assert levels == _levels_used(g, 0.0, 22.0) - 1

    def test_tanh_sinh_freezes_an_overflowing_side(self):
        # oracle: the integral is 2/e. The first level's farthest nodes reach
        # u = 1e-275, where u^-3 overflows; that side freezes there, and the
        # mass it leaves behind, e^(-1/u) u^-3, is nil
        g = _Counted(lambda u: np.exp(-1.0 / u) * u**-3.0)
        assert quadrature.tanh_sinh(g, 0.0, 1.0) == pytest.approx(2.0 / math.e, rel=1e-14)
        # the side is walked on one-element arrays, never on bare floats
        assert (1,) in g.shapes and all(len(shape) == 1 for shape in g.shapes)

    def test_tanh_sinh_refuses_to_drop_mass_at_an_overflow(self):
        # u^-0.999 overflows where a third of its integral, 1000, is still ahead
        with pytest.raises(ConvergenceError, match="overflows at the lower endpoint"):
            quadrature.tanh_sinh(lambda u: u**-0.999, 0.0, 1.0)

    @pytest.mark.parametrize("p", [-0.96, -0.5])
    def test_tanh_sinh_refuses_to_drop_mass_at_a_nonzero_endpoint(self, p):
        # the nodes stop about 1e-16 short of 1.0; (1 - u)^-0.96 has a sixth of
        # its integral, 25, beyond them, and (1 - u)^-0.5 some 8e-9 of its 2
        with pytest.raises(ConvergenceError, match="float resolution at the upper endpoint"):
            quadrature.tanh_sinh(lambda u: (1.0 - u) ** p, 0.0, 1.0)

    def test_tanh_sinh_keeps_a_side_whose_lost_mass_is_negligible(self):
        # past the last node (1 - u)^-0.1 holds about 4e-15 of the integral
        got = quadrature.tanh_sinh(lambda u: (1.0 - u) ** -0.1, 0.0, 1.0)
        assert got == pytest.approx(1.0 / 0.9, rel=1e-14)

    def test_tanh_sinh_raises_when_no_two_levels_agree(self):
        # sin(1/u) oscillates ever faster toward 0, so no two levels settle
        # on its integral, sin 1 - Ci 1 = 0.504067
        with pytest.raises(ConvergenceError, match="no two levels agree"):
            quadrature.tanh_sinh(lambda u: np.sin(1.0 / u), 0.0, 1.0)

    def test_tanh_sinh_rejects_non_finite_values(self):
        with pytest.raises(ValueError, match="non-finite"):
            quadrature.tanh_sinh(lambda u: np.where(u > 0.7, np.nan, u), 0.0, 1.0)

    def test_non_finite_values_are_domain_errors(self):
        g = lambda u: np.where(u > 0.7, np.nan, u)
        mesh = quadrature.graded_mesh_two_sided(0.0, 1.0, 32)
        for run in (lambda: quadrature.tanh_sinh(g, 0.0, 1.0),
                    lambda: quadrature.gauss_composite(g, 0.0, 1.0),
                    lambda: quadrature.product_integrate(g(mesh), mesh, -0.5)):
            with pytest.raises(DomainError, match="non-finite"):
                run()


# -- the piecewise-quadratic product rule --------------------------------------


def _fp_power_moment(k: int, mu: float, X: float, S: float) -> float:
    """f.p.∫_{X-S}^X v^k (X - v)^mu dv, expanding v^k = (X - w)^k in w."""
    return sum(
        math.comb(k, j) * X ** (k - j) * (-1.0) ** j * S ** (mu + j + 1.0) / (mu + j + 1.0)
        for j in range(k + 1)
    )


def _fp_cos(mu: float, X: float = 1.0) -> float:
    """f.p.∫_0^X cos(v) (X - v)^mu dv, term by term at 30 digits.

    With w = X - v, cos(v) = cos X cos w + sin X sin w; each power w^j of
    their series has the finite part X^(mu + j + 1) / (mu + j + 1).
    """
    with mpmath.workdps(30):
        X, mu = mpmath.mpf(X), mpmath.mpf(mu)
        total = mpmath.mpf(0)
        for m in range(30):
            total += (-1) ** m * mpmath.cos(X) * X ** (mu + 2 * m + 1) / (mpmath.factorial(2 * m) * (mu + 2 * m + 1))
            total += (-1) ** m * mpmath.sin(X) * X ** (mu + 2 * m + 2) / (mpmath.factorial(2 * m + 1) * (mu + 2 * m + 2))
        return float(total)


class TestProductRule:
    @pytest.mark.parametrize("mu", [-2.5, -1.5, -1.2, -0.5, 0.5])
    def test_exact_on_quadratics(self, mu):
        # any mesh with an even cell count, graded or not, and the finite part for mu < -1
        rng = np.random.default_rng(7)
        meshes = [
            quadrature.graded_mesh_two_sided(0.3, 1.1, 64),
            np.concatenate([[0.3], np.sort(rng.uniform(0.3, 1.1, 19)), [1.1]]),
        ]
        for mesh in meshes:
            X, S = mesh[-1], mesh[-1] - mesh[0]
            for k in range(3):
                got = quadrature.product_integrate(mesh**k, mesh, mu)
                want = _fp_power_moment(k, mu, X, S)
                # rounding, amplified by the anchor pair's width^(mu + 1)
                assert got == pytest.approx(want, rel=1e-8), (k, len(mesh))

    @pytest.mark.parametrize("mu", [-2.5, -1.5, -0.5, 0.5])
    def test_cosine_against_mpmath(self, mu):
        mesh = quadrature.graded_mesh_two_sided(0.0, 1.0, 256)
        assert quadrature.product_integrate(np.cos(mesh), mesh, mu) == pytest.approx(_fp_cos(mu), rel=1e-7)

    @pytest.mark.parametrize("mu", [-1.5, -0.5])
    @pytest.mark.parametrize("eta", [0.05, 0.25])
    def test_far_pairs_keep_their_moments(self, mu, eta):
        # v^eta changes fast over the tiny pairs at the terminal, where the
        # closed-form moments would cancel catastrophically (2e-5 here)
        mesh = quadrature.graded_mesh_two_sided(0.0, 0.7, 180)
        want = math.gamma(eta + 1.0) * math.gamma(mu + 1.0) / math.gamma(eta + mu + 2.0) * 0.7 ** (eta + mu + 1.0)
        assert quadrature.product_integrate(mesh**eta, mesh, mu) == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("mu", [-2.5, -1.5, -0.5, 0.5])
    def test_terminal_blow_up_is_subtracted(self, mu):
        # v^(-1/2) + 1 is the model c z^gamma + d itself, so only rounding is
        # left, amplified next to the anchor as in test_exact_on_quadratics
        def g(v):
            return 1.0 / np.sqrt(v) + 1.0

        mesh = quadrature.graded_mesh_two_sided(0.0, 0.6, 120)
        want = math.gamma(0.5) * math.gamma(mu + 1.0) * rgamma(mu + 1.5) * 0.6 ** (mu + 0.5)
        want += 0.6 ** (mu + 1.0) / (mu + 1.0)
        with np.errstate(divide="ignore"):
            got = quadrature.product_integrate(g(mesh), mesh, mu)
        assert got == pytest.approx(want, rel=1e-7)

    def test_terminal_blow_up_that_fits_no_power_raises(self):
        # v^-2 is not integrable: its exponent lies outside the fitted (-1, 4)
        mesh = quadrature.graded_mesh_two_sided(0.0, 0.6, 120)
        with np.errstate(divide="ignore"):
            with pytest.raises(ConvergenceError, match="fits the blow-up at the terminal"):
                quadrature.product_integrate(mesh**-2.0, mesh, -0.5)

    def test_graded_meshes_use_the_scaled_reference_weights(self):
        for lo, hi, n in ((0.0, 1.0, 256), (-2.0, -0.3, 100), (0.0, 1e-9, 32)):
            mesh = quadrature.graded_mesh_two_sided(lo, hi, n)
            assert len(mesh) - 1 == 4 * (n // 4) and mesh[0] == lo and mesh[-1] == hi
            for mu in (-1.7, -0.5, 0.3):
                direct = quadrature.product_weights(mesh, mu)
                scaled = quadrature._mesh_weights(mesh, mu)
                assert np.allclose(scaled, direct, rtol=1e-9, atol=1e-12 * np.abs(direct).max())
        # a mesh that is not graded gets its own weights
        mesh = np.linspace(0.0, 1.0, 9)
        assert np.array_equal(quadrature._mesh_weights(mesh, -0.5), quadrature.product_weights(mesh, -0.5))

    def test_rejects_odd_cell_counts_and_log_exponents(self):
        with pytest.raises(ValueError):
            quadrature.product_weights(np.linspace(0.0, 1.0, 4), -0.5)
        for mu in (-3.0, -2.0, -1.0):
            with pytest.raises(ValueError):
                quadrature.product_weights(np.linspace(0.0, 1.0, 5), mu)
