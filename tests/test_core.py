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
from fractalcalc import core, quadrature, staircase
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
        # the measure rule never settles on it, and tanh-sinh in u nails it
        got = f_alpha_integral(lambda x: sf.eval(x) ** 2, sf, 0, 1)
        assert got == pytest.approx(1.0 / 3.0, abs=1e-14)

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


def cantor_moments(k_max: int) -> list[Fraction]:
    # self-similarity: 2 3^k m_k = 2 m_k + sum_{j<k} C(k, j) 2^(k-j) m_j
    m = [Fraction(1)]
    for k in range(1, k_max + 1):
        m.append(sum(math.comb(k, j) * 2 ** (k - j) * m[j] for j in range(k)) / (2 * 3**k - 2))
    return m


def _ulps(got: float, want: float) -> float:
    return abs(got - want) / np.spacing(want)


class TestMeasureRule:
    def test_two_node_rule_is_the_variance_rule(self):
        # nodes m1 -+ sqrt(m2 - m1^2) = 1/2 -+ 1/(2 sqrt 2), weights 1/2
        m = cantor_moments(2)
        spread = math.sqrt(m[2] - m[1] ** 2)
        (lo, w_lo), (hi, w_hi) = core._cantor_gauss_rule(2)
        assert _ulps(lo, float(m[1]) - spread) <= 4 and _ulps(hi, float(m[1]) + spread) <= 4
        assert _ulps(w_lo, 0.5) <= 4 and _ulps(w_hi, 0.5) <= 4

    def test_four_node_rule_is_symmetric_with_unit_mass(self):
        rule = core._cantor_gauss_rule(4)
        nodes = [t for t, _ in rule]
        weights = [w for _, w in rule]
        assert nodes == sorted(nodes) and 0.0 < nodes[0] and nodes[-1] < 1.0
        for (t, w), (t_mirror, w_mirror) in zip(rule, reversed(rule)):
            assert t + t_mirror == pytest.approx(1.0, abs=1e-15)
            assert w == pytest.approx(w_mirror, abs=1e-15)
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("k", range(8))
    def test_moments_through_degree_seven(self, sf, k):
        # over [1, 2] the measure is the unit cell shifted: integral of (1 + t)^k
        m = cantor_moments(k)
        shifted = sum(math.comb(k, j) * m[j] for j in range(k + 1))
        for a, want in ((0, m[k]), (1, shifted)):
            got = f_alpha_integral(lambda x: x**k, sf, a, a + 1)
            assert abs(got - float(want)) <= 1e-15 * max(1.0, float(want))

    @pytest.mark.parametrize(
        "f, recorded",
        [
            (math.exp, 1.7532792046002361),
            (lambda x: math.cos(20.0 * x), 0.3363253669084547),
            (lambda x: 1.0 / (1.05 - x), 4.1289435637228715),
            (lambda x: math.sqrt(x + 0.01), 0.6522777834903599),
        ],
        ids=["exp", "cos20x", "pole-near-1", "sqrt-near-0"],
    )
    def test_smooth_f_keeps_the_depth_twelve_two_node_values(self, sf, f, recorded):
        # recorded from the two-node rule on every whole panel of depth 12
        assert f_alpha_integral(f, sf, 0, 1) == pytest.approx(recorded, abs=1e-14)

    def test_a_cubic_stops_at_depth_seven(self, sf):
        # 4 nodes on the 64 panels of depth 6 and the 128 of depth 7, which agree
        calls = []

        def cubic(x):
            calls.append(x)
            return ((0.5 * x - 1.25) * x + 2.0) * x + 0.75

        got = f_alpha_integral(cubic, sf, 0, 1)
        assert len(calls) == 768
        m = cantor_moments(3)
        want = float(Fraction(1, 2) * m[3] - Fraction(5, 4) * m[2] + 2 * m[1] + Fraction(3, 4))
        assert abs(got - want) <= 1e-15 * max(1.0, want)

    def test_a_polynomial_never_reaches_tanh_sinh(self, sf, monkeypatch):
        def refuse(*args):
            raise AssertionError("tanh_sinh called")

        monkeypatch.setattr(quadrature, "tanh_sinh", refuse)
        got = f_alpha_integral(lambda x: (2.0 * x - 1.0) * x + 0.5, sf, 0, 2)
        # the two unit cells add p(t) + p(1 + t) = 4 t^2 + 2 t + 2
        m = cantor_moments(2)
        want = float(4 * m[2] + 2 * m[1] + 2)
        assert abs(got - want) <= 1e-15 * max(1.0, want)


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
        assert f_alpha_derivative(big_f, sf, x) == pytest.approx(0.5, abs=1e-4)


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
        kernel, quantile = staircase._unit_digits, StaircaseFn.quantile_exact
        monkeypatch.setattr(staircase, "_unit_digits", lambda *a: digits.append(a) or kernel(*a))
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

    def test_exact_parts_are_built_only_when_read(self, sf, monkeypatch):
        # a batch quantile builds its numerator and denominator on the first
        # read, once; the scalar quantile builds them when it is made
        calls = []
        parts = staircase._quantile_parts
        monkeypatch.setattr(staircase, "_quantile_parts", lambda *a: calls.append(a) or parts(*a))
        u = np.linspace(0.0, 1.9, 37)
        ConjugatedFn(lambda x: sf.eval(x) ** 1.5, sf)(u)
        assert len(calls) == 0
        ConjugatedFn(lambda x: float(x), sf)(u)
        assert len(calls) == u.size
        calls.clear()
        x = sf.quantile_exact(0.37)
        assert len(calls) == 1
        float(x), hash(x), x * 2
        assert len(calls) == 1

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


def _one_mesh(vals, mesh, mu):
    # the product rule on one mesh: a grid whose one mesh ends at the last node
    (value,) = quadrature.product_integrate(vals, mesh, mu, [len(mesh)])
    return value


def _graded_mesh(lo, hi, n):
    # lo + (hi - lo) * ref on the reference mesh of about n cells, ending at hi
    mesh = lo + (hi - lo) * quadrature._reference_mesh(4 * max(1, n // 4))
    mesh[-1] = hi
    return mesh


def _scaled_reference_weights(mesh, mu):
    # a graded mesh's weights: span^(mu + 1) times those of its reference mesh
    return (mesh[-1] - mesh[0]) ** (mu + 1.0) * quadrature.product_weights(quadrature._reference_mesh(len(mesh) - 1), mu)


def _ref_product_integrate(g, mesh, mu):
    vals = np.array([g(mesh[i : i + 1])[0] for i in range(len(mesh))])
    return float((_scaled_reference_weights(mesh, mu) * vals).sum())


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
            mesh = _graded_mesh(lo, hi, n)
            got = _one_mesh(g(mesh), mesh, mu)
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
    # tanh-sinh calls g once per level, and on one-node arrays only where it
    # redoes an overflowing level node by node
    counted = _Counted(g)
    quadrature.tanh_sinh(counted, lo, hi)
    return sum(shape != (1,) for shape in counted.shapes)


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
        mesh = _graded_mesh(0.0, 1.0, 32)
        for run in (lambda: quadrature.tanh_sinh(g, 0.0, 1.0),
                    lambda: quadrature.gauss_composite(g, 0.0, 1.0),
                    lambda: _one_mesh(g(mesh), mesh, -0.5)):
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


def _bisection_power(z, g):
    """The terminal-power fit as a 50-step bisection on (-1, 4): the oracle
    of the Newton fit, solving the same equation at the same three nodes."""
    x1, x2, x3 = math.log(z[1]), math.log(z[2]), math.log(z[4])
    g1, g2, g3 = g[1], g[2], g[4]
    if not (g3 - g2) * (g2 - g1) > 0.0:
        return None
    target = (g3 - g2) / (g2 - g1)

    def ratio(gamma):
        p2 = math.exp(gamma * x2)
        return (math.exp(gamma * x3) - p2) / (p2 - math.exp(gamma * x1))

    lo, hi = -1.0, 4.0
    if not ratio(lo) < target < ratio(hi):
        return None
    for _ in range(50):
        gamma = 0.5 * (lo + hi)
        if ratio(gamma) < target:
            lo = gamma
        else:
            hi = gamma
    return 0.5 * (lo + hi)


class TestProductRule:
    @pytest.mark.parametrize("mu", [-2.5, -1.5, -1.2, -0.5, 0.5])
    def test_exact_on_quadratics(self, mu):
        # a graded mesh through the grid rule and any mesh with an even cell
        # count through its own weights, and the finite part for mu < -1
        rng = np.random.default_rng(7)
        graded = _graded_mesh(0.3, 1.1, 64)
        mesh = np.concatenate([[0.3], np.sort(rng.uniform(0.3, 1.1, 19)), [1.1]])
        X, S = 1.1, 1.1 - 0.3
        for k in range(3):
            want = _fp_power_moment(k, mu, X, S)
            # rounding, amplified by the anchor pair's width^(mu + 1)
            assert _one_mesh(graded**k, graded, mu) == pytest.approx(want, rel=1e-8), k
            got = float((quadrature.product_weights(mesh, mu) * mesh**k).sum())
            assert got == pytest.approx(want, rel=1e-8), k

    @pytest.mark.parametrize("mu", [-2.5, -1.5, -0.5, 0.5])
    def test_cosine_against_mpmath(self, mu):
        mesh = _graded_mesh(0.0, 1.0, 256)
        assert _one_mesh(np.cos(mesh), mesh, mu) == pytest.approx(_fp_cos(mu), rel=1e-7)

    @pytest.mark.parametrize("mu", [-1.5, -0.5])
    @pytest.mark.parametrize("eta", [0.05, 0.25])
    def test_far_pairs_keep_their_moments(self, mu, eta):
        # v^eta changes fast over the tiny pairs at the terminal, where the
        # closed-form moments would cancel catastrophically (2e-5 here)
        mesh = _graded_mesh(0.0, 0.7, 180)
        want = math.gamma(eta + 1.0) * math.gamma(mu + 1.0) / math.gamma(eta + mu + 2.0) * 0.7 ** (eta + mu + 1.0)
        assert _one_mesh(mesh**eta, mesh, mu) == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("mu", [-2.5, -1.5, -0.5, 0.5])
    def test_terminal_blow_up_is_subtracted(self, mu):
        # v^(-1/2) + 1 is the model c z^gamma + d itself, so only rounding is
        # left, amplified next to the anchor as in test_exact_on_quadratics
        def g(v):
            return 1.0 / np.sqrt(v) + 1.0

        mesh = _graded_mesh(0.0, 0.6, 120)
        want = math.gamma(0.5) * math.gamma(mu + 1.0) * rgamma(mu + 1.5) * 0.6 ** (mu + 0.5)
        want += 0.6 ** (mu + 1.0) / (mu + 1.0)
        with np.errstate(divide="ignore"):
            got = _one_mesh(g(mesh), mesh, mu)
        assert got == pytest.approx(want, rel=1e-7)

    @given(
        # |gamma| >= 0.01: toward 0 the model degenerates to a logarithm, whose
        # ratio of differences rounds too coarsely for two solvers to agree to 1e-12
        gamma=st.floats(min_value=-0.95, max_value=3.9).filter(lambda g: abs(g) >= 0.01),
        pairs=st.integers(min_value=8, max_value=1024),
        span=st.floats(min_value=1e-3, max_value=10.0),
        c=st.floats(min_value=-1e3, max_value=1e3).filter(lambda c: abs(c) >= 1e-3),
        d=st.floats(min_value=-1e3, max_value=1e3),
        slope=st.floats(min_value=-1e3, max_value=1e3),
    )
    @settings(max_examples=300, deadline=None)
    def test_newton_fit_solves_the_bisection_equation(self, gamma, pairs, span, c, d, slope):
        # the same cases fit no power, and the exponents agree to 1e-12
        z = span * quadrature._reference_mesh(4 * pairs)
        with np.errstate(divide="ignore"):
            g = c * z**gamma + d + slope * z
        fit, want = quadrature._terminal_power(z, g), _bisection_power(z, g)
        assert (fit is None) == (want is None)
        if fit is not None:
            assert abs(fit[1] - want) <= 1e-12

    def test_terminal_blow_up_that_fits_no_power_raises(self):
        # v^-2 is not integrable: its exponent lies outside the fitted (-1, 4)
        mesh = _graded_mesh(0.0, 0.6, 120)
        with np.errstate(divide="ignore"):
            with pytest.raises(ConvergenceError, match="fits the blow-up at the terminal"):
                _one_mesh(mesh**-2.0, mesh, -0.5)

    def test_graded_meshes_use_the_scaled_reference_weights(self):
        vals = lambda mesh: np.cos(3.0 * mesh) + mesh
        for lo, hi in ((0.0, 1.0), (-2.0, -0.3), (0.0, 1e-9)):
            nodes, ends = quadrature._graded_nodes(lo, (hi,))
            mesh = _graded_mesh(lo, hi, len(nodes) - 1)
            assert np.array_equal(nodes, mesh) and list(ends) == [len(mesh)]
            for mu in (-1.7, -0.5, 0.3):
                direct = quadrature.product_weights(mesh, mu)
                scaled = _scaled_reference_weights(mesh, mu)
                assert np.allclose(scaled, direct, rtol=1e-9, atol=1e-12 * np.abs(direct).max())
                got = _one_mesh(vals(mesh), mesh, mu)
                assert _same_bits(got, float((scaled * vals(mesh)).sum()))

    def test_graded_nodes_take_256_cells_per_unit_span_from_32_to_4096(self):
        # whole pairs of pairs: 256 span rounded up, then down to a multiple of 4
        his = (1e-9, 0.05, 0.125, 0.3, 1.0, 10.0, 16.0, 100.0)
        _, ends = quadrature._graded_nodes(0.0, his)
        assert list(np.diff((1,) + ends)) == [32, 32, 32, 76, 256, 2560, 4096, 4096]
        spans = np.random.default_rng(3).uniform(0.125, 16.0, 200)
        _, ends = quadrature._graded_nodes(0.0, tuple(spans))
        cells = np.diff((1,) + ends)
        assert (cells % 4 == 0).all() and (np.abs(cells - 256.0 * spans) < 4.0).all()

    def test_a_grid_is_its_meshes_past_the_shared_terminal(self):
        # spans 0.25, 0.9 and 0.5: 64, 228 and 128 cells
        his, cells = (0.35, 1.0, 0.6), (64, 228, 128)
        nodes, ends = quadrature._graded_nodes(0.1, his)
        meshes = [_graded_mesh(0.1, hi, n) for hi, n in zip(his, cells)]
        assert np.array_equal(nodes, np.concatenate([meshes[0]] + [mesh[1:] for mesh in meshes[1:]]))
        assert list(ends) == list(np.cumsum([len(mesh) - 1 for mesh in meshes]) + 1)
        # each value has the bits of its mesh alone
        got = quadrature.product_integrate(np.exp(nodes), nodes, -0.5, ends)
        assert got == [_one_mesh(np.exp(mesh), mesh, -0.5) for mesh in meshes]

    def test_a_terminal_blow_up_is_fitted_on_every_mesh_of_a_grid(self):
        nodes, ends = quadrature._graded_nodes(0.1, (0.35, 1.0, 0.6))
        meshes = [np.concatenate(([nodes[0]], nodes[first:end])) for first, end in zip((1,) + ends, ends)]

        def g(v):
            with np.errstate(divide="ignore"):
                return (v - 0.1) ** -0.4 + np.cos(v)

        for mu in (-1.5, -0.5, 0.5):
            got = quadrature.product_integrate(g(nodes), nodes, mu, ends)
            assert got == [_one_mesh(g(mesh), mesh, mu) for mesh in meshes], mu

    def test_a_nan_inside_a_later_mesh_raises_domain_error(self):
        nodes, ends = quadrature._graded_nodes(0.1, (0.35, 1.0, 0.6))
        vals = np.exp(nodes)
        vals[ends[0] + 5] = math.nan
        with pytest.raises(DomainError, match="^integrand returned a non-finite value on the mesh$"):
            quadrature.product_integrate(vals, nodes, -0.5, ends)

    def test_a_blow_up_that_fits_no_power_raises_before_a_later_nan(self):
        # the fit fails on the first mesh before the third mesh's nan is seen
        nodes, ends = quadrature._graded_nodes(0.1, (0.35, 1.0, 0.6))
        with np.errstate(divide="ignore"):
            vals = (nodes - 0.1) ** -2.0
        vals[ends[1] + 5] = math.nan
        with pytest.raises(ConvergenceError, match="fits the blow-up at the terminal"):
            quadrature.product_integrate(vals, nodes, -0.5, ends)

    def test_rejects_odd_cell_counts_and_log_exponents(self):
        with pytest.raises(ValueError):
            quadrature.product_weights(np.linspace(0.0, 1.0, 4), -0.5)
        for mu in (-3.0, -2.0, -1.0):
            with pytest.raises(ValueError):
                quadrature.product_weights(np.linspace(0.0, 1.0, 5), mu)
