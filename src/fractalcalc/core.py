"""Differentiation and integration against the Cantor staircase.

Everything here works through the conjugacy u = S(x): a function f on the
real line pulls back to g(u) = f(quantile(u)), the staircase derivative of f
is the ordinary u-derivative of g (and zero off the Cantor set), and the
staircase integral of f is the ordinary integral of g over [S(a), S(b)].
The quantile is fed to f as an exact rational so that the conjugation does
not launder digits through a lossy float round trip.  An integrand of u
takes and returns float arrays, never bare floats (see `quadrature`); the
array's quantiles are taken in one batch, and only f is called per element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import quadrature
from .exceptions import DomainError
from .staircase import IdentityMap, StaircaseFn


@dataclass
class GridFunction:
    """Sampled values on a strictly ascending grid."""

    xs: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.xs = np.asarray(self.xs, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.xs.ndim != 1 or self.values.ndim != 1:
            raise DomainError("grid data must be one-dimensional")
        if len(self.xs) != len(self.values):
            raise DomainError("grid and value lengths differ")
        if len(self.xs) > 1 and not np.all(np.diff(self.xs) > 0):
            raise DomainError("grid must be strictly ascending")
        if not np.isfinite(self.values).all():
            raise DomainError("grid values must be finite")

    def __len__(self) -> int:
        return len(self.xs)


@dataclass(frozen=True)
class ConjugatedFn:
    """f seen in the staircase coordinate: evaluates f(quantile(u)).

    A float array of u, its only argument, takes its quantiles in one batch
    (``sf.quantiles_exact``), and f, being opaque, is called once per
    element on that element's exact quantile.  An integrand built on S(x),
    such as ``lambda x: sf.eval(x) ** eta``, reads no staircase digits: each
    quantile carries its own staircase value, and ``sf.eval`` of it is one
    field read; nor does it build the exact numerator, which a batch
    quantile builds on its first read (see :mod:`fractalcalc.staircase`).
    """

    underlying: object
    sf: StaircaseFn

    def __call__(self, u: np.ndarray) -> np.ndarray:
        f = self.underlying
        values = [float(f(x)) for x in self.sf.quantiles_exact(u.ravel())]
        return np.array(values).reshape(u.shape)


def difference(g, v: float, h: float, s: float) -> float:
    """Second-order first difference of g at v, step h.

    g is called once, on the stencil's points. s = 0 gives the central form;
    s = +1 or -1 the one-sided form reaching forward or backward, which
    multiplies each coefficient by s, not their sum, so a stencil that
    cancels exactly gives +0.0 on either side.
    """
    if s == 0.0:
        hi, lo = g(np.array([v + h, v - h])).tolist()
        return (hi - lo) / (2.0 * h)
    g0, g1, g2 = g(np.array([v, v + s * h, v + 2.0 * s * h])).tolist()
    return (-3.0 * s * g0 + 4.0 * s * g1 - s * g2) / (2.0 * h)


_DERIVATIVE_STEP = 1e-6


def f_alpha_derivative(f, sf, x) -> float:
    """Staircase derivative of f at x: dg/du at u = S(x), zero off the set.

    dg/du is a second-order difference of step 1e-6 in u.
    """
    if not sf.membership(x):
        return 0.0
    u = sf.eval(x)
    # the staircase's u-range starts at 0: within one step of it, reach forward only
    s = 1.0 if u - _DERIVATIVE_STEP < 0.0 and not isinstance(sf, IdentityMap) else 0.0
    val = difference(ConjugatedFn(f, sf), u, _DERIVATIVE_STEP, s)
    if not math.isfinite(val):
        raise DomainError(f"non-finite function values near x={x!r}")
    return val


# The measure rule: the 4-node Gauss rule of the Cantor measure, exact through
# degree 7, scaled to each whole dyadic panel (a level-d panel is the set shrunk
# by 3^-d, carrying mass 2^-d).  A unit cell is summed with whole panels at
# depth 6, then 7, and so on, and the finer of the first two consecutive sums
# that agree to _MEASURE_AGREE relative to max(|sum|, 1) is returned; if none
# agree by depth 12, the rule gives up.  An f smooth in x stops at depth 7; a
# power of S(x), which is not, gives up and is integrated in u instead.
_MEASURE_NODES = 4
_MEASURE_DEPTH_START = 6
_MEASURE_DEPTH = 12
_MEASURE_AGREE = 1e-13
_MEASURE_DEPTH_CAP = 40


@lru_cache(maxsize=8)
def _cantor_gauss_rule(n: int) -> tuple[tuple[float, float], ...]:
    """(node, weight) pairs of the n-point Gauss rule of the Cantor measure on [0, 1].

    Self-similarity gives the exact moments m_k = sum_{j<k} C(k, j) 2^(k-j)
    m_j / (2 3^k - 2). Chebyshev's algorithm turns m_0..m_{2n-1} into the
    three-term recurrence in exact Fractions, and the eigen-decomposition of
    its Jacobi matrix gives the rule (Golub and Welsch, Math. Comp. 23 (1969)
    221-230). n = 2 gives nodes 1/2 -+ 1/(2 sqrt 2) with weights 1/2.
    """
    m = [Fraction(1)]
    for k in range(1, 2 * n):
        m.append(sum(math.comb(k, j) * 2 ** (k - j) * m[j] for j in range(k)) / (2 * 3**k - 2))
    # sigma[l] = integral of p_k(x) x^l dS for the monic orthogonal p_k
    prev, sigma = [Fraction(0)] * (2 * n), m
    alpha, beta = [m[1] / m[0]], [m[0]]
    for k in range(1, n):
        nxt = [Fraction(0)] * (2 * n)
        for l in range(k, 2 * n - k):
            nxt[l] = sigma[l + 1] - alpha[k - 1] * sigma[l] - beta[k - 1] * prev[l]
        alpha.append(nxt[k + 1] / nxt[k] - sigma[k] / sigma[k - 1])
        beta.append(nxt[k] / sigma[k - 1])
        prev, sigma = sigma, nxt
    off = [math.sqrt(b) for b in beta[1:]]
    jacobi = np.diag([float(a) for a in alpha]) + np.diag(off, 1) + np.diag(off, -1)
    nodes, vectors = np.linalg.eigh(jacobi)
    weights = float(beta[0]) * vectors[0] ** 2
    return tuple(zip(nodes.tolist(), weights.tolist()))


def _measure_sum(f, x_off: float, v0: float, v1: float, depth: int) -> float:
    # integral over u in [v0, v1] within one unit cell of f(x_off + quantile(u)),
    # with the Gauss rule on whole panels at `depth`, or deeper at a partial end
    rule = _cantor_gauss_rule(_MEASURE_NODES)
    total = 0.0
    stack = [(0, 0.0, 0.0, 1.0)]
    while stack:
        d, x_lo, u_lo, u_hi = stack.pop()
        if u_hi <= v0 or u_lo >= v1:
            continue
        width = 3.0**-d
        mass = 2.0**-d
        if v0 <= u_lo and u_hi <= v1 and d >= depth:
            x0 = x_off + x_lo
            acc = 0.0
            for t, w in rule:
                acc += w * float(f(x0 + width * t))
            total += mass * acc
            continue
        if d >= _MEASURE_DEPTH_CAP:
            frac = (min(u_hi, v1) - max(u_lo, v0)) / mass
            total += mass * frac * float(f(x_off + x_lo + 0.5 * width))
            continue
        mid = 0.5 * (u_lo + u_hi)
        stack.append((d + 1, x_lo, u_lo, mid))
        stack.append((d + 1, x_lo + 2.0 * width / 3.0, mid, u_hi))
    return total


def _measure_unit(f, x_off: float, v0: float, v1: float) -> float | None:
    coarse = _measure_sum(f, x_off, v0, v1, _MEASURE_DEPTH_START)
    for depth in range(_MEASURE_DEPTH_START + 1, _MEASURE_DEPTH + 1):
        fine = _measure_sum(f, x_off, v0, v1, depth)
        if abs(fine - coarse) <= _MEASURE_AGREE * max(abs(fine), 1.0):
            return fine
        coarse = fine
    return None


def _measure_integral(f, ua: float, ub: float) -> float | None:
    # unit-cell reduction: S(x + k) = S(x) + k for integer k under tiling;
    # None when some cell's sums never agree
    total = 0.0
    cell = math.floor(ua)
    while cell < ub:
        v0 = max(ua - cell, 0.0)
        v1 = min(ub - cell, 1.0)
        if v1 > v0:
            part = _measure_unit(f, float(cell), v0, v1)
            if part is None:
                return None
            total += part
        cell += 1
    return total


def f_alpha_integral(f, sf, a, b) -> float:
    """Staircase integral of f over [a, b].

    On a fractal staircase the measure rule runs first: the 4-node Gauss
    rule of the Cantor measure on every whole dyadic panel, evaluating f at
    real-line nodes, each unit cell summed at depth 6, 7, ... until two
    depths agree to 1e-13 relative. It is the right tool when f is smooth in
    x, whose conjugated integrand jumps at every dyadic level. When no two
    depths up to 12 agree, and always on the identity map, the conjugated
    function is integrated in u over [S(a), S(b)] by tanh-sinh, which is
    exact for f smooth in S(x). When that does not settle either, its
    ConvergenceError propagates.
    """
    ua = sf.eval(a)
    ub = sf.eval(b)
    if ub < ua:
        raise DomainError(f"integration bounds reversed: S({a!r}) > S({b!r})")
    if ub == ua:
        return 0.0
    if not isinstance(sf, IdentityMap):
        total = _measure_integral(f, ua, ub)
        if total is not None:
            return total
    return quadrature.tanh_sinh(ConjugatedFn(f, sf), ua, ub)
