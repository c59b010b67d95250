"""Differentiation and integration against the Cantor staircase.

Everything here works through the conjugacy u = S(x): a function f on the
real line pulls back to g(u) = f(quantile(u)), the staircase derivative of f
is the ordinary u-derivative of g (and zero off the Cantor set), and the
staircase integral of f is the ordinary integral of g over [S(a), S(b)].
The quantile is fed to f as an exact rational so that the conjugation does
not launder digits through a lossy float round trip.  An array of u has its
quantiles taken in one batch; only the call of the opaque f stays per
element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    An array of u takes its quantiles in one batch (``sf.quantiles_exact``),
    and f, being opaque, is called once per element on that element's exact
    quantile.  An integrand built on S(x), such as
    ``lambda x: sf.eval(x) ** eta``, reads no staircase digits: the staircase
    of the quantile's own result is known without them (see
    :mod:`fractalcalc.staircase`).
    """

    underlying: object
    sf: StaircaseFn

    def __call__(self, u):
        f = self.underlying
        if isinstance(u, np.ndarray):
            values = [float(f(x)) for x in self.sf.quantiles_exact(u.ravel())]
            return np.array(values).reshape(u.shape)
        return float(f(self.sf.quantile_exact(u)))


def difference(g, v: float, h: float, s: float) -> float:
    """Second-order first difference of g at v, step h.

    s = 0 gives the central form; s = +1 or -1 the one-sided form reaching
    forward or backward. The one-sided form multiplies each coefficient by
    s, not their sum, so a stencil that cancels exactly gives +0.0 on
    either side.
    """
    if s == 0.0:
        return (g(v + h) - g(v - h)) / (2.0 * h)
    return (
        -3.0 * s * g(v) + 4.0 * s * g(v + s * h) - s * g(v + 2.0 * s * h)
    ) / (2.0 * h)


def f_alpha_derivative(f, sf, x, h: float = 1e-6) -> float:
    """Staircase derivative of f at x: dg/du at u = S(x), zero off the set."""
    if not h > 0:
        raise DomainError(f"step h must be positive, got {h!r}")
    if not sf.membership(x):
        return 0.0
    u = sf.eval(x)
    # the staircase's u-range starts at 0: within h of it, reach forward only
    s = 1.0 if u - h < 0.0 and not isinstance(sf, IdentityMap) else 0.0
    val = difference(ConjugatedFn(f, sf), u, h, s)
    if not math.isfinite(val):
        raise DomainError(f"non-finite function values near x={x!r}")
    return val


# Two-point rule offset: nodes 1/2 +- 1/(2 sqrt 2) with equal weights match the
# zeroth through third moments of the staircase measure on every panel.
_MEASURE_NODE = 0.5 / math.sqrt(2.0)
_MEASURE_DEPTH_CAP = 40


def _measure_unit(f, x_off: float, v0: float, v1: float, depth: int) -> float:
    # integral over u in [v0, v1] within one unit cell of f(x_off + quantile(u))
    total = 0.0
    stack = [(0, 0.0, 0.0, 1.0)]
    while stack:
        d, x_lo, u_lo, u_hi = stack.pop()
        if u_hi <= v0 or u_lo >= v1:
            continue
        width = 3.0**-d
        mass = 2.0**-d
        if v0 <= u_lo and u_hi <= v1 and d >= depth:
            lo = f(x_off + x_lo + width * (0.5 - _MEASURE_NODE))
            hi = f(x_off + x_lo + width * (0.5 + _MEASURE_NODE))
            total += mass * 0.5 * (float(lo) + float(hi))
            continue
        if d >= _MEASURE_DEPTH_CAP:
            frac = (min(u_hi, v1) - max(u_lo, v0)) / mass
            total += mass * frac * float(f(x_off + x_lo + 0.5 * width))
            continue
        mid = 0.5 * (u_lo + u_hi)
        stack.append((d + 1, x_lo, u_lo, mid))
        stack.append((d + 1, x_lo + 2.0 * width / 3.0, mid, u_hi))
    return total


def _measure_integral(f, sf, ua: float, ub: float, depth: int) -> float:
    # unit-cell reduction: S(x + k) = S(x) + k for integer k under tiling
    total = 0.0
    cell = math.floor(ua)
    while cell < ub:
        v0 = max(ua - cell, 0.0)
        v1 = min(ub - cell, 1.0)
        if v1 > v0:
            total += _measure_unit(f, float(cell), v0, v1, depth)
        cell += 1
    return total


def f_alpha_integral(f, sf, a, b, n: int = 64, method: str = "auto") -> float:
    """Staircase integral of f over [a, b].

    method "measure" applies a self-similar two-point rule per dyadic panel
    in the staircase coordinate, evaluating f at real-line nodes; it is the
    right tool when f is smooth in x (the conjugated integrand then has a
    jump at every dyadic level and u-space panels converge only linearly).
    "gauss" integrates the conjugated function in u with Gauss-Legendre
    panels and is exact for integrands that are smooth functions of S(x).
    "auto" picks "measure" for a fractal staircase and "gauss" otherwise.
    """
    ua = sf.eval(a)
    ub = sf.eval(b)
    if ub < ua:
        raise DomainError(f"integration bounds reversed: S({a!r}) > S({b!r})")
    if ub == ua:
        return 0.0
    if method == "auto":
        method = "gauss" if isinstance(sf, IdentityMap) else "measure"
    if method == "measure":
        if isinstance(sf, IdentityMap):
            raise DomainError("measure quadrature requires a fractal staircase")
        depth = max(8, min(15, n.bit_length() + 5))
        return _measure_integral(f, sf, ua, ub, depth)
    if method == "gauss":
        return quadrature.gauss_composite(ConjugatedFn(f, sf), ua, ub, n)
    raise DomainError(f"unknown quadrature method {method!r}")

