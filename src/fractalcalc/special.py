"""Gamma, Beta, and Mittag-Leffler functions for the staircase calculus.

The staircase-weighted Euler integrals collapse, through the conjugacy
u = S(x), to the classical ones, so the closed forms here are the classical
special functions; the Beta quadrature twin recomputes Beta from its integral
definition as an independent check of that collapse.
"""

from __future__ import annotations

import bisect
import functools
import math
from typing import NamedTuple

import numpy as np

from . import quadrature
from .exceptions import ConvergenceError, DomainError, PoleError

_LOG_HUGE = 700.0  # just under log(float max); larger series terms overflow
_ML_MAX_TERMS = 512  # Mittag-Leffler series terms at most
_ML_MIN_TERMS = 18  # terms in the first stop, which checks terms 16 and 17
_ML_Z_MAX = 50.0  # Mittag-Leffler series cap on |z|


def gamma_classical(z: float) -> float:
    """Euler Gamma with explicit pole reporting."""
    z = float(z)
    if z <= 0.0 and z == math.floor(z):
        raise PoleError(f"gamma pole at non-positive integer {z!r}")
    try:
        return math.gamma(z)
    except OverflowError as exc:
        raise DomainError(f"gamma({z!r}) overflows") from exc


def rgamma(z: float) -> float:
    """1/Gamma(z), finite everywhere (zero at the poles)."""
    z = float(z)
    if z <= 0.0 and z == math.floor(z):
        return 0.0
    if z > 171.0:
        return 0.0
    return 1.0 / math.gamma(z)


def gamma_fractal(t: float, sf=None) -> float:
    """Staircase Gamma function.

    In the staircase coordinate the weight integral is the classical Euler
    integral, so without a map this is Gamma(t) itself; given a map sf, the
    argument goes through it first: Gamma(sf.eval(t)), Gamma(S(t)) on the
    staircase.
    """
    if sf is not None:
        t = sf.eval(t)
    return gamma_classical(t)


def _beta_args(r: float, s: float) -> tuple[float, float]:
    r = float(r)
    s = float(s)
    if not (0.0 < r < math.inf and 0.0 < s < math.inf):
        raise DomainError(f"beta needs positive finite arguments, got ({r!r}, {s!r})")
    return r, s


def beta_fractal(r: float, s: float) -> float:
    """Staircase Beta function, Gamma(r) Gamma(s) / Gamma(r + s).

    Raises DomainError where the value or a log-Gamma term overflows.
    """
    r, s = _beta_args(r, s)
    try:
        return math.exp(math.lgamma(r) + math.lgamma(s) - math.lgamma(r + s))
    except OverflowError as exc:
        raise DomainError(f"beta({r!r}, {s!r}) overflows") from exc


def beta_fractal_quadrature(r: float, s: float) -> float:
    """Beta(r, s) from the integral of u^(r-1) (1-u)^(s-1) over the unit cell.

    Split at 1/2 and folded so each half is singular only at 0.0, where
    tanh-sinh offsets resolve all the way into denormals.
    """
    r, s = _beta_args(r, s)

    def half(p: float, q: float) -> float:
        return quadrature.tanh_sinh(
            lambda u: u ** (p - 1.0) * (1.0 - u) ** (q - 1.0), 0.0, 0.5
        )

    return half(r, s) + half(s, r)


class _Series(NamedTuple):
    coeffs: list  # 1/Gamma(eta k + nu), 0 at the poles
    stop: np.ndarray  # ascending |z| thresholds of the stopping points
    n_terms: np.ndarray  # terms summed per stop position (all past the end)
    guard: np.ndarray  # guard[k]: the least |z| at which a term k' <= k overflows
    lists: tuple  # stop, n_terms and guard as lists of the same floats, for scalars


@functools.lru_cache(maxsize=64)
def _series(eta: float, nu: float, tol: float) -> _Series:
    """Coefficients and |z| thresholds, built on first use.

    Term k is at most tol for |z| <= exp((log tol + lgamma(eta k + nu)) / k)
    and at most term k - 1 for |z| <= Gamma(eta k + nu) / Gamma(eta k - eta
    + nu). Only terms of positive argument (lgamma convex: no later term
    exceeds tol past the peak) stop the series. Each bound is monotone in
    |z|, so one searchsorted in their prefix maximum finds every stopping
    point. The table ends where 1/Gamma leaves the normal floats (171), but
    not before term 17; terms past 171 sum as 0 (each < 2e-278), bounded by
    their true lgamma (inf from 1e305, where lgamma leaves the floats).
    """
    args = [a for k, a in enumerate(eta * k + nu for k in range(_ML_MAX_TERMS)) if a <= 171.0 or k < _ML_MIN_TERMS]
    coeffs = [rgamma(a) for a in args]
    lg = np.array([math.lgamma(a) if c or 171.0 < a < 1e305 else math.inf for a, c in zip(args, coeffs)])
    k = np.arange(1, len(args))
    with np.errstate(over="ignore", invalid="ignore"):
        small = np.where(np.array(args[1:]) > 0.0, np.exp((math.log(tol) + lg[1:]) / k), 0.0)
        past_peak = np.exp(lg[1:] - lg[:-1])
        over = np.exp((_LOG_HUGE + lg[1:]) / k)
    pair = np.fmin(np.fmin(small[_ML_MIN_TERMS - 3 : -1], small[_ML_MIN_TERMS - 2 :]), past_peak[_ML_MIN_TERMS - 2 :])
    stop = np.concatenate(([0.0], np.fmax.accumulate(pair)))
    n_terms = np.concatenate(([1], np.arange(_ML_MIN_TERMS, len(args) + 1), [len(args)]))[: len(stop) + 1]
    guard = np.minimum.accumulate(np.concatenate(([math.inf], over)))
    return _Series(coeffs, stop, n_terms, guard, (stop.tolist(), n_terms.tolist(), guard.tolist()))


def _term_count(series: _Series, z: float) -> int:
    """How many terms to sum for z; raises where the series cannot serve."""
    mag = abs(z)
    if not mag <= _ML_Z_MAX:
        raise DomainError(f"|z| = {mag!r} exceeds the series cap {_ML_Z_MAX!r}")
    stop, n_terms, guard = series.lists
    at = bisect.bisect_left(stop, mag)
    if mag > guard[n_terms[at] - 1]:
        k = next(k for k in range(n_terms[at]) if mag > guard[k])
        raise ConvergenceError(f"series term at k={k} overflows for z={z!r}")
    if at == len(stop):
        raise ConvergenceError(f"series did not settle in {n_terms[at]} terms for z={z!r}")
    return n_terms[at]


def mittag_leffler(eta: float, nu: float, z, tol: float = 1e-15):
    """Two-parameter Mittag-Leffler series, sum of z^k / Gamma(eta k + nu).

    The truncation is fixed from |z| before summing: the series stops at the
    first k >= 17 where the bounds |z|^k / |Gamma(eta k + nu)| of terms k - 1
    and k are both at most tol and term k is past the largest term. The
    terms are summed by Horner's rule on a cached table of 1/Gamma(eta k +
    nu), zero at the poles. Raises DomainError past |z| = 50, for eta not
    positive and finite, for tol not positive, and for nu outside [-170,
    171], where 1/Gamma(nu) is not a normal float, and ConvergenceError when
    a term would overflow or the stopping point lies beyond 512 terms or
    beyond the table, so small eta with large |z| raises: E_{1/2,1/2}(z)
    needs |z| <= 7.16.

    tol bounds each dropped term, not the error of the value. For negative
    z the terms can be far larger than the sum, which then loses about
    log10(max|term| / |E|) digits to cancellation, and nothing detects it:
    E_{1,1}(-20) gives -4.1e-9 where e^-20 is 2.06e-9.

    z may be a float or a float array; an array returns an array of z's
    shape, each element bit-identical to its scalar call, and raises what
    its first element that cannot be summed raises on its own.
    """
    if not (0.0 < eta < math.inf and -170.0 <= nu <= 171.0):
        raise DomainError(f"need finite eta > 0 and -170 <= nu <= 171, got eta={eta!r}, nu={nu!r}")
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    series = _series(float(eta), float(nu), float(tol))
    if np.ndim(z) == 0:
        z = float(z)
        acc = 0.0
        for c in reversed(series.coeffs[: _term_count(series, z)]):
            acc = acc * z + c
        return acc
    # The same rule and Horner sum on every element at once. Sorted by term
    # count, the elements that take part in a Horner step are a suffix of
    # the array; each sees the multiplies and adds of its scalar call.
    zf = np.asarray(z, dtype=float).reshape(-1)
    mag = np.abs(zf)
    at = np.searchsorted(series.stop, mag)
    n_terms = series.n_terms[at]
    bad = ~(mag <= _ML_Z_MAX) | (at == len(series.stop)) | (mag > series.guard[n_terms - 1])
    if bad.any():
        _term_count(series, float(zf[np.argmax(bad)]))
    order = np.argsort(n_terms, kind="stable")
    zs, n_terms = zf[order], n_terms[order]
    acc = np.zeros(len(zs))
    # the elements from s on take part in the steps below n_sorted[s]
    starts = [0] + (np.flatnonzero(np.diff(n_terms)) + 1).tolist() if len(zs) else []
    n_sorted = n_terms.tolist()
    for s in reversed(starts):
        part, w = acc[s:], zs[s:]
        for c in reversed(series.coeffs[n_sorted[s - 1] if s else 0 : n_sorted[s]]):
            part *= w
            part += c
    out = np.empty_like(acc)
    out[order] = acc
    return out.reshape(np.shape(z))


def ml_half_half_closed(z: float) -> float:
    """Closed form of the (1/2, 1/2) Mittag-Leffler value.

    1/sqrt(pi) + z exp(z^2) erfc(-z), obtained from the error-function
    representation of the half-order case.
    """
    z = float(z)
    return 1.0 / math.sqrt(math.pi) + z * math.exp(z * z) * math.erfc(-z)


def ml_special_case_residuals(zs) -> dict[str, float]:
    """Max deviation of the series from elementary closed forms on a grid.

    Checks exp, expm1 ratio, cosh, sinh ratio, and the half-order
    error-function case; returns the worst absolute residual per identity.
    """
    zs = np.asarray(zs, dtype=float)
    out: dict[str, float] = {}

    def worst(name: str, series, closed) -> None:
        # one array call of the series, with the bits of per-point calls
        pairs = zip(series(zs).tolist(), zs.tolist())
        out[name] = max([0.0] + [abs(value - closed(z)) for value, z in pairs])

    worst("exp", lambda z: mittag_leffler(1.0, 1.0, z), math.exp)
    worst(
        "expm1_ratio",
        lambda z: mittag_leffler(1.0, 2.0, z),
        lambda z: math.expm1(z) / z if z != 0.0 else 1.0,
    )
    worst("cosh", lambda z: mittag_leffler(2.0, 1.0, z * z), math.cosh)
    worst(
        "sinh_ratio",
        lambda z: mittag_leffler(2.0, 2.0, z * z),
        lambda z: math.sinh(z) / z if z != 0.0 else 1.0,
    )
    worst(
        "erfc_half",
        lambda z: mittag_leffler(0.5, 0.5, z),
        ml_half_half_closed,
    )
    return out
