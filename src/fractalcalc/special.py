"""Gamma, Beta, and Mittag-Leffler functions for the staircase calculus.

The staircase-weighted Euler integrals collapse, through the conjugacy
u = S(x), to the classical ones, so the closed forms here are the classical
special functions; the quadrature twins recompute them from the integral
definitions as an independent check of that collapse.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from . import quadrature
from .exceptions import ConvergenceError, DomainError, PoleError

_LOG_HUGE = 700.0  # just under log(float max); larger series terms overflow


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


def _sign_gamma(z: float) -> float:
    # Gamma alternates sign between consecutive negative integers.
    if z > 0.0:
        return 1.0
    return -1.0 if math.floor(z) % 2 != 0 else 1.0


class GammaMode(enum.Enum):
    """How the argument of the staircase Gamma function is interpreted."""

    RAW_ARGUMENT = "raw"
    STAIRCASE_COMPOSED = "staircase"


def gamma_fractal(t: float, mode: GammaMode = GammaMode.RAW_ARGUMENT, sf=None) -> float:
    """Staircase Gamma function.

    In the staircase coordinate the weight integral is the classical Euler
    integral, so the raw mode is Gamma(t) itself; the composed mode feeds
    the staircase through the argument first, Gamma(S(t)).
    """
    if mode is GammaMode.STAIRCASE_COMPOSED:
        if sf is None:
            raise DomainError("staircase-composed mode needs a staircase function")
        t = sf.eval(t)
    return gamma_classical(t)


def gamma_fractal_quadrature(t: float, upper: float | None = None, nodes: int = 64) -> float:
    """Gamma(t) from the integral of u^(t-1) exp(-u), not the closed form."""
    t = float(t)
    if t <= 0.0:
        raise DomainError(f"integral definition needs t > 0, got {t!r}")
    if upper is None:
        upper = 36.0 + 6.0 * max(t, 1.0)

    def integrand(u):
        return u ** (t - 1.0) * np.exp(-u)

    head = quadrature.tanh_sinh(integrand, 0.0, 1.0)
    tail = quadrature.gauss_composite(integrand, 1.0, upper, nodes)
    return float(head + tail)


def beta_fractal(r: float, s: float) -> float:
    """Staircase Beta function, Gamma(r) Gamma(s) / Gamma(r + s)."""
    r = float(r)
    s = float(s)
    if r <= 0.0 or s <= 0.0:
        raise DomainError(f"beta needs positive arguments, got ({r!r}, {s!r})")
    return math.exp(math.lgamma(r) + math.lgamma(s) - math.lgamma(r + s))


def beta_fractal_quadrature(r: float, s: float) -> float:
    """Beta(r, s) from the integral of u^(r-1) (1-u)^(s-1) over the unit cell.

    Split at 1/2 and folded so each half is singular only at 0.0, where
    tanh-sinh offsets resolve all the way into denormals.
    """
    r = float(r)
    s = float(s)
    if r <= 0.0 or s <= 0.0:
        raise DomainError(f"beta needs positive arguments, got ({r!r}, {s!r})")

    def half(p: float, q: float) -> float:
        return quadrature.tanh_sinh(
            lambda u: u ** (p - 1.0) * (1.0 - u) ** (q - 1.0), 0.0, 0.5
        )

    return half(r, s) + half(s, r)


def mittag_leffler(
    eta: float,
    nu: float,
    z,
    tol: float = 1e-15,
    max_terms: int = 512,
    z_max: float = 50.0,
):
    """Two-parameter Mittag-Leffler series, sum of z^k / Gamma(eta k + nu).

    Terms are built in log space so large intermediate magnitudes cancel
    instead of overflowing; terms landing on Gamma poles vanish and are
    skipped. Raises ConvergenceError when the truncated series cannot be
    trusted at the requested tolerance.

    z may be a float or a float array; an array runs the same series with
    the same stopping rule for each element, returns an array of z's shape,
    and raises if any element would raise on its own.
    """
    if not eta > 0.0:
        raise DomainError(f"first parameter must be positive, got {eta!r}")
    if not (tol > 0.0 and max_terms >= 1 and z_max > 0.0):
        raise DomainError("invalid series controls")
    if np.ndim(z) != 0:
        return _mittag_leffler_array(eta, nu, np.asarray(z, dtype=float), tol, max_terms, z_max)
    z = float(z)
    if abs(z) > z_max:
        raise DomainError(f"|z| = {abs(z)!r} exceeds the series cap {z_max!r}")
    if z == 0.0:
        return rgamma(nu)

    log_abs_z = math.log(abs(z))
    sign_z = 1.0 if z > 0.0 else -1.0
    acc = 0.0
    tail_small = 0
    for k in range(max_terms):
        a = eta * k + nu
        if a <= 0.0 and a == math.floor(a):
            continue
        log_term = k * log_abs_z - math.lgamma(a)
        if log_term > _LOG_HUGE:
            raise ConvergenceError(
                f"series term at k={k} overflows for z={z!r}, eta={eta!r}, nu={nu!r}"
            )
        term = (sign_z ** k) * _sign_gamma(a) * math.exp(log_term)
        acc += term
        if k >= 16 and abs(term) <= tol * max(abs(acc), 1.0):
            tail_small += 1
            if tail_small >= 2:
                return acc
        else:
            tail_small = 0
    raise ConvergenceError(
        f"series did not settle in {max_terms} terms for z={z!r}"
    )


def _mittag_leffler_array(
    eta: float, nu: float, z: np.ndarray, tol: float, max_terms: int, z_max: float
) -> np.ndarray:
    """The scalar series run on every element of z at once.

    Elements leave the working set as soon as their own stopping rule
    fires, so each keeps exactly the terms the scalar loop would sum.
    """
    mag = np.abs(z)
    if (mag > z_max).any():
        raise DomainError(f"|z| = {float(mag.max())!r} exceeds the series cap {z_max!r}")
    out = np.full(z.shape, rgamma(nu))
    flat = out.reshape(-1)
    live = np.flatnonzero(z)
    zs = z.reshape(-1)[live]
    log_abs_z = np.log(np.abs(zs))
    sign_z = np.sign(zs)
    acc = np.zeros(len(live))
    # whether each element's previous term was already small: two small
    # terms in a row stop it, as tail_small >= 2 does in the scalar loop
    was_small = np.zeros(len(live), dtype=bool)
    # k * log|z| - lgamma(a) grows with |z|: the largest |z| overflows first
    top = int(log_abs_z.argmax()) if len(live) else 0
    for k in range(max_terms):
        if not len(live):
            return out
        a = eta * k + nu
        if a <= 0.0 and a == math.floor(a):
            continue
        lg = math.lgamma(a)
        if k * log_abs_z[top] - lg > _LOG_HUGE:
            raise ConvergenceError(
                f"series term at k={k} overflows for z={float(zs[top])!r}, eta={eta!r}, nu={nu!r}"
            )
        term = np.exp(k * log_abs_z - lg)
        if k % 2:
            term *= sign_z
        if _sign_gamma(a) < 0.0:
            term = -term
        acc += term
        if k < 16:
            continue
        small = np.abs(term) <= tol * np.maximum(np.abs(acc), 1.0)
        done = small & was_small
        was_small = small
        if done.any():
            flat[live[done]] = acc[done]
            keep = ~done
            live, zs, log_abs_z, sign_z = live[keep], zs[keep], log_abs_z[keep], sign_z[keep]
            acc, was_small = acc[keep], was_small[keep]
            top = int(log_abs_z.argmax()) if len(live) else 0
    if not len(live):
        return out
    raise ConvergenceError(
        f"series did not settle in {max_terms} terms for z={float(zs[0])!r}"
    )


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
        res = 0.0
        for z in zs:
            res = max(res, abs(series(float(z)) - closed(float(z))))
        out[name] = res

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
