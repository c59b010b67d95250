"""Classical fractional operators via Grunwald-Letnikov sums.

These serve as an independent cross-check for the kernel-based operators:
in the staircase coordinate the nonlocal operators reduce to the classical
ones, and the Grunwald-Letnikov construction reaches those classical values
by a completely different route (binomial difference quotients instead of
product-integrated kernels). First-order accuracy is lifted to second order
with one Richardson step.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .exceptions import DomainError

# the coarse sum's step count; Richardson's fine sum takes twice as many
_STEPS = 2048
# step of the central difference for f'(a) in the Caputo head
_H_DERIV = 1e-5


@functools.lru_cache(maxsize=64)
def gl_weights(p: float, count: int) -> np.ndarray:
    """Coefficients of (1 - t)^p, w_k = w_{k-1} (k - 1 - p) / k; cached, so read-only."""
    w = np.empty(count)
    w[0] = 1.0
    for k in range(1, count):
        w[k] = w[k - 1] * (k - 1 - p) / k
    w.flags.writeable = False
    return w


def _gl_sum(f, a: float, x: float, beta: float, steps: int, derivative: bool, head=()) -> float:
    # the derivative sums against (1 - t)^beta, the integral against (1 - t)^(-beta);
    # f is called per node, and the polynomial in (t - a) with coefficients
    # `head` is subtracted from those values on the whole node array
    p = beta if derivative else -beta
    h = (x - a) / steps
    nodes = x - h * np.arange(steps + 1)
    vals = np.array([float(f(t)) for t in nodes])
    if head:
        vals = vals - np.polynomial.polynomial.polyval(nodes - a, head)
    return float(h ** (-p) * (gl_weights(p, steps + 1) @ vals))


def _richardson_gl(f, a: float, x: float, beta: float, derivative: bool, head=()) -> float:
    coarse = _gl_sum(f, a, x, beta, _STEPS, derivative, head)
    fine = _gl_sum(f, a, x, beta, 2 * _STEPS, derivative, head)
    return 2.0 * fine - coarse


def rl_integral_classical(f, a: float, x: float, beta: float) -> float:
    """Left Riemann-Liouville integral of order beta on the real line."""
    if not beta > 0.0:
        raise DomainError(f"order must be positive, got {beta!r}")
    if x == a:
        return 0.0
    if x < a:
        raise DomainError("evaluation point precedes the base point")
    return _richardson_gl(f, a, x, beta, derivative=False)


def rl_derivative_classical(f, a: float, x: float, beta: float) -> float:
    """Left Riemann-Liouville derivative of order beta on the real line."""
    if not beta > 0.0:
        raise DomainError(f"order must be positive, got {beta!r}")
    if x <= a:
        raise DomainError("evaluation point must follow the base point")
    return _richardson_gl(f, a, x, beta, derivative=True)


def caputo_classical(f, a: float, x: float, beta: float) -> float:
    """Left Caputo derivative of order beta < 2, obtained by stripping the Taylor head.

    Subtracts the order-n Taylor polynomial of f at the base point and
    applies the Riemann-Liouville derivative to the remainder, which is the
    standard equivalence for smooth functions. The head takes f(a) and, above
    order 1, a central difference for f'(a); above order 2 it would need f''(a)
    too, so those orders are refused.
    """
    if not beta > 0.0:
        raise DomainError(f"order must be positive, got {beta!r}")
    n = math.ceil(beta)
    if n == beta:
        raise DomainError("integer orders are ordinary derivatives, not handled here")
    if n > 2:
        raise DomainError(f"Caputo orders above 2 are not handled here, got {beta!r}")
    # Taylor coefficients: f(a), then f'(a) / 1!
    head = [float(f(a))]
    if n == 2:
        head.append((float(f(a + _H_DERIV)) - float(f(a - _H_DERIV))) / (2.0 * _H_DERIV))
    # The head stops at degree n - 1: those terms are exactly the ones the
    # Caputo construction ignores, so RL of the remainder is Caputo of f.
    return _richardson_gl(f, a, x, beta, derivative=True, head=head)
