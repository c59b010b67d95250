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


def _gl_sum(f, a: float, x: float, beta: float, steps: int, derivative: bool) -> float:
    # the derivative sums against (1 - t)^beta, the integral against (1 - t)^(-beta)
    p = beta if derivative else -beta
    h = (x - a) / steps
    nodes = x - h * np.arange(steps + 1)
    vals = np.array([float(f(t)) for t in nodes])
    return float(h ** (-p) * (gl_weights(p, steps + 1) @ vals))


def _richardson_gl(f, a: float, x: float, beta: float, derivative: bool) -> float:
    coarse = _gl_sum(f, a, x, beta, _STEPS, derivative)
    fine = _gl_sum(f, a, x, beta, 2 * _STEPS, derivative)
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
    """Left Caputo derivative, obtained by stripping the Taylor head.

    Subtracts the order-n Taylor polynomial of f at the base point and
    applies the Riemann-Liouville derivative to the remainder, which is the
    standard equivalence for smooth functions.
    """
    if not beta > 0.0:
        raise DomainError(f"order must be positive, got {beta!r}")
    n = math.ceil(beta)
    if n == beta:
        raise DomainError("integer orders are ordinary derivatives, not handled here")
    derivs = [float(f(a))]
    if n >= 2:
        derivs.append((float(f(a + _H_DERIV)) - float(f(a - _H_DERIV))) / (2.0 * _H_DERIV))

    def remainder(t: float) -> float:
        head = sum(derivs[j] * (t - a) ** j / math.factorial(j) for j in range(n))
        return float(f(t)) - head

    # The head stops at degree n - 1: those terms are exactly the ones the
    # Caputo construction ignores, so RL of the remainder is Caputo of f.
    return _richardson_gl(remainder, a, x, beta, derivative=True)
