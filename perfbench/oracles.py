"""Reference answers for the benchmark, computed without the measured code.

Nothing here imports fractalcalc. Each oracle is a closed form, an exact
`Fraction` recursion, a construction whose answer is known by design, or a
high-precision `mpmath` series, so a fast path that returns wrong numbers
cannot also move its own reference.

Tolerances are the ones `fractal-calc verify` applies to the same quantity.
Where verify has none, the constant says which tolerance is used and why.
"""

from __future__ import annotations

import math
from fractions import Fraction

#: Relative error of an RL/Caputo value against its closed power rule
#: (verify check 4, power rules).
OPERATOR_TOL = 1e-3
#: Relative error of a numeric Laplace transform of S^eta (verify check 6).
LAPLACE_TOL = 1e-4
#: Operator residual of a worked example (verify check 8).
RESIDUAL_TOL = 1e-2
#: Spread of a solution over a deleted gap (verify check 8).
PLATEAU_TOL = 1e-12
#: Staircase identities in exact arithmetic (verify check 1).
STAIRCASE_TOL = Fraction(1, 2**50)
#: Examples 1-3 against their u-space closed forms, scaled by max(1, |y|).
#: Verify has none. Both sides evaluate the same elementary functions, and
#: they agree to about 6e-16; 1e-12 allows rounding but no algebra change.
CLOSED_FORM_TOL = 1e-12
#: Example 4 against its Mittag-Leffler form in mpmath, scaled by max(1, |y|).
#: Verify has none. At eta = 4/3 and z >= -10, the float series agrees with a
#: 50-digit sum to about 1e-13; 1e-10 leaves that margin, while a wrong term
#: or coefficient, or the cancellation the series suffers further out on the
#: negative axis, misses by orders of magnitude.
ML_FORM_TOL = 1e-10
#: `f_alpha_integral` (measure rule) of a polynomial against its exact
#: moment sum, relative to the sum of absolute term contributions. Verify has
#: none. The two-point rule is exact through cubics on every panel, the
#: quartic and quintic panel errors at depth 12 are below 1e-20, and float
#: summation over 8192 nodes per unit stays near 1e-15.
MEASURE_TOL = 1e-12

#: Digits the staircase carries by default (CantorSpec.digit_depth).
DIGIT_DEPTH = 53


# -- operators and transforms -------------------------------------------------


def rl_integral_power(beta: float, eta: float, u: float) -> float:
    """RL integral of order beta of S^eta from terminal 0, at S = u."""
    return math.exp(math.lgamma(eta + 1.0) - math.lgamma(eta + beta + 1.0)) * u ** (eta + beta)


def rl_derivative_power(beta: float, eta: float, u: float) -> float:
    """RL derivative of order beta of S^eta from terminal 0; needs eta - beta > -1.

    For eta > 0 and order below 1 this is also the Caputo derivative, since
    S^eta vanishes at the terminal.
    """
    if not eta - beta > -1.0:
        raise ValueError("the closed rule needs eta - beta > -1")
    return math.exp(math.lgamma(eta + 1.0) - math.lgamma(eta - beta + 1.0)) * u ** (eta - beta)


def laplace_power(eta: float, sigma: float) -> float:
    """Staircase Laplace transform of S^eta: Gamma(1 + eta) / sigma^(eta + 1)."""
    return math.exp(math.lgamma(1.0 + eta) - (eta + 1.0) * math.log(sigma))


# -- the Cantor measure and set -----------------------------------------------


def cantor_moments(k_max: int) -> list[Fraction]:
    """Exact moments m_k of the Cantor measure on [0, 1], k = 0..k_max.

    Self-similarity gives m_k = sum_{j<k} C(k, j) 2^(k-j) m_j / (2 3^k - 2).
    """
    m = [Fraction(1)]
    for k in range(1, k_max + 1):
        acc = sum(math.comb(k, j) * 2 ** (k - j) * m[j] for j in range(k))
        m.append(acc / (2 * 3**k - 2))
    return m


def measure_integral(coeffs, units: int, moments) -> tuple[Fraction, Fraction]:
    """Exact integral of sum c_k x^k against dS over [0, units], and its scale.

    Under the tiling S(x + 1) = S(x) + 1 each unit cell carries one copy of
    the Cantor measure, so cell c contributes sum_k c_k sum_j C(k, j) c^(k-j) m_j.
    The scale is the same sum with |c_k|, the base of the relative tolerance.
    """
    total = Fraction(0)
    scale = Fraction(0)
    for cell in range(units):
        for k, c in enumerate(coeffs):
            mk = sum(math.comb(k, j) * cell ** (k - j) * moments[j] for j in range(k + 1))
            total += c * mk
            scale += abs(c) * mk
    return total, scale


def ternary_in_set(x: Fraction, depth: int = DIGIT_DEPTH) -> bool:
    """True when x in [0, 1) has a terminating ternary expansion of digits 0, 2.

    This is what the exact quantile of a dyadic u must return: a point of the
    Cantor set with at most `depth` ternary digits.
    """
    scaled = x * 3**depth
    if scaled.denominator != 1 or not 0 <= x < 1:
        return False
    n = scaled.numerator
    for _ in range(depth):
        n, d = divmod(n, 3)
        if d == 1:
            return False
    return n == 0


def from_ternary(digits) -> Fraction:
    """The point 0.d1 d2 d3 ... (base 3) for a finite digit sequence."""
    n = 0
    for d in digits:
        n = 3 * n + d
    return Fraction(n, 3 ** len(digits))


# -- worked examples ------------------------------------------------------------


def ml_half_half(z: float) -> float:
    """E_{1/2,1/2}(z) = 1/sqrt(pi) + z exp(z^2) erfc(-z)."""
    return 1.0 / math.sqrt(math.pi) + z * math.exp(z * z) * math.erfc(-z)


def _ml_mp(a, b, z, mp):
    # sum z^k / Gamma(a k + b) at working precision; terms decay
    # super-exponentially, so stop once they fall below the precision.
    total = mp.mpf(0)
    eps = mp.mpf(10) ** (-mp.dps)
    k = 0
    while True:
        term = z**k * mp.rgamma(a * k + b)
        total += term
        if k > 8 and abs(term) < eps * max(1, abs(total)):
            return total
        k += 1


def example_value(example_id: int, w: float, lam: float) -> float:
    """Solution of worked example 1-4 at staircase distance w from its terminal.

    Examples 1-3 are elementary closed forms in w; example 4 is the
    three-term Mittag-Leffler form (its middle term has coefficient 0),
    summed in mpmath at 40 digits.
    """
    if example_id == 1:
        return 1.0 + 4.0 * math.sqrt(w) / math.sqrt(math.pi)
    if example_id == 2:
        return -4.0 * w**1.5 / (3.0 * math.sqrt(math.pi))
    if example_id == 3:
        return ml_half_half(math.sqrt(w)) / math.sqrt(w)
    if example_id == 4:
        import mpmath

        with mpmath.workdps(40):
            q = mpmath.mpf(4) / 3
            wm = mpmath.mpf(w)
            z = mpmath.mpf(lam) * wm**q
            y = wm ** (q - 1) * _ml_mp(q, q, z, mpmath.mp) + 2 * wm ** (q + 2) * _ml_mp(
                q, q + 3, z, mpmath.mp
            )
            return float(y)
    raise ValueError(f"example id must be 1..4, got {example_id!r}")


#: (ml_eta, ml_nu, power) of the three terms of example 4 (verify check 8).
EXAMPLE4_BASIS = sorted(
    [
        (Fraction(4, 3), Fraction(4, 3), Fraction(1, 3)),
        (Fraction(4, 3), Fraction(5, 6), Fraction(-1, 6)),
        (Fraction(4, 3), Fraction(13, 3), Fraction(10, 3)),
    ]
)
