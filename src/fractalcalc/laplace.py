"""Staircase Laplace transform: symbolic rules, resolvent inversion, numerics.

The transform pairs f with its integral against exp(-sigma S(x)) dS(x),
which in the staircase coordinate is the classical Laplace integral of the
conjugated function. Transforms of the algebra generated by staircase powers
and resolvent fractions are carried symbolically: every expression is a sum
of terms coeff sigma^p / (sigma^q - lam) in the order given, like terms not
merged, powers kept as exact Fractions so that rule applications never leak
float noise into the exponents. Inversion maps resolvent terms to
staircase-power Mittag-Leffler terms and pure powers to plain staircase
powers. The numeric transform is one tanh-sinh rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import quadrature
from .core import ConjugatedFn
from .exceptions import DomainError, TailBoundError
from .special import gamma_classical, mittag_leffler, rgamma

_ZERO = Fraction(0)


def _as_power(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"power must be finite, got {x!r}")
    # Floats of simple rationals (0.5, 0.75) convert exactly; anything else
    # snaps to the nearest small fraction, which is what a printed order means.
    return Fraction(x).limit_denominator(10**6)


@dataclass(frozen=True)
class LaplaceTerm:
    """coeff * sigma^p / (sigma^q - lam); q = 0, lam = 0 is a pure power."""

    coeff: float
    p: Fraction
    q: Fraction = _ZERO
    lam: float = 0.0

    def __post_init__(self) -> None:
        # the rule algebra passes Fractions; converting only the others
        # halves the cost of a term
        if type(self.p) is not Fraction:
            object.__setattr__(self, "p", _as_power(self.p))
        if type(self.q) is not Fraction:
            object.__setattr__(self, "q", _as_power(self.q))
        if self.q.numerator < 0:
            raise DomainError(f"denominator power must be nonnegative, got {self.q}")

    @property
    def is_pure_power(self) -> bool:
        return self.q == 0 and self.lam == 0.0

    def value(self, sigma: float) -> float:
        sigma = float(sigma)
        if sigma <= 0.0:
            raise DomainError(f"transform evaluated at nonpositive sigma {sigma!r}")
        denom = sigma ** float(self.q) - self.lam
        if denom == 0.0:
            raise DomainError(f"transform pole at sigma = {sigma!r}")
        return self.coeff * sigma ** float(self.p) / denom


@dataclass(frozen=True)
class LaplaceExpr:
    """A finite sum of LaplaceTerm values in the order given; like terms stay apart."""

    terms: tuple[LaplaceTerm, ...]

    @staticmethod
    def of(*terms: LaplaceTerm) -> "LaplaceExpr":
        return LaplaceExpr(tuple(terms))

    @staticmethod
    def zero() -> "LaplaceExpr":
        return LaplaceExpr(())

    def value(self, sigma: float) -> float:
        return sum(t.value(sigma) for t in self.terms)

    def shifted(self, dp) -> "LaplaceExpr":
        dp = _as_power(dp)
        return LaplaceExpr(tuple(LaplaceTerm(t.coeff, t.p + dp, t.q, t.lam) for t in self.terms))

    def scaled(self, c: float) -> "LaplaceExpr":
        c = float(c)
        return LaplaceExpr(tuple(LaplaceTerm(t.coeff * c, t.p, t.q, t.lam) for t in self.terms))

    def __add__(self, other: "LaplaceExpr") -> "LaplaceExpr":
        return LaplaceExpr(self.terms + other.terms)

    def __sub__(self, other: "LaplaceExpr") -> "LaplaceExpr":
        return self + other.scaled(-1.0)


def transform_power(eta) -> LaplaceExpr:
    """Transform of the staircase power S^eta: Gamma(eta + 1) sigma^(-eta-1)."""
    eta_f = _as_power(eta)
    if eta_f <= -1:
        raise DomainError(f"power transform needs exponent > -1, got {eta_f}")
    return LaplaceExpr.of(LaplaceTerm(gamma_classical(float(eta_f) + 1.0), -eta_f - 1))


def transform_rl_integral(expr: LaplaceExpr, beta) -> LaplaceExpr:
    """Integral of order beta divides the transform by sigma^beta."""
    beta_f = _as_power(beta)
    if beta_f <= 0:
        raise DomainError(f"order must be positive, got {beta_f}")
    return expr.shifted(-beta_f)


def _slot_orders(rule, beta: Fraction) -> list[Fraction]:
    """The datum order that each slot j = 1..ceil(beta) of a derivative rule
    takes: j - 1 for Caputo, beta - j for RL."""
    slots = range(1, math.ceil(beta) + 1)
    if rule is transform_caputo:
        return [Fraction(j - 1) for j in slots]
    return [beta - j for j in slots]


def _derivative_rule(rule, expr: LaplaceExpr, beta, data) -> LaplaceExpr:
    """sigma^beta F minus each datum, a datum of order o at sigma^(beta - 1 - o)."""
    beta_f = _as_power(beta)
    if beta_f <= 0:
        raise DomainError(f"order must be positive, got {beta_f}")
    slots = _slot_orders(rule, beta_f)
    data = tuple(data)
    if len(data) > len(slots):
        raise DomainError(f"at most {len(slots)} data values fit the order {beta_f} rule")
    known = tuple(LaplaceTerm(-float(c), beta_f - 1 - o) for c, o in zip(data, slots))
    return expr.shifted(beta_f) + LaplaceExpr(known)


def transform_rl_derivative(expr: LaplaceExpr, beta, data=()) -> LaplaceExpr:
    """RL derivative rule: sigma^beta F minus the terminal data terms.

    data[j - 1] is the limit at the terminal of the order beta - j
    derivative of the original function, j = 1..n.
    """
    return _derivative_rule(transform_rl_derivative, expr, beta, data)


def transform_caputo(expr: LaplaceExpr, beta, data=()) -> LaplaceExpr:
    """Caputo rule: sigma^beta F minus sigma^(beta - j) times the data.

    data[j - 1] is the (j - 1)-th staircase derivative of the original
    function at the terminal, j = 1..n.
    """
    return _derivative_rule(transform_caputo, expr, beta, data)


def solve_resolvent(numerator: LaplaceExpr, q, lam: float) -> LaplaceExpr:
    """Divide a sum of pure powers by (sigma^q - lam)."""
    q_f = _as_power(q)
    if q_f <= 0:
        raise DomainError(f"resolvent power must be positive, got {q_f}")
    out = []
    for t in numerator.terms:
        if not t.is_pure_power:
            raise DomainError("nested resolvent fractions are not representable")
        out.append(LaplaceTerm(t.coeff, t.p, q_f, float(lam)))
    return LaplaceExpr(tuple(out))


@dataclass(frozen=True)
class InverseTerm:
    """coeff * S^power, optionally times E_[eta, nu](lam S^eta)."""

    coeff: float
    power: Fraction
    ml_eta: Fraction | None = None
    ml_nu: Fraction | None = None
    lam: float = 0.0

    def evaluate_u(self, u):
        """The term at u: a float array (an integrand, see `quadrature`), +-inf
        (nan for a zero coeff) where a negative power meets 0; or a list, one
        float at a time with Python's ** (numpy's can differ in the last bit)
        and the scalar Mittag-Leffler, raising DomainError there."""
        pw = float(self.power)
        if isinstance(u, list):
            if 0.0 in u and pw < 0.0:
                raise DomainError("inverse term diverges at the terminal")
            power = lambda p: np.array([w**p for w in u])
            ml = lambda eta, nu, z: np.array([mittag_leffler(eta, nu, v) for v in z.tolist()])
        else:
            power = np.asarray(u, dtype=float).__pow__
            ml = mittag_leffler
        # example 4's 0 * S^(-1/6) is nan at 0: that nan alone sends its residuals through the terminal fit
        with np.errstate(divide="ignore", invalid="ignore"):
            base = self.coeff * power(pw)
        if self.ml_eta is None:
            return base
        eta = float(self.ml_eta)
        return base * ml(eta, float(self.ml_nu), self.lam * power(eta))


def invert_terms(expr: LaplaceExpr) -> tuple[InverseTerm, ...]:
    """Rule-based inversion of a sum of powers and resolvent fractions."""
    out = []
    for t in expr.terms:
        if t.is_pure_power:
            if t.p >= 0:
                raise DomainError(
                    f"sigma^({t.p}) is not the transform of a staircase power"
                )
            out.append(InverseTerm(t.coeff * rgamma(float(-t.p)), -t.p - 1))
        else:
            if t.p >= t.q:
                raise DomainError(
                    f"improper fraction sigma^({t.p})/(sigma^({t.q}) - lam) "
                    "has no power-series inverse"
                )
            out.append(InverseTerm(t.coeff, t.q - t.p - 1, t.q, t.q - t.p, t.lam))
    return tuple(out)


def evaluate_inverse(terms, u):
    """Sum of the inverse terms at u (a float array or a list of floats, none negative)."""
    if isinstance(u, list) and any(w < 0.0 for w in u):
        raise DomainError("evaluation point precedes the left terminal")
    return sum(t.evaluate_u(u) for t in terms)


# times upper: at or before the truncation point, where g is integrated
# anyway, so the probe adds no point where g can fail
_TAIL_PROBE = np.linspace(0.9, 1.0, 6)


def laplace_numeric(f, sf, sigma: float, tol: float = 1e-9) -> float:
    """Truncated numerical transform with an explicit tail-bound check.

    exp(-sigma u) g(u), g the conjugated function, is integrated by one
    tanh-sinh rule on [0, upper], upper = 36/sigma + 4, so integrable
    endpoint singularities of g at 0 are admissible; a g whose levels never
    agree (jumps at every scale) raises ConvergenceError. The tail past upper
    is bounded by 2 exp(-sigma upper) G / sigma, G the largest |g| at six
    nodes on [0.9 upper, upper] (one call of g), so a g that vanishes at
    upper but not before it is still seen; if that heuristic bound exceeds tol
    and tol times |the integral over [0, upper]|, the transform refuses.
    A sigma or tol that is not positive (nan included) raises DomainError.
    """
    sigma = float(sigma)
    if not sigma > 0.0:
        raise DomainError(f"transform needs sigma > 0, got {sigma!r}")
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    g = ConjugatedFn(f, sf)
    upper = 36.0 / sigma + 4.0
    probe = upper * _TAIL_PROBE
    # a Python float, so that an overflow to inf raises no numpy warning
    bound = 2.0 * math.exp(-sigma * upper) * float(np.abs(g(probe)).max()) / sigma

    def integrand(u):
        return np.exp(-sigma * u) * g(u)

    value = quadrature.tanh_sinh(integrand, 0.0, upper) if math.isfinite(bound) else 0.0
    if not bound <= tol * max(1.0, abs(value)):
        raise TailBoundError(
            f"tail bound {bound:.3e} at truncation u={upper!r} exceeds tol={tol!r}"
        )
    return value
