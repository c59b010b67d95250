"""Nonlocal staircase operators: RL integrals, RL and Caputo derivatives.

All kernels act in the staircase coordinate u = S(x), with exponent
beta - 1 and the classical Gamma normalization, so the conjugated operators
are exactly the classical fractional operators.

Every operator value is one product integral (`quadrature.product_integrate`)
of g against (u - v)^(order - 1) / Gamma(order), with order = beta for an
integral and order = -beta for a derivative:
D^beta g(u) = f.p.∫ g(v) (u - v)^(-beta - 1) dv / Gamma(-beta), a Hadamard
finite part. The rule interpolates g quadratically on pairs of cells of a
mesh graded toward both endpoints and integrates the kernel against each
interpolant in closed form; an integrand that blows up at the terminal is
met by subtracting a fitted power (see `quadrature`).

Every operator works on an integrand g of u under the protocol of
`quadrature`: g takes a float or a float ndarray of u and returns the same
shape, and each product integral evaluates its whole mesh interior in one
call. `evaluate_u` applies an operator to such a g directly; the x-space
entries (`evaluate`, `rl_integral`, `rl_derivative`, `caputo_derivative`)
wrap f as `conjugate(f, sf)`, which takes the quantiles of a whole mesh in
one batch and then calls the opaque f once per node. An integrand known in
closed form in u, such as a solution built from staircase powers, skips the
quantile altogether.

Right-sided operators are the left-sided ones conjugated by the reflection
t -> -t: the right operator at u with terminal ua, acting on g, is the left
operator at -u with terminal -ua, acting on t -> g(-t). Because -d/du is
d/dt, derivatives need no (-1)^n factor. `evaluate_u` and
`composition_residual` reflect once; every helper below them is left-sided.
Derivative orders go up to 2 (n = ceil(beta) is 1 or 2): the quadratic
rule needs -beta - 1 > -3, and the Caputo Taylor coefficients come from the
first- and second-order difference stencils of `core.difference`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .core import conjugate, difference
from .exceptions import DomainError
from .special import gamma_classical, rgamma

DELTA_BOUNDARY = 1e-9  # offset for one-sided limits at a terminal
_TAYLOR_STEP = 1e-5  # difference step for Taylor coefficients at a terminal
_INNER_SAMPLES = 161  # inner-operator samples per composition residual
# Derivative orders closer than this to an integer are refused: the kernel
# exponent -beta - 1 keeps only their first digits, and the finite part's
# pole term, of size 1/(n - beta), loses about 1e-16 / |n - beta| relative.
_INTEGER_GAP = 1e-9


class OperatorKind(enum.Enum):
    RL_INTEGRAL = "rl-integral"
    RL_DERIVATIVE = "rl-derivative"
    CAPUTO = "caputo"


class Side(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class OperatorSpec:
    """Operator kind, order, terminal, side and mesh density."""

    kind: OperatorKind
    beta: float
    terminal: float
    side: Side = Side.LEFT
    nodes_per_unit: int = 256

    def __post_init__(self) -> None:
        if not self.beta > 0.0:
            raise DomainError(f"order must be positive, got {self.beta!r}")
        if self.kind is not OperatorKind.RL_INTEGRAL and abs(self.beta - round(self.beta)) < _INTEGER_GAP:
            raise DomainError(
                "integer-order differentiation is the iterated staircase "
                f"derivative, not a kernel operator (order {self.beta!r}, "
                f"within {_INTEGER_GAP} of an integer)"
            )
        if self.kind is not OperatorKind.RL_INTEGRAL and self.beta > 2.0:
            raise DomainError(f"derivative orders above 2 are not supported, got {self.beta!r}")
        if self.nodes_per_unit < 8:
            raise DomainError("nodes_per_unit must be at least 8")

    @property
    def n(self) -> int:
        """Smallest integer dominating the order (equal for integer orders)."""
        return math.ceil(self.beta)


def _node_count(spec: OperatorSpec, span: float) -> int:
    return min(4096, max(32, int(math.ceil(spec.nodes_per_unit * span))))


def _reflected(g):
    """t -> g(-t), which carries a right-sided problem to a left-sided one."""
    return lambda t: g(-t)


def _rl_u(g, spec: OperatorSpec, ua: float, order: float, u: float) -> float:
    """Left RL operator of g in u, u >= ua: an integral for order > 0 and a
    derivative of order -order for order < 0 (not an integer), both one
    product integral against (u - v)^(order - 1) / Gamma(order).

    ua is the terminal's staircase coordinate. For a derivative the integral
    is a Hadamard finite part.
    """
    span = u - ua
    if span == 0.0:
        if order > 0.0:
            return 0.0
        raise DomainError("derivative is not defined at the terminal itself")
    mesh = quadrature.graded_mesh_two_sided(ua, u, _node_count(spec, span))
    return quadrature.product_integrate(g, mesh, order - 1.0) * rgamma(order)


def _caputo_u(g, spec: OperatorSpec, ua: float, u: float) -> float:
    """Left Caputo derivative in u, as the RL derivative of the Taylor remainder.

    Equivalent to kernel-integrating the inner n-th derivative, but stays
    accurate when that derivative blows up at the terminal (as it does for
    solutions carrying fractional powers of the staircase): the integral
    machinery sees the bounded remainder instead of a singular derivative.
    """
    coeffs = [g(ua)] + [difference(g, ua, _TAYLOR_STEP, j, 1.0) for j in range(1, spec.n)]

    def remainder(v):
        w = v - ua
        acc = g(v)
        fact = 1.0
        for j, c in enumerate(coeffs):
            if j:
                fact *= j
            acc = acc - c * w**j / fact
        return acc

    return _rl_u(remainder, spec, ua, -spec.beta, u)


def _require_kind(spec: OperatorSpec, kind: OperatorKind) -> None:
    if spec.kind is not kind:
        raise DomainError(f"operator spec is {spec.kind.value}, expected {kind.value}")


def evaluate_u(spec: OperatorSpec, g, sf, u: float) -> float:
    """The operator of spec applied to the u-space integrand g, at u.

    g follows the integrand protocol (a float or a float array of u in, the
    same shape out); sf only locates the terminal, at u = S(spec.terminal).
    A right-sided spec is evaluated as the left operator at -u of t -> g(-t).
    """
    ua = sf.eval(spec.terminal)
    if spec.side is Side.RIGHT:
        if u > ua:
            raise DomainError("evaluation point follows the right terminal")
        g, ua, u = _reflected(g), -ua, -u
    elif u < ua:
        raise DomainError("evaluation point precedes the left terminal")
    if spec.kind is OperatorKind.RL_INTEGRAL:
        return _rl_u(g, spec, ua, spec.beta, u)
    if spec.kind is OperatorKind.RL_DERIVATIVE:
        return _rl_u(g, spec, ua, -spec.beta, u)
    return _caputo_u(g, spec, ua, u)


def evaluate(spec: OperatorSpec, f, sf, x) -> float:
    """The operator of spec applied to f, at x."""
    return evaluate_u(spec, conjugate(f, sf), sf, sf.eval(x))


def rl_integral(spec: OperatorSpec, f, sf, x) -> float:
    """Staircase RL integral of f at x, order spec.beta from spec.terminal."""
    _require_kind(spec, OperatorKind.RL_INTEGRAL)
    return evaluate(spec, f, sf, x)


def rl_derivative(spec: OperatorSpec, f, sf, x) -> float:
    """Staircase RL derivative of f at x."""
    _require_kind(spec, OperatorKind.RL_DERIVATIVE)
    return evaluate(spec, f, sf, x)


def caputo_derivative(spec: OperatorSpec, f, sf, x) -> float:
    """Staircase Caputo derivative of f at x."""
    _require_kind(spec, OperatorKind.CAPUTO)
    return evaluate(spec, f, sf, x)


def power_rule_integral(beta: float, eta: float, sf, a, x) -> float:
    """Closed-form RL integral of (S - S(a))^eta at x."""
    if not eta > -1.0:
        raise DomainError(f"power exponent must exceed -1, got {eta!r}")
    if not beta > 0.0:
        raise DomainError(f"order must be positive, got {beta!r}")
    du = sf.eval(x) - sf.eval(a)
    if du < 0.0:
        raise DomainError("evaluation point precedes the terminal")
    coeff = math.exp(math.lgamma(eta + 1.0) - math.lgamma(eta + beta + 1.0))
    return coeff * du ** (eta + beta)


def power_rule_derivative(beta: float, eta: float, sf, a, x) -> float:
    """Closed-form RL derivative of (S - S(a))^eta at x; 0 on Gamma poles."""
    if not eta > -1.0:
        raise DomainError(f"power exponent must exceed -1, got {eta!r}")
    if not beta > 0.0:
        raise DomainError(f"order must be positive, got {beta!r}")
    du = sf.eval(x) - sf.eval(a)
    if du < 0.0:
        raise DomainError("evaluation point precedes the terminal")
    r = rgamma(eta - beta + 1.0)
    if r == 0.0:
        return 0.0
    if du == 0.0 and eta < beta:
        raise DomainError("derivative of this power diverges at the terminal")
    return math.gamma(eta + 1.0) * r * du ** (eta - beta)


class CompositionKind(enum.Enum):
    RL_LEFT = "rl-left"
    RL_RIGHT = "rl-right"
    CAPUTO_LEFT = "caputo-left"
    CAPUTO_RIGHT = "caputo-right"


def _rl_boundary_terms(g, spec: OperatorSpec, ua: float, w: float) -> float:
    """Left RL composition corrections at staircase distance w from the terminal.

    Term j carries the limit of the order beta - j derivative at the
    terminal (an integral when beta - j < 0), divided by Gamma(beta + 1 - j).
    """
    beta = spec.beta
    probe = ua + DELTA_BOUNDARY
    total = 0.0
    for j in range(1, spec.n + 1):
        order_j = beta - j
        if order_j == 0.0:
            limit = g(probe)
        else:
            limit = _rl_u(g, spec, ua, -order_j, probe)
        total += limit * rgamma(beta - j + 1.0) * w ** (beta - j)
    return total


def _caputo_boundary_terms(g, spec: OperatorSpec, ua: float, w: float) -> float:
    """Left Caputo composition corrections: the Taylor head, degrees 0 to n - 1."""
    probe = ua + DELTA_BOUNDARY
    total = g(probe)
    for j in range(1, spec.n):
        total += difference(g, probe, _TAYLOR_STEP, j, 1.0) / math.factorial(j) * w ** j
    return total


def composition_residual(
    kind: CompositionKind,
    f,
    beta: float,
    sf,
    interval: tuple[float, float],
) -> float:
    """Max defect of integral-after-derivative against its identity.

    The inner derivative is sampled once on a grid clustered toward the
    terminal (where it is generically singular) and interpolated, so the
    outer integral does not re-run the derivative machinery at every
    quadrature node. Returns the sup of the absolute residual over 16 points
    evenly spaced in u, away from the terminal.

    A right-sided kind reflects g and the interval first. An RL kind with
    1 < beta < 2 raises DomainError unless g vanishes at the terminal: its
    inner derivative then carries a non-integrable g(terminal) * w^(-beta)
    head that the interpolation cannot follow.
    """
    a, b = float(interval[0]), float(interval[1])
    left = kind in (CompositionKind.RL_LEFT, CompositionKind.CAPUTO_LEFT)
    caputo = kind in (CompositionKind.CAPUTO_LEFT, CompositionKind.CAPUTO_RIGHT)
    spec = OperatorSpec(
        kind=OperatorKind.CAPUTO if caputo else OperatorKind.RL_DERIVATIVE,
        beta=beta,
        terminal=a if left else b,
    )
    g = conjugate(f, sf)
    ua = sf.eval(a)
    ub = sf.eval(b)
    if not ub > ua:
        raise DomainError("interval has empty staircase measure")
    if not left:
        g, ua, ub = _reflected(g), -ub, -ua
    g_term = 0.0 if caputo else g(ua)
    if spec.n == 2 and g_term != 0.0:
        raise DomainError(
            "RL composition of order above 1 needs f to vanish at the terminal, "
            f"got f = {g_term!r} there"
        )

    us = np.linspace(ua + 0.1 * (ub - ua), ub, 16)
    # Sample the inner operator on a grid clustered at the terminal.
    pad = 8.0 * DELTA_BOUNDARY
    frac = (np.arange(_INNER_SAMPLES) / (_INNER_SAMPLES - 1.0)) ** 4.0
    ugrid = (ua + pad) + (float(us.max()) - ua - pad) * frac
    if caputo:
        inner_vals = np.array([_caputo_u(g, spec, ua, float(w)) for w in ugrid])
    else:
        inner_vals = np.array([_rl_u(g, spec, ua, -beta, float(w)) for w in ugrid])
    if not np.isfinite(inner_vals).all():
        raise DomainError("inner operator produced non-finite samples")

    # The RL derivative carries a g(terminal) * w^(-beta) blowup at the
    # terminal that defeats linear interpolation; peel it off and add back
    # its exact recomposition, which is g(terminal) itself (Beta identity,
    # exponents beta-1 and -beta integrate to Gamma(beta)Gamma(1-beta)).
    head_coeff = 0.0
    if g_term != 0.0 and math.isfinite(g_term):
        head_coeff = g_term * rgamma(1.0 - beta)
        inner_vals = inner_vals - head_coeff * (ugrid - ua) ** -beta
    inner_fn = lambda v: np.interp(v, ugrid, inner_vals)

    boundary_terms = _caputo_boundary_terms if caputo else _rl_boundary_terms
    worst = 0.0
    for u in us:
        u = float(u)
        recomposed = _rl_u(inner_fn, spec, ua, beta, u)
        if head_coeff != 0.0:
            recomposed += head_coeff * gamma_classical(1.0 - beta)
        expected = g(u) - boundary_terms(g, spec, ua, u - ua)
        worst = max(worst, abs(recomposed - expected))
    return worst
