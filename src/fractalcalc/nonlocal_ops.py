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
wrap f as `ConjugatedFn(f, sf)`, which takes the quantiles of a whole mesh in
one batch and then calls the opaque f once per node. An integrand known in
closed form in u, such as a solution built from staircase powers, skips the
quantile altogether.

Right-sided operators are the left-sided ones conjugated by the reflection
t -> -t: the right operator at u with terminal ua, acting on g, is the left
operator at -u with terminal -ua, acting on t -> g(-t). Because -d/du is
d/dt, derivatives need no (-1)^n factor. `evaluate_u` and
`composition_residual` reflect once; every helper below them is left-sided.
Derivative orders go up to 2 (n = ceil(beta) is 1 or 2): the quadratic
rule needs -beta - 1 > -3, and the Caputo Taylor head is then at most
linear, its slope from the first difference of `core.difference`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .core import ConjugatedFn, difference
from .exceptions import DomainError
from .special import rgamma

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


def _taylor_head(g, spec: OperatorSpec, ua: float) -> tuple[float, float]:
    """(g(ua), c1) of the Taylor head at the terminal; c1 != 0 only for a Caputo order above 1."""
    c0 = g(ua)
    if spec.kind is OperatorKind.CAPUTO and spec.n == 2:
        return c0, difference(g, ua, _TAYLOR_STEP, 1.0)
    return c0, 0.0


def _caputo_u(g, spec: OperatorSpec, ua: float, u: float) -> float:
    """Left Caputo derivative in u, as the RL derivative of the Taylor remainder.

    Equivalent to kernel-integrating the inner n-th derivative, but stays
    accurate when that derivative blows up at the terminal (as it does for
    solutions carrying fractional powers of the staircase): the integral
    machinery sees the bounded remainder instead of a singular derivative.
    """
    c0, c1 = _taylor_head(g, spec, ua)
    return _rl_u(lambda v: g(v) - c0 - c1 * (v - ua), spec, ua, -spec.beta, u)


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
    return evaluate_u(spec, ConjugatedFn(f, sf), sf, sf.eval(x))


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


def _power_span(beta: float, eta: float, sf, a, x) -> float:
    """S(x) - S(a), after the argument checks the power rules share."""
    if not eta > -1.0:
        raise DomainError(f"power exponent must exceed -1, got {eta!r}")
    if not beta > 0.0:
        raise DomainError(f"order must be positive, got {beta!r}")
    du = sf.eval(x) - sf.eval(a)
    if du < 0.0:
        raise DomainError("evaluation point precedes the terminal")
    return du


def power_rule_integral(beta: float, eta: float, sf, a, x) -> float:
    """Closed-form RL integral of (S - S(a))^eta at x."""
    du = _power_span(beta, eta, sf, a, x)
    coeff = math.exp(math.lgamma(eta + 1.0) - math.lgamma(eta + beta + 1.0))
    return coeff * du ** (eta + beta)


def power_rule_derivative(beta: float, eta: float, sf, a, x) -> float:
    """Closed-form RL derivative of (S - S(a))^eta at x; 0 on Gamma poles."""
    du = _power_span(beta, eta, sf, a, x)
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


def composition_residual(
    kind: CompositionKind,
    f,
    beta: float,
    sf,
    interval: tuple[float, float],
) -> float:
    """Max defect of integral-after-derivative against its identity.

    A right-sided kind reflects g and the interval first. Every kind composes
    on the Taylor remainder r = g - c0 - c1 (u - ua) that `_caputo_u` takes
    the RL derivative of, and the RL integral of that derivative should give
    r back. An RL kind of order above 1 needs g(terminal) = 0 (so r = g),
    else the g(terminal) w^(-beta) head of its derivative is not integrable
    and it raises DomainError; its identity keeps one boundary term,
    [D^(beta - 1) g] one probe past the terminal times w^(beta - 1) /
    Gamma(beta). Every other term is the integral of a bounded function over
    a vanishing interval, 0.

    The inner derivative is sampled once on a grid clustered toward the
    terminal (where it is generically singular) and interpolated. Returns
    the sup of the absolute residual over 16 points evenly spaced in u, away
    from the terminal.
    """
    a, b = float(interval[0]), float(interval[1])
    left = kind in (CompositionKind.RL_LEFT, CompositionKind.CAPUTO_LEFT)
    caputo = kind in (CompositionKind.CAPUTO_LEFT, CompositionKind.CAPUTO_RIGHT)
    kind_op = OperatorKind.CAPUTO if caputo else OperatorKind.RL_DERIVATIVE
    spec = OperatorSpec(kind_op, beta, terminal=a if left else b)
    g = ConjugatedFn(f, sf)
    ua, ub = sf.eval(a), sf.eval(b)
    if not ub > ua:
        raise DomainError("interval has empty staircase measure")
    if not left:
        g, ua, ub = _reflected(g), -ub, -ua
    c0, c1 = _taylor_head(g, spec, ua)
    rl_above_one = not caputo and spec.n == 2
    if rl_above_one and c0 != 0.0:
        raise DomainError(
            "RL composition of order above 1 needs f to vanish at the terminal, "
            f"got f = {c0!r} there"
        )

    def r(v):
        return g(v) - c0 - c1 * (v - ua)

    us = np.linspace(ua + 0.1 * (ub - ua), ub, 16)
    # Sample the inner operator on a grid clustered at the terminal.
    pad = 8.0 * DELTA_BOUNDARY
    frac = (np.arange(_INNER_SAMPLES) / (_INNER_SAMPLES - 1.0)) ** 4.0
    ugrid = (ua + pad) + (float(us.max()) - ua - pad) * frac
    inner_vals = np.array([_rl_u(r, spec, ua, -beta, float(w)) for w in ugrid])
    if not np.isfinite(inner_vals).all():
        raise DomainError("inner operator produced non-finite samples")
    inner_fn = lambda v: np.interp(v, ugrid, inner_vals)

    # [D^(beta - 1) r] / Gamma(beta) one probe past the terminal
    limit = 0.0
    if rl_above_one:
        limit = _rl_u(r, spec, ua, 1.0 - beta, ua + DELTA_BOUNDARY) * rgamma(beta)
    worst = 0.0
    for u in us:
        u = float(u)
        recomposed = _rl_u(inner_fn, spec, ua, beta, u)
        expected = r(u) - limit * (u - ua) ** (beta - 1.0)
        worst = max(worst, abs(recomposed - expected))
    return worst
