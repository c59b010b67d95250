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
`quadrature`: g takes a 1-D float ndarray of u, never a bare float, and
returns the same shape; each product integral evaluates its whole mesh in
one call. `evaluate_u` applies an operator to such a g directly; the x-space
entries (`evaluate`, `rl_integral`, `rl_derivative`, `caputo_derivative`)
wrap f as `ConjugatedFn(f, sf)`, which takes the quantiles of a whole mesh in
one batch and then calls the opaque f once per node. An integrand known in
closed form in u, such as a solution built from staircase powers, skips the
quantile altogether.

An `OperatorSpec` (kind, order, terminal, side) describes every operator,
including the derivative whose composition identity `composition_residual`
checks. Right-sided operators are the left-sided ones conjugated by the
reflection t -> -t: the right operator at u with terminal ua, acting on g,
is the left operator at -u with terminal -ua, acting on t -> g(-t). Because
-d/du is d/dt, derivatives need no (-1)^n factor. `_left_sided` does that
reflection and the terminal checks for both `evaluate_u` and
`composition_residual`; every helper below them is left-sided.
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
_NODES_PER_UNIT = 256  # product-rule mesh density, clamped to 32-4,096 nodes
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
    """Operator kind, order and terminal, and the side it acts from."""

    kind: OperatorKind
    beta: float
    terminal: float
    side: Side = Side.LEFT

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

    @property
    def n(self) -> int:
        """Smallest integer dominating the order (equal for integer orders)."""
        return math.ceil(self.beta)


def _node_count(span: float) -> int:
    return min(4096, max(32, int(math.ceil(_NODES_PER_UNIT * span))))


def _left_sided(spec: OperatorSpec, g, sf, u: float):
    """(g, ua, u) of the left-sided problem equal to spec's problem at u.

    ua = S(spec.terminal). A right-sided spec is reflected: t -> g(-t), -ua
    and -u. A u on the wrong side of the terminal raises DomainError.
    """
    ua = sf.eval(spec.terminal)
    if spec.side is Side.RIGHT:
        if u > ua:
            raise DomainError("evaluation point follows the right terminal")
        return (lambda t: g(-t)), -ua, -u
    if u < ua:
        raise DomainError("evaluation point precedes the left terminal")
    return g, ua, u


def _rl_u(g, ua: float, order: float, u: float) -> float:
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
    mesh = quadrature.graded_mesh_two_sided(ua, u, _node_count(span))
    return quadrature.product_integrate(g, mesh, order - 1.0) * rgamma(order)


def _taylor_head(g, spec: OperatorSpec, ua: float) -> tuple[float, float]:
    """(g(ua), c1) of the Taylor head at the terminal; c1 != 0 only for a Caputo order above 1.
    A non-finite g(ua) has no Taylor head and raises DomainError."""
    c0 = float(g(np.array([ua]))[0])
    if not math.isfinite(c0):
        raise DomainError(f"integrand is {c0!r} at the terminal u = {ua!r}")
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
    return _rl_u(lambda v: g(v) - c0 - c1 * (v - ua), ua, -spec.beta, u)


def _require_kind(spec: OperatorSpec, kind: OperatorKind) -> None:
    if spec.kind is not kind:
        raise DomainError(f"operator spec is {spec.kind.value}, expected {kind.value}")


def evaluate_u(spec: OperatorSpec, g, sf, u: float) -> float:
    """The operator of spec applied to the u-space integrand g, at u.

    g follows the integrand protocol (a 1-D float array of u in, never a
    bare float, the same shape out); sf only locates the terminal, at u =
    S(spec.terminal).
    A right-sided spec is evaluated as the left operator at -u of t -> g(-t)
    (see `_left_sided`).
    """
    g, ua, u = _left_sided(spec, g, sf, u)
    if spec.kind is OperatorKind.RL_INTEGRAL:
        return _rl_u(g, ua, spec.beta, u)
    if spec.kind is OperatorKind.RL_DERIVATIVE:
        return _rl_u(g, ua, -spec.beta, u)
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


def composition_residual(spec: OperatorSpec, f, sf, end) -> float:
    """Max defect of integral-after-derivative against its identity, over
    the interval from spec.terminal to end.

    spec is the derivative (RL_DERIVATIVE or CAPUTO) with its order,
    terminal and side; end lies after a left terminal or before a right
    one, and the interval needs positive staircase measure, else DomainError.
    A right-sided spec is reflected as in `evaluate_u`. Every kind composes
    on the Taylor remainder r = g - c0 - c1 (u - ua) that `_caputo_u` takes
    the RL derivative of, and the RL integral of that derivative should give
    r back. An RL derivative of order above 1 needs g(terminal) = 0 (so
    r = g), else the g(terminal) w^(-beta) head of its derivative is not
    integrable and it raises DomainError; its identity keeps one boundary
    term, [D^(beta - 1) g] one probe past the terminal times w^(beta - 1) /
    Gamma(beta). Every other term is the integral of a bounded function over
    a vanishing interval, 0.

    Returns the sup of the absolute residual over 16 points evenly spaced in
    u, away from the terminal. The inner derivative is sampled on one mesh
    through them, graded as (k/80)^4 toward the terminal, where it is
    generically singular, and 6 uniform cells between neighbours; each outer
    integral is the product rule on that mesh, the terminal holding the
    first sample.
    """
    if spec.kind is OperatorKind.RL_INTEGRAL:
        raise DomainError("composition identities take a derivative spec, got rl-integral")
    beta = spec.beta
    g, ua, ub = _left_sided(spec, ConjugatedFn(f, sf), sf, sf.eval(end))
    if not ub > ua:
        raise DomainError("interval has empty staircase measure")
    c0, c1 = _taylor_head(g, spec, ua)
    rl_above_one = spec.kind is OperatorKind.RL_DERIVATIVE and spec.n == 2
    if rl_above_one and c0 != 0.0:
        raise DomainError(
            "RL composition of order above 1 needs f to vanish at the terminal, "
            f"got f = {c0!r} there"
        )

    def r(v):
        return g(v) - c0 - c1 * (v - ua)

    us = np.linspace(ua + 0.1 * (ub - ua), ub, 16)
    mesh = np.concatenate([
        ua + (us[0] - ua) * (np.arange(81) / 80.0) ** 4.0,
        (us[:-1, None] + np.diff(us)[:, None] * (np.arange(1, 7) / 6.0)).ravel(),
    ])
    mesh[80::6] = us  # the outer points, exactly
    inner = [_rl_u(r, ua, -beta, w) for w in mesh[1:].tolist()]
    inner = np.array(inner[:1] + inner)  # the terminal holds the first sample
    if not np.isfinite(inner).all():
        raise DomainError("inner operator produced non-finite samples")

    # [D^(beta - 1) r] / Gamma(beta) one probe past the terminal
    limit = 0.0
    if rl_above_one:
        limit = _rl_u(r, ua, 1.0 - beta, ua + DELTA_BOUNDARY) * rgamma(beta)
    recomposed = [
        float((quadrature.product_weights(mesh[:end], beta - 1.0) * inner[:end]).sum())
        for end in range(81, len(mesh) + 1, 6)
    ]
    expected = r(us) - limit * (us - ua) ** (beta - 1.0)
    return float(np.max(np.abs(np.array(recomposed) * rgamma(beta) - expected)))
