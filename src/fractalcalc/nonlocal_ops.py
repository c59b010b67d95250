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
returns the same shape. The points of one grid keep their own meshes
(`quadrature._graded_nodes`) but share one S of the terminal, one call of g
(the terminal, then each mesh past it) and one product-rule call
(`_rl_values`): residual loops, compositions and CLI grids sample g once,
after every point is checked.
`evaluate_u` applies an operator to such a g at one point; the x-space
entries (`evaluate`, `rl_integral`, `rl_derivative`, `caputo_derivative`)
wrap f as `ConjugatedFn(f, sf)`, which takes the quantiles of the nodes in
one batch and then calls the opaque f once per node. An integrand known in
closed form in u, such as a solution built from staircase powers, skips the
quantile altogether.

An `OperatorSpec` (kind, order, terminal, side) describes every operator,
including the derivative whose composition identity `composition_residual`
checks. Right-sided operators are the left-sided ones conjugated by the
reflection t -> -t: the right operator at u with terminal ua, acting on g,
is the left operator at -u with terminal -ua, acting on t -> g(-t). Because
-d/du is d/dt, derivatives need no (-1)^n factor. `_left_sided` does that
reflection and the terminal checks for both `_values_u` and
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
# Derivative orders closer than this to an integer are refused: the kernel
# exponent -beta - 1 keeps only their first digits, and the finite part's
# pole term, of size 1/(n - beta), loses about 1e-16 / |n - beta| relative.
# Integral orders below it are refused for the same loss in beta - 1.
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
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise DomainError(f"order must be positive and finite, got {self.beta!r}")
        if self.kind is OperatorKind.RL_INTEGRAL and self.beta < _INTEGER_GAP:
            raise DomainError(f"integral orders below {_INTEGER_GAP} are not supported, got {self.beta!r}")
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


def _left_sided(spec: OperatorSpec, g, sf, us):
    """(g, ua, vs) of the left-sided problem equal to spec's problem at the
    points us: ua = S(spec.terminal), taken once, and a right-sided spec is
    reflected, t -> g(-t), -ua and each -u. vs is the list of the points in
    order; a point on the wrong side of the terminal raises DomainError, and
    g is not called."""
    sign = -1.0 if spec.side is Side.RIGHT else 1.0
    ua, vs = sign * sf.eval(spec.terminal), [sign * u for u in us]
    if any(v < ua for v in vs):
        side = "follows the right" if sign < 0.0 else "precedes the left"
        raise DomainError(f"evaluation point {side} terminal")
    return (g if sign > 0.0 else lambda t: g(-t)), ua, vs


def _rl_values(g, ua: float, order: float, us) -> list[float]:
    """Left RL operator of g at each u of us, all past the terminal ua: an
    integral for order > 0, a derivative of order -order (a Hadamard finite
    part) for order < 0, each one product integral on its own graded mesh
    against (u - v)^(order - 1) / Gamma(order), all in one call of the rule.

    g is called once, on the terminal and then every mesh's nodes past it.
    When that raises (a terminal blow-up may raise, not return inf), g is
    called past the terminal with a nan there, and if that raises too,
    DomainError is raised, chained from g's exception.
    """
    if not us:
        return []
    nodes, ends = quadrature._graded_nodes(ua, tuple(us))
    try:
        vals = np.asarray(g(nodes), dtype=float)
    except (ArithmeticError, ValueError):
        try:
            vals = np.concatenate(([math.nan], g(nodes[1:])))
        except (ArithmeticError, ValueError) as exc:
            raise DomainError(f"integrand raised on the mesh past the terminal: {exc}") from exc
    scale = rgamma(order)
    return [v * scale for v in quadrature.product_integrate(vals, nodes, order - 1.0, ends)]


def _taylor_head(g, spec: OperatorSpec, ua: float) -> tuple[float, float]:
    """(g(ua), c1) of the Taylor head at the terminal; c1 != 0 only for a Caputo order above 1.
    A non-finite g(ua) has no Taylor head and raises DomainError, and so does
    g raising there, chained from g's exception, as in `_rl_values`."""
    try:
        c0 = float(g(np.array([ua]))[0])
        slope = spec.kind is OperatorKind.CAPUTO and spec.n == 2 and math.isfinite(c0)
        c1 = difference(g, ua, _TAYLOR_STEP, 1.0) if slope else 0.0
    except (ArithmeticError, ValueError) as exc:
        raise DomainError(f"integrand raised at the terminal: {exc}") from exc
    if not math.isfinite(c0):
        raise DomainError(f"integrand is {c0!r} at the terminal u = {ua!r}")
    return c0, c1


def _require_kind(spec: OperatorSpec, kind: OperatorKind) -> None:
    if spec.kind is not kind:
        raise DomainError(f"operator spec is {spec.kind.value}, expected {kind.value}")


def _values_u(spec: OperatorSpec, g, sf, us) -> list[float]:
    """The operator of spec applied to the u-space integrand g at each u of
    us, in order, all points sharing one call of g (see `_rl_values`).

    An integral at the terminal is 0. A Caputo derivative is the RL
    derivative of the Taylor remainder g - c0 - c1 (v - ua), its head taken
    once: the rule then sees a bounded remainder, not a derivative singular
    at ua. Before g is sampled on the grid, DomainError refuses, in this
    order, a point on the wrong side of the terminal (see `_left_sided`), a
    Caputo head that is not finite, and a derivative at the terminal.
    """
    order = spec.beta if spec.kind is OperatorKind.RL_INTEGRAL else -spec.beta
    h, ua, vs = _left_sided(spec, g, sf, us)
    r = h
    if spec.kind is OperatorKind.CAPUTO and vs:
        c0, c1 = _taylor_head(h, spec, ua)
        r = lambda v: h(v) - c0 - c1 * (v - ua)
    if order < 0.0 and any(v == ua for v in vs):
        raise DomainError("derivative is not defined at the terminal itself")
    values = iter(_rl_values(r, ua, order, [v for v in vs if v != ua]))
    return [next(values) if v != ua else 0.0 for v in vs]


def evaluate_u(spec: OperatorSpec, g, sf, u: float) -> float:
    """The operator of spec applied to the u-space integrand g, at u.

    g follows the integrand protocol (a 1-D float array of u in, never a
    bare float, the same shape out); sf only locates the terminal, at u =
    S(spec.terminal).
    A right-sided spec is evaluated as the left operator at -u of t -> g(-t)
    (see `_left_sided`). This is `_values_u` at one point.
    """
    return _values_u(spec, g, sf, [u])[0]


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
    on the Taylor remainder r = g - c0 - c1 (u - ua) that `_values_u` takes
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
    generically singular, and 6 uniform cells between neighbours; its 170
    samples are product integrals on their own meshes, all of whose nodes
    take one call of g. Each outer integral is the product rule on the
    samples' mesh, the terminal holding the first sample.
    """
    if spec.kind is OperatorKind.RL_INTEGRAL:
        raise DomainError("composition identities take a derivative spec, got rl-integral")
    beta = spec.beta
    g, ua, (ub,) = _left_sided(spec, ConjugatedFn(f, sf), sf, [sf.eval(end)])
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
    inner = _rl_values(r, ua, -beta, mesh[1:].tolist())
    inner = np.array(inner[:1] + inner)  # the terminal holds the first sample
    if not np.isfinite(inner).all():
        raise DomainError("inner operator produced non-finite samples")

    # [D^(beta - 1) r] / Gamma(beta) one probe past the terminal
    limit = 0.0
    if rl_above_one:
        limit = _rl_values(r, ua, 1.0 - beta, [ua + DELTA_BOUNDARY])[0] * rgamma(beta)
    recomposed = [
        float((quadrature.product_weights(mesh[:end], beta - 1.0) * inner[:end]).sum())
        for end in range(81, len(mesh) + 1, 6)
    ]
    expected = r(us) - limit * (us - ua) ** (beta - 1.0)
    return float(np.max(np.abs(np.array(recomposed) * rgamma(beta) - expected)))
