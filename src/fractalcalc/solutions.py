"""The four staircase differential equations and their verified solutions.

Each problem is solved through the transform rule of its operator
(`transform_caputo` or `transform_rl_derivative`): the rule applied to an
empty image gives the terms of the data that fit its slots, negated; they
move to the right-hand side, the sum is divided by sigma^beta - lam (a
resolvent when lam is not 0), and the image is inverted term by term into
staircase powers and Mittag-Leffler factors. The result is then checked the
hard way, by applying the governing operator numerically and measuring the
residual against the right-hand side. A solve derives, evaluates and checks
that solution only. The variant closed forms in circulation for these
problems are audited on demand by `variant_audit`, from the report alone: on
the exact points and the map the solve took, by the same residual, never
assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import GridFunction
from .exceptions import DomainError
from .laplace import (
    InverseTerm,
    LaplaceExpr,
    LaplaceTerm,
    _as_power,
    _slot_orders,
    evaluate_inverse,
    invert_terms,
    solve_resolvent,
    transform_caputo,
    transform_power,
    transform_rl_derivative,
)
from .nonlocal_ops import OperatorKind, OperatorSpec, _values_u
# mittag_leffler is not called here; it stays imported because perfbench's
# tracer looks `solutions.mittag_leffler` up by name
from .special import mittag_leffler, rgamma  # noqa: F401
from .staircase import StaircaseFn


@dataclass(frozen=True)
class InitialDatum:
    """One supplied datum at the governing operator's terminal: operator
    order and value.

    Integer orders are iterated staircase derivatives; fractional orders are
    RL operators (negative = integral). Whether a datum fits a slot of the
    governing operator's transform rule is computed from its order when the
    problem is derived.
    """

    order: Fraction
    value: float


@dataclass(frozen=True)
class ExampleProblem:
    """operator(y) = lam * y + rhs, with terminal data."""

    example_id: int
    operator: OperatorSpec
    rhs_terms: tuple[tuple[float, Fraction], ...]
    initial_data: tuple[InitialDatum, ...]
    lam: float


@dataclass
class SolutionReport:
    """Derived solution on a grid, its operator residual there, and the
    derivation: the image, its inverted terms and what it found about the data.

    grid holds the exact points the solve took, before any rounding to the
    floats of solution.xs, and sf the map it took S from."""

    problem: ExampleProblem
    solution: GridFunction
    residual: GridFunction
    max_residual: float
    transform: LaplaceExpr
    derived_terms: tuple[InverseTerm, ...]
    notes: tuple[str, ...]
    solution_fn: object
    grid: tuple
    sf: object


def example_problem(example_id: int, lam: float = -0.5) -> ExampleProblem:
    """The four fixed problems; lam only parameterizes the fourth."""
    if example_id == 1:
        return ExampleProblem(
            1,
            OperatorSpec(OperatorKind.CAPUTO, 0.5, terminal=0.0),
            ((2.0, Fraction(0)),),
            (InitialDatum(Fraction(1), 1.0),),
            0.0,
        )
    if example_id == 2:
        return ExampleProblem(
            2,
            OperatorSpec(OperatorKind.CAPUTO, 0.5, terminal=1.0),
            ((-1.0, Fraction(1)),),
            (InitialDatum(Fraction(1), 0.0),),
            0.0,
        )
    if example_id == 3:
        return ExampleProblem(
            3,
            OperatorSpec(OperatorKind.RL_DERIVATIVE, 0.5, terminal=0.0),
            (),
            (InitialDatum(Fraction(-1, 2), 1.0),),
            1.0,
        )
    if example_id == 4:
        if not math.isfinite(lam):
            raise DomainError(f"lambda must be finite, got {lam!r}")
        return ExampleProblem(
            4,
            OperatorSpec(OperatorKind.RL_DERIVATIVE, 4.0 / 3.0, terminal=0.0),
            ((1.0, Fraction(2)),),
            (
                InitialDatum(Fraction(1, 3), 1.0),
                InitialDatum(Fraction(-1, 6), 2.0),
            ),
            lam,
        )
    raise DomainError(f"example id must be 1..4, got {example_id!r}")


# What each derivation found about its data, in the words of the report.
_DERIVATION_NOTES = {
    1: (
        "the supplied first-derivative datum is unattainable (every "
        "solution has an unbounded staircase derivative at the terminal); "
        "its value is consumed as the terminal value of y, the slot the "
        "transform rule actually has",
    ),
    2: (
        "the supplied derivative datum holds identically for the whole "
        "solution family; the terminal value y = 0 is the choice that "
        "closes the problem and it reproduces the variant closed form",
    ),
    4: (
        "the order -1/6 datum fits no slot of the order 4/3 transform "
        "rule (slots take orders 1/3 and -2/3); it is excluded and the "
        "middle basis term keeps coefficient 0",
    ),
}


def _derive_transform(problem: ExampleProblem) -> tuple[LaplaceExpr, tuple[str, ...]]:
    """Transform the equation by the operator's rule and solve for the image.

    The image is Y = (rhs + D) / (sigma^beta - lam), -D the rule applied to
    the empty image. Works in the coordinate w = S(x) - S(terminal), so the
    standard terminal-zero transform rules apply to every problem, including
    the one based at S = 1. A datum fits when its order is one of the rule's
    slot orders, and an empty slot before a filled one takes 0. When no
    datum of a Caputo problem fits, the first one's value is taken as the
    terminal value of y, the rule's first slot. A datum that fits no slot
    otherwise is left out, and a zero-coefficient term keeps its place at
    sigma^(beta - 1 - order). The exact order beta is the operator's, read
    through the algebra's own float-to-Fraction rule.
    """
    beta = _as_power(problem.operator.beta)
    caputo = problem.operator.kind is OperatorKind.CAPUTO
    rule = transform_caputo if caputo else transform_rl_derivative
    slots = _slot_orders(rule, beta)
    values = {d.order: d.value for d in problem.initial_data if d.order in slots}
    left_out = [d.order for d in problem.initial_data if d.order not in slots]
    if caputo and not values and problem.initial_data:
        values, left_out = {slots[0]: problem.initial_data[0].value}, []
    filled = max((slots.index(o) + 1 for o in values), default=0)
    data = [values.get(o, 0.0) for o in slots[:filled]]

    rhs = LaplaceExpr.zero()
    for coeff, eta in problem.rhs_terms:
        rhs = rhs + transform_power(eta).scaled(coeff)
    known = rule(LaplaceExpr.zero(), beta, data)
    zeros = LaplaceExpr(tuple(LaplaceTerm(0.0, beta - 1 - o) for o in left_out))
    numerator = rhs - known + zeros
    if problem.lam == 0.0:
        image = numerator.shifted(-beta)
    else:
        image = solve_resolvent(numerator, beta, problem.lam)
    return image, _DERIVATION_NOTES.get(problem.example_id, ())


def _variant_terms(problem: ExampleProblem) -> tuple[tuple[InverseTerm, ...], str]:
    """Closed forms in circulation for these problems, for comparison only."""
    if problem.example_id == 1:
        terms = (
            InverseTerm(rgamma(1.5), Fraction(1)),
            InverseTerm(2.0 * rgamma(0.5), Fraction(-1, 2)),
        )
        return terms, (
            "a variant closed form adds an S^(-1/2) term, whose Caputo "
            "derivative diverges; the residual check rejects it"
        )
    if problem.example_id == 2:
        return (InverseTerm(-rgamma(2.5), Fraction(3, 2)),), (
            "the variant closed form matches the derived solution exactly"
        )
    if problem.example_id == 3:
        return (InverseTerm(1.0, Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2), -1.0),), (
            "the transform algebra fixes a positive Mittag-Leffler argument; "
            "the sign-flipped variant fails the residual check"
        )
    q = Fraction(4, 3)
    lam = problem.lam
    terms = (
        InverseTerm(1.0, q, q, q, lam),
        InverseTerm(2.0, Fraction(-1, 6), q, Fraction(5, 6), lam),
        InverseTerm(2.0, Fraction(10, 3), q, Fraction(13, 3), lam),
    )
    return terms, (
        "the variant formula carries coefficient 2 on the middle term "
        "and power 4/3 on the leading term; the rule-based inversion "
        "gives coefficient 0 and power 1/3, and the residual check "
        "confirms the derived form"
    )


def default_grid(example_id: int, sf):
    """25 points with S(x) evenly spaced over [t + 1/10, t + 1], t the terminal
    (0, or 1 = S(1) for example 2)."""
    base = Fraction(example_problem(example_id).operator.terminal)
    lo, hi = base + Fraction(1, 10), base + 1
    us = [lo + (hi - lo) * Fraction(i, 24) for i in range(25)]
    return [sf.quantile_exact(u) for u in us]


def _terms_fn(terms, sf, ua: float):
    # the list form: Python's **, so the bits of the grid values
    return lambda x: float(evaluate_inverse(terms, [sf.eval(x) - ua])[0])


def _derived(example_id: int, sf, lam: float):
    """(problem, image, notes, inverted terms, terminal u) of one example."""
    problem = example_problem(example_id, lam)
    image, notes = _derive_transform(problem)
    return problem, image, notes, invert_terms(image), sf.eval(problem.operator.terminal)


def example_solution_fn(example_id: int, sf=None, lam: float = -0.5):
    """Solution formula evaluator without the residual audit (for plotting)."""
    if sf is None:
        sf = StaircaseFn()
    _, _, _, terms, ua = _derived(example_id, sf, lam)
    return _terms_fn(terms, sf, ua)


def _on_grid(problem: ExampleProblem, terms, sf, xs, refused_reads_inf: bool = False):
    """One term set y on the points xs, exact or float: (its values, its residuals).

    The values are a GridFunction, one call on the list of u - S(terminal)
    with the bits of the per-point calls, so a grid that is not ascending or
    values that are not finite are refused first. The residual at each u is
    |operator(y) - lam y - rhs| / max(1, |lam y + rhs|); the operator acts on
    y in u, with no quantile, and samples y on the meshes of all points in one
    call. When refused_reads_inf, a residual pass that raises (an operator
    image that diverges) reads as one inf residual.
    """
    xs_float = np.array([float(x) for x in xs])
    ua = sf.eval(problem.operator.terminal)
    us = [sf.eval(x) for x in xs]
    y = GridFunction(xs_float, evaluate_inverse(terms, [u - ua for u in us]))
    residuals = np.empty(len(us))
    try:
        ops = _values_u(problem.operator, lambda u: evaluate_inverse(terms, u - ua), sf, us)
        for i, op in enumerate(ops):
            w = us[i] - ua
            rhs = problem.lam * y.values[i] + sum(c * w ** float(eta) for c, eta in problem.rhs_terms)
            residuals[i] = abs(op - rhs) / max(1.0, abs(rhs))
    except (ArithmeticError, ValueError, RuntimeError):
        if not refused_reads_inf:
            raise
        residuals = np.array([math.inf])
    return y, residuals


def solve_example(example_id: int, sf=None, lam: float = -0.5, grid=None) -> SolutionReport:
    """Derive, evaluate, and residual-check one example problem on grid (the
    default grid when None)."""
    if sf is None:
        sf = StaircaseFn()
    problem, image, notes, terms, ua = _derived(example_id, sf, lam)
    xs = tuple(grid if grid is not None else default_grid(example_id, sf))
    if not xs:
        raise DomainError("grid must hold at least one point")
    solution, res_vals = _on_grid(problem, terms, sf, xs)
    return SolutionReport(
        problem=problem,
        solution=solution,
        residual=GridFunction(solution.xs, res_vals),
        max_residual=float(np.max(res_vals)),
        transform=image,
        derived_terms=terms,
        notes=notes,
        solution_fn=_terms_fn(terms, sf, ua),
        grid=xs,
        sf=sf,
    )


def variant_audit(report: SolutionReport) -> tuple[float, float, str]:
    """(largest deviation from the derived solution, largest residual, note) of
    the variant closed form of the report's problem, on the report's grid and
    map; the residual is inf when its pass raises."""
    terms, note = _variant_terms(report.problem)
    variant, residuals = _on_grid(report.problem, terms, report.sf, report.grid, refused_reads_inf=True)
    deviation = float(np.max(np.abs(variant.values - report.solution.values)))
    return deviation, float(np.max(residuals)), note


def gap_plateau_spread(report: SolutionReport) -> float:
    """Spread of the solution over the central deleted gap; 0 when constant.

    The gap (1/3, 2/3) is shifted past the terminal: into (4/3, 5/3) for the
    problem whose domain starts at S = 1. Five points sample it, at
    lo + (k + 1)/18 for k = 0..4.
    """
    lo = Fraction(1, 3) + Fraction(report.problem.operator.terminal)
    pts = [lo + Fraction(k + 1, 18) for k in range(5)]
    vals = [report.solution_fn(p) for p in pts]
    return max(vals) - min(vals)
