"""The four staircase differential equations and their verified solutions.

Each problem is solved through the transform rule of its operator
(`transform_caputo` or `transform_rl_derivative`): apply the rule to the
unknown image with the data that fit its slots, subtract lam times the
unknown, move the known terms to the right-hand side, divide by the symbol
of the operator (a resolvent when a zero-order term is present), and invert
term by term into staircase powers and Mittag-Leffler factors. The result
is then checked the hard way, by applying the governing operator
numerically and measuring the residual against the right-hand side.
Variant closed forms in circulation for these problems are evaluated
alongside and measured by the same residual, never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import quadrature
from .core import GridFunction
from .exceptions import DomainError
from .laplace import (
    InverseTerm,
    LaplaceExpr,
    LaplaceTerm,
    _slot_orders,
    evaluate_inverse,
    invert_terms,
    solve_resolvent,
    transform_caputo,
    transform_power,
    transform_rl_derivative,
    unknown_transform,
)
from .nonlocal_ops import OperatorKind, OperatorSpec, evaluate_u
from .special import mittag_leffler, ml_half_half_closed, rgamma
from .staircase import StaircaseFn


@dataclass(frozen=True)
class InitialDatum:
    """One supplied terminal datum: operator order, terminal point, value.

    Integer orders are iterated staircase derivatives; fractional orders are
    RL operators (negative = integral). Whether a datum fits a slot of the
    governing operator's transform rule is computed from its order when the
    problem is derived.
    """

    order: Fraction
    terminal: float
    value: float


@dataclass(frozen=True)
class ExampleProblem:
    """operator(y) = lam * y + rhs, with terminal data."""

    example_id: int
    operator: OperatorSpec
    order: Fraction
    rhs_terms: tuple[tuple[float, Fraction], ...]
    initial_data: tuple[InitialDatum, ...]
    lam: float


@dataclass
class SolutionReport:
    """Derived solution, its operator residual, and the variant comparison."""

    problem: ExampleProblem
    solution: GridFunction
    residual: GridFunction
    max_residual: float
    variant_discrepancy: float
    variant_max_residual: float
    transform: LaplaceExpr
    derived_terms: tuple[InverseTerm, ...]
    notes: tuple[str, ...]
    solution_fn: object


_HALF = Fraction(1, 2)


def example_problem(example_id: int, lam: float = -0.5) -> ExampleProblem:
    """The four fixed problems; lam only parameterizes the fourth."""
    if example_id == 1:
        return ExampleProblem(
            1,
            OperatorSpec(OperatorKind.CAPUTO, 0.5, terminal=0.0),
            _HALF,
            ((2.0, Fraction(0)),),
            (InitialDatum(Fraction(1), 0.0, 1.0),),
            0.0,
        )
    if example_id == 2:
        return ExampleProblem(
            2,
            OperatorSpec(OperatorKind.CAPUTO, 0.5, terminal=1.0),
            _HALF,
            ((-1.0, Fraction(1)),),
            (InitialDatum(Fraction(1), 1.0, 0.0),),
            0.0,
        )
    if example_id == 3:
        return ExampleProblem(
            3,
            OperatorSpec(OperatorKind.RL_DERIVATIVE, 0.5, terminal=0.0),
            _HALF,
            (),
            (InitialDatum(Fraction(-1, 2), 0.0, 1.0),),
            1.0,
        )
    if example_id == 4:
        if not math.isfinite(lam):
            raise DomainError(f"lambda must be finite, got {lam!r}")
        return ExampleProblem(
            4,
            OperatorSpec(OperatorKind.RL_DERIVATIVE, 4.0 / 3.0, terminal=0.0),
            Fraction(4, 3),
            ((1.0, Fraction(2)),),
            (
                InitialDatum(Fraction(1, 3), 0.0, 1.0),
                InitialDatum(Fraction(-1, 6), 0.0, 2.0),
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

    Works in the coordinate w = S(x) - S(terminal), so the standard
    terminal-zero transform rules apply to every problem, including the one
    based at S = 1. A datum fits when its order is one of the rule's slot
    orders, and an empty slot before a filled one takes 0. When no datum of
    a Caputo problem fits, the first one's value is taken as the terminal
    value of y, the rule's first slot. A datum that fits no slot otherwise
    is left out, and a zero-coefficient term keeps its place at
    sigma^(beta - 1 - order).
    """
    beta = problem.order
    caputo = problem.operator.kind is OperatorKind.CAPUTO
    rule = transform_caputo if caputo else transform_rl_derivative
    slots = _slot_orders(rule, beta)
    values = {d.order: d.value for d in problem.initial_data if d.order in slots}
    left_out = [d.order for d in problem.initial_data if d.order not in slots]
    if caputo and not values and problem.initial_data:
        values, left_out = {slots[0]: problem.initial_data[0].value}, []
    filled = max((slots.index(o) + 1 for o in values), default=0)
    data = [values.get(o, 0.0) for o in slots[:filled]]

    unknown = unknown_transform()
    equation = rule(unknown, beta, data) + unknown.scaled(-problem.lam)
    rhs = LaplaceExpr.zero()
    for coeff, eta in problem.rhs_terms:
        rhs = rhs + transform_power(eta).scaled(coeff)
    # the unknown terms of the equation are the symbol sigma^beta - lam,
    # divided out below; the known terms move to the right-hand side
    known = LaplaceExpr(tuple(t for t in equation.terms if not t.unknown))
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
        return (InverseTerm(1.0, Fraction(-1, 2), _HALF, _HALF, -1.0),), (
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


def default_grid(example_id: int, sf, count: int = 25):
    """Grid with S(x) in [t + 1/10, t + 1], t the terminal (0, or 1 = S(1) for example 2)."""
    base = Fraction(example_problem(example_id).operator.terminal)
    lo, hi = base + Fraction(1, 10), base + 1
    us = [lo + (hi - lo) * Fraction(i, count - 1) for i in range(count)]
    return [sf.quantile_exact(u) for u in us]


def _terms_u(terms, ua: float):
    """The inverse terms as an integrand of u: no quantile, and arrays of u."""
    return lambda u: evaluate_inverse(terms, u - ua)


def _terms_fn(terms, sf, ua: float):
    g = _terms_u(terms, ua)
    return lambda x: g(sf.eval(x))


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


def _residuals(problem: ExampleProblem, terms, sf, ua: float, us, vals) -> np.ndarray:
    """|operator(y) - lam y - rhs| / max(1, |lam y + rhs|) at each u, for y = the
    terms with values vals on us; the operator acts on y in u, with no quantile."""
    y = _terms_u(terms, ua)
    out = np.empty(len(us))
    for i, u in enumerate(us):
        w = u - ua
        rhs = problem.lam * vals[i] + sum(c * w ** float(eta) for c, eta in problem.rhs_terms)
        out[i] = abs(evaluate_u(problem.operator, y, sf, u) - rhs) / max(1.0, abs(rhs))
    return out


def solve_example(
    example_id: int,
    sf=None,
    lam: float = -0.5,
    grid=None,
) -> SolutionReport:
    """Derive, evaluate, and residual-check one example problem."""
    if sf is None:
        sf = StaircaseFn()
    problem, image, notes, terms, ua = _derived(example_id, sf, lam)
    xs = list(grid if grid is not None else default_grid(example_id, sf))
    # The grid values of each term set are one call on a list, with the bits
    # of the per-point calls.
    xs_float = np.array([float(x) for x in xs])
    us = [sf.eval(x) for x in xs]
    ws = [u - ua for u in us]
    sol_vals = evaluate_inverse(terms, ws)
    solution = GridFunction(xs_float, sol_vals)
    res_vals = _residuals(problem, terms, sf, ua, us, sol_vals)

    variant_terms, variant_note = _variant_terms(problem)
    var_vals = evaluate_inverse(variant_terms, ws)
    try:
        variant_residuals = _residuals(problem, variant_terms, sf, ua, us, var_vals)
        variant_max_residual = float(np.max(variant_residuals))
    except (ArithmeticError, ValueError, RuntimeError):
        variant_max_residual = math.inf

    return SolutionReport(
        problem=problem,
        solution=solution,
        residual=GridFunction(xs_float, res_vals),
        max_residual=float(np.max(res_vals)),
        variant_discrepancy=float(np.max(np.abs(var_vals - sol_vals))),
        variant_max_residual=variant_max_residual,
        transform=image,
        derived_terms=terms,
        notes=notes + (variant_note,),
        solution_fn=_terms_fn(terms, sf, ua),
    )


def gap_plateau_spread(report: SolutionReport, gap=None, samples: int = 5) -> float:
    """Spread of the solution over a deleted-gap interval; 0 when constant.

    Defaults to the central gap (1/3, 2/3), shifted past the terminal: into
    (4/3, 5/3) for the problem whose domain starts at S = 1.
    """
    if gap is None:
        shift = Fraction(report.problem.operator.terminal)
        gap = (Fraction(1, 3) + shift, Fraction(2, 3) + shift)
    lo, hi = Fraction(gap[0]), Fraction(gap[1])
    pts = [lo + (hi - lo) * Fraction(k + 1, samples + 1) for k in range(samples)]
    vals = [report.solution_fn(p) for p in pts]
    return max(vals) - min(vals)


def _classical_oracle(example_id: int, xs, lam: float):
    """Classical solutions for the identity-map limit, built independently.

    The first three use textbook closed forms (error function form for the
    half-order resolvent); the fourth uses variation of parameters, with the
    forcing convolved against the resolvent kernel by direct quadrature.
    """
    xs = [float(x) for x in xs]
    if example_id == 1:
        return [1.0 + (4.0 / math.sqrt(math.pi)) * math.sqrt(x) for x in xs]
    if example_id == 2:
        return [-(4.0 / (3.0 * math.sqrt(math.pi))) * (x - 1.0) ** 1.5 for x in xs]
    if example_id == 3:
        return [ml_half_half_closed(math.sqrt(x)) / math.sqrt(x) for x in xs]
    if example_id == 4:
        beta = 4.0 / 3.0

        def kernel(t: float) -> float:
            return t ** (beta - 1.0) * mittag_leffler(beta, beta, lam * t ** beta)

        out = []
        for x in xs:
            homogeneous = kernel(x)
            forced = quadrature.gauss_composite(
                lambda t: kernel(x - t) * t * t, 0.0, x, nodes=96
            )
            out.append(homogeneous + forced)
        return out
    raise DomainError(f"example id must be 1..4, got {example_id!r}")


def alpha_one_degeneration(example_id: int, grid=None, lam: float = -0.5) -> float:
    """Max deviation from the classical solution when the map is identity."""
    from .staircase import IdentityMap

    sf = IdentityMap()
    report = solve_example(example_id, sf=sf, lam=lam, grid=grid)
    oracle = _classical_oracle(example_id, report.solution.xs, lam)
    return float(np.max(np.abs(report.solution.values - np.asarray(oracle))))
