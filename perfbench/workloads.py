"""The three benchmark workloads: seeded op lists, how each op calls the
library, and how each output is checked against `oracles`.

An op is a plain tuple whose first item names the public function it calls.
Every call goes through a module attribute (``nonlocal_ops.rl_integral``,
``laplace.laplace_numeric``, ...) looked up when the op runs, so the tracer's
patched names are the ones called.

Continuous parameters are stratified: n draws for n ops, one uniform draw in
each of n equal strata, then shuffled. The example solves go further: their
grid shifts and lams are n evenly spaced values at one seeded offset,
because their costs grow steeply with u. A seed changes every input, but
each op list covers its parameter ranges evenly, so the cost of one pass
over the list varies little from seed to seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from fractalcalc import core, laplace, nonlocal_ops, solutions
from fractalcalc.staircase import CantorSpec, StaircaseFn

import oracles


@dataclass(frozen=True)
class Workload:
    name: str
    make_ops: Callable[[random.Random, StaircaseFn], list]
    warmup_ops: Callable[[StaircaseFn], list]
    run: Callable[[tuple, StaircaseFn], object]
    #: The plain values of an output that its check reads, comparable with
    #: `==`, so that repeat executions of an op can be compared with the first.
    summary: Callable[[object], object]
    check: Callable[[tuple, object], float]
    #: Whether a miss with this error/tolerance ratio is a recorded known miss.
    known_miss: Callable[[tuple, float], bool]


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    vals = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(vals)
    return vals


def _lattice(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    offset = rng.random()
    vals = [lo + (hi - lo) * (i + offset) / n for i in range(n)]
    rng.shuffle(vals)
    return vals


def _rational(v: float, den: int = 10**6) -> Fraction:
    return Fraction(round(v * den), den)


# -- pointwise-ops ------------------------------------------------------------

#: Seeded ops of each of the four kinds in one pass.
POINTWISE_PER_KIND = 32

_OPERATOR_KINDS = {
    "rl_integral": nonlocal_ops.OperatorKind.RL_INTEGRAL,
    "rl_derivative": nonlocal_ops.OperatorKind.RL_DERIVATIVE,
    "caputo_derivative": nonlocal_ops.OperatorKind.CAPUTO,
}

# (kind, order range, exponent range). Verify samples orders 0.3 and 0.5 and
# exponents 0, 0.5, 1, 2 at u in [0.2, 1]; the orders are widened here, the
# integral's to 1.5. Caputo exponents start above 0 because the Caputo
# derivative of a constant is 0, which has no relative error.
_POINTWISE_RANGES = (
    ("rl_integral", (0.2, 1.5), (0.0, 2.0)),
    ("rl_derivative", (0.2, 0.8), (0.0, 2.0)),
    ("caputo_derivative", (0.2, 0.8), (0.25, 2.0)),
)


def _pointwise_ops(rng, sf):
    n = POINTWISE_PER_KIND
    ops = []
    ends = (Fraction(1, 5), Fraction(1))
    for kind, (b0, b1), (e0, e1) in _POINTWISE_RANGES:
        for beta, eta, u in zip(
            _strata(rng, n, b0, b1), _strata(rng, n, e0, e1), _strata(rng, n, 0.2, 1.0)
        ):
            u = _rational(u)
            ops.append((kind, beta, eta, u, sf.quantile_exact(u)))
        # The corners of the box, where discretisation error peaks, are in
        # every pass whatever the seed; one of them is the known miss.
        for beta, eta, u in itertools.product((b0, b1), (e0, e1), ends):
            ops.append((kind, beta, eta, u, sf.quantile_exact(u)))
    for eta, sigma in zip(_strata(rng, n, 0.0, 2.0), _strata(rng, n, 1.0, 5.0)):
        ops.append(("laplace_numeric", sigma, eta))
    for eta, sigma in itertools.product((0.0, 2.0), (1.0, 5.0)):
        ops.append(("laplace_numeric", sigma, eta))
    rng.shuffle(ops)
    return ops


def _pointwise_warmup(sf):
    u = Fraction(1, 2)
    x = sf.quantile_exact(u)
    return [(kind, 0.5, 1.0, u, x) for kind in _OPERATOR_KINDS] + [("laplace_numeric", 2.0, 1.0)]


def _pointwise_run(op, sf):
    kind = op[0]
    if kind == "laplace_numeric":
        _, sigma, eta = op
        return laplace.laplace_numeric(lambda x: sf.eval(x) ** eta, sf, sigma)
    _, beta, eta, _, x = op
    spec = nonlocal_ops.OperatorSpec(_OPERATOR_KINDS[kind], beta, terminal=0.0)
    return getattr(nonlocal_ops, kind)(spec, lambda t: sf.eval(t) ** eta, sf, x)


def _pointwise_check(op, value):
    kind = op[0]
    if kind == "laplace_numeric":
        _, sigma, eta = op
        want, tol = oracles.laplace_power(eta, sigma), oracles.LAPLACE_TOL
    else:
        _, beta, eta, u, _ = op
        rule = oracles.rl_integral_power if kind == "rl_integral" else oracles.rl_derivative_power
        want, tol = rule(beta, eta, float(u)), oracles.OPERATOR_TOL
    return abs(value - want) / (tol * abs(want))


#: The one recorded miss: the rl_integral corner at order 1.5, S^2 and
#: u = 1/5. Verify never samples integral orders above 0.5; here the
#: piecewise-linear product rule on its 52-cell mesh returns a relative
#: error of 1.0787e-3 against 1e-3.
KNOWN_MISS = ("rl_integral", 1.5, 2.0, Fraction(1, 5))
#: The error/tolerance ratio up to which that op's miss is excused.
KNOWN_MISS_CAP = 1.1


def _pointwise_known_miss(op, ratio):
    return tuple(op[:4]) == KNOWN_MISS and ratio <= KNOWN_MISS_CAP


# -- example-solve -------------------------------------------------------------

#: Solves of each example in one pass on 2-point grids, where each solve's
#: fixed derive/invert cost dominates, and on 25-point grids, the size
#: `default_grid` gives verify and `solve_example`, where the residual and
#: variant loops over the grid dominate. On a 2-core box a 2-point solve
#: takes 25-80 ms (example 1), 80-220 ms (2 and 3) or 230-650 ms (4),
#: growing with u; a 25-point solve about 0.8, 1.4, 2.2 or 4.7 s.
SMALL_GRID, FULL_GRID = 2, 25
SOLVES = {SMALL_GRID: {1: 6, 2: 4, 3: 9, 4: 6}, FULL_GRID: {1: 1, 2: 2, 3: 1, 4: 1}}
# A pass has 30 solves, and the 25-point ones take about 70% of its time.
# They are the five slowest, so the 90th percentile (rank 27 of 30 per
# pass) falls inside the block of 25-point example-2 solves, ranks 26-28,
# and near its middle for any number of passes; with one such solve per
# pass it would be their maximum in a 2-pass run and their median in a
# 3-pass run. The median falls among the 2-point examples 2 and 3.
#: Grid resolution in u, as for `default_grid`: exact rationals, then
#: `quantile_exact`.
_GRID_DEN = 1000


def _example_ops(rng, sf):
    ops = []
    for points, counts in SOLVES.items():
        for example_id, n in counts.items():
            lo, hi = (Fraction(11, 10), Fraction(2)) if example_id == 2 else (Fraction(1, 10), Fraction(1))
            # An evenly spaced grid of `points` in [lo, hi), shifted by a
            # seeded fraction of its spacing. The n shifts, and the lams, are
            # evenly spaced at one seeded offset, so every seed covers its
            # range, and the costs that grow with u, the same way.
            shifts = _lattice(rng, n, 0.0, 1.0)
            lams = _lattice(rng, n, -10.0, 2.0)
            for i in range(n):
                us = tuple(
                    lo + (hi - lo) * Fraction(int((j + shifts[i]) / points * _GRID_DEN), _GRID_DEN)
                    for j in range(points)
                )
                # lam only enters example 4; the others keep solve_example's default.
                lam = (lams[i] or 1e-3) if example_id == 4 else -0.5
                ops.append(("solve_example", example_id, lam, us, tuple(sf.quantile_exact(u) for u in us)))
    rng.shuffle(ops)
    return ops


def _example_warmup(sf):
    u = Fraction(1, 2)
    return [("solve_example", 1, -0.5, (u,), (sf.quantile_exact(u),))]


def _example_run(op, sf):
    _, example_id, lam, _, grid = op
    return solutions.solve_example(example_id, sf=sf, lam=lam, grid=list(grid))


def _example_summary(report):
    # The staircase is flat on the central deleted gap, so is the solution:
    # five values of the returned solution function inside it.
    lo = Fraction(1, 3) + (1 if report.problem.example_id == 2 else 0)
    plateau = tuple(report.solution_fn(lo + Fraction(k + 1, 18)) for k in range(5))
    basis = tuple(sorted((t.ml_eta, t.ml_nu, t.power) for t in report.derived_terms))
    return report.max_residual, tuple(report.solution.values.tolist()), plateau, basis


def _example_check(op, summary):
    _, example_id, lam, us, _ = op
    max_residual, values, plateau, basis = summary
    terminal = 1 if example_id == 2 else 0
    tol = oracles.ML_FORM_TOL if example_id == 4 else oracles.CLOSED_FORM_TOL
    ratio = max_residual / oracles.RESIDUAL_TOL
    for u, y in zip(us, values):
        want = oracles.example_value(example_id, float(u - terminal), lam)
        ratio = max(ratio, abs(y - want) / (tol * max(1.0, abs(want))))
    ratio = max(ratio, (max(plateau) - min(plateau)) / oracles.PLATEAU_TOL)
    if example_id == 4 and list(basis) != oracles.EXAMPLE4_BASIS:
        ratio = float("inf")
    return ratio


# -- exact-measure -------------------------------------------------------------

#: Staircase ops of each of the three kinds, and measure-rule integrals, in
#: one pass. About two thirds of the pass time is staircase work.
EXACT_PER_KIND = 3000
EXACT_INTEGRALS = 12
#: Polynomial degrees 0..5 and integration ranges [0, 1] and [0, 2].
_MAX_DEGREE = 5
_MOMENTS = oracles.cantor_moments(_MAX_DEGREE + 1)


def _non_dyadic(rng):
    while True:
        q = rng.randint(3, 10**9)
        x = Fraction(rng.randint(0, q), q)
        if x.denominator & (x.denominator - 1):
            return x


def _digit_point(rng, category):
    # in: digits 0/2 only; endpoint: 0/2 digits then a final 1 (a gap
    # endpoint, in the set); gap: a 1 followed by a nonzero tail (inside a
    # removed open middle third, not in the set).
    if category == "in":
        return oracles.from_ternary([rng.choice((0, 2)) for _ in range(rng.randint(1, 40))]), True
    prefix = [rng.choice((0, 2)) for _ in range(rng.randint(0, 30))] + [1]
    if category == "endpoint":
        return oracles.from_ternary(prefix), True
    tail = [rng.randrange(3) for _ in range(rng.randint(0, 9))] + [rng.randint(1, 2)]
    return oracles.from_ternary(prefix + tail), False


def _exact_ops(rng, sf):
    ops = []
    for _ in range(EXACT_PER_KIND):
        x = _non_dyadic(rng)
        ops.append(("eval_exact", x, 1 - x, x / 3))
    for _ in range(EXACT_PER_KIND):
        m = rng.randint(1, oracles.DIGIT_DEPTH)
        ops.append(("quantile_exact", Fraction(rng.randrange(1, 2**m, 2), 2**m)))
    for i in range(EXACT_PER_KIND):
        ops.append(("membership",) + _digit_point(rng, ("in", "endpoint", "gap")[i % 3]))
    for i in range(EXACT_INTEGRALS):
        degree = i % (_MAX_DEGREE + 1)
        units = 1 + (i // (_MAX_DEGREE + 1)) % 2
        coeffs = [Fraction(rng.randint(-16, 16), 8) for _ in range(degree)]
        coeffs.append(Fraction(rng.choice([-1, 1]) * rng.randint(1, 16), 8))
        ops.append(("f_alpha_integral", tuple(coeffs), units))
    rng.shuffle(ops)
    return ops


def _exact_warmup(sf):
    return [
        ("eval_exact", Fraction(1, 7), Fraction(6, 7), Fraction(1, 21)),
        ("quantile_exact", Fraction(1, 2)),
        ("membership", Fraction(1, 4), True),
        ("f_alpha_integral", (Fraction(1),), 1),
    ]


def _exact_run(op, sf):
    kind = op[0]
    if kind == "eval_exact":
        return sf.eval_exact(op[1]), sf.eval_exact(op[2]), sf.eval_exact(op[3])
    if kind == "quantile_exact":
        x = sf.quantile_exact(op[1])
        return x, sf.eval_exact(x)
    if kind == "membership":
        return sf.membership(op[1])
    coeffs = [float(c) for c in reversed(op[1])]

    def poly(x):
        acc = 0.0
        for c in coeffs:
            acc = acc * x + c
        return acc

    return core.f_alpha_integral(poly, sf, 0, op[2])


def _exact_check(op, out):
    kind = op[0]
    tol = oracles.STAIRCASE_TOL
    if kind == "eval_exact":
        s, s_mirror, s_third = out
        return float(max(abs(s + s_mirror - 1), abs(s_third - s / 2)) / tol)
    if kind == "quantile_exact":
        x, s = out
        if not oracles.ternary_in_set(x):
            return float("inf")
        return float(abs(s - op[1]) / tol)
    if kind == "membership":
        return 0.0 if out is op[2] else float("inf")
    want, scale = oracles.measure_integral(op[1], op[2], _MOMENTS)
    return abs(out - float(want)) / (oracles.MEASURE_TOL * float(scale))


def _same(out):
    return out


def _no_known_miss(op, ratio):
    return False


WORKLOADS = {
    "pointwise-ops": Workload(
        "pointwise-ops", _pointwise_ops, _pointwise_warmup, _pointwise_run, _same, _pointwise_check,
        _pointwise_known_miss,
    ),
    "example-solve": Workload(
        "example-solve", _example_ops, _example_warmup, _example_run, _example_summary, _example_check,
        _no_known_miss,
    ),
    "exact-measure": Workload(
        "exact-measure", _exact_ops, _exact_warmup, _exact_run, _same, _exact_check, _no_known_miss
    ),
}


def staircase() -> StaircaseFn:
    return StaircaseFn(CantorSpec())


def make_ops(workload: Workload, seed: int, sf: StaircaseFn) -> list:
    """The op list of one workload and seed; the same seed gives the same list."""
    return workload.make_ops(random.Random(f"{workload.name}:{seed}"), sf)
