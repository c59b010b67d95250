"""Calculus on the triadic Cantor set.

Staircase coordinate, conjugated local derivative and integral, fractal
Gamma and Beta, Mittag-Leffler, nonlocal Riemann-Liouville and Caputo
operators of fractional order, a staircase Laplace transform with rule-based
inversion, and solvers for the standard example equations.
"""

from .exceptions import (
    ConvergenceError,
    DomainError,
    PoleError,
    TailBoundError,
)
from .staircase import (
    CantorSpec,
    IdentityMap,
    StaircaseFn,
    prefractal_intervals,
)
from .core import (
    ConjugatedFn,
    GridFunction,
    f_alpha_derivative,
    f_alpha_integral,
)
from .special import (
    beta_fractal,
    beta_fractal_quadrature,
    gamma_classical,
    gamma_fractal,
    mittag_leffler,
    ml_half_half_closed,
    ml_special_case_residuals,
    rgamma,
)
from .nonlocal_ops import (
    OperatorKind,
    OperatorSpec,
    Side,
    caputo_derivative,
    composition_residual,
    evaluate,
    evaluate_u,
    power_rule_derivative,
    power_rule_integral,
    rl_derivative,
    rl_integral,
)
from .laplace import (
    InverseTerm,
    LaplaceExpr,
    LaplaceTerm,
    evaluate_inverse,
    invert_terms,
    laplace_numeric,
    solve_resolvent,
    transform_caputo,
    transform_power,
    transform_rl_derivative,
    transform_rl_integral,
)
from .solutions import (
    ExampleProblem,
    InitialDatum,
    SolutionReport,
    example_problem,
    example_solution_fn,
    gap_plateau_spread,
    solve_example,
)
from .verify import CheckResult, run_all

__version__ = "0.1.0"

__all__ = [
    "CantorSpec",
    "CheckResult",
    "ConjugatedFn",
    "ConvergenceError",
    "DomainError",
    "ExampleProblem",
    "GridFunction",
    "IdentityMap",
    "InitialDatum",
    "InverseTerm",
    "LaplaceExpr",
    "LaplaceTerm",
    "OperatorKind",
    "OperatorSpec",
    "PoleError",
    "Side",
    "SolutionReport",
    "StaircaseFn",
    "TailBoundError",
    "beta_fractal",
    "beta_fractal_quadrature",
    "caputo_derivative",
    "composition_residual",
    "evaluate",
    "evaluate_inverse",
    "evaluate_u",
    "example_problem",
    "example_solution_fn",
    "f_alpha_derivative",
    "f_alpha_integral",
    "gamma_classical",
    "gamma_fractal",
    "gap_plateau_spread",
    "invert_terms",
    "laplace_numeric",
    "mittag_leffler",
    "ml_half_half_closed",
    "ml_special_case_residuals",
    "power_rule_derivative",
    "power_rule_integral",
    "prefractal_intervals",
    "rgamma",
    "rl_derivative",
    "rl_integral",
    "run_all",
    "solve_example",
    "solve_resolvent",
    "transform_caputo",
    "transform_power",
    "transform_rl_derivative",
    "transform_rl_integral",
]
