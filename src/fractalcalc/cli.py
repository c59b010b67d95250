"""Command-line front end.

One flat argument set shared by all commands; each command evaluates a
function or operator on a grid and emits CSV (header ``x,value[,value2]``,
line-feed terminated) or a minimal SVG plot. Exit status: 0 on success,
1 on computational failure (including a failed verify), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError, DomainError, PoleError, TailBoundError
from .exprgrammar import ExprError, parse_expression
from .figures import format_csv
from .laplace import laplace_numeric
from .nonlocal_ops import OperatorKind, OperatorSpec, evaluate
from .special import (
    GammaMode,
    beta_fractal,
    beta_fractal_quadrature,
    gamma_classical,
    gamma_fractal,
    mittag_leffler,
)
from .staircase import CantorSpec, IdentityMap, StaircaseFn
from .svg import Series, render_svg

_COMMANDS = (
    "staircase",
    "gamma",
    "beta",
    "ml",
    "rl-int",
    "rl-der",
    "caputo",
    "laplace",
    "solve",
    "figures",
    "verify",
)

_DEFAULT_GRIDS = {
    "staircase": (0.0, 1.0, 201),
    "gamma": (0.1, 4.0, 157),
    "beta": (0.5, 2.0, 7),
    "ml": (0.0, 3.0, 64),
    "rl-int": (0.1, 1.0, 10),
    "rl-der": (0.1, 1.0, 10),
    "caputo": (0.1, 1.0, 10),
    "laplace": (1.0, 5.0, 9),
    "solve": None,
}


@dataclass
class CliConfig:
    command: str
    alpha_mode: str = "cantor"
    depth: int | None = None
    grid: tuple[float, float, int] | None = None
    tol: float | None = None
    output: str | None = None
    format: str = "csv"
    beta: float = 0.5
    eta: float = 1.0
    nu: float = 1.0
    f_expr: str | None = None
    terminal: float = 0.0
    example: int = 1
    lam: float = -0.5


def _staircase_for(config: CliConfig):
    if config.alpha_mode == "identity":
        return IdentityMap()
    if config.depth is not None:
        return StaircaseFn(CantorSpec(digit_depth=config.depth))
    return StaircaseFn(CantorSpec())


def _grid_points(config: CliConfig) -> np.ndarray:
    grid = config.grid or _DEFAULT_GRIDS.get(config.command)
    if grid is None:
        raise DomainError("this command needs an explicit --grid")
    return np.linspace(*grid)


def _parsed_function(config: CliConfig, default: str | None = None):
    text = config.f_expr or default
    if text is None:
        raise ExprError(f"command {config.command!r} needs --f EXPRESSION")
    expr = parse_expression(text)
    sf = _staircase_for(config)

    def fn(x):
        return expr(x, sf)

    return fn, sf, expr


def _emit(config: CliConfig, header, rows, title: str) -> None:
    if config.format == "svg":
        rows = list(rows)
        xs = tuple(float(r[0]) for r in rows)
        series = [
            Series(xs, tuple(float(r[col]) for r in rows), label=header[col])
            for col in range(1, len(header))
        ]
        text = render_svg(series, title=title, xlabel=header[0])
    else:
        text = format_csv(header, rows)
    if config.output:
        with open(config.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _operator_rows(config: CliConfig, xs):
    kind = {
        "rl-int": OperatorKind.RL_INTEGRAL,
        "rl-der": OperatorKind.RL_DERIVATIVE,
        "caputo": OperatorKind.CAPUTO,
    }[config.command]
    default = "x^2" if config.alpha_mode == "identity" else "S(x)^2"
    fn, sf, expr = _parsed_function(config, default)
    if kind is not OperatorKind.RL_INTEGRAL and not isinstance(sf, IdentityMap):
        # f(quantile(u)) jumps at every dyadic u unless f is a smooth function
        # of S(x), and the product rule's accuracy rests on a smooth integrand
        problem = None
        if expr.x_outside_staircase:
            problem = "x appears outside S(...)"
        elif expr.x_in_staircase_expression:
            problem = "S(...) takes an argument other than x"
        if problem:
            raise ExprError(
                f"{config.command} on the Cantor staircase needs --f in terms of S(x) only; "
                f"{problem} in {expr.source!r}"
            )
    spec = OperatorSpec(kind, config.beta, terminal=config.terminal)
    return [(x, evaluate(spec, fn, sf, x)) for x in xs]


def run(config: CliConfig) -> int:
    if config.command == "verify":
        from .verify import run_all

        return 0 if run_all() else 1

    if config.command == "figures":
        from .figures import write_figures

        outdir = config.output or "figures"
        depth = 4 if config.depth is None else config.depth
        written = write_figures(outdir, fmt=config.format, depth=depth)
        for path in written:
            print(path)
        return 0

    if config.command == "solve":
        from .solutions import solve_example

        sf = _staircase_for(config)
        grid = None
        if config.grid is not None:
            grid = [float(x) for x in _grid_points(config)]
        report = solve_example(config.example, sf=sf, lam=config.lam, grid=grid)
        header = ("x", "solution", "residual")
        rows = list(
            zip(report.solution.xs, report.solution.values, report.residual.values)
        )
        _emit(config, header, rows, f"example {config.example}")
        print(f"max residual: {report.max_residual:.3e}", file=sys.stderr)
        print(
            f"variant deviation: {report.variant_discrepancy:.3e}, "
            f"variant residual: {report.variant_max_residual:.3e}",
            file=sys.stderr,
        )
        for note in report.notes:
            print(f"note: {note}", file=sys.stderr)
        return 0

    xs = _grid_points(config)

    if config.command == "staircase":
        sf = _staircase_for(config)
        rows = [(x, sf.eval(x)) for x in xs]
        _emit(config, ("x", "value"), rows, "staircase")
        return 0

    if config.command == "gamma":
        sf = _staircase_for(config)
        rows = []
        for x in xs:
            if config.alpha_mode == "identity":
                value = gamma_classical(x)
            else:
                value = gamma_fractal(x, GammaMode.STAIRCASE_COMPOSED, sf)
            rows.append((x, value, gamma_classical(x)))
        _emit(config, ("x", "value", "value2"), rows, "Gamma (value2 = classical)")
        return 0

    if config.command == "beta":
        w = config.beta
        rows = [
            (r, beta_fractal(r, w), beta_fractal_quadrature(r, w)) for r in xs
        ]
        _emit(
            config,
            ("x", "value", "value2"),
            rows,
            f"Beta(r, {w:g}) (value2 = quadrature)",
        )
        return 0

    if config.command == "ml":
        tol = config.tol if config.tol is not None else 1e-15
        rows = zip(xs, mittag_leffler(config.eta, config.nu, xs, tol=tol))
        _emit(
            config,
            ("x", "value"),
            rows,
            f"Mittag-Leffler E_({config.eta:g},{config.nu:g})",
        )
        return 0

    if config.command in ("rl-int", "rl-der", "caputo"):
        rows = _operator_rows(config, xs)
        title = f"{config.command} order {config.beta:g}"
        _emit(config, ("x", "value"), rows, title)
        return 0

    if config.command == "laplace":
        default = "x" if config.alpha_mode == "identity" else "S(x)"
        fn, sf, _ = _parsed_function(config, default)
        tol = config.tol if config.tol is not None else 1e-9
        rows = [(s, laplace_numeric(fn, sf, s, tol=tol)) for s in xs]
        _emit(config, ("x", "value"), rows, "transform (x = sigma)")
        return 0

    raise DomainError(f"unknown command {config.command!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fractal-calc",
        description="Calculus on the triadic Cantor set: staircase, "
        "nonlocal operators, transforms, example solvers, figures.",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument(
        "--alpha-mode",
        choices=("cantor", "identity"),
        default="cantor",
        help="cantor: the triadic staircase; identity: classical calculus",
    )
    parser.add_argument(
        "--depth", type=int, default=None, help="staircase digit depth / figure depth"
    )
    parser.add_argument(
        "--grid",
        nargs=3,
        type=float,
        metavar=("START", "STOP", "COUNT"),
        default=None,
    )
    parser.add_argument(
        "--tol",
        type=float,
        default=None,
        help="tolerance override (default from FRACTAL_CALC_TOL when set)",
    )
    parser.add_argument("--output", default=None, help="output file or directory")
    parser.add_argument("--format", choices=("csv", "svg"), default="csv")
    parser.add_argument("--beta", type=float, default=0.5, help="operator order")
    parser.add_argument("--eta", type=float, default=1.0)
    parser.add_argument("--nu", type=float, default=1.0)
    parser.add_argument("--f", dest="f_expr", default=None, help="expression in x")
    parser.add_argument("--a", dest="terminal", type=float, default=0.0)
    parser.add_argument("--example", type=int, default=1, choices=(1, 2, 3, 4))
    parser.add_argument("--lam", type=float, default=-0.5)
    return parser


def config_from_args(args: argparse.Namespace) -> CliConfig:
    tol = args.tol
    if tol is None:
        env = os.environ.get("FRACTAL_CALC_TOL")
        if env is not None:
            try:
                tol = float(env)
            except ValueError as exc:
                raise ExprError(f"bad FRACTAL_CALC_TOL value {env!r}") from exc
    grid = None
    if args.grid is not None:
        start, stop, count = args.grid
        if not (count >= 1 and count.is_integer()):
            raise ExprError(f"grid COUNT must be a positive integer, got {count!r}")
        grid = (start, stop, int(count))
    return CliConfig(
        command=args.command,
        alpha_mode=args.alpha_mode,
        depth=args.depth,
        grid=grid,
        tol=tol,
        output=args.output,
        format=args.format,
        beta=args.beta,
        eta=args.eta,
        nu=args.nu,
        f_expr=args.f_expr,
        terminal=args.terminal,
        example=args.example,
        lam=args.lam,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        return run(config)
    except ExprError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        DomainError,
        PoleError,
        ConvergenceError,
        TailBoundError,
        ZeroDivisionError,
        OverflowError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
