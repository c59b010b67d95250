"""Command-line front end.

One flat argument set shared by all commands; each command evaluates a
function or operator on a grid and emits CSV (header ``x,value[,value2]``,
line-feed terminated) or a minimal SVG plot. One table maps each grid
command to its default grid and the function that computes its rows; only
solve, figures and verify stand outside it. Exit status: 0 on success, 1 on
computational failure (including a failed verify) or an output that cannot
be written, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from functools import partial

import numpy as np

from .core import ConjugatedFn
from .exceptions import ConvergenceError, DomainError, PoleError, TailBoundError
from .exprgrammar import ExprError, parse_expression
from .figures import format_csv
from .laplace import laplace_numeric
from .nonlocal_ops import OperatorKind, OperatorSpec, _values_u
from .special import (
    beta_fractal,
    beta_fractal_quadrature,
    gamma_classical,
    gamma_fractal,
    mittag_leffler,
)
from .staircase import CantorSpec, IdentityMap, StaircaseFn
from .svg import Series, render_svg


def _staircase_for(args: argparse.Namespace):
    if args.alpha_mode == "identity":
        return IdentityMap()
    if args.depth is not None:
        return StaircaseFn(CantorSpec(digit_depth=args.depth))
    return StaircaseFn(CantorSpec())


def _tol(args: argparse.Namespace) -> dict:
    return {} if args.tol is None else {"tol": args.tol}  # else the library's default


def _parsed_function(args: argparse.Namespace, default: str):
    expr = parse_expression(args.f_expr or default)
    sf = _staircase_for(args)

    def fn(x):
        return expr(x, sf)

    return fn, sf, expr


def _emit(args: argparse.Namespace, header, rows, title: str) -> None:
    if args.format == "svg":
        rows = list(rows)
        xs = tuple(float(r[0]) for r in rows)
        series = [
            Series(xs, tuple(float(r[col]) for r in rows), label=header[col])
            for col in range(1, len(header))
        ]
        text = render_svg(series, title=title, xlabel=header[0])
    else:
        text = format_csv(header, rows)
    if args.output:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _staircase_rows(args: argparse.Namespace, xs):
    sf = _staircase_for(args)
    return ("x", "value"), [(x, sf.eval(x)) for x in xs], "staircase"


def _gamma_rows(args: argparse.Namespace, xs):
    sf = _staircase_for(args)
    rows = [(x, gamma_fractal(x, sf), gamma_classical(x)) for x in xs]
    return ("x", "value", "value2"), rows, "Gamma (value2 = classical)"


def _beta_rows(args: argparse.Namespace, xs):
    w = args.beta
    rows = [(r, beta_fractal(r, w), beta_fractal_quadrature(r, w)) for r in xs]
    return ("x", "value", "value2"), rows, f"Beta(r, {w:g}) (value2 = quadrature)"


def _ml_rows(args: argparse.Namespace, xs):
    rows = zip(xs, mittag_leffler(args.eta, args.nu, xs, **_tol(args)))
    return ("x", "value"), rows, f"Mittag-Leffler E_({args.eta:g},{args.nu:g})"


def _operator_rows(kind: OperatorKind, args: argparse.Namespace, xs):
    default = "x^2" if args.alpha_mode == "identity" else "S(x)^2"
    fn, sf, expr = _parsed_function(args, default)
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
                f"{args.command} on the Cantor staircase needs --f in terms of S(x) only; "
                f"{problem} in {expr.source!r}"
            )
    spec = OperatorSpec(kind, args.beta, terminal=args.terminal)
    # the whole grid samples its meshes in one call, so in one quantile batch
    rows = list(zip(xs, _values_u(spec, ConjugatedFn(fn, sf), sf, (sf.eval(x) for x in xs))))
    return ("x", "value"), rows, f"{args.command} order {args.beta:g}"


def _laplace_rows(args: argparse.Namespace, xs):
    default = "x" if args.alpha_mode == "identity" else "S(x)"
    fn, sf, _ = _parsed_function(args, default)
    rows = [(s, laplace_numeric(fn, sf, s, **_tol(args))) for s in xs]
    return ("x", "value"), rows, "transform (x = sigma)"


# command -> (default (START, STOP, COUNT), (args, xs) -> (header, rows, title));
# argparse lists the choices in this order
_GRID_COMMANDS = {
    "staircase": ((0.0, 1.0, 201), _staircase_rows),
    "gamma": ((0.1, 4.0, 157), _gamma_rows),
    "beta": ((0.5, 2.0, 7), _beta_rows),
    "ml": ((0.0, 3.0, 64), _ml_rows),
    "rl-int": ((0.1, 1.0, 10), partial(_operator_rows, OperatorKind.RL_INTEGRAL)),
    "rl-der": ((0.1, 1.0, 10), partial(_operator_rows, OperatorKind.RL_DERIVATIVE)),
    "caputo": ((0.1, 1.0, 10), partial(_operator_rows, OperatorKind.CAPUTO)),
    "laplace": ((1.0, 5.0, 9), _laplace_rows),
}

_COMMANDS = (*_GRID_COMMANDS, "solve", "figures", "verify")


def run(args: argparse.Namespace) -> int:
    if args.command == "verify":
        from .verify import run_all

        return 0 if run_all() else 1

    if args.command == "figures":
        from .figures import write_figures

        outdir = args.output or "figures"
        depth = 4 if args.depth is None else args.depth
        written = write_figures(outdir, fmt=args.format, depth=depth)
        for path in written:
            print(path)
        return 0

    if args.command == "solve":
        from .solutions import solve_example, variant_audit

        grid = None
        if args.grid is not None:
            grid = [float(x) for x in np.linspace(*args.grid)]
        report = solve_example(args.example, sf=_staircase_for(args), lam=args.lam, grid=grid)
        # audited before any output, so that a refusal prints nothing else
        deviation, variant_residual, variant_note = variant_audit(report)
        header = ("x", "solution", "residual")
        rows = list(zip(report.solution.xs, report.solution.values, report.residual.values))
        _emit(args, header, rows, f"example {args.example}")
        print(f"max residual: {report.max_residual:.3e}", file=sys.stderr)
        print(
            f"variant deviation: {deviation:.3e}, variant residual: {variant_residual:.3e}",
            file=sys.stderr,
        )
        for note in report.notes + (variant_note,):
            print(f"note: {note}", file=sys.stderr)
        return 0

    default, rows_for = _GRID_COMMANDS[args.command]
    _emit(args, *rows_for(args, np.linspace(*(args.grid or default))))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fractal-calc",
        description="Calculus on the triadic Cantor set: staircase, "
        "nonlocal operators, transforms, example solvers, figures.",
    )
    # argparse reads an argument as a negative number, not an option, only
    # when it matches ^-\d+$|^-\d*\.\d+$, which has no exponent: widen it to
    # negative decimals with an optional exponent, so that --grid -1e1 0 2
    # and --lam -4e1 parse
    parser._negative_number_matcher = re.compile(r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?$")
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


# the most points a --grid may ask for; far past it np.linspace fails with
# numpy's own error, and each point of an operator command has its own mesh
_MAX_GRID_COUNT = 10**7


def _normalise(args: argparse.Namespace) -> None:
    """Fill tol from FRACTAL_CALC_TOL when unset; check the grid's bounds,
    whose difference must be finite for ``np.linspace``, and its COUNT, which
    must be a positive integer of at most _MAX_GRID_COUNT, and round it."""
    if args.tol is None:
        env = os.environ.get("FRACTAL_CALC_TOL")
        if env is not None:
            try:
                args.tol = float(env)
            except ValueError as exc:
                raise ExprError(f"bad FRACTAL_CALC_TOL value {env!r}") from exc
    if args.grid is not None:
        start, stop, count = args.grid
        if not (count >= 1 and count.is_integer()):
            raise ExprError(f"grid COUNT must be a positive integer, got {count!r}")
        if not math.isfinite(stop - start):
            raise ExprError(f"grid bounds and their difference must be finite, got {start!r} and {stop!r}")
        if count > _MAX_GRID_COUNT:
            raise ExprError(f"grid COUNT must be at most {_MAX_GRID_COUNT}, got {count!r}")
        args.grid = (start, stop, int(count))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _normalise(args)
        return run(args)
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
        OSError,  # an --output that cannot be written
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
