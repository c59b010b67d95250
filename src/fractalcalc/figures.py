"""The seven standard figure datasets, as CSV text and SVG plots.

Everything here is computed from closed forms or digit-exact staircase
evaluation, so repeated runs are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .special import gamma_classical, gamma_fractal
from .nonlocal_ops import power_rule_derivative, power_rule_integral
from .solutions import example_solution_fn
from .staircase import CantorSpec, IdentityMap, StaircaseFn, prefractal_intervals
from .svg import Series, render_svg


@dataclass(frozen=True)
class FigureData:
    name: str
    title: str
    csv_files: tuple[tuple[str, str], ...]
    svg_text: str


def format_csv(header: tuple[str, ...], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _linspace(lo: float, hi: float, count: int) -> list[float]:
    step = (hi - lo) / (count - 1)
    return [lo + step * i for i in range(count)]


def _fig1(depth: int) -> FigureData:
    rows = []
    series = []
    for d in range(depth + 1):
        xs: list[float] = []
        ys: list[float] = []
        for lo, hi in prefractal_intervals(d):
            rows.append((float(lo), float(hi), float(d)))
            xs.extend((float(lo), float(hi), math.nan))
            ys.extend((-float(d), -float(d), math.nan))
        series.append(Series(tuple(xs), tuple(ys), label=f"depth {d}", width=4.0))
    svg = render_svg(series, title="Prefractal construction", xlabel="x")
    csv = format_csv(("x", "value", "value2"), rows)
    return FigureData("fig1", "Prefractal construction", (("fig1.csv", csv),), svg)


def _fig2() -> FigureData:
    sf = StaircaseFn(CantorSpec())
    xs = _linspace(0.0, 1.0, 729)
    ys = [sf.eval(x) for x in xs]
    csv = format_csv(("x", "value"), zip(xs, ys))
    svg = render_svg(
        [Series(tuple(xs), tuple(ys), label="S(x)")],
        title="Cantor staircase",
        xlabel="x",
        ylabel="S(x)",
    )
    return FigureData("fig2", "Cantor staircase", (("fig2.csv", csv),), svg)


def _fig3() -> FigureData:
    sf = StaircaseFn(CantorSpec())
    xs = _linspace(0.1, 4.0, 157)
    frac = [gamma_fractal(x, sf) for x in xs]
    classical = [gamma_classical(x) for x in xs]
    csv = format_csv(("x", "value", "value2"), zip(xs, frac, classical))
    svg = render_svg(
        [
            Series(tuple(xs), tuple(frac), label="Gamma(S(x))"),
            Series(tuple(xs), tuple(classical), label="Gamma(x)", dashed=True),
        ],
        title="Staircase-composed vs classical Gamma",
        xlabel="x",
    )
    return FigureData("fig3", "Gamma comparison", (("fig3.csv", csv),), svg)


def _fig45(integral: bool) -> FigureData:
    rule = power_rule_integral if integral else power_rule_derivative
    word = "integral" if integral else "derivative"
    name = "fig5" if integral else "fig4"
    sf = StaircaseFn(CantorSpec())
    ident = IdentityMap()
    xs = _linspace(0.0, 1.0, 201)
    f_classical = [x * x for x in xs]
    f_fractal = [sf.eval(x) ** 2 for x in xs]
    op_classical = [rule(0.5, 2.0, ident, 0.0, x) for x in xs]
    op_fractal = [rule(0.5, 2.0, sf, 0.0, x) for x in xs]
    csv_c = format_csv(("x", "value", "value2"), zip(xs, f_classical, op_classical))
    csv_f = format_csv(("x", "value", "value2"), zip(xs, f_fractal, op_fractal))
    svg = render_svg(
        [
            Series(tuple(xs), tuple(f_classical), label="x^2"),
            Series(tuple(xs), tuple(op_classical), label=f"order-1/2 {word} of x^2"),
            Series(tuple(xs), tuple(f_fractal), label="S(x)^2"),
            Series(tuple(xs), tuple(op_fractal), label=f"order-1/2 {word} of S(x)^2"),
        ],
        title=f"Order-1/2 nonlocal {word}",
        xlabel="x",
    )
    return FigureData(
        name,
        f"Order-1/2 {word}s",
        ((f"{name}_classical.csv", csv_c), (f"{name}_fractal.csv", csv_f)),
        svg,
    )


def _fig67(cantor: bool) -> FigureData:
    name = "fig7" if cantor else "fig6"
    sf = StaircaseFn(CantorSpec()) if cantor else IdentityMap()
    setting = "Cantor set" if cantor else "real line"
    grids = {
        1: _linspace(0.0, 1.0, 241),
        2: _linspace(1.0, 2.0, 241),
        3: _linspace(0.05, 1.0, 229),
    }
    csv_files = []
    series = []
    for example_id, xs in grids.items():
        fn = example_solution_fn(example_id, sf)
        ys = [fn(x) for x in xs]
        csv_files.append(
            (f"{name}_example{example_id}.csv", format_csv(("x", "value"), zip(xs, ys)))
        )
        series.append(Series(tuple(xs), tuple(ys), label=f"example {example_id}"))
    svg = render_svg(
        series,
        title=f"Example solutions on the {setting}",
        xlabel="x",
        ylabel="y(x)",
    )
    return FigureData(name, f"Example solutions ({setting})", tuple(csv_files), svg)


def build_figures(depth: int = 4) -> list[FigureData]:
    return [
        _fig1(depth),
        _fig2(),
        _fig3(),
        _fig45(integral=False),
        _fig45(integral=True),
        _fig67(cantor=False),
        _fig67(cantor=True),
    ]


def write_figures(outdir, fmt: str = "csv", depth: int = 4) -> list[str]:
    """Write the figures' CSV files, or with fmt "svg" their plots, into
    outdir; returns the written paths."""
    import os

    os.makedirs(outdir, exist_ok=True)
    written: list[str] = []
    for fig in build_figures(depth):
        if fmt == "svg":
            files = ((f"{fig.name}.svg", fig.svg_text),)
        else:
            files = fig.csv_files
        for fname, text in files:
            path = os.path.join(outdir, fname)
            with open(path, "w", newline="") as fh:
                fh.write(text)
            written.append(path)
    return written
