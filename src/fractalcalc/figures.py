"""The seven standard figure datasets, as CSV text and SVG plots.

Everything here is computed from closed forms or digit-exact staircase
evaluation, so repeated runs are byte-identical. One builder, `_figure`,
writes each figure's CSV columns from the series it plots, so the two
cannot drift apart. fig1 is the exception: its CSV rows are the prefractal
interval ends, not plotted series.
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
    csv_files: tuple[tuple[str, str], ...]
    svg_text: str


def format_csv(header: tuple[str, ...], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _linspace(lo: float, hi: float, count: int) -> tuple[float, ...]:
    step = (hi - lo) / (count - 1)
    return tuple(lo + step * i for i in range(count))


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
    return FigureData("fig1", (("fig1.csv", csv),), svg)


def _figure(name: str, title: str, files, ylabel: str = "") -> FigureData:
    """A figure whose CSV columns are its plotted series.

    Each file is (csv name, [Series on one shared x grid]); its CSV holds
    the grid and each series' values, and the plot draws every series in
    file order.
    """
    csv_files = []
    for fname, series in files:
        header = ("x", "value", "value2")[: 1 + len(series)]
        csv_files.append((fname, format_csv(header, zip(series[0].xs, *(s.ys for s in series)))))
    plotted = [s for _, series in files for s in series]
    svg = render_svg(plotted, title=title, xlabel="x", ylabel=ylabel)
    return FigureData(name, tuple(csv_files), svg)


def _fig2() -> FigureData:
    sf = StaircaseFn(CantorSpec())
    xs = _linspace(0.0, 1.0, 729)
    series = [Series(xs, tuple(sf.eval(x) for x in xs), label="S(x)")]
    return _figure("fig2", "Cantor staircase", [("fig2.csv", series)], ylabel="S(x)")


def _fig3() -> FigureData:
    sf = StaircaseFn(CantorSpec())
    xs = _linspace(0.1, 4.0, 157)
    series = [
        Series(xs, tuple(gamma_fractal(x, sf) for x in xs), label="Gamma(S(x))"),
        Series(xs, tuple(gamma_classical(x) for x in xs), label="Gamma(x)", dashed=True),
    ]
    return _figure("fig3", "Staircase-composed vs classical Gamma", [("fig3.csv", series)])


def _fig45(integral: bool) -> FigureData:
    rule = power_rule_integral if integral else power_rule_derivative
    word = "integral" if integral else "derivative"
    name = "fig5" if integral else "fig4"
    sf = StaircaseFn(CantorSpec())
    xs = _linspace(0.0, 1.0, 201)

    def file(setting, fmap, ys, label):
        op = tuple(rule(0.5, 2.0, fmap, 0.0, x) for x in xs)
        of = Series(xs, op, label=f"order-1/2 {word} of {label}")
        return f"{name}_{setting}.csv", [Series(xs, ys, label=label), of]

    files = [
        file("classical", IdentityMap(), tuple(x * x for x in xs), "x^2"),
        file("fractal", sf, tuple(sf.eval(x) ** 2 for x in xs), "S(x)^2"),
    ]
    return _figure(name, f"Order-1/2 nonlocal {word}", files)


# (lo, hi, count) of each example's grid in fig6 and fig7
_EXAMPLE_GRIDS = {1: (0.0, 1.0, 241), 2: (1.0, 2.0, 241), 3: (0.05, 1.0, 229)}


def _fig67(cantor: bool) -> FigureData:
    name = "fig7" if cantor else "fig6"
    sf = StaircaseFn(CantorSpec()) if cantor else IdentityMap()
    setting = "Cantor set" if cantor else "real line"
    files = []
    for example_id, grid in _EXAMPLE_GRIDS.items():
        xs = _linspace(*grid)
        fn = example_solution_fn(example_id, sf)
        series = [Series(xs, tuple(fn(x) for x in xs), label=f"example {example_id}")]
        files.append((f"{name}_example{example_id}.csv", series))
    return _figure(name, f"Example solutions on the {setting}", files, ylabel="y(x)")


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
