"""Dependency-free SVG line plots with deterministic output.

Coordinates are formatted with fixed precision so identical inputs always
produce byte-identical files. An axis range under 1e-12 wide is widened by
0.5 each way, or by the float spacing at its bounds where that is larger
(from 2**52 on), so that the widening survives rounding. Ticks step by the
least of 1, 2, 2.5, 5 or 10 times a power of ten that covers a quarter of
the range, added from its first multiple in the range; a tick within 1e-12
steps of 0 is drawn as 0, one past the range by over 1e-12 is dropped, and
the loop stops once a step no longer moves t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH = 640.0
_HEIGHT = 420.0
_MARGIN_L = 62.0
_MARGIN_T = 34.0
_PLOT_W = _WIDTH - _MARGIN_L - 18.0  # right margin 18
_PLOT_H = _HEIGHT - _MARGIN_T - 46.0  # bottom margin 46
_BOTTOM = _MARGIN_T + _PLOT_H
_AXIS = 'stroke="#333333" stroke-width="1"'


@dataclass(frozen=True)
class Series:
    """One polyline; NaN values break the line into separate segments."""

    xs: tuple
    ys: tuple
    label: str = ""
    dashed: bool = False
    width: float = 1.5


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _range(values: list[float]) -> tuple[float, float]:
    lo, hi = (min(values), max(values)) if values else (0.0, 1.0)
    pad = max(0.5, math.ulp(max(abs(lo), abs(hi))))
    return (lo - pad, hi + pad) if hi - lo < 1e-12 else (lo, hi)


def _tick_values(lo: float, hi: float) -> list[float]:
    raw = (hi - lo) / 4
    mag = 10.0 ** math.floor(math.log10(raw))
    step = mag * next((m for m in (1.0, 2.0, 2.5, 5.0) if m * mag >= raw * 0.999), 10.0)
    ticks = []
    t = math.ceil(lo / step - 1e-9) * step
    while t <= hi + 1e-9 * step:
        tick = 0.0 if abs(t) < 1e-12 * step else t
        if lo - 1e-12 <= tick <= hi + 1e-12:
            ticks.append(tick)
        if t + step == t:
            break
        t += step
    return ticks


def _line(x1: float, y1: float, x2: float, y2: float, stroke: str = _AXIS) -> str:
    return f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" {stroke}/>'


def _text(
    x: str, y: str, size: int, body: str, anchor: str = "", fill: str = "#333333", transform: str = ""
) -> str:
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    transform = f' transform="{transform}"' if transform else ""
    return (
        f'<text x="{x}" y="{y}" font-family="sans-serif" font-size="{size}"'
        f'{anchor} fill="{fill}"{transform}>{body}</text>'
    )


def render_svg(series: list[Series], title: str = "", xlabel: str = "", ylabel: str = "") -> str:
    xlo, xhi = _range([x for s in series for x in s.xs if math.isfinite(x)])
    ylo, yhi = _range(
        [y for s in series for x, y in zip(s.xs, s.ys) if math.isfinite(x) and math.isfinite(y)]
    )
    ylo, yhi = ylo - 0.04 * (yhi - ylo), yhi + 0.04 * (yhi - ylo)

    def px(x: float) -> float:
        return _MARGIN_L + (x - xlo) / (xhi - xlo) * _PLOT_W

    def py(y: float) -> float:
        return _MARGIN_T + (yhi - y) / (yhi - ylo) * _PLOT_H

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:.0f}" '
        f'height="{_HEIGHT:.0f}" viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">',
        f'<rect width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}" fill="white"/>',
        f'<rect x="{_fmt(_MARGIN_L)}" y="{_fmt(_MARGIN_T)}" '
        f'width="{_fmt(_PLOT_W)}" height="{_fmt(_PLOT_H)}" '
        f'fill="none" {_AXIS}/>',
    ]
    for t in _tick_values(xlo, xhi):
        x = px(t)
        parts.append(_line(x, _BOTTOM, x, _BOTTOM + 5))
        parts.append(_text(_fmt(x), _fmt(_BOTTOM + 18), 11, f"{t:.4g}", "middle"))
    for t in _tick_values(ylo, yhi):
        y = py(t)
        parts.append(_line(_MARGIN_L - 5, y, _MARGIN_L, y))
        parts.append(_text(_fmt(_MARGIN_L - 8), _fmt(y + 4), 11, f"{t:.4g}", "end"))

    legend = []
    legend_y = _MARGIN_T + 14.0
    for idx, s in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        dash = ' stroke-dasharray="6 4"' if s.dashed else ""
        for finite, pairs in groupby(zip(s.xs, s.ys), lambda p: all(map(math.isfinite, p))):
            run = [(_fmt(px(x)), _fmt(py(y))) for x, y in pairs] if finite else []
            if len(run) == 1:
                parts.append(f'<circle cx="{run[0][0]}" cy="{run[0][1]}" r="2" fill="{color}"/>')
            elif run:
                points = " ".join(f"{cx},{cy}" for cx, cy in run)
                parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                             f'stroke-width="{s.width:.1f}"{dash}/>')
        if s.label:
            legend += [
                _line(_MARGIN_L + 10, legend_y - 4, _MARGIN_L + 34, legend_y - 4,
                      f'stroke="{color}" stroke-width="2"{dash}'),
                _text(_fmt(_MARGIN_L + 40), _fmt(legend_y), 12, s.label),
            ]
            legend_y += 16.0
    parts += legend

    if title:
        parts.append(_text(_fmt(_WIDTH / 2), _fmt(_MARGIN_T - 12), 14, title, "middle", "#111111"))
    if xlabel:
        parts.append(_text(_fmt(_MARGIN_L + _PLOT_W / 2), _fmt(_HEIGHT - 10), 12, xlabel, "middle"))
    if ylabel:
        mid = _fmt(_MARGIN_T + _PLOT_H / 2)
        parts.append(_text("16", mid, 12, ylabel, "middle", transform=f"rotate(-90 16 {mid})"))
    return "\n".join(parts) + "\n</svg>\n"
