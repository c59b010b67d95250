"""Dependency-free SVG line plots with deterministic output.

Coordinates are formatted with fixed precision so identical inputs always
produce byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH = 640.0
_HEIGHT = 420.0
_MARGIN_L = 62.0
_MARGIN_R = 18.0
_MARGIN_T = 34.0
_MARGIN_B = 46.0


@dataclass(frozen=True)
class Series:
    """One polyline; NaN values break the line into separate segments."""

    xs: tuple
    ys: tuple
    label: str = ""
    dashed: bool = False
    width: float = field(default=1.5)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_values(lo: float, hi: float) -> list[float]:
    # at most five ticks, a step of 1, 2, 2.5, 5 or 10 times a power of ten
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / 4
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw * 0.999:
            break
    start = math.ceil(lo / step - 1e-9) * step
    ticks = []
    t = start
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _label(v: float) -> str:
    return f"{v:.4g}"


def _text(
    x: str, y: str, size: int, body: str, anchor: str = "", fill: str = "#333333", transform: str = ""
) -> str:
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    transform = f' transform="{transform}"' if transform else ""
    return (
        f'<text x="{x}" y="{y}" font-family="sans-serif" font-size="{size}"'
        f'{anchor} fill="{fill}"{transform}>{body}</text>'
    )


def render_svg(
    series: list[Series],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> str:
    xs_all = [x for s in series for x in s.xs if math.isfinite(x)]
    ys_all = [
        y
        for s in series
        for x, y in zip(s.xs, s.ys)
        if math.isfinite(x) and math.isfinite(y)
    ]
    xlo, xhi = (min(xs_all), max(xs_all)) if xs_all else (0.0, 1.0)
    ylo, yhi = (min(ys_all), max(ys_all)) if ys_all else (0.0, 1.0)
    if xhi - xlo < 1e-12:
        xlo, xhi = xlo - 0.5, xhi + 0.5
    if yhi - ylo < 1e-12:
        ylo, yhi = ylo - 0.5, yhi + 0.5
    pad = 0.04 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - xlo) / (xhi - xlo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + (yhi - y) / (yhi - ylo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:.0f}" '
        f'height="{_HEIGHT:.0f}" viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">',
        f'<rect width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}" fill="white"/>',
        f'<rect x="{_fmt(_MARGIN_L)}" y="{_fmt(_MARGIN_T)}" '
        f'width="{_fmt(plot_w)}" height="{_fmt(plot_h)}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
    ]

    for t in _tick_values(xlo, xhi):
        if t < xlo - 1e-12 or t > xhi + 1e-12:
            continue
        x = px(t)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(_MARGIN_T + plot_h)}" '
            f'x2="{_fmt(x)}" y2="{_fmt(_MARGIN_T + plot_h + 5)}" '
            'stroke="#333333" stroke-width="1"/>'
        )
        parts.append(_text(_fmt(x), _fmt(_MARGIN_T + plot_h + 18), 11, _label(t), "middle"))
    for t in _tick_values(ylo, yhi):
        if t < ylo - 1e-12 or t > yhi + 1e-12:
            continue
        y = py(t)
        parts.append(
            f'<line x1="{_fmt(_MARGIN_L - 5)}" y1="{_fmt(y)}" '
            f'x2="{_fmt(_MARGIN_L)}" y2="{_fmt(y)}" '
            'stroke="#333333" stroke-width="1"/>'
        )
        parts.append(_text(_fmt(_MARGIN_L - 8), _fmt(y + 4), 11, _label(t), "end"))

    for idx, s in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        dash = ' stroke-dasharray="6 4"' if s.dashed else ""
        points: list[str] = []
        chunks: list[list[str]] = []
        for x, y in zip(s.xs, s.ys):
            if math.isfinite(x) and math.isfinite(y):
                points.append(f"{_fmt(px(x))},{_fmt(py(y))}")
            elif points:
                chunks.append(points)
                points = []
        if points:
            chunks.append(points)
        for chunk in chunks:
            if len(chunk) == 1:
                cx, cy = chunk[0].split(",")
                parts.append(
                    f'<circle cx="{cx}" cy="{cy}" r="2" fill="{color}"/>'
                )
            else:
                parts.append(
                    f'<polyline points="{" ".join(chunk)}" fill="none" '
                    f'stroke="{color}" stroke-width="{s.width:.1f}"{dash}/>'
                )

    legend_y = _MARGIN_T + 14.0
    for idx, s in enumerate(series):
        if not s.label:
            continue
        color = _PALETTE[idx % len(_PALETTE)]
        dash = ' stroke-dasharray="6 4"' if s.dashed else ""
        parts.append(
            f'<line x1="{_fmt(_MARGIN_L + 10)}" y1="{_fmt(legend_y - 4)}" '
            f'x2="{_fmt(_MARGIN_L + 34)}" y2="{_fmt(legend_y - 4)}" '
            f'stroke="{color}" stroke-width="2"{dash}/>'
        )
        parts.append(_text(_fmt(_MARGIN_L + 40), _fmt(legend_y), 12, s.label))
        legend_y += 16.0

    if title:
        parts.append(_text(_fmt(_WIDTH / 2), _fmt(_MARGIN_T - 12), 14, title, "middle", "#111111"))
    if xlabel:
        parts.append(_text(_fmt(_MARGIN_L + plot_w / 2), _fmt(_HEIGHT - 10), 12, xlabel, "middle"))
    if ylabel:
        mid = _fmt(_MARGIN_T + plot_h / 2)
        parts.append(_text("16", mid, 12, ylabel, "middle", transform=f"rotate(-90 16 {mid})"))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
