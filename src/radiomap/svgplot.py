"""Minimal hand-rolled SVG output: sweep line charts and RMSE heatmaps.

Plots are conveniences for eyeballing results; the CSV files are the
contract. Everything is emitted with fixed formatting so identical inputs
produce identical bytes.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["line_chart", "heatmap"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 160, 30, 55


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:g}"


def line_chart(
    series: list[tuple[str, list[float], list[float]]],
    xlabel: str,
    ylabel: str,
    title: str = "",
) -> str:
    """Multi-series line chart with a log-scaled x axis (decade ticks)."""
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        raise ValueError("nothing to plot")

    x_lo, x_hi = min(map(math.log10, xs_all)), max(map(math.log10, xs_all))
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    y_lo = min(0.0, y_lo)
    y_pad = 0.05 * (y_hi - y_lo)
    y_hi += y_pad

    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def px(x: float) -> float:
        return _ML + (math.log10(x) - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MT + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" fill="none" stroke="black"/>',
    ]
    if title:
        parts.append(f'<text x="{_W // 2}" y="20" text-anchor="middle">{title}</text>')

    decades = range(math.floor(x_lo), math.ceil(x_hi) + 1)
    ticks = [10.0**e for e in decades if x_lo - 1e-9 <= e <= x_hi + 1e-9]
    for t in ticks:
        x = px(t)
        parts.append(f'<line x1="{_fmt(x)}" y1="{_MT + plot_h}" x2="{_fmt(x)}" y2="{_MT + plot_h + 5}" stroke="black"/>')
        parts.append(f'<text x="{_fmt(x)}" y="{_MT + plot_h + 20}" text-anchor="middle">{_tick_label(t)}</text>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        yv = y_lo + frac * (y_hi - y_lo)
        y = py(yv)
        parts.append(f'<line x1="{_ML - 5}" y1="{_fmt(y)}" x2="{_ML}" y2="{_fmt(y)}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 9}" y="{_fmt(y + 4)}" text-anchor="end">{yv:.2f}</text>')
    parts.append(
        f'<text x="{_ML + plot_w / 2:.0f}" y="{_H - 12}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{_MT + plot_h / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {_MT + plot_h / 2:.0f})">{ylabel}</text>'
    )

    for k, (label, xs, ys) in enumerate(series):
        color = _COLORS[k % len(_COLORS)]
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _MT + 18 + 18 * k
        lx = _ML + plot_w + 14
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}">{label}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _color(t: float) -> str:
    """Two-segment lerp: dark blue -> teal -> yellow."""
    t = min(max(t, 0.0), 1.0)
    stops = ((13, 8, 135), (33, 145, 140), (253, 231, 37))
    if t < 0.5:
        a, b, u = stops[0], stops[1], t / 0.5
    else:
        a, b, u = stops[1], stops[2], (t - 0.5) / 0.5
    r, g, bl = (round(a[i] + u * (b[i] - a[i])) for i in range(3))
    return f"#{r:02x}{g:02x}{bl:02x}"


def heatmap(values: np.ndarray, side: float, label: str) -> str:
    """Square heatmap of a resolution x resolution field (row j = increasing y)."""
    grid = np.asarray(values, dtype=float)
    res = grid.shape[0]
    if grid.shape != (res, res):
        raise ValueError(f"expected a square grid, got shape {grid.shape}")
    lo, hi = float(grid.min()), float(grid.max())
    span = hi - lo if hi > lo else 1.0

    size = 480
    margin = 55
    cell = size / res
    w = size + 2 * margin + 60
    h = size + 2 * margin
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}" font-family="sans-serif" font-size="12">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{margin + size / 2:.0f}" y="20" text-anchor="middle">{label}</text>',
    ]
    for j in range(res):
        for i in range(res):
            t = (grid[j, i] - lo) / span
            x = margin + i * cell
            # SVG y grows downward; row j sits higher for larger y
            y = margin + (res - 1 - j) * cell
            parts.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(cell + 0.5)}" '
                f'height="{_fmt(cell + 0.5)}" fill="{_color(t)}"/>'
            )
    parts.append(
        f'<rect x="{margin}" y="{margin}" width="{size}" height="{size}" fill="none" stroke="black"/>'
    )
    parts.append(f'<text x="{margin}" y="{margin + size + 18}">0</text>')
    parts.append(
        f'<text x="{margin + size}" y="{margin + size + 18}" text-anchor="end">{side:g} m</text>'
    )
    # color scale
    bar_x = margin + size + 18
    for k in range(32):
        t = 1.0 - k / 31
        parts.append(
            f'<rect x="{bar_x}" y="{_fmt(margin + k * size / 32)}" width="16" '
            f'height="{_fmt(size / 32 + 0.5)}" fill="{_color(t)}"/>'
        )
    parts.append(f'<text x="{bar_x + 20}" y="{margin + 10}">{hi:.2f}</text>')
    parts.append(f'<text x="{bar_x + 20}" y="{margin + size}">{lo:.2f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
