"""Minimal self-contained SVG line plots (no plotting dependency).

Deterministic output: fixed canvas, fixed palette, coordinates rounded to
two decimals, series drawn in insertion order.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

__all__ = ["render_line_plot"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")
_W, _H = 720, 460
_ML, _MR, _MT, _MB = 72, 24, 40, 56


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / n))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if span / (step * mult) <= n:
            step *= mult
            break
    start = math.ceil(lo / step) * step
    out = []
    while start <= hi + 1e-12 * span:
        out.append(round(start, 12))
        start += step
    return out


def render_line_plot(
    series: Mapping[str, tuple[Sequence[float], Sequence[float]]],
    title: str = "",
    xlabel: str = "t",
    ylabel: str = "",
) -> str:
    """The SVG text of a line plot of named series {name: (x, y)}."""
    xs = [float(v) for _, (x, _) in series.items() for v in x]
    ys = [float(v) for _, (_, y) in series.items() for v in y]
    if not xs:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def px(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y: float) -> float:
        return _MT + (y_hi - y) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>',
    ]
    if title:
        parts.append(f'<text x="{_W / 2:.2f}" y="24" text-anchor="middle" font-size="14">{title}</text>')
    for tx in _ticks(x_lo, x_hi):
        x = px(tx)
        parts.append(f'<line x1="{x:.2f}" y1="{_MT + ph}" x2="{x:.2f}" y2="{_MT + ph + 5}" stroke="#333"/>')
        parts.append(f'<text x="{x:.2f}" y="{_MT + ph + 20}" text-anchor="middle">{tx:g}</text>')
    for ty in _ticks(y_lo, y_hi):
        y = py(ty)
        parts.append(f'<line x1="{_ML - 5}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" stroke="#333"/>')
        parts.append(f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end">{ty:g}</text>')
        parts.append(f'<line x1="{_ML}" y1="{y:.2f}" x2="{_ML + pw}" y2="{y:.2f}" stroke="#ddd"/>')
    parts.append(
        f'<text x="{_ML + pw / 2:.2f}" y="{_H - 16}" text-anchor="middle">{xlabel}</text>'
    )
    if ylabel:
        parts.append(
            f'<text x="18" y="{_MT + ph / 2:.2f}" text-anchor="middle" '
            f'transform="rotate(-90 18 {_MT + ph / 2:.2f})">{ylabel}</text>'
        )
    for i, (name, (x, y)) in enumerate(series.items()):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{px(float(a)):.2f},{py(float(b)):.2f}" for a, b in zip(x, y))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _MT + 16 + 16 * i
        parts.append(f'<line x1="{_ML + pw - 150}" y1="{ly}" x2="{_ML + pw - 126}" y2="{ly}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_ML + pw - 120}" y="{ly + 4}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
