"""Minimal self-contained SVG line plots (no plotting dependency)."""

from __future__ import annotations

import math

__all__ = ["line_plot"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / n))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= n:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * span:
        out.append(round(t, 12))
        t += step
    return out


def line_plot(series: list[tuple[str, list[float], list[float]]], *,
              xlabel: str = "", ylabel: str = "", title: str = "",
              log_y: bool = False) -> str:
    """Render named (x, y) series as a 640x420 SVG string.

    With log_y, values at or below 1e-12 are clamped to that floor before
    taking log10.  Lists of Python floats plot fastest.
    """
    width, height = 640, 420
    ml, mr, mt, mb = 62, 16, 28, 46
    pw, ph = width - ml - mr, height - mt - mb

    # each y is transformed once, to a Python float; x is read as given, so
    # series that share one list of x do not copy it
    ty = (lambda v: math.log10(max(v, 1e-12))) if log_y else float
    series = [(name, xs, [ty(y) for y in ys]) for name, xs, ys in series]
    xs_nonempty = [xs for _, xs, _ in series if len(xs)]
    if not xs_nonempty:
        raise ValueError("no data")
    x_lo, x_hi = min(map(min, xs_nonempty)), max(map(max, xs_nonempty))
    y_lo = min(min(ys) for _, _, ys in series if ys)
    y_hi = max(max(ys) for _, _, ys in series if ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    # a point maps to ml + pw (x - x_lo) / x_span and mt + ph (1 - (y - y_lo) / y_span)
    x_span, y_span = x_hi - x_lo, y_hi - y_lo

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>',
    ]
    for t in _ticks(x_lo, x_hi):
        x = ml + pw * (t - x_lo) / x_span
        parts.append(f'<line x1="{x:.1f}" y1="{mt + ph}" x2="{x:.1f}" y2="{mt + ph + 4}" stroke="#333"/>')
        parts.append(f'<text x="{x:.1f}" y="{mt + ph + 16}" text-anchor="middle">{t:g}</text>')
    for t in _ticks(y_lo, y_hi):
        y = mt + ph * (1 - (t - y_lo) / y_span)
        label = f"1e{t:g}" if log_y else f"{t:g}"
        parts.append(f'<line x1="{ml - 4}" y1="{y:.1f}" x2="{ml}" y2="{y:.1f}" stroke="#333"/>')
        parts.append(f'<text x="{ml - 7}" y="{y + 3.5:.1f}" text-anchor="end">{label}</text>')
    if title:
        parts.append(f'<text x="{ml + pw / 2:.1f}" y="{mt - 9}" text-anchor="middle" '
                     f'font-size="13">{title}</text>')
    if xlabel:
        parts.append(f'<text x="{ml + pw / 2:.1f}" y="{height - 8}" text-anchor="middle">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="14" y="{mt + ph / 2:.1f}" text-anchor="middle" '
                     f'transform="rotate(-90 14 {mt + ph / 2:.1f})">{ylabel}</text>')

    # the pixel columns of each distinct x list, formatted once however many series share it
    columns = {}
    for k, (name, xs, ys) in enumerate(series):
        color = _COLORS[k % len(_COLORS)]
        if id(xs) not in columns:
            columns[id(xs)] = [f"{ml + pw * (x - x_lo) / x_span:.2f}" for x in xs]
        pts = " ".join(f"{x},{mt + ph * (1 - (y - y_lo) / y_span):.2f}"
                       for x, y in zip(columns[id(xs)], ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.4"/>')
        ly = mt + 14 + 14 * k
        parts.append(f'<line x1="{ml + pw - 118}" y1="{ly - 4}" x2="{ml + pw - 98}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="1.4"/>')
        parts.append(f'<text x="{ml + pw - 93}" y="{ly}">{name}</text>')

    parts.append("</svg>")
    return "\n".join(parts)
