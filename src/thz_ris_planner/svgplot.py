"""Minimal self-contained SVG plots (no external assets, deterministic output)."""

from __future__ import annotations

import math
from pathlib import Path

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 55  # margins


def _ticks(lo: float, hi: float) -> list[float]:
    """About six round tick positions over lo < hi, using a 1/2/5 ladder."""
    raw = (hi - lo) / 6
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + step * 1e-9:
        out.append(round(t, 12))
        t += step
    return out


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def line_plot(
    path: str | Path,
    series: list[tuple[list[float], list[float], str]],
    xlabel: str,
    ylabel: str,
    title: str,
) -> None:
    """Write a multi-series line plot."""
    xs = [x for s in series for x in s[0]]
    ys = [y for s in series for y in s[1] if math.isfinite(y)]
    if not xs or not ys:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    pad = 0.05 * (y_hi - y_lo or 1.0)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def sx(x: float) -> float:
        return _ML + pw * (x - x_lo) / (x_hi - x_lo)

    def sy(y: float) -> float:
        return _MT + ph * (1.0 - (y - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>',
        f'<text x="{_W / 2:.1f}" y="22" text-anchor="middle" font-size="14">{title}</text>',
    ]
    for t in _ticks(x_lo, x_hi):
        if x_lo <= t <= x_hi:
            parts.append(
                f'<line x1="{sx(t):.2f}" y1="{_MT + ph}" x2="{sx(t):.2f}" y2="{_MT + ph + 5}" stroke="#333"/>'
            )
            parts.append(
                f'<text x="{sx(t):.2f}" y="{_MT + ph + 20}" text-anchor="middle">{_fmt(t)}</text>'
            )
    for t in _ticks(y_lo, y_hi):
        if y_lo <= t <= y_hi:
            parts.append(
                f'<line x1="{_ML - 5}" y1="{sy(t):.2f}" x2="{_ML}" y2="{sy(t):.2f}" stroke="#333"/>'
            )
            parts.append(
                f'<text x="{_ML - 8}" y="{sy(t) + 4:.2f}" text-anchor="end">{_fmt(t)}</text>'
            )
            parts.append(
                f'<line x1="{_ML}" y1="{sy(t):.2f}" x2="{_ML + pw}" y2="{sy(t):.2f}" '
                f'stroke="#ddd" stroke-width="0.5"/>'
            )
    parts.append(
        f'<text x="{_ML + pw / 2:.1f}" y="{_H - 14}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{_MT + ph / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {_MT + ph / 2:.1f})">{ylabel}</text>'
    )
    for idx, (x, y, label) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join(
            f"{sx(px):.2f},{sy(py):.2f}"
            for px, py in zip(x, y)
            if math.isfinite(py) and y_lo <= py <= y_hi
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = _MT + 16 + 16 * idx
        parts.append(
            f'<line x1="{_ML + pw - 150}" y1="{ly - 4}" x2="{_ML + pw - 125}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{_ML + pw - 120}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def heatmap(
    path: str | Path,
    x: list[float],
    y: list[float],
    z: list[list[float]],
    xlabel: str,
    ylabel: str,
    title: str,
    z_floor: float,
) -> None:
    """Grayscale cell heatmap of z[i][j] over x[i], y[j], shaded from z_floor up."""
    finite = [v for row in z for v in row if math.isfinite(v)]
    if not finite:
        raise ValueError("nothing to plot")
    z_hi = max(finite)
    if z_hi == z_floor:
        z_hi = z_floor + 1.0

    pw = _W - _ML - _MR
    ph = _H - _MT - _MB
    nx, ny = len(x), len(y)
    cw, ch = pw / nx, ph / ny

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="22" text-anchor="middle" font-size="14">{title}</text>',
    ]
    for i in range(nx):
        for j in range(ny):
            v = z[i][j]
            if not math.isfinite(v):
                continue
            frac = (min(max(v, z_floor), z_hi) - z_floor) / (z_hi - z_floor)
            shade = int(255 * (1.0 - frac))
            parts.append(
                f'<rect x="{_ML + i * cw:.2f}" y="{_MT + (ny - 1 - j) * ch:.2f}" '
                f'width="{cw + 0.5:.2f}" height="{ch + 0.5:.2f}" '
                f'fill="rgb({shade},{shade},{shade})"/>'
            )
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>'
    )
    parts.append(
        f'<text x="{_ML + pw / 2:.1f}" y="{_H - 14}" text-anchor="middle">'
        f"{xlabel} [{_fmt(min(x))} .. {_fmt(max(x))}]</text>"
    )
    parts.append(
        f'<text x="18" y="{_MT + ph / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {_MT + ph / 2:.1f})">{ylabel} [{_fmt(min(y))} .. {_fmt(max(y))}]</text>'
    )
    parts.append(
        f'<text x="{_ML}" y="{_MT - 8}">scale {_fmt(z_floor)} (white) .. {_fmt(z_hi)} (black)</text>'
    )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
