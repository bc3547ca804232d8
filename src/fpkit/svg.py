"""Minimal deterministic SVG writer for line plots and heatmaps.

No plotting dependency: figures the CLI emits are assembled from a handful
of SVG primitives with every coordinate printed as %.2f, so regenerating a
figure from the same data produces the same bytes. Axes are linear or log10;
log axes require positive data. Coordinates are computed on whole arrays
and each polyline or block is formatted from one template. A heatmap has at
most MAX_BLOCKS = 64 blocks per side: a larger array is block-averaged over
ceil(n / MAX_BLOCKS) cells per side.
"""

from __future__ import annotations

import math
from typing import Sequence

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 16, 34, 46
MAX_BLOCKS = 64  # a heatmap's blocks per side, at most


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _ticks(lo: float, hi: float, log: bool) -> list[float]:
    if log:
        lo_e, hi_e = math.floor(lo + 1e-12), math.ceil(hi - 1e-12)
        return [float(e) for e in range(int(lo_e), int(hi_e) + 1)]
    span = hi - lo
    if span <= 0:
        return [lo]
    step = 10.0 ** math.floor(math.log10(span / 4.0))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= 6:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * abs(span):
        out.append(round(t, 12))
        t += step
    return out


def _tick_label(v: float, log: bool) -> str:
    if log:
        return f"1e{int(round(v))}"
    return f"{v:g}"


class _Canvas:
    def __init__(self, title: str, xlabel: str, ylabel: str):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}">',
            f'<rect width="{_W}" height="{_H}" fill="white"/>',
            f'<text x="{_W / 2:.0f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_esc(title)}</text>',
            f'<text x="{_W / 2:.0f}" y="{_H - 8}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{_esc(xlabel)}</text>',
            f'<text x="14" y="{_H / 2:.0f}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="12" transform="rotate(-90 14 {_H / 2:.0f})">{_esc(ylabel)}</text>',
        ]

    def add(self, s: str):
        self.parts.append(s)

    def finish(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _transformed(vals, log: bool, name: str):
    import numpy as np
    a = np.asarray(vals, dtype=float)
    if log:
        if (a <= 0).any():
            raise ValueError(f"log axis needs positive {name} data")
        return np.log10(a)
    return a


def line_plot(path: str, series: Sequence[tuple], title: str = "", xlabel: str = "x",
              ylabel: str = "y", logx: bool = False, logy: bool = False):
    """Write a multi-series line plot. series = [(label, xs, ys), ...]."""
    import numpy as np

    if not series:
        raise ValueError("need at least one series")
    data = [(label, _transformed(xs, logx, "x"), _transformed(ys, logy, "y"))
            for label, xs, ys in series]
    xs_all = np.concatenate([xv for _, xv, _ in data])
    ys_all = np.concatenate([yv for _, _, yv in data])
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if x_hi - x_lo <= 0:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi - y_lo <= 0:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    # on a float or a whole array, with the same operations in the same order
    def px(v):
        return _ML + (v - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(v):
        return _H - _MB - (v - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    c = _Canvas(title, xlabel, ylabel)
    c.add(f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
          f'fill="none" stroke="#333" stroke-width="1"/>')
    for t in _ticks(x_lo, x_hi, logx):
        if not (x_lo - 1e-12 <= t <= x_hi + 1e-12):
            continue
        c.add(f'<line x1="{_fmt(px(t))}" y1="{_H - _MB}" x2="{_fmt(px(t))}" '
              f'y2="{_H - _MB + 5}" stroke="#333"/>')
        c.add(f'<text x="{_fmt(px(t))}" y="{_H - _MB + 18}" text-anchor="middle" '
              f'font-family="sans-serif" font-size="11">{_tick_label(t, logx)}</text>')
    for t in _ticks(y_lo, y_hi, logy):
        if not (y_lo - 1e-12 <= t <= y_hi + 1e-12):
            continue
        c.add(f'<line x1="{_ML - 5}" y1="{_fmt(py(t))}" x2="{_ML}" '
              f'y2="{_fmt(py(t))}" stroke="#333"/>')
        c.add(f'<text x="{_ML - 8}" y="{_fmt(py(t) + 4)}" text-anchor="end" '
              f'font-family="sans-serif" font-size="11">{_tick_label(t, logy)}</text>')
    for si, (label, xv, yv) in enumerate(data):
        pts = " ".join(map("{:.2f},{:.2f}".format, px(xv).tolist(), py(yv).tolist()))
        color = _PALETTE[si % len(_PALETTE)]
        c.add(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        if label:
            yl = _MT + 16 + 16 * si
            c.add(f'<line x1="{_W - _MR - 120}" y1="{yl - 4}" x2="{_W - _MR - 96}" '
                  f'y2="{yl - 4}" stroke="{color}" stroke-width="1.5"/>')
            c.add(f'<text x="{_W - _MR - 90}" y="{yl}" font-family="sans-serif" '
                  f'font-size="11">{_esc(label)}</text>')
    with open(path, "w") as fh:
        fh.write(c.finish())


def heatmap(path: str, values, extent: float, title: str = ""):
    """Write a grayscale heatmap of a square array over [-extent, extent]^2.

    An n x n array with n > MAX_BLOCKS is block-averaged over
    f = ceil(n / MAX_BLOCKS) cells per side, so the figure has at most
    MAX_BLOCKS blocks per side. When f does not divide n, the last block of
    each side averages the n mod f cells left over and is drawn that much
    narrower, so every cell is shown where it lies.
    """
    import numpy as np

    v = np.asarray(values, dtype=float)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ValueError("heatmap needs a square 2D array")
    if not np.isfinite(v).all():
        raise ValueError("heatmap needs finite values")
    n = v.shape[0]
    f = -(-n // MAX_BLOCKS)  # cells per block side
    k = -(-n // f)  # blocks per side
    # NaN pads the last blocks to f cells, and nanmean leaves the pad out
    v = np.pad(v, (0, k * f - n), constant_values=np.nan)
    v = np.nanmean(v.reshape(k, f, k, f), axis=(1, 3))
    lo, hi = float(v.min()), float(v.max())
    span = hi - lo if hi > lo else 1.0
    c = _Canvas(title, "x1", "x2")
    side = min(_W - _ML - _MR, _H - _MT - _MB)
    cell = side / n  # the width of one array cell
    edges = np.minimum(np.arange(k + 1) * f, n)  # the first cell of each block, and n
    # np.rint rounds half to even, as round does
    shades = np.rint(255 * (1.0 - (v - lo) / span)).astype(int).ravel().tolist()
    # grid rows follow ascending x1; SVG y grows downward
    xs = [_fmt(x) for x in (_ML + edges[:-1] * cell).tolist()]
    ys = [_fmt(y) for y in (_MT + side - edges[1:] * cell).tolist()]
    sizes = [_fmt(w) for w in (np.diff(edges) * cell + 0.5).tolist()]
    rect = '<rect x="{0}" y="{1}" width="{2}" height="{3}" fill="rgb({4},{4},{4})"/>'
    c.parts.extend(map(rect.format, [x for x in xs for _ in range(k)], ys * k,
                       [w for w in sizes for _ in range(k)], sizes * k, shades))
    c.add(f'<rect x="{_ML}" y="{_MT}" width="{_fmt(side)}" height="{_fmt(side)}" '
          f'fill="none" stroke="#333"/>')
    c.add(f'<text x="{_ML}" y="{_MT + side + 16}" font-family="sans-serif" font-size="11">'
          f'[-{extent:g}, {extent:g}]^2, values [{lo:.4g}, {hi:.4g}]</text>')
    with open(path, "w") as fh:
        fh.write(c.finish())
