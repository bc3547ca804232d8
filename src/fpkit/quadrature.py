"""Quadrature helpers shared by the solvers and the oscillation sampler.

Everything here is deterministic: node layouts depend only on the requested
orders, never on global state.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss-Legendre rule on [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def gauss_interval(a: float, b: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [a, b]."""
    z, w = gauss_legendre(order)
    half = 0.5 * (b - a)
    return a + half * (z + 1.0), w * half


def interval_rule(center: np.ndarray, radius: float, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint rule for averaging over the interval [c - r, c + r] (d = 1).

    Returns points of shape (n_points, 1) and weights summing to 1, so that
    weights @ f(points) is the interval average.
    """
    # midpoints of n_points equal subintervals
    t = (np.arange(n_points) + 0.5) / n_points * 2.0 - 1.0
    pts = (center[0] + radius * t)[:, None]
    w = np.full(n_points, 1.0 / n_points)
    return pts, w


def disk_rule(center: np.ndarray, radius: float, n_radial: int, n_angular: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint product rule for averaging over the disk B(c, r) (d = 2).

    Radial midpoints with area-element weights, uniform angular midpoints.
    Weights sum to 1 so that weights @ f(points) is the disk average.
    """
    rr = (np.arange(n_radial) + 0.5) / n_radial  # scaled radii midpoints
    th = (np.arange(n_angular) + 0.5) / n_angular * 2.0 * np.pi
    Rg, Tg = np.meshgrid(rr, th, indexing="ij")
    px = center[0] + radius * Rg * np.cos(Tg)
    py = center[1] + radius * Rg * np.sin(Tg)
    pts = np.stack([px.ravel(), py.ravel()], axis=1)
    # area weight proportional to r dr dtheta; normalize to average
    w = Rg.ravel()
    w = w / w.sum()
    return pts, w


def ball_average_rule(center: np.ndarray, radius: float, n_radial: int, n_angular: int) -> tuple[np.ndarray, np.ndarray]:
    """Dispatch the ball-average rule by dimension of `center`."""
    d = len(center)
    if d == 1:
        return interval_rule(center, radius, 2 * n_radial)
    if d == 2:
        return disk_rule(center, radius, n_radial, n_angular)
    raise ValueError(f"ball averages implemented for d in {{1, 2}}, got d={d}")


def cumulative_integral(values: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative integral of uniformly sampled values, starting at 0.

    Composite Simpson accumulation, O(dx^4). `values` is sampled on a uniform
    mesh of spacing dx (at least 3 samples); the result has the same length
    with result[0] = 0. Interval [x_i, x_i+1] gets the quadratic through
    three neighbouring samples, dx / 3 * (5 f_i / 4 + 2 f_i+1 - f_i+2 / 4)
    read forwards from x_i or the same formula read backwards from x_i+1:
    forwards on even i, backwards on odd i and on the last interval. Each
    interval's quadratic is formed once, from terms shared by its
    neighbours: 5 e / 4 and e / 4 of the even samples e and 2 o of the odd
    samples o (an even-length last interval reads the opposite parity and is
    formed alone). This is the equal-spacing branch of
    scipy.integrate.cumulative_simpson(values, dx=dx, initial=0.0), with the
    same operations on each element in the same order, so the two agree bit
    for bit (tests/test_quadrature.py keeps scipy as the reference).
    """
    values = np.asarray(values, dtype=float)
    n = len(values)
    even, odd = values[0::2], values[1::2]
    five_e, quarter_e, two_o = 5 * even / 4, even / 4, 2 * odd
    j = (n - 1) // 2  # even intervals read forwards and odd ones backwards, j of each
    pieces = np.empty(n - 1)
    pieces[0:2 * j:2] = five_e[:j] + two_o[:j] - quarter_e[1:j + 1]
    pieces[1:2 * j:2] = five_e[1:j + 1] + two_o[:j] - quarter_e[:j]
    if n % 2 == 0:
        pieces[-1] = 5 * values[-1] / 4 + 2 * values[-2] - values[-3] / 4
    pieces *= dx / 3
    out = np.empty(n)
    out[0] = 0.0
    np.cumsum(pieces, out=out[1:])
    out[1:] += 0.0  # as scipy adds `initial`, which turns a sum of -0.0 into 0.0
    return out


def fine_mesh(radius: float, n_cells: int, subdiv: int) -> tuple[np.ndarray, float]:
    """Uniform quadrature mesh over [-radius, radius] aligned with cell centers.

    Cells have width h = 2*radius/n_cells; each is split into `subdiv` equal
    pieces (subdiv must be even so cell centers land on mesh points). Returns
    (mesh_points, fine_spacing); mesh has n_cells*subdiv + 1 points.
    """
    if subdiv % 2 != 0:
        raise ValueError("subdiv must be even so cell centers are mesh points")
    m = n_cells * subdiv
    pts = np.linspace(-radius, radius, m + 1)
    return pts, 2.0 * radius / m


def center_indices(n_cells: int, subdiv: int) -> np.ndarray:
    """Indices of cell centers inside the fine_mesh point array."""
    return np.arange(n_cells) * subdiv + subdiv // 2


def lp_from_logs(log_f: np.ndarray, p: float, cell_volume: float) -> float:
    """(sum f^p h^d)^(1/p) by cell quadrature, from log f (-inf where f = 0).

    The terms are scaled by the largest, so that f^p neither overflows nor
    underflows on the way: a norm that is a float comes out finite and, with
    one f > 0, nonzero. NaN in log_f gives NaN.
    """
    top = float(np.max(log_f))
    if top == -np.inf:
        return 0.0
    with np.errstate(over="ignore"):  # a norm past the float range is inf
        return float(np.exp(top + np.log(np.sum(np.exp(p * (log_f - top))) * cell_volume) / p))
