"""Uniform cell-centered grids and discrete probability densities.

The truncated computational domain is the box [-R, R]^d split into n cells
per axis (n a power of two, so refinement studies halve h exactly). All
discrete integrals in the package are midpoint cell quadrature: sum of cell
values times h^d.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import DegenerateDensityError, GridMismatchError

MAX_CELLS = 2 ** 20  # 1d up to n = 2^20, 2d up to n = 1024
DISSECTION_LEAF = 8  # largest box of cells that nested dissection does not split


def default_radius(beta2: float) -> float:
    """Default truncation radius 8/sqrt(beta2), floored at the minimum box size."""
    if beta2 <= 0:
        raise ValueError("beta2 must be positive")
    return max(4.0, 8.0 / np.sqrt(beta2))


@dataclass(frozen=True)
class GridSpec:
    """Cell-centered uniform grid on [-radius, radius]^dim with zero-flux walls.

    Equality and hashing use (dim, radius, n) only. The cell centers, their
    radii and the nested-dissection order of the cells are computed on first
    use and kept on the instance, so every solve on one spec shares them and
    they are freed with it; the arrays are read-only.
    """

    dim: int
    radius: float
    n: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"grid dimension must be 1 or 2, got {self.dim}")
        if self.radius < 4.0:
            raise ValueError(f"truncation radius must be >= 4, got {self.radius}")
        n = self.n
        if n < 16 or (n & (n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 16, got {n}")
        if self.n_cells > MAX_CELLS:
            raise ValueError(f"grid of {n}^{self.dim} cells exceeds the budget of "
                             f"{MAX_CELLS} cells")

    @property
    def h(self) -> float:
        return 2.0 * self.radius / self.n

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dim

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def n_cells(self) -> int:
        return self.n ** self.dim

    def axis_centers(self) -> np.ndarray:
        return -self.radius + (np.arange(self.n) + 0.5) * self.h

    def cell_centers(self) -> np.ndarray:
        """All cell centers as a read-only (n^dim, dim) array in row-major (ij) order."""
        return self._centers

    def center_radii(self) -> np.ndarray:
        """Euclidean norms of the cell centers, read-only, in cell_centers order."""
        return self._radii

    @cached_property
    def _centers(self) -> np.ndarray:
        c = self.axis_centers()
        if self.dim == 1:
            pts = c[:, None]
        else:
            X, Y = np.meshgrid(c, c, indexing="ij")
            pts = np.stack([X.ravel(), Y.ravel()], axis=1)
        pts.setflags(write=False)
        return pts

    @cached_property
    def _radii(self) -> np.ndarray:
        pts = self._centers
        r = np.sqrt(np.sum(pts * pts, axis=1))
        r.setflags(write=False)
        return r

    def dissection_order(self) -> np.ndarray:
        """Cell indices (row-major) in geometric nested-dissection order, read-only.

        The box of cells is split across its longer side (across axis 0 on a
        tie) by a separator one cell thick; each half is ordered the same way
        down to boxes of at most DISSECTION_LEAF cells, which keep row-major
        order, and a separator comes after both of its halves (George, SIAM J.
        Numer. Anal. 10, 1973). Eliminating cells in this order keeps the fill
        of a 9-point factor within O(N log N) (see fpk._factor).
        """
        return self._dissection

    @cached_property
    def _dissection(self) -> np.ndarray:
        cols = self.n if self.dim == 2 else 1

        @cache
        def block(h: int, w: int) -> np.ndarray:
            """Order of an h x w box as offsets from its first cell; equal boxes share it."""
            if h * w <= DISSECTION_LEAF:
                return (np.arange(h, dtype=np.int32)[:, None] * cols
                        + np.arange(w, dtype=np.int32)).ravel()
            if h >= w:  # the separator is row m of the box
                m = h // 2
                return np.concatenate([block(m, w), block(h - m - 1, w) + (m + 1) * cols,
                                       m * cols + np.arange(w, dtype=np.int32)])
            m = w // 2
            return np.concatenate([block(h, m), block(h, w - m - 1) + (m + 1),
                                   m + cols * np.arange(h, dtype=np.int32)])

        order = block(self.n, cols)
        block.cache_clear()  # the nested function is a reference cycle; free its boxes now
        order.setflags(write=False)
        return order

    def boundary_mask(self) -> np.ndarray:
        """Boolean mask (grid shape) marking cells that touch the outer wall."""
        m = np.zeros(self.shape, dtype=bool)
        if self.dim == 1:
            m[0] = m[-1] = True
        else:
            m[0, :] = m[-1, :] = True
            m[:, 0] = m[:, -1] = True
        return m


class GridDensity:
    """A probability density on a grid: nonnegative cells, unit mass.

    `values` has the grid shape and is frozen after construction. `info`
    optionally carries solver metadata (residual, clipped mass, ...).
    """

    def __init__(self, spec: GridSpec, values: np.ndarray, info: dict | None = None):
        values = np.asarray(values, dtype=float)
        if values.shape != spec.shape:
            raise ValueError(f"values shape {values.shape} does not match grid {spec.shape}")
        if float(values.min(initial=0.0)) < -1e-12:
            raise ValueError(f"density has negative cells (min {values.min():.3e})")
        values = np.maximum(values, 0.0)
        mass = float(values.sum()) * spec.cell_volume
        if abs(mass - 1.0) > 1e-8:
            raise ValueError(f"density mass {mass!r} is not 1 within 1e-8")
        values = values.copy()
        values.setflags(write=False)
        self.spec = spec
        self.values = values
        self.info = dict(info or {})

    @property
    def mass(self) -> float:
        return float(self.values.sum()) * self.spec.cell_volume

    @property
    def boundary_mass(self) -> float:
        """Mass fraction sitting in cells that touch the outer wall."""
        return float(self.values[self.spec.boundary_mask()].sum()) * self.spec.cell_volume

    def flat(self) -> np.ndarray:
        return self.values.ravel()

    @classmethod
    def from_samples(cls, spec: GridSpec, samples: np.ndarray) -> "GridDensity":
        """Normalize nonnegative samples on the grid into a density."""
        samples = np.asarray(samples, dtype=float).reshape(spec.shape)
        samples = np.maximum(samples, 0.0)
        total = samples.sum() * spec.cell_volume
        if not np.isfinite(total) or total <= 0:
            raise DegenerateDensityError("cannot normalize: total mass is zero or non-finite")
        return cls(spec, samples / total)

    @classmethod
    def from_function(cls, spec: GridSpec, fn) -> "GridDensity":
        """Sample a pointwise density formula at cell centers and normalize."""
        vals = np.asarray(fn(spec.cell_centers()), dtype=float).reshape(spec.shape)
        return cls.from_samples(spec, vals)


def require_same_grid(a: GridDensity, b: GridDensity):
    if a.spec != b.spec:
        raise GridMismatchError(f"grids differ: {a.spec} vs {b.spec}")
