"""Stationary Kolmogorov solvers and density diagnostics.

The stationary density rho of L u = sum_ij a^ij d_i d_j u + sum_i b^i d_i u
solves sum_ij d_i d_j (a^ij rho) - sum_i d_i (b^i rho) = 0. Two routes:

* solve_exact_1d: in d = 1 the zero-flux closed form rho(x) = C / a(x) *
  exp(integral_0^x b/a), by cumulative quadrature on a mesh SUBDIV = 8 times
  finer than the grid (_fine_profile_1d, which poisson.solve_poisson_1d
  shares), normalized by cell quadrature on the grid.

* solve_grid: the pinned null vector of M = L_h^T, in d = 1, 2. L_h is a
  monotone fit of the generator (_weight_table): in a dominant cell,
  |a^01| <= min(a^00, a^11), the cross term is a second difference along a
  diagonal (Motzkin and Wasow, J. Math. Phys. 31, 1953), and each axis is
  upwinded minimally, or exponentially fitted where that chain would miss
  the pinned cell (Allen and Southwell, 1955; Il'in, 1969; Scharfetter and
  Gummel, 1969). Every off-diagonal weight of a dominant cell is then
  nonnegative, and the scheme is second order where no cell is upwinded.
  The rows of L_h sum to zero, so M conserves mass and the equation of the
  center-most cell is implied by the others: that cell is pinned (its row
  the unit row, value 1) and the solution scaled to sum rho h^d = 1. The
  density is a discrete probability solution of the L_h that
  poisson.solve_poisson_grid inverts: sum_x rho (L_h phi) = 0 for all phi.

Every grid solve takes one path. _generator_table samples A and b once at
the cell centers (or reads the diffusion a NearbyFactor holds), checks the
samples and writes the table of L_h, one weight per stencil offset and cell.
_solve_null turns the table into the null vector, refined against the factor
a slot holds (_refined_null) or from a fresh factor of the pinned M
(_pinned_factor). _null_density validates and clips it. Where the pin reaches
every cell, the pinned M is factored in SuperLU's MMD order (5-point and 1d)
or the grid's nested-dissection order (9-point). Where it does not, its
cells past the Pe = 1 line that the upwinding cuts off are transient, the
pin's closed class holds all the mass, and M is factored block lower
triangular (_block_order), so the density is exactly 0 on the transient
cells. One rule orders every factor, so poisson.stationary_poisson shares
it bit for bit. The table is the one
operator a solve applies: M x = L_h^T x, |M| |x| and L_h u are _apply of
it, bit for bit the products of the sparse matrices. A sparse matrix is
written only for SuperLU (the pinned M) and for generator_matrix, the public
L_h. The measurements behind the stencil, the orderings, SuperLU's options
and the refinement constants are in CHANGES.md, not repeated here.

scipy.sparse and scipy.sparse.linalg are imported where they are used
(generator_matrix, _pinned_factor, _factor, and _reaches_pin and _block_order
with scipy.sparse.csgraph), so importing fpkit and running the 1d closed form
load no scipy module. _factor calls spla.splu through the module, so a
replacement of scipy.sparse.linalg.splu sees every factor.

Only a non-dominant cell has negative weights, so only a diffusion with one
can give negative cells; they are clipped, and info records the clipped
mass beside the scheme's telemetry (_weight_table). Whether a clip is fatal
is the caller's decision (the CLI warns, or under --strict fails). A
coefficient sample that is not finite is an EvaluationError naming the first
such point, raised before the ellipticity check and the factor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import (ConfinementError, ConvergenceError, DegenerateDensityError,
                     EllipticityError, EvaluationError, SupportError, TruncationError)
from .fields import (ClosureField, ConstantField, DiffusionMatrixField, DriftField,
                     ScalarField, linear_drift, make_example_field)
from .grids import GridDensity, GridSpec
from .quadrature import center_indices, cumulative_integral, fine_mesh, lp_from_logs
from .testfunctions import SmoothTestFunction

if TYPE_CHECKING:  # the annotations only; the solvers import scipy.sparse where they use it
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

BOUNDARY_MASS_LIMIT = 1e-4
RESIDUAL_LIMIT = 1e-10
ELLIPTICITY_TOL = 1e-6
PANEL_SIZE = 2  # SuperLU panel size and supernode relaxation (see _factor)
RELAX = 2
SUBDIV = 8  # fine-mesh cells per grid cell of the 1d closed forms
REFINE_RESIDUAL = 1e-14  # stops and step cap of refinement (see _refined_null)
REFINE_CORRECTION = 1e-12
REFINE_MAX_STEPS = 10
REACH_TOL = 1e-10  # least rate of a minimally upwinded step, per coefficient size (_reaches_pin)


def _scalar_diffusion(a) -> ScalarField:
    if isinstance(a, DiffusionMatrixField):
        if a.dim != 1:
            raise ValueError("solve_exact_1d needs a one-dimensional diffusion")
        return a.entry(0, 0)
    return a


def _positive(vals: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """vals, samples of a diffusion at pts, or an EllipticityError naming one not positive."""
    i = int(np.argmin(vals))
    if vals[i] <= 0.0:
        at = ", ".join(f"{v:.6g}" for v in pts[i])
        raise EllipticityError(f"diffusion coefficient nonpositive at x=({at}) "
                               f"(value {vals[i]:.6g})")
    return vals


def _require_finite(pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """EvaluationError naming the first of pts where a sample of a or b is not finite.

    A field subclass that overrides `values` can return NaN, which the
    positivity and ellipticity checks let through.
    """
    if np.isfinite(a).all() and np.isfinite(b).all():
        return
    ok = np.isfinite(a.reshape(len(pts), -1)).all(axis=1)
    ok &= np.isfinite(b.reshape(len(pts), -1)).all(axis=1)
    i = int(np.argmin(ok))
    at = ", ".join(f"{v:.6g}" for v in pts[i])
    raise EvaluationError(f"coefficients non-finite at x=({at}): "
                          f"a {a[i].tolist()}, b {b[i].tolist()}", point=pts[i])


def _check_truncation(rho: GridDensity) -> GridDensity:
    """rho, or a TruncationError when its boundary cells hold BOUNDARY_MASS_LIMIT or more."""
    if rho.boundary_mass >= BOUNDARY_MASS_LIMIT:
        raise TruncationError(
            f"under-truncation: boundary cells hold mass {rho.boundary_mass:.3e} "
            f">= {BOUNDARY_MASS_LIMIT:g}; enlarge the radius")
    return rho


def _fine_profile_1d(a, b: DriftField, spec: GridSpec) -> dict:
    """Fine-mesh data for the 1D closed form: log-density and normalization.

    Returns the fine mesh (SUBDIV cells per grid cell), the cumulative
    integral of b/a anchored at 0, the normalized fine density, and the
    cell-quadrature normalizer; the 1D Poisson solver integrates against it.
    """
    if spec.dim != 1:
        raise ValueError("1D solver called on a non-1D grid")
    pts, hf = fine_mesh(spec.radius, spec.n, SUBDIV)
    X = pts[:, None]
    a_vals = _scalar_diffusion(a).values(X)
    b_vals = b.values(X)[:, 0]
    _require_finite(X, a_vals, b_vals)
    _positive(a_vals, X)
    integ = cumulative_integral(b_vals / a_vals, hf)
    integ = integ - integ[len(pts) // 2]  # anchor the antiderivative at x = 0
    log_rho = integ - np.log(a_vals)
    shift = float(log_rho.max())
    unnorm = np.exp(log_rho - shift)
    cidx = center_indices(spec.n, SUBDIV)
    z_cells = float(unnorm[cidx].sum()) * spec.h
    if not np.isfinite(z_cells) or z_cells <= 0.0:
        raise ConfinementError("stationary normalization diverged; drift does not confine")
    rho_fine = unnorm / z_cells
    return {"pts": pts, "hf": hf, "integral_b_over_a": integ, "rho_fine": rho_fine,
            "center_idx": cidx, "log_normalizer": shift + math.log(z_cells)}


def solve_exact_1d(a, b: DriftField, spec: GridSpec, check_truncation: bool = True,
                   profile: dict | None = None) -> GridDensity:
    """Stationary density in d = 1 from the zero-flux closed form.

    rho(x) = exp(integral_0^x b/a ds) / (a(x) Z), Z fixed by unit cell mass on
    the grid. check_truncation=False is for a zero-flux problem posed on the
    box itself, where boundary mass is expected. `profile` is
    _fine_profile_1d(a, b, spec) when the caller has built it.
    """
    prof = _fine_profile_1d(a, b, spec) if profile is None else profile
    rho_c = prof["rho_fine"][prof["center_idx"]]
    dens = GridDensity(spec, rho_c / (rho_c.sum() * spec.h),
                       info={"method": "exact-1d", "log_normalizer": prof["log_normalizer"]})
    return _check_truncation(dens) if check_truncation else dens


# ---------------------------------------------------------------------------
# grid assembly and solve
# ---------------------------------------------------------------------------


def generator_matrix(A: DiffusionMatrixField, b: DriftField, spec: GridSpec) -> sp.csr_matrix:
    """The fitted discretization L_h of the generator with reflecting walls, as CSR.

    The coefficients are taken at the cell centers, unchecked, and fitted as
    the module docstring says (_weight_table). A tap past a wall folds onto
    the wall cell itself (a reflecting ghost), so the rows sum to zero.
    """
    import scipy.sparse as sp

    pts = spec.cell_centers()
    T, offsets, _ = _weight_table(A.values(pts), b.values(pts), spec)
    return sp.csr_matrix(_compressed(T, offsets), shape=(spec.n_cells,) * 2)


def _weight_table(a: np.ndarray, b_c: np.ndarray,
                  spec: GridSpec) -> tuple[np.ndarray, np.ndarray, dict]:
    """Neighbour weights of the fitted L_h from samples a: (N, d, d) and b_c: (N, d) at the cells.

    Returns the (S, N) table, T[s, c] the weight of L_h from cell c to cell
    c + offsets[s], the (S,) int32 offsets of its slots and
    the scheme's telemetry: "max_cell_peclet", the largest h |b^i| / (2 a^ii),
    "non_dominant_cells", the count of cells where |a^01| > min(a^00, a^11),
    and "exponential_fitting", whether the axes are fitted. The slots are the
    offsets o in {-1, 0, 1}^d of the stencil in lexicographic order, so the
    column offsets sum_i o_i n^(d-1-i) ascend: 3 in 1d, 5 in 2d, or all 9
    when a^01 is nonzero at some cell. Each term adds the product of its 1d
    weights times its coefficient into the slots it touches, and a tap past a
    wall folds onto the wall cell. Axis i carries sigma_i D2_i + beta_i D1_i:
    sigma_i = a^ii and beta = b, but in a dominant cell sigma_i = a^ii - m and
    beta = b - (2 f m / h) (1, sign a^01), m = |a^01| and f the share of the
    drift the diagonal carries (_diagonal_share). Where h |beta_i| / (2
    sigma_i) is above 1, sigma_i D2_i gives way to |beta_i| (h / 2) D2_i: the
    axis is beta_i times the one-sided difference downstream, its upstream
    weight 0 (minimal upwinding). Where that chain misses the pinned cell
    from some cell (_reaches_pin), every axis is exponentially fitted
    instead: e D2_i on top of the one-sided difference, e = h |beta_i| /
    expm1(h |beta_i| / sigma_i) (sigma_i where beta_i = 0), its upstream
    weight e / h^2 positive; if even that chain misses the pin, a
    DegenerateDensityError. The cross term of a dominant cell is
    m ((1 + f) S+ x S+ + (1 - f) S- x S- - 2) / h^2 when a^01 > 0, or
    m ((1 + f) S+ x S- + (1 - f) S- x S+ - 2) / h^2 when a^01 < 0, S+ and S-
    the folded shifts; a non-dominant cell keeps the centered 2 a^01 D1_0 D1_1.
    """
    n, h, d = spec.n, spec.h, spec.dim

    def folded(*weights):
        """(3, n) weights of a 1d stencil by clamped offset -1, 0, 1 at each position."""
        F = np.repeat(np.array(weights)[:, None], n, axis=1)
        F[1, 0] += F[0, 0]  # the tap past a wall is the wall cell itself
        F[1, -1] += F[2, -1]
        F[0, 0] = F[2, -1] = 0.0
        return F

    D1 = folded(-0.5 / h, 0.0, 0.5 / h)
    D2 = folded(1.0 / h ** 2, -2.0 / h ** 2, 1.0 / h ** 2)
    diag, abs_b = np.einsum("nii->ni", a), np.abs(b_c)
    scheme = {"max_cell_peclet": float(((0.5 * h) * abs_b / diag).max()),
              "non_dominant_cells": 0}
    cross = d == 2 and bool(np.any(a[:, 0, 1]))
    sigma, beta = diag, b_c
    if cross:
        sign = np.sign(a[:, 0, 1])
        m = np.abs(a[:, 0, 1])
        dominant = m <= np.minimum(a[:, 0, 0], a[:, 1, 1])
        scheme["non_dominant_cells"] = int(len(m) - np.count_nonzero(dominant))
        m = np.where(dominant, m, 0.0)  # the coefficient of the diagonal's second difference
        sigma = diag - m[:, None]
        f = _diagonal_share(sigma, m, sign, b_c, h)
        beta = b_c - ((2.0 / h) * f * m)[:, None] * np.column_stack([np.ones(len(m)), sign])
    stencil = [o for o in itertools.product((-1, 0, 1), repeat=d) if cross or o.count(0) >= d - 1]
    offsets = np.array([sum(k * n ** (d - 1 - i) for i, k in enumerate(o)) for o in stencil],
                       dtype=np.int32)
    # |beta_i| times this plus beta_i D1 is beta_i times the one-sided difference
    # downstream, its upstream weight 0 exactly (the two halves cancel)
    one_sided = folded(0.5 / h, -1.0 / h, 0.5 / h)
    # the slots of the taps -1, 0, 1 along each axis, evenly spaced in the lexicographic stencil
    taps = [[stencil.index(tuple(k if j == i else 0 for j in range(d))) for k in (-1, 0, 1)]
            for i in range(d)]
    axes = []  # per axis: a slice of its three slots, and its stencils as (3,) + grid weights
    for i, (lo, mid, hi) in enumerate(taps):
        along = (3,) + tuple(n if j == i else 1 for j in range(d))
        axes.append((slice(lo, hi + 1, mid - lo), *(F.reshape(along) for F in (D2, D1, one_sided))))

    def filled(fitted: bool) -> np.ndarray:
        T = np.zeros((len(stencil),) + spec.shape)  # slot by slot, each slot a grid
        for i, (slots, D2_i, D1_i, one_sided_i) in enumerate(axes):
            s_i, b_i = sigma[:, i], beta[:, i]
            terms = [(D2_i, s_i), (D1_i, b_i)]
            if fitted:  # e D2 on top of the one-sided difference, e = s_i B(h |b_i| / s_i)
                z = h * np.abs(b_i)
                with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                    e = np.where(b_i == 0.0, s_i, z / np.expm1(z / s_i))  # 0 where s_i = 0
                terms = [(D2_i, e), (D1_i, b_i), (one_sided_i, np.abs(b_i))]
            else:
                up = (0.5 * h) * np.abs(b_i) > s_i  # cell Peclet number above 1
                if up.any():  # minimal upwinding: the one-sided difference alone
                    terms = [(D2_i, np.where(up, 0.0, s_i)), (D1_i, b_i),
                             (one_sided_i, np.where(up, np.abs(b_i), 0.0))]
            view = T[slots]  # the three slots of axis i
            for F, coef in terms:
                view += F * coef.reshape(spec.shape)
        if cross:
            S = {1: folded(0.0, 0.0, 1.0), -1: folded(1.0, 0.0, 0.0)}
            along = m / h ** 2
            terms = [(D1, D1, np.where(dominant, 0.0, 2.0 * a[:, 0, 1]))]
            for s in (1, -1):  # the diagonal (1, s): the steps +(1, s) and -(1, s)
                on = sign == s
                terms += [(S[1], S[s], along * (1.0 + f) * on),
                          (S[-1], S[-s], along * (1.0 - f) * on)]
            terms = [(F0, F1, coef.reshape(spec.shape)) for F0, F1, coef in terms if coef.any()]
            for slot, (k0, k1) in enumerate(stencil):
                for F0, F1, coef in terms:
                    T[slot] += (F0[k0 + 1][:, None] * F1[k1 + 1][None, :]) * coef
            T[stencil.index((0, 0))] -= 2.0 * along.reshape(spec.shape)
        return T

    T = filled(fitted=False)
    # a bound on every cell's tr(a) / h^2 + |b|_1 / h: a rate's roundoff is a few ulps of it
    size = d * (float(diag.max()) / h ** 2 + float(abs_b.max()) / h)
    T = T.reshape(len(stencil), -1)
    scheme["exponential_fitting"] = not _reaches_pin(T, offsets, spec, REACH_TOL * size)
    if scheme["exponential_fitting"]:
        T = filled(fitted=True).reshape(len(stencil), -1)
        if not _reaches_pin(T, offsets, spec, 0.0):
            with np.errstate(divide="ignore", invalid="ignore"):
                pe = float(np.nanmax((0.5 * h) * np.abs(beta) / sigma))
            raise DegenerateDensityError(
                "the grid chain does not reach the pinned cell from every cell, even "
                "exponentially fitted: the drift pushes apart where h |beta_i| / (2 sigma_i), "
                f"sigma_i = a^ii less |a^01| in dominant cells, reaches {pe:.3g}; refine the grid")
    return T, offsets, scheme


def _axis_steps(T: np.ndarray, offsets: np.ndarray, spec: GridSpec, pin: int,
                toward: bool) -> list[np.ndarray]:
    """Per axis and side of the pinned cell, the weights of the steps one cell toward it, or away.

    T is the (S, N) table of L_h and pin the pinned cell. Toward: the
    weight of each cell that is not in the pin's line along axis i to step
    along axis i toward the pin.
    Away: that of each cell from the pin's line to the cell before the
    wall to step along axis i away from the pin. Where every weight toward
    the pin is a step, every cell reaches the pin, one axis after the other;
    where every weight away is, the pin reaches every cell.
    """
    d, n = spec.dim, spec.n
    at = np.unravel_index(pin, spec.shape)
    grid, offs = T.reshape((len(offsets),) + spec.shape), offsets.tolist()
    steps = []
    for i, a in enumerate(at):
        up, down = offs.index(n ** (d - 1 - i)), offs.index(-n ** (d - 1 - i))
        sides = (((up, slice(None, a)), (down, slice(a + 1, None))) if toward
                 else ((up, slice(a, n - 1)), (down, slice(1, a + 1))))
        steps += [grid[(slot,) + (slice(None),) * i + (cells,)] for slot, cells in sides]
    return steps


def _reaches_pin(T: np.ndarray, offsets: np.ndarray, spec: GridSpec, least: float) -> bool:
    """Whether the chain with generator L_h reaches the pinned cell from every cell.

    T is the (S, N) table of L_h. A step counts where its rate is above
    `least`: for the minimally upwinded L_h, whose rates
    can cancel to roundoff, REACH_TOL times a bound on every cell's
    tr(a) / h^2 + |b|_1 / h; 0 for the fitted one, whose rates are formed
    without cancellation. The pinned cell then lies in the one closed class
    of the chain, and the pinned L_h^T of an M-matrix L_h is nonsingular.
    First the sufficient test that every cell steps toward the pin along
    each axis where it is not in the pin's line (_axis_steps), the least
    such rate above `least`; where that fails, a breadth-first search from
    the pin along the off-diagonal entries of L_h^T.
    """
    pin = int(np.argmin(spec.center_radii()))
    toward = [w.min() for w in _axis_steps(T, offsets, spec, pin, toward=True)]
    if np.min(toward) > least:  # np.min keeps a NaN rate, which fails the test
        return True
    import scipy.sparse as sp
    from scipy.sparse.csgraph import breadth_first_order

    steps = sp.csc_matrix(_compressed(np.where(T > least, T, 0.0), offsets),
                          shape=(spec.n_cells,) * 2)
    return len(breadth_first_order(steps, pin, directed=True, return_predecessors=False)) \
        == spec.n_cells


def _diagonal_share(sigma: np.ndarray, m: np.ndarray, sign: np.ndarray, b_c: np.ndarray,
                    h: float) -> np.ndarray:
    """f in [-1, 1]: each cell carries beta_d = f 2 m / h of its drift along its diagonal (1, sign).

    sigma: (N, 2) the lowered axis coefficients a^ii - m, m: (N,) the
    diagonal's coefficient |a^01| (0 where a cell has no diagonal). The
    drift splits as b = (beta_0 + beta_d, beta_1 + sign beta_d), each part a
    centered difference along its direction. With |f| <= 1 the diagonal's
    weights m (1 +- f) / h^2 are nonnegative; an axis needs upwinding by
    h |beta_i| / 2 - sigma_i where that is positive. With p = (b^0, sign b^1)
    and c = 2 sigma / h, the splits that upwind each axis by at most h u / 2
    are the beta_d in [-2 m / h, 2 m / h] and in both intervals p_i -+ (c_i + u).
    Those meet when every two do, so from u* = max(0, (|p_0 - p_1| - c_0 -
    c_1) / 2, |p_i| - c_i - 2 m / h) on. beta_d is the point of the
    intervals at u* nearest 0: no drift moves where the axes need no
    upwinding, and where they do, the split upwinds least.
    """
    c = sigma * (2.0 / h)
    f = np.zeros(len(m))
    on = (m > 0.0) & np.any(np.abs(b_c) > c, axis=1)  # elsewhere u* = 0 and beta_d = 0
    if not on.any():
        return f
    p0, p1, c0, c1 = b_c[on, 0], sign[on] * b_c[on, 1], c[on, 0], c[on, 1]
    c_d = m[on] * (2.0 / h)
    u = np.maximum.reduce([np.zeros(len(p0)), 0.5 * (np.abs(p0 - p1) - c0 - c1),
                           np.abs(p0) - c0 - c_d, np.abs(p1) - c1 - c_d])
    lo = np.maximum(np.maximum(p0 - c0, p1 - c1) - u, -c_d)
    hi = np.minimum(np.minimum(p0 + c0, p1 + c1) + u, c_d)
    f[on] = np.clip(np.clip(0.0, lo, hi) / c_d, -1.0, 1.0)
    return f


def _compressed(T: np.ndarray, offsets: np.ndarray,
                order: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(data, indices, indptr) of the nonzero weights of an (S, N) table, one line per cell.

    Line j lists the slots of cell c = order[j] (c = j without an order):
    slot s has index pos(c + offsets[s]), where pos(c) is the place of c in
    `order`, and each line's indices ascend. Without an order these are the
    CSR arrays of L_h, which are the CSC arrays of L_h^T; with one they are
    the CSC arrays of L_h^T with its rows and columns taken in that order.
    Exact zeros are left out. Index arrays are int32.
    """
    S, N = T.shape
    nz = (T != 0.0).T if order is None else (T != 0.0).T[order]  # (N, S): cell by cell
    indptr = np.zeros(N + 1, dtype=np.int32)
    np.cumsum(np.einsum("ij->i", nz.view(np.int8)), out=indptr[1:])  # entries per line
    if order is None:  # the indices first, so that their temporary is gone before the data
        indices = (np.arange(N, dtype=np.int32)[:, None] + offsets)[nz]
        return T.T[nz], indices, indptr
    key = order[:, None] + offsets  # the neighbour of each slot; past the grid only where nz is False
    np.clip(key, 0, N - 1, out=key)
    pos = np.empty(N, dtype=np.int32)
    pos[order] = np.arange(N, dtype=np.int32)
    key = pos[key]
    key <<= 4  # sort each line by index, carrying the slot in the low 4 bits
    key |= np.arange(S, dtype=np.int32)
    key[~nz] = np.iinfo(np.int32).max
    key.sort(axis=1)
    indices = key[key != np.iinfo(np.int32).max]
    del key, nz
    src = np.repeat(order, np.diff(indptr))  # flat table index of each entry: its cell
    src += (indices & 15) * np.int32(N)  # plus its slot times N
    indices >>= 4
    return T.ravel()[src], indices, indptr


@dataclass(frozen=True)
class PinnedFactor:
    """SuperLU factor of a pinned matrix, solving in the matrix's own cell order.

    The factor owns its pin: `null`, its finite solution for e_pin, is solved
    once. `order` is None when SuperLU chose the column order (MMD_AT_PLUS_A).
    Else the factored matrix is the pinned matrix with its rows and columns
    taken in `order` (position k holds cell order[k]), and solve permutes the
    right-hand side in and the solution back. `transient_cells` counts the
    cells outside the pin's closed class, which `order` puts first
    (_block_order).
    """

    lu: spla.SuperLU
    pin: int
    order: np.ndarray | None = None
    transient_cells: int = 0
    null: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rhs = np.zeros(self.lu.shape[0])
        rhs[self.pin] = 1.0
        null = self.solve(rhs)
        if not np.all(np.isfinite(null)):
            raise ConvergenceError("sparse direct solve produced non-finite values",
                                   history=[np.inf])
        null.flags.writeable = False
        object.__setattr__(self, "null", null)

    @property
    def ordering(self) -> str:
        if self.transient_cells:
            return "block-triangular"
        return "mmd" if self.order is None else "nested-dissection"

    @property
    def nnz(self) -> int:
        """Nonzeros of L + U, read without copying the factors out."""
        return self.lu.nnz

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        if self.order is None:
            return self.lu.solve(rhs, trans=trans)
        x = np.empty_like(rhs)
        x[self.order] = self.lu.solve(rhs[self.order], trans=trans)
        return x


def _factor(P: sp.csc_matrix, pin: int, order: np.ndarray | None,
            transient_cells: int = 0) -> PinnedFactor:
    """SuperLU factor of a pinned matrix P, in `order` when given (see PinnedFactor).

    Without `order`, SuperLU orders the columns by MMD_AT_PLUS_A. With an
    `order` of the cells (_pinned_factor), P is already taken in that order
    and is factored in the NATURAL order. PANEL_SIZE and RELAX
    change how the factor is blocked, not its pivots or fill (CHANGES.md has
    the timings). An exactly singular P is a ConvergenceError.
    """
    import scipy.sparse.linalg as spla

    permc_spec = "MMD_AT_PLUS_A" if order is None else "NATURAL"
    try:
        lu = spla.splu(P, permc_spec=permc_spec, panel_size=PANEL_SIZE, relax=RELAX)
    except RuntimeError as exc:  # SuperLU reports an exactly singular factor
        raise ConvergenceError(f"sparse factorization failed: {exc}", history=[np.inf]) from exc
    return PinnedFactor(lu, pin, order, transient_cells)


def _sampled_diffusion(A, spec: GridSpec) -> tuple[DiffusionMatrixField, np.ndarray]:
    """A, or a scalar diffusion a as the matrix a I, and its (N, d, d) samples at the cells.

    The declared ellipticity of a I is min(1, min a, 1 / max a) over the
    cells of the grid being solved, so its eigenvalues lie in
    [lambda, 1 / lambda]. A scalar diffusion that is not positive at some
    cell is an EllipticityError naming that cell.
    """
    pts = spec.cell_centers()
    if not isinstance(A, ScalarField):
        return A, A.values(pts)
    if spec.dim != A.dim:
        raise ValueError("diffusion dimension does not match grid")
    samp = _positive(A.values(pts), pts)
    lam = min(1.0, float(samp.min()), 1.0 / float(samp.max()))
    a = np.zeros((len(samp), spec.dim, spec.dim))
    for i in range(spec.dim):
        a[:, i, i] = samp
    return DiffusionMatrixField.isotropic(A, lam), a


def _diffusion_matrix(A, spec: GridSpec) -> DiffusionMatrixField:
    """A itself, or a scalar diffusion a as the matrix a I with lambda from the cells of spec."""
    return A if not isinstance(A, ScalarField) else _sampled_diffusion(A, spec)[0]


def _generator_table(A, b: DriftField, spec: GridSpec, slot: NearbyFactor | None,
                     a: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, dict]:
    """The table of L_h, its slot offsets and its telemetry (_weight_table), from checked samples.

    b is sampled once at the cell centers. A diffusion that `slot` holds on
    an equal grid is read from the slot. Otherwise A is sampled (a scalar one
    as a I, _sampled_diffusion), or `a` is read, the matrix A's samples that
    the caller took, and a slot keeps them. The samples are checked finite
    (EvaluationError) and new ones elliptic (EllipticityError) before the
    table is built; only a slot keeps them past the return.
    """
    if slot is not None and slot.diffusion is A and slot.grid == spec:
        matrix, a = None, slot.samples
    else:
        matrix, a = _sampled_diffusion(A, spec) if a is None else (A, a)
    pts = spec.cell_centers()
    b_c = b.values(pts)
    _require_finite(pts, a, b_c)
    if matrix is not None:
        matrix.check_ellipticity(pts, tol=ELLIPTICITY_TOL, a=a)
        if slot is not None:
            slot.diffusion, slot.samples, slot.grid = A, a, spec
    return _weight_table(a, b_c, spec)


def _apply(T: np.ndarray, offsets: np.ndarray, x: np.ndarray, adjoint: bool = True) -> np.ndarray:
    """M x = L_h^T x from the (S, N) table T of L_h, or L_h x when not `adjoint`.

    M x scatters T[s, c] x[c] onto cell c + offsets[s], the slots in
    descending offset order; L_h x gathers T[s, c] x[c + offsets[s]], in
    ascending order. Each cell's sum thus runs in the order of scipy's
    csc_matvec of M and csr_matvec of L_h, so the products equal those of
    the matrices bit for bit. Only the cells c with c + offsets[s] on the
    grid take part; where a flat offset wraps onto the next line of cells,
    T is an exact zero (the tap folds onto the wall cell), which adds
    nothing to a finite x. |M| |x| is the same apply on |T|.
    """
    N, y, offs = len(x), np.zeros(len(x)), offsets.tolist()
    for s in range(len(offs) - 1, -1, -1) if adjoint else range(len(offs)):
        o = offs[s]
        lo, hi = max(0, -o), min(N, N - o)  # the cells c with c + o on the grid
        if adjoint:
            y[lo + o:hi + o] += T[s, lo:hi] * x[lo:hi]
        else:
            y[lo:hi] += T[s, lo:hi] * x[lo + o:hi + o]
    return y


def _pinned_factor(T: np.ndarray, offsets: np.ndarray, spec: GridSpec) -> PinnedFactor:
    """The factor of the pinned L_h^T, written from the table T of L_h.

    Pinning the center-most cell drops the off-diagonal entries of row `pin`
    of L_h^T (column pin of L_h, in the slots of the neighbours of pin that
    point at it) and sets its diagonal to 1. It is done in T, which then
    gives the pinned L_h^T, and undone before returning. Where the pin
    reaches every cell through nonzero weights of L_h, a 9-point L_h^T is
    written and factored in the grid's nested-dissection order and a
    5-point or 1d L_h^T keeps SuperLU's MMD_AT_PLUS_A order. Elsewhere it is
    written in the block-triangular order of _block_order.
    """
    import scipy.sparse as sp

    N = spec.n_cells
    pin = int(np.argmin(spec.center_radii()))  # an interior cell, so every pin - offset is a cell
    order, transient = _block_order(T, offsets, spec, pin)
    if order is None and len(offsets) == 9:  # 9 slots: a cross term
        order = spec.dissection_order()
    at = (np.arange(len(offsets)), pin - offsets)  # slot s of cell pin - offsets[s] is pin
    unpinned = T[at]
    T[at] = 0.0
    T[offsets == 0, pin] = 1.0
    P = sp.csc_matrix(_compressed(T, offsets, order), shape=(N, N))
    T[at] = unpinned
    return _factor(P, pin, order, transient)


def _block_order(T: np.ndarray, offsets: np.ndarray, spec: GridSpec,
                 pin: int) -> tuple[np.ndarray | None, int]:
    """(order, transient): the cells upstream-first with the pin's closed class last, and the
    count of transient cells (outside that class); (None, 0) where the pin reaches every cell.

    T is the (S, N) table of L_h, every cell of which reaches the pin
    (_reaches_pin), so the pin's closed class is its strongly connected
    component, and no cell of it steps to a cell outside it. The components
    come in a topological order of the steps along nonzero weights, each
    one's cells by their rank in GridSpec.dissection_order, and the closed
    class, which every other component reaches, last. The pinned L_h^T is
    then block lower triangular (Duff and Reid, ACM TOMS 4, 1978; the BTF
    step of KLU), and its null vector is exactly 0 on the transient cells.
    The order is by level, descending: each component's level is raised
    until it exceeds the level of every component it steps to, which ends
    in a topological order from any start. The start is scipy's numbering
    of the components; Pearce's algorithm numbers them downstream first, so
    one pass confirms it. Where every cell steps away from the pin along
    each axis (_axis_steps), the pin reaches every cell and no component is
    computed.
    """
    if all(np.all(w != 0.0) for w in _axis_steps(T, offsets, spec, pin, toward=False)):
        return None, 0
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    N = spec.n_cells
    L = sp.csr_matrix(_compressed(T, offsets), shape=(N, N))  # L_h: row c lists c's steps
    count, label = connected_components(L, directed=True, connection="strong")
    transient = N - int(np.count_nonzero(label == label[pin]))
    if not transient:
        return None, 0
    src, dst = [], []  # the components of each step from one component to another
    for s, o in enumerate(offsets.tolist()):
        lo, hi = max(0, -o), min(N, N - o)  # the cells c with c + o on the grid
        a, b = label[lo:hi], label[lo + o:hi + o]
        step = (T[s, lo:hi] != 0.0) & (a != b)
        src.append(a[step])
        dst.append(b[step])
    src, dst = np.concatenate(src), np.concatenate(dst)
    level = np.arange(count, dtype=np.int32)
    while True:
        raised = level.copy()
        np.maximum.at(raised, src, level[dst] + 1)
        if np.array_equal(raised, level):
            break
        level = raised
    order = spec.dissection_order()
    return order[np.argsort(-level[label[order]], kind="stable")], transient


@dataclass(eq=False)
class NearbyFactor:
    """What a run of nearby grid solves carries from one solve to the next.

    `factor` is the factor the next solve refines against (_refined_null);
    `accepted` the vector at the pin's scale (entry pin equal to 1) that the
    last solve on it accepted. `diffusion` is the object a solve was last
    given and `samples` its checked (N, d, d) values at the cells of `grid`;
    a solve given the same object on an equal grid reads them, which is
    safe because the object is held here, so its identity cannot be reused.
    Hold a slot only for one run (meanfield.picard_iterate): it keeps the
    factor's L + U and the samples alive.
    """

    factor: PinnedFactor | None = None
    accepted: np.ndarray | None = None
    diffusion: object = None
    samples: np.ndarray | None = None
    grid: GridSpec | None = None


def _relative_residual(T: np.ndarray, offsets: np.ndarray, x: np.ndarray,
                       mx: np.ndarray) -> float:
    """||M x||_inf / || |M| |x| ||_inf from mx = M x, M = L_h^T of the table T: the residual
    of M x = 0 against its cancellation-free size. It does not depend on the scale of x."""
    denom = float(_apply(np.abs(T), offsets, np.abs(x)).max())
    return float(np.abs(mx).max()) / max(denom, 1e-300)


def _unit_mass(x: np.ndarray, spec: GridSpec) -> np.ndarray:
    """x scaled by its signed mass sum x h^d."""
    return x / (x.sum() * spec.cell_volume)


def _refined_null(T: np.ndarray, offsets: np.ndarray, factor: PinnedFactor,
                  start: np.ndarray) -> tuple[np.ndarray | None, float, int]:
    """The null vector of M = L_h^T at the pin's scale, refined against a nearby factor F.

    T is the table of L_h (_apply). F factors a pinned matrix P near the
    pinned M, with F's pin. From
    `start`, a vector with start[pin] = 1 (NearbyFactor.accepted), each step
    computes mx = M x once and corrects x <- x + F^-1 r, r = e_pin - P x
    (that is, -mx but 1 - x[pin] at the pin): classical iterative refinement
    (Moler, J. ACM 14, 1967; Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 12). x is accepted when it is settled, its last
    correction at most REFINE_CORRECTION ||x||_inf (F's own null vector
    counts as settled), its relative residual (_relative_residual) at most
    REFINE_RESIDUAL, and it is finite. |M| |x| is formed on settled vectors
    only, the one place the residual decides. A solve of the operator F
    factors is accepted at 0 steps, bit for bit the direct solve. Returns
    (x, its residual, steps), or (None, inf, REFINE_MAX_STEPS) when that many
    steps did not get there. CHANGES.md has the measurements behind the
    three constants.
    """
    x = start
    settled = start is factor.null
    for steps in range(REFINE_MAX_STEPS + 1):
        mx = _apply(T, offsets, x)
        if settled:  # only a settled x can be accepted, so only it needs |M| |x|
            residual = _relative_residual(T, offsets, x, mx)
            if residual <= REFINE_RESIDUAL and np.isfinite(x).all():
                return x, residual, steps
        if steps == REFINE_MAX_STEPS:
            break
        rhs = -mx
        rhs[factor.pin] = 1.0 - x[factor.pin]
        delta = factor.solve(rhs)
        x = x + delta
        settled = np.abs(delta).max() <= REFINE_CORRECTION * np.abs(x).max()
    return None, math.inf, REFINE_MAX_STEPS


def _solve_null(table: tuple[np.ndarray, np.ndarray, dict], spec: GridSpec,
                slot: NearbyFactor | None) -> tuple:
    """(table, factor, raw, residual): the null vector of M = L_h^T for a table of L_h.

    `table` is (T, offsets, scheme) from _generator_table, and it is
    returned as the operator: every product with M, |M| or L_h is an _apply
    of T. Given a slot with a factor of the grid's size, the null vector is
    refined against that factor (_refined_null). Without one, or where that
    falls short, the pinned M is factored (_pinned_factor). raw is the null
    vector at unit mass, and residual its relative residual, or None after a
    fresh factor (_null_density measures it then). A slot takes the factor
    and the accepted vector, and scheme records "refinement_steps".
    """
    T, offsets, scheme = table
    factor = None if slot is None else slot.factor
    x = residual = None
    if factor is not None and factor.lu.shape[0] == spec.n_cells:
        x, residual, scheme["refinement_steps"] = _refined_null(T, offsets, factor, slot.accepted)
    if x is None:
        factor = _pinned_factor(T, offsets, spec)
        x, residual = factor.null, None
    if slot is not None:
        slot.factor, slot.accepted = factor, x
        scheme.setdefault("refinement_steps", 0)
    return table, factor, _unit_mass(x, spec), residual


def _null_density(spec: GridSpec, table: tuple[np.ndarray, np.ndarray, dict], lu: PinnedFactor,
                  raw: np.ndarray, residual: float | None, check_truncation: bool) -> GridDensity:
    """The density of raw, a null vector of M = L_h^T at unit mass, validated and clipped.

    `table` is (T, offsets, scheme) of L_h, and `residual` raw's relative
    residual, or None to measure it here from T (_relative_residual). Above
    RESIDUAL_LIMIT it is a ConvergenceError. `scheme` is copied into info.
    See solve_grid for the rest.
    """
    T, offsets, scheme = table
    if residual is None:
        residual = _relative_residual(T, offsets, raw, _apply(T, offsets, raw))
    if residual > RESIDUAL_LIMIT:
        raise ConvergenceError(
            f"linear solve residual {residual:.3e} exceeds {RESIDUAL_LIMIT:g}", history=[residual])

    clipped_mass = float(np.maximum(-raw, 0.0).sum()) * spec.cell_volume
    raw = np.maximum(raw, 0.0)
    total = raw.sum() * spec.cell_volume
    if total <= 0 or not np.isfinite(total):
        raise DegenerateDensityError("solution mass vanished after clipping")
    rho = GridDensity(spec, (raw / total).reshape(spec.shape),
                      info={"method": "generator-null", "residual": residual,
                            "clipped_mass": clipped_mass, "pinned_cell": lu.pin,
                            "ordering": lu.ordering, "factor_nnz": lu.nnz,
                            "transient_cells": lu.transient_cells, **scheme})
    return _check_truncation(rho) if check_truncation else rho


def solve_grid(A, b: DriftField, spec: GridSpec, check_truncation: bool = True,
               nearby: NearbyFactor | None = None) -> GridDensity:
    """Stationary density as the pinned null vector of M = L_h^T, scaled to unit mass.

    The result is a discrete probability solution: sum_x rho (L_h phi) = 0
    for every grid function phi, up to roundoff and clipping. Coefficients
    that are not finite or not elliptic raise before any factor. The
    relative residual of the full singular system is at most RESIDUAL_LIMIT
    (else ConvergenceError), negative cells are clipped to zero, and the
    boundary cells hold less than BOUNDARY_MASS_LIMIT (else TruncationError;
    check_truncation=False is for problems posed on the box itself). info
    records the residual, the clipped mass, the pinned cell, the ordering
    and L + U nonzeros of the factor used, and the scheme's telemetry.

    With `nearby`, a NearbyFactor, the solve refines against the factor it
    holds and reads the diffusion it holds (_solve_null); info then also
    records "refinement_steps". The first solve on an empty slot equals the
    plain solve bit for bit.
    """
    solved = _solve_null(_generator_table(A, b, spec, nearby), spec, nearby)
    return _null_density(spec, *solved, check_truncation)


def stationary_density(A, b: DriftField, spec: GridSpec,
                       nearby: NearbyFactor | None = None) -> GridDensity:
    """Stationary density on the grid: the closed form in d = 1, the null vector of L_h^T otherwise.

    `nearby` is passed to solve_grid; the closed form does not use it.
    """
    if spec.dim == 1:
        return solve_exact_1d(A, b, spec)
    return solve_grid(A, b, spec, nearby=nearby)


# ---------------------------------------------------------------------------
# density diagnostics
# ---------------------------------------------------------------------------


def moment(rho: GridDensity, k: float) -> float:
    """Radial moment: integral of |x|^k rho by cell quadrature."""
    if k < 0:
        raise ValueError("moment order must be nonnegative")
    r = rho.spec.center_radii()
    return float((r ** k) @ rho.flat()) * rho.spec.cell_volume


def weighted_lp_norm(rho: GridDensity, k: float, p: float) -> float:
    """(integral (1+|x|)^{k p} rho^p)^{1/p} by cell quadrature, in log space
    (quadrature.lp_from_logs), so that the power of neither factor over- or underflows.

    p must exceed 1. p = math.inf requests the essential-sup variant
    max (1+|x|)^k rho explicitly; in d = 1 that is the degenerate analogue of
    the d/(d-1) integrability estimate and is provided as a diagnostic only.
    """
    if k < 0:
        raise ValueError("weight order k must be nonnegative")
    r = rho.spec.center_radii()
    if p == math.inf:
        return float(((1.0 + r) ** k * rho.flat()).max())
    if p <= 1.0:
        raise ValueError(f"exponent p must exceed 1 (got {p}); "
                         "request p=math.inf explicitly for the sup variant")
    with np.errstate(divide="ignore"):  # log 0 = -inf, a cell of no mass
        log_f = k * np.log1p(r) + np.log(np.abs(rho.flat()))
    return lp_from_logs(log_f, p, rho.spec.cell_volume)


def harnack_ratio(rho: GridDensity, radius: float) -> float:
    """max/min of the density over cells with centers in B(0, radius).

    A ball that holds no cell center is a ValueError naming it.
    """
    if radius <= 0 or radius > rho.spec.radius:
        raise ValueError(f"ball radius {radius} must lie in (0, {rho.spec.radius}]")
    sel = rho.spec.center_radii() <= radius
    if not sel.any():
        raise ValueError(f"no cell center lies in B(0, {radius:g}) "
                         f"(cells of width {rho.spec.h:g})")
    vals = rho.flat()[sel]
    lo = float(vals.min())
    if lo <= 0.0:
        raise DegenerateDensityError(f"density vanishes inside B(0, {radius:g})")
    return float(vals.max()) / lo


def check_support(phi: SmoothTestFunction, spec: GridSpec):
    reach = float(np.max(np.abs(phi.center))) + phi.support_radius
    if reach > spec.radius:
        raise SupportError(
            f"test function support reaches {reach:.4g}, outside the box of radius {spec.radius:g}")


def apply_generator(A: DiffusionMatrixField, b: DriftField, phi: SmoothTestFunction,
                    pts: np.ndarray) -> np.ndarray:
    """L phi = tr(A D^2 phi) + <b, grad phi> at the given points."""
    return generator_action(A.values(pts), b.values(pts), phi.hess(pts), phi.grad(pts))


def generator_action(a_val: np.ndarray, b_val: np.ndarray, hess: np.ndarray,
                     grad: np.ndarray) -> np.ndarray:
    """tr(a D^2 phi) + <b, grad phi> from values at n points: (n, d, d) a, hess; (n, d) b, grad."""
    return np.einsum("nij,nij->n", a_val, hess) + np.einsum("ni,ni->n", b_val, grad)


def weak_residual(rho: GridDensity, A: DiffusionMatrixField, b: DriftField,
                  phis: Sequence[SmoothTestFunction]) -> np.ndarray:
    """|integral rho L phi| for each test function, by cell quadrature.

    For the exact stationary density these vanish (that is the definition of
    a probability solution); for a discrete solution they measure the weak
    defect and should stay within a small multiple of the discretization
    error once phi is normalized.
    """
    pts = rho.spec.cell_centers()
    vol = rho.spec.cell_volume
    out = np.empty(len(phis))
    flat = rho.flat()
    for i, phi in enumerate(phis):
        check_support(phi, rho.spec)
        out[i] = abs(float((apply_generator(A, b, phi, pts) @ flat) * vol))
    return out


def normalized_against_generator(phi: SmoothTestFunction, A: DiffusionMatrixField,
                                 b: DriftField, spec: GridSpec) -> SmoothTestFunction:
    """Scale phi so that max |L phi| over the grid equals 1."""
    pts = spec.cell_centers()
    scale = float(np.abs(apply_generator(A, b, phi, pts)).max())
    if scale <= 0:
        raise ValueError("test function is annihilated by the generator on this grid")
    return phi.scaled(1.0 / scale)


# ---------------------------------------------------------------------------
# built-in model catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    """A named coefficient pair with an independent reference density."""

    name: str
    dim: int
    A: DiffusionMatrixField
    b: DriftField
    _reference: Callable[[GridSpec], GridDensity]

    def reference(self, spec: GridSpec) -> GridDensity:
        """Reference stationary density on the given grid (closed form or 1D quadrature)."""
        return self._reference(spec)


def _gaussian_density(cov_inv: np.ndarray):
    def fn(pts):
        quad = np.einsum("ni,ij,nj->n", pts, cov_inv, pts)
        return np.exp(-0.5 * quad)
    return fn


def builtin_models() -> tuple[ModelSpec, ...]:
    """The model catalog used by the weak-form and convergence checks.

    ou-1d: unit diffusion, linear drift (exact: standard Gaussian via the 1D
    closed form). dini-1d: rough isotropic diffusion built from the
    log-modulus field, linear drift (reference: 1D closed form). ou-2d: unit
    diffusion, linear drift (exact: product Gaussian). anisotropic-2d:
    constant rotated anisotropic matrix, linear drift (exact: Gaussian with
    covariance equal to the diffusion matrix); this one exercises the
    cross-derivative stencil.
    """
    models = []

    a1 = ConstantField(1.0, 1)
    b1 = linear_drift(1)
    models.append(ModelSpec("ou-1d", 1, DiffusionMatrixField.isotropic(a1, 1.0), b1,
                            lambda spec, a=a1, b=b1: solve_exact_1d(a, b, spec)))

    logmod = make_example_field("log-modulus", gamma=0.5, d=1)
    a_rough = ClosureField(lambda x, f=logmod: 0.75 + 0.5 * f.values(x), 1,
                           "0.75 + 0.5 log-modulus")
    b2 = linear_drift(1)
    models.append(ModelSpec("dini-1d", 1, DiffusionMatrixField.isotropic(a_rough, 0.7), b2,
                            lambda spec, a=a_rough, b=b2: solve_exact_1d(a, b, spec)))

    b3 = linear_drift(2)
    A3 = DiffusionMatrixField.from_constant(np.eye(2), lam=1.0, name="I2")
    ref3 = _gaussian_density(np.eye(2))
    models.append(ModelSpec("ou-2d", 2, A3, b3,
                            lambda spec, f=ref3: GridDensity.from_function(spec, f)))

    th = math.pi / 6.0
    Q = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    mat = Q @ np.diag([1.3, 0.7]) @ Q.T
    A4 = DiffusionMatrixField.from_constant(mat, lam=0.7, name="rotated-anisotropic")
    b4 = linear_drift(2)
    ref4 = _gaussian_density(np.linalg.inv(mat))
    models.append(ModelSpec("anisotropic-2d", 2, A4, b4,
                            lambda spec, f=ref4: GridDensity.from_function(spec, f)))

    return tuple(models)


def discretization_error(model: ModelSpec, spec: GridSpec) -> float:
    """Plain L1 gap between the grid solve and the model's reference density."""
    sol = solve_grid(model.A, model.b, spec)
    ref = model.reference(spec)
    return float(np.abs(sol.flat() - ref.flat()).sum()) * spec.cell_volume
