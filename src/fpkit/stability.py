"""Perturbation estimates between stationary densities of two coefficient pairs.

For pairs (A_mu, b_mu) and (A_sigma, b_sigma) with stationary densities
rho_mu, rho_sigma, the weighted total-variation distance is controlled by the
coefficient discrepancy integrated against rho_sigma:

    || (1 + |x|^k)(rho_mu - rho_sigma) ||_L1
        <= C ( integral |A_mu - A_sigma|_F^r drho_sigma )^{1/r}
         + C integral |b_mu - b_sigma| (1 + |x|^{beta + k}) drho_sigma.

The toolkit measures both sides on a shared grid and reports the empirical
ratio c_hat = lhs / rhs. c_hat is a measured quantity, not the constant in
the estimate; sweeps check that it stays within a bounded spread while the
perturbation size covers decades.

The duality identity behind the estimate is checkable directly: for smooth
compactly supported v,

    integral L_mu v d(rho_mu - rho_sigma)
        = - integral [ tr((A_mu - A_sigma) D^2 v) + <b_mu - b_sigma, grad v> ]
          drho_sigma,

since each density annihilates its own generator. Its discrete residual
shrinks at the discretization rate, which is what duality_check exposes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import GridMismatchError
from .fields import DiffusionMatrixField, DriftField, GrowthParams
from .fpk import check_support, generator_action, stationary_density
from .grids import GridDensity, GridSpec, require_same_grid
from .oscillation import fit_line
from .testfunctions import SmoothTestFunction


@dataclass(frozen=True, eq=False)
class CoefficientPair:
    """Two coefficient pairs compared under a shared assumption envelope.

    The shared growth envelope takes the weaker constant clause-wise
    (largest beta1, smallest beta2, largest beta3 and beta, smallest lambda),
    so it is valid for both pairs; the estimate's constant is governed by the
    envelope, hence members of a perturbation family remain comparable.
    """

    a_mu: DiffusionMatrixField
    b_mu: DriftField
    a_sigma: DiffusionMatrixField
    b_sigma: DriftField

    def __post_init__(self):
        dims = {self.a_mu.dim, self.b_mu.dim, self.a_sigma.dim, self.b_sigma.dim}
        if len(dims) != 1:
            raise ValueError(f"pair members have mixed dimensions {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.a_mu.dim

    @property
    def shared_growth(self) -> GrowthParams:
        gm, gs = self.b_mu.growth, self.b_sigma.growth
        return GrowthParams(beta=max(gm.beta, gs.beta),
                           beta1=max(gm.beta1, gs.beta1),
                           beta2=min(gm.beta2, gs.beta2),
                           beta3=max(gm.beta3, gs.beta3))

    def solve_pair(self, spec: GridSpec) -> tuple[GridDensity, GridDensity]:
        """Stationary densities of both members on the shared grid."""
        if spec.dim != self.dim:
            raise GridMismatchError("grid dimension does not match the coefficient pair")
        return (stationary_density(self.a_mu, self.b_mu, spec),
                stationary_density(self.a_sigma, self.b_sigma, spec))


def weighted_l1_distance(rho1: GridDensity, rho2: GridDensity, k: float) -> float:
    """|| (1 + |x|^k)(rho1 - rho2) ||_L1 on the shared grid (symmetric in its args)."""
    require_same_grid(rho1, rho2)
    if k < 0:
        raise ValueError("weight order k must be nonnegative")
    w = 1.0 + rho1.spec.center_radii() ** k
    return float(np.sum(w * np.abs(rho1.flat() - rho2.flat())) * rho1.spec.cell_volume)


def clip_of(rho: GridDensity) -> tuple[float, int]:
    """(clipped mass, non-dominant cells) of a density (fpk.solve_grid's info), the cells whose
    negative weights can make it clip; (0.0, 0) for the 1d closed form, which never clips."""
    return rho.info.get("clipped_mass", 0.0), rho.info.get("non_dominant_cells", 0)


@dataclass(frozen=True)
class StabilityReport:
    """Both sides of the perturbation estimate measured on one grid.

    rhs_diffusion = (integral |A_mu - A_sigma|_F^r drho_sigma)^{1/r};
    rhs_drift = integral |b_mu - b_sigma| (1 + |x|^{beta+k}) drho_sigma;
    c_hat = lhs / (rhs_diffusion + rhs_drift), nan for a coincident pair.
    clipped_mass is the larger negative mass clipped from the two densities
    (0 for the closed-form 1d densities, which never clip), and
    non_dominant_cells that density's count of non-dominant cells.
    """

    k: float
    lhs: float
    rhs_diffusion: float
    rhs_drift: float
    clipped_mass: float = 0.0
    non_dominant_cells: int = 0

    @property
    def rhs(self) -> float:
        return self.rhs_diffusion + self.rhs_drift

    @property
    def c_hat(self) -> float:
        if self.rhs <= 0.0:
            return float("nan")
        return self.lhs / self.rhs


def rhs_discrepancy(pair: CoefficientPair, rho_sigma: GridDensity, k: float,
                    r: float = 2.0) -> tuple[float, float]:
    """The two discrepancy integrals against rho_sigma: (diffusion, drift)."""
    if r < 1.0:
        raise ValueError("integrability exponent r must be >= 1")
    spec = rho_sigma.spec
    pts = spec.cell_centers()
    da = pair.a_mu.values(pts) - pair.a_sigma.values(pts)
    frob = np.sqrt(np.sum(da * da, axis=(1, 2)))
    vol = spec.cell_volume
    diffusion = float(np.sum(frob ** r * rho_sigma.flat()) * vol) ** (1.0 / r)
    db = pair.b_mu.values(pts) - pair.b_sigma.values(pts)
    speed = np.sqrt(np.sum(db * db, axis=1))
    beta = pair.shared_growth.beta
    w = 1.0 + spec.center_radii() ** (beta + k)
    drift = float(np.sum(speed * w * rho_sigma.flat()) * vol)
    return diffusion, drift


def _measure(pair: CoefficientPair, rho_mu: GridDensity, rho_sigma: GridDensity, k: float,
             r: float) -> StabilityReport:
    """Both sides of the perturbation estimate from the pair's two densities."""
    lhs = weighted_l1_distance(rho_mu, rho_sigma, k)
    diffusion, drift = rhs_discrepancy(pair, rho_sigma, k, r)
    clipped, non_dominant = max(clip_of(rho) for rho in (rho_mu, rho_sigma))
    return StabilityReport(k=float(k), lhs=lhs, rhs_diffusion=diffusion,
                           rhs_drift=drift, clipped_mass=clipped, non_dominant_cells=non_dominant)


@dataclass(frozen=True)
class DualityReport:
    """Discrete residual of the duality identity for one test function."""

    lhs: float
    rhs: float

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)


def duality_check(pair: CoefficientPair, rho_mu: GridDensity, rho_sigma: GridDensity,
                  v: SmoothTestFunction) -> DualityReport:
    """Evaluate both sides of the duality identity for a compactly supported v.

    lhs = integral L_mu v d(rho_mu - rho_sigma);
    rhs = -integral [tr((A_mu - A_sigma) D^2 v) + <b_mu - b_sigma, grad v>]
          drho_sigma.
    Raises SupportError when the support of v touches the grid boundary.
    """
    require_same_grid(rho_mu, rho_sigma)
    spec = rho_mu.spec
    check_support(v, spec)
    pts = spec.cell_centers()
    vol = spec.cell_volume

    hess = v.hess(pts)
    grad = v.grad(pts)
    a_mu = pair.a_mu.values(pts)
    b_mu = pair.b_mu.values(pts)
    gen_mu = generator_action(a_mu, b_mu, hess, grad)
    lhs = float(np.sum(gen_mu * (rho_mu.flat() - rho_sigma.flat())) * vol)

    mism = generator_action(a_mu - pair.a_sigma.values(pts), b_mu - pair.b_sigma.values(pts),
                            hess, grad)
    rhs = -float(np.sum(mism * rho_sigma.flat()) * vol)
    return DualityReport(lhs=lhs, rhs=rhs)


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Perturbation sweep: both estimate sides per delta and the scaling fit."""

    deltas: np.ndarray
    reports: tuple[StabilityReport, ...]
    slope: float
    fit_sse: float
    c_spread: float

    @property
    def lhs_values(self) -> np.ndarray:
        return np.array([rep.lhs for rep in self.reports])

    @property
    def c_hats(self) -> np.ndarray:
        return np.array([rep.c_hat for rep in self.reports])


def stability_sweep(make_pair: Callable[[float], CoefficientPair],
                    deltas: Sequence[float], spec: GridSpec, k: float,
                    r: float = 2.0) -> SweepResult:
    """Measure the estimate along a perturbation family delta -> pair(delta).

    Fits log lhs against log delta over the nonzero deltas (a delta of 0 has
    lhs 0 and carries no scaling information) and reports the spread
    max/min of the nonzero empirical ratios. When every pair carries the
    same sigma objects (a_sigma and b_sigma), rho_sigma is solved once, with
    the first pair, and shared.
    """
    deltas = np.asarray(list(deltas), dtype=float)
    if (deltas < 0).any():
        raise ValueError("perturbation sizes must be nonnegative")
    pairs = [make_pair(float(t)) for t in deltas]
    shared = len({(id(p.a_sigma), id(p.b_sigma)) for p in pairs}) == 1
    reports, rho_sigma = [], None
    for pair in pairs:
        if rho_sigma is None or not shared:
            rho_mu, rho_sigma = pair.solve_pair(spec)
        else:
            rho_mu = stationary_density(pair.a_mu, pair.b_mu, spec)
        reports.append(_measure(pair, rho_mu, rho_sigma, k, r))
    pos = deltas > 0
    if pos.sum() < 2:
        raise ValueError("need at least two nonzero deltas to fit a scaling law")
    lhs = np.array([rep.lhs for rep in reports])
    slope, _, sse = fit_line(np.log(deltas[pos]), np.log(np.maximum(lhs[pos], 1e-300)))
    cs = np.array([rep.c_hat for rep in reports])[pos]
    cs = cs[np.isfinite(cs) & (cs > 0)]
    spread = float(cs.max() / cs.min()) if len(cs) else float("inf")
    return SweepResult(deltas=deltas, reports=tuple(reports), slope=float(slope),
                       fit_sse=float(sse), c_spread=spread)
