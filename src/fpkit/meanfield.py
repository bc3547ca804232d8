"""Self-consistent stationary densities for distribution-dependent coefficients.

The coefficients depend on the density through interaction kernels,

    A_rho(x) = A0(x) + eps * integral q(x, y) rho(y) dy,
    b_rho(x) = b0(x) + eps * integral h(x, y) rho(y) dy,

and a stationary density of the pair frozen at rho defines the map
Phi(rho). A fixed point of Phi is a stationary solution of the nonlinear
(McKean-Vlasov) equation. For small coupling eps the map is a contraction in
the weighted total-variation metric: the contraction factor scales like
eps * N * C_hat * (sqrt(M_hat) + M_hat), with N the declared kernel bound,
C_hat the empirical stability ratio of the frozen problems, and M_hat the
largest weighted moment integral (1 + |x|)^{2m + beta + k} along the
iteration. The toolkit measures every piece of that product rather than
assuming it.

Kernels that do not depend on x reduce the nonlocal coefficient to a
constant offset (one quadrature per iteration); the general case assembles
the offset pointwise in x with the same quadrature in y. A translation-
invariant kernel h(x, y) = g(y - x) evaluated at the cell centers of the
density's grid, the only points the grid solver evaluates coefficients on,
is a discrete correlation, computed by one zero-padded real FFT per value
component (scipy.fft, which InteractionKernel._lattice_offset imports when
it runs, so a 1d run never loads it); any other points (the fine mesh of the
closed-form 1d solver, subsets, shifted points) take the direct quadrature.
A frozen coefficient is base + eps * offset in one evaluation: one kernel
pass for all its components. The one thing kept between evaluations is the
spectrum of a profile sampled on a grid's lattice, which depends on the
kernel and the grid alone: it is built at the first offset on that grid
and kept on the kernel, (L x ... x (L/2 + 1) x components) complex values,
68 KB for a 2d drift kernel at n = 32 and 1.1 MB at n = 128. Nothing that
depends on rho is kept.

Consecutive Picard steps freeze coefficients that differ by eps times the
change of the offset, so their pinned L_h^T are close. picard_iterate hands
each 2d step the last SuperLU factor of its run and the vector the last
step accepted (fpk.NearbyFactor); the step refines against that factor from
that vector (fpk.solve_grid: iterative refinement to a relative residual of
fpk.REFINE_RESIDUAL and a last correction of at most fpk.REFINE_CORRECTION
relative to the vector) and factors its own grid only when
fpk.REFINE_MAX_STEPS steps fall short, that factor then serving the later
steps. No factor or vector outlives the run. Each step is still Phi(rho)
solved to roundoff, so the gaps and contraction factors of a
FixedPointTrace measure the map itself; the trace also records, for each
step, its refinement steps and whether it factored.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (ConvergenceError, DegenerateDensityError, EllipticityMarginError,
                     EvaluationError, NonContractionError)
from .fields import ClosureField, DiffusionMatrixField, DriftField, GrowthParams
from .fpk import NearbyFactor, stationary_density
from .grids import GridDensity, GridSpec
from .oscillation import fit_line
from .stability import clip_of, weighted_l1_distance

_EVAL_CHUNK = 4096


class InteractionKernel:
    """One interaction kernel: drift-valued h(x, y) or matrix-valued q(x, y).

    The declared envelope is |k(x, y)| <= sup_bound * (1 + |y|)^growth_order
    (Euclidean norm for drift kernels, operator norm for diffusion kernels);
    it feeds the contraction threshold, so declare it honestly. Diffusion
    kernels must be bounded (growth_order 0) and symmetric-matrix valued so
    the perturbed diffusion stays admissible; an offset not symmetric to
    1e-10 raises ValueError, a non-finite one EvaluationError. Kernels with
    depends_on_x=False are functions of y alone: their offset is a constant,
    computed once per iteration. Otherwise each call of the offset is one
    kernel pass for all components.

    A translation-invariant kernel k(x, y) = g(y - x) may declare its profile
    g in place of fn; g maps offsets of shape (..., d) to values of shape
    (..., d) or (..., d, d), and fn(x, y) becomes g(y[None] - x[:, None]).
    Asked for the cell centers of the density's own grid, the offset of such
    a kernel is a discrete correlation: g is sampled on the (2n - 1)^d
    lattice of cell differences and correlated with the cell masses by a
    zero-padded real FFT, O(N log N) instead of O(N^2). The spectrum of that
    sample is kept on the kernel per grid (_lattice_spectrum), so g is
    sampled once per grid for the kernel's lifetime, which MeanFieldModel
    copies made by with_eps share; nothing that depends on rho is kept. Any
    other points take the direct quadrature over the cells, chunked in x.
    """

    def __init__(self, kind: str, fn: Callable | None, dim: int, sup_bound: float,
                 growth_order: float = 0.0, depends_on_x: bool = True,
                 name: str = "kernel", profile: Callable | None = None):
        if kind not in ("drift", "diffusion"):
            raise ValueError(f"kernel kind must be 'drift' or 'diffusion', got {kind!r}")
        if dim not in (1, 2):
            raise ValueError("kernels support d in {1, 2}")
        if sup_bound <= 0:
            raise ValueError("declared kernel bound must be positive")
        if growth_order < 0:
            raise ValueError("kernel growth order must be nonnegative")
        if kind == "diffusion" and growth_order != 0.0:
            raise ValueError("diffusion kernels must be bounded (growth order 0)")
        if (fn is None) == (profile is None):
            raise ValueError("declare exactly one of fn and profile")
        if profile is not None:
            if not depends_on_x:
                raise ValueError("a profile g(y - x) depends on x")
            fn = lambda x, y, g=profile: g(y[None, :, :] - x[:, None, :])
        self.kind, self.fn, self.profile, self.dim = kind, fn, profile, int(dim)
        self.sup_bound, self.growth_order = float(sup_bound), float(growth_order)
        self.depends_on_x, self.name = bool(depends_on_x), name
        self._spectra: dict[GridSpec, tuple[tuple[int, ...], np.ndarray]] = {}

    def _value_shape(self) -> tuple[int, ...]:
        d = self.dim
        return (d,) if self.kind == "drift" else (d, d)

    def convolve(self, rho: GridDensity):
        """integral k(., y) rho(y) dy: an ndarray offset, or a callable of x."""
        y = rho.spec.cell_centers()
        wts = rho.flat() * rho.spec.cell_volume
        shape = self._value_shape()
        if not self.depends_on_x:
            vals = np.asarray(self.fn(y), dtype=float)
            if vals.shape != (len(y),) + shape:
                raise ValueError(f"kernel {self.name!r} returned shape {vals.shape}, "
                                 f"expected {(len(y),) + shape}")
            return self._checked(np.tensordot(wts, vals, axes=(0, 0)))

        def offset(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            if self.profile is not None and x.shape == y.shape and np.array_equal(x, y):
                return self._checked(self._lattice_offset(rho.spec, wts))
            res = np.zeros((x.shape[0],) + shape)
            for lo in range(0, x.shape[0], _EVAL_CHUNK):
                xc = x[lo:lo + _EVAL_CHUNK]
                vals = np.asarray(self.fn(xc, y), dtype=float)
                if vals.shape != (xc.shape[0], len(y)) + shape:
                    raise ValueError(f"kernel {self.name!r} returned shape {vals.shape}")
                res[lo:lo + _EVAL_CHUNK] = np.tensordot(vals, wts, axes=(1, 0))
            return self._checked(res)

        return offset

    def _lattice_offset(self, spec: GridSpec, wts: np.ndarray) -> np.ndarray:
        """sum_j g(y_j - x_i) wts_j at every cell center x_i, by FFT.

        With y_j - x_i = (j - i) h, the sum is a correlation of the cell
        weights with g sampled at k h, |k| < n per axis; flipping the sample
        makes it a convolution whose entries n - 1 .. 2n - 2 are the offsets.
        Padding each axis to L >= 2n - 1 keeps the wrap-around of the cyclic
        product out of those entries. The spectrum of the flipped sample
        depends on the grid alone (_lattice_spectrum), so an offset costs one
        forward FFT of the weights and one inverse FFT.
        """
        from scipy.fft import irfftn, rfftn

        n, d = spec.n, spec.dim
        shape = self._value_shape()
        size, spectrum = self._lattice_spectrum(spec)
        weights = rfftn(wts.reshape(spec.shape), s=size)
        full = irfftn(spectrum * weights.reshape(weights.shape + (1,) * len(shape)),
                      s=size, axes=tuple(range(d)))
        return full[(slice(n - 1, 2 * n - 1),) * d].reshape((spec.n_cells,) + shape)

    def _lattice_spectrum(self, spec: GridSpec) -> tuple[tuple[int, ...], np.ndarray]:
        """The padded size and the rfftn of g sampled on the flipped lattice of spec.

        Built at the first offset on a grid and kept on the kernel, keyed by
        the grid: (L, ..., L/2 + 1, components) complex values, 68 KB for a
        2d drift kernel at n = 32 and 1.1 MB at n = 128. Two threads that
        fill one key at once compute and store the same value.
        """
        entry = self._spectra.get(spec)
        if entry is not None:
            return entry
        from scipy.fft import next_fast_len, rfftn

        n, d = spec.n, spec.dim
        shape = self._value_shape()
        k = np.arange(1 - n, n) * spec.h
        z = np.stack(np.meshgrid(*(k,) * d, indexing="ij"), axis=-1).reshape(-1, d)
        vals = np.asarray(self.profile(z), dtype=float)
        if vals.shape != (len(z),) + shape:
            raise ValueError(f"kernel {self.name!r} profile returned shape {vals.shape}, "
                             f"expected {(len(z),) + shape}")
        axes = tuple(range(d))
        size = (next_fast_len(2 * n - 1, real=True),) * d
        flipped = np.flip(vals.reshape((2 * n - 1,) * d + shape), axis=axes)
        entry = size, rfftn(flipped, s=size, axes=axes)
        self._spectra[spec] = entry
        return entry

    def _checked(self, off: np.ndarray) -> np.ndarray:
        """off (one value or a stack) unless it is non-finite or, for a diffusion, not symmetric."""
        if not np.isfinite(off).all():
            raise EvaluationError(f"kernel {self.name!r} produced a non-finite offset")
        if self.kind == "diffusion" and np.any(np.abs(off - np.swapaxes(off, -1, -2)) > 1e-10):
            raise ValueError(f"diffusion kernel {self.name!r} produced a non-symmetric offset")
        return off


@dataclass(frozen=True, eq=False)
class MeanFieldModel:
    """Base coefficient pair plus interaction kernels and coupling strength."""

    a0: DiffusionMatrixField
    b0: DriftField
    eps: float
    drift_kernel: InteractionKernel | None = None
    diffusion_kernel: InteractionKernel | None = None
    weight_order: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.eps <= 1.0):
            raise ValueError(f"coupling strength must lie in [0, 1], got {self.eps}")
        if self.weight_order < 1.0:
            raise ValueError("weight order must be >= 1")
        if self.a0.dim != self.b0.dim:
            raise ValueError("base pair dimensions differ")
        for ker in (self.drift_kernel, self.diffusion_kernel):
            if ker is not None and ker.dim != self.a0.dim:
                raise ValueError(f"kernel {ker.name!r} dimension does not match the base pair")
        if self.drift_kernel is not None and self.drift_kernel.kind != "drift":
            raise ValueError("drift_kernel must have kind 'drift'")
        if self.diffusion_kernel is not None and self.diffusion_kernel.kind != "diffusion":
            raise ValueError("diffusion_kernel must have kind 'diffusion'")

    @property
    def kernel_bound(self) -> float:
        """N: the largest declared kernel envelope constant."""
        return max([k.sup_bound for k in (self.drift_kernel, self.diffusion_kernel)
                    if k is not None], default=0.0)

    @property
    def kernel_growth(self) -> float:
        """m: the largest declared kernel growth order."""
        return max([k.growth_order for k in (self.drift_kernel, self.diffusion_kernel)
                    if k is not None], default=0.0)

    def with_eps(self, eps: float) -> "MeanFieldModel":
        return dataclasses.replace(self, eps=float(eps))

    def admits(self, eps: float) -> bool:
        """Whether a coupling eps leaves the frozen diffusion elliptic: eps * sup|q| < lambda / 2
        for the diffusion kernel q (nonlocal_coefficients), or there is no such kernel."""
        ker = self.diffusion_kernel
        return ker is None or eps * ker.sup_bound < self.a0.lam / 2.0

    def coupling_cap(self, eps_max: float) -> float:
        """eps_max, or the largest coupling below it that the model admits (admits):
        the float just below lambda / (2 sup|q|) where eps_max reaches that."""
        eps = float(eps_max)
        while not self.admits(eps):
            eps = math.nextafter(min(eps, self.a0.lam / (2.0 * self.diffusion_kernel.sup_bound)),
                                 0.0)
        return eps


def _base_plus_offset(base, eps: float, offset):
    """values(x) of a frozen coefficient: base.values(x) + eps * offset(x), one
    kernel pass for all components, a matrix's lower triangle copied from its upper."""
    def values(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = base.values(x) + eps * (offset if isinstance(offset, np.ndarray) else offset(x))
        if out.ndim == 3:  # d <= 2
            out[:, 1:, 0] = out[:, 0, 1:]
        return out
    return values


def _slot_views(values, base_slots: dict) -> dict:
    """Per slot of a frozen coefficient, a ScalarField reading that slot of values(x)."""
    return {ix: ClosureField(lambda x, ix=ix: values(x)[(slice(None),) + ix],
                             f.dim, name=f"{f.name}+offset")
            for ix, f in base_slots.items()}


class _FrozenDrift(DriftField):
    """b0 + eps * offset (nonlocal_coefficients); components[i] reads slot i of values."""

    def __init__(self, b0: DriftField, eps: float, offset, growth: GrowthParams):
        self.values = _base_plus_offset(b0, eps, offset)  # a closure, so no cycle through self
        views = _slot_views(self.values, {(i,): c for i, c in enumerate(b0.components)})
        super().__init__(list(views.values()), growth, name=f"{b0.name}+eps*conv")


class _FrozenDiffusion(DiffusionMatrixField):
    """a0 + eps * offset (nonlocal_coefficients); entry(i, j) reads slot (i, j) of values."""

    def __init__(self, a0: DiffusionMatrixField, eps: float, offset, lam: float):
        self.values = _base_plus_offset(a0, eps, offset)
        upper = {(i, j): a0.entry(i, j) for i in range(a0.dim) for j in range(i, a0.dim)}
        super().__init__(_slot_views(self.values, upper), a0.dim, lam, name=f"{a0.name}+eps*conv")


def _weighted_moment(rho: GridDensity, power: float) -> float:
    """integral (1 + |x|)^power rho by cell quadrature."""
    r = rho.spec.center_radii()
    return float(np.sum((1.0 + r) ** power * rho.flat()) * rho.spec.cell_volume)


def nonlocal_coefficients(model: MeanFieldModel,
                          rho: GridDensity) -> tuple[DiffusionMatrixField, DriftField]:
    """Coefficients frozen at rho, with an audited ellipticity margin.

    Each is base + eps * ker.convolve(rho) in one evaluation, one kernel pass
    for all components and no cache of its values (_base_plus_offset);
    entry(i, j) and components[i] read the shifted values, as the 1d closed
    form does.
    The diffusion offset may eat at most half the declared ellipticity:
    eps * sup|q| >= lambda / 2 raises EllipticityMarginError before any
    solve. The drift growth envelope is re-derived from the declared kernel
    envelope: with D = eps * N_h * integral (1 + |y|)^m rho the perturbed
    drift satisfies <b, x> <= (beta1 + D^2 / (2 beta2)) - (beta2 / 2) |x|^2
    and |b| <= (beta3 + D)(1 + |x|)^beta.
    """
    eps = model.eps
    a_eff, b_eff = model.a0, model.b0
    if model.diffusion_kernel is not None and eps > 0.0:
        ker = model.diffusion_kernel
        if not model.admits(eps):
            raise EllipticityMarginError(
                f"coupling eats the ellipticity margin: eps * sup|q| = "
                f"{eps * ker.sup_bound:.6g} >= lambda/2 = {model.a0.lam / 2.0:.6g}")
        lam = model.a0.lam - eps * ker.sup_bound  # in (lambda / 2, 1]
        a_eff = _FrozenDiffusion(model.a0, eps, ker.convolve(rho), lam)
    if model.drift_kernel is not None and eps > 0.0:
        ker = model.drift_kernel
        g = model.b0.growth
        drift_bound = eps * ker.sup_bound * _weighted_moment(rho, ker.growth_order)
        growth = GrowthParams(beta=g.beta,
                              beta1=g.beta1 + drift_bound ** 2 / (2.0 * g.beta2),
                              beta2=g.beta2 / 2.0,
                              beta3=g.beta3 + drift_bound)
        b_eff = _FrozenDrift(model.b0, eps, ker.convolve(rho), growth)
    return a_eff, b_eff


def apply_phi(model: MeanFieldModel, rho: GridDensity,
              nearby: NearbyFactor | None = None) -> GridDensity:
    """One application of the self-consistency map Phi.

    `nearby` holds the factor of an earlier, nearby step for a 2d solve to
    refine against (fpk.solve_grid); the density is Phi(rho) either way.
    """
    a_eff, b_eff = nonlocal_coefficients(model, rho)
    return stationary_density(a_eff, b_eff, rho.spec, nearby)


@dataclass(frozen=True, eq=False)
class FixedPointTrace:
    """Record of a Picard iteration of Phi.

    fixed_point is the last iterate; earlier iterates are not kept. gaps[t]
    is the weighted distance between iterates t and t+1; factors are
    consecutive gap ratios gap[t+1]/gap[t]. threshold_scale is the measured
    eps * N * (sqrt(M_hat) + M_hat); multiplying it by an externally
    estimated stability ratio C_hat gives the contraction threshold.
    clipped_mass is the largest negative mass clipped from an iterate (0 for
    the closed-form 1d densities, which never clip), and non_dominant_cells
    that iterate's count of non-dominant cells (fpk.solve_grid; 0 in 1d).
    refinement_steps[t] is
    the number of refinement steps of step t against the factor held from an
    earlier step (0 for a step that factored with none held, and for the 1d
    closed form, which neither factors nor refines). factored[t] says whether
    step t made a SuperLU factor of its own: with none held, or after
    refinement fell short in fpk.REFINE_MAX_STEPS steps. A step with
    refinement_steps fpk.REFINE_MAX_STEPS therefore converged at its last
    step when not factored and gave up when factored. factorizations counts
    the steps that factored.
    """

    fixed_point: GridDensity
    gaps: tuple[float, ...]
    factors: tuple[float, ...]
    converged: bool
    eps: float
    kernel_bound: float
    m_hat: float
    threshold_scale: float
    clipped_mass: float = 0.0
    non_dominant_cells: int = 0
    refinement_steps: tuple[int, ...] = ()
    factored: tuple[bool, ...] = ()

    @property
    def n_steps(self) -> int:
        return len(self.gaps)

    @property
    def factorizations(self) -> int:
        return sum(self.factored)


def picard_iterate(model: MeanFieldModel, rho0: GridDensity, tol: float = 1e-8,
                   max_iter: int = 60) -> FixedPointTrace:
    """Iterate Phi from rho0 until the weighted gap drops below tol.

    Each step hands apply_phi the last SuperLU factor of the run and the
    vector the last step accepted (an fpk.NearbyFactor, empty at first), so
    a 2d step refines against the factor of an earlier step, from the last
    step's vector, and factors only when refinement falls short; a fresh
    factor replaces the held one. Both are dropped on return.

    Raises NonContractionError (with the gap sequence) when the iteration
    budget is exhausted and the gaps were not monotonically decreasing, and
    ConvergenceError when they were decreasing but have not yet crossed tol.
    """
    k = model.weight_order
    beta = model.b0.growth.beta
    mom_power = 2.0 * model.kernel_growth + beta + k
    rho = rho0
    gaps: list[float] = []
    m_hat = _weighted_moment(rho0, mom_power)
    clips = []  # (clipped mass, non-dominant cells) of each iterate
    converged = False
    nearby = NearbyFactor()
    refinement_steps, factored = [], []
    for _ in range(max_iter):
        held = nearby.factor
        nxt = apply_phi(model, rho, nearby)
        factored.append(nearby.factor is not held)
        refinement_steps.append(nxt.info.get("refinement_steps", 0))
        m_hat = max(m_hat, _weighted_moment(nxt, mom_power))
        clips.append(clip_of(nxt))
        gaps.append(weighted_l1_distance(nxt, rho, k))
        rho = nxt
        if gaps[-1] <= tol:
            converged = True
            break
    factors = tuple(gaps[t + 1] / gaps[t] for t in range(len(gaps) - 1) if gaps[t] > 0.0)
    scale = model.eps * model.kernel_bound * (np.sqrt(m_hat) + m_hat)
    clipped, non_dominant = max(clips)
    trace = FixedPointTrace(fixed_point=rho, gaps=tuple(gaps), factors=factors,
                            converged=converged, eps=model.eps,
                            kernel_bound=model.kernel_bound, m_hat=m_hat,
                            threshold_scale=float(scale),
                            clipped_mass=clipped, non_dominant_cells=non_dominant,
                            refinement_steps=tuple(refinement_steps),
                            factored=tuple(factored))
    if not converged:
        if any(f > 1.0 for f in factors):
            raise NonContractionError(
                f"gaps not decreasing after {max_iter} iterations", gaps=gaps)
        raise ConvergenceError(
            f"contraction too slow: gap {gaps[-1]:.3e} > tol {tol:g} after {max_iter} steps",
            history=gaps)
    return trace


def gaussian_probe(spec: GridSpec, mean, std: float) -> GridDensity:
    """Grid restriction of an isotropic Gaussian, for probing Phi."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    if mean.shape != (spec.dim,):
        raise ValueError(f"mean must have shape ({spec.dim},)")
    if std <= 0:
        raise ValueError("std must be positive")
    pts = spec.cell_centers()
    z = np.sum((pts - mean) ** 2, axis=1) / (2.0 * std ** 2)
    return GridDensity.from_samples(spec, np.exp(-z))


@dataclass(frozen=True, eq=False)
class ContractionEstimate:
    """Sampled Lipschitz data for Phi on a probe family.

    clipped_mass is the largest negative mass clipped from a probe image
    (0 for the closed-form 1d densities, which never clip), and
    non_dominant_cells that image's count of non-dominant cells.
    """

    eps: float
    k: float
    factors: tuple[float, ...]
    clipped_mass: float = 0.0
    non_dominant_cells: int = 0

    @property
    def factor(self) -> float:
        return max(self.factors)


def default_probes(spec: GridSpec) -> tuple[GridDensity, ...]:
    """Gaussian location-scale probes spanning shifted and dilated inputs."""
    d = spec.dim
    combos = [(0.5, 1.0), (-0.5, 1.0), (0.0, 1.25), (0.25, 0.8)]
    return tuple(gaussian_probe(spec, np.full(d, m), s) for m, s in combos)


def contraction_estimate(model: MeanFieldModel, spec: GridSpec,
                         probes: Sequence[GridDensity] | None = None) -> ContractionEstimate:
    """Sampled contraction factor of Phi: max over probe pairs of the ratio
    ||Phi(p) - Phi(q)||_k / ||p - q||_k.

    Probe pairs must be distinguishable on the grid; a coincident pair makes
    the ratio undefined and raises DegenerateDensityError.
    """
    k = model.weight_order
    probes = tuple(probes) if probes is not None else default_probes(spec)
    if len(probes) < 2:
        raise ValueError("need at least two probe densities")
    images = [apply_phi(model, p) for p in probes]
    factors = []
    for i in range(len(probes)):
        for j in range(i + 1, len(probes)):
            den = weighted_l1_distance(probes[i], probes[j], k)
            if den < 1e-13:
                raise DegenerateDensityError(
                    f"probe densities {i} and {j} coincide; contraction ratio undefined")
            factors.append(weighted_l1_distance(images[i], images[j], k) / den)
    clipped, non_dominant = max(clip_of(rho) for rho in images)
    return ContractionEstimate(eps=model.eps, k=k, factors=tuple(factors), clipped_mass=clipped,
                               non_dominant_cells=non_dominant)


def threshold_search(model: MeanFieldModel, spec: GridSpec, eps_max: float = 1.0,
                     tol: float = 1e-3, probes: Sequence[GridDensity] | None = None,
                     ) -> tuple[float, tuple[ContractionEstimate, ...]]:
    """The largest coupling (up to eps_max) with sampled contraction factor < 1, and the
    contraction estimate of every eps it tried, in order.

    Bisects on eps to within tol, using the sampled factor as a monotone
    surrogate. eps_max is first lowered to the largest coupling the model
    admits (MeanFieldModel.coupling_cap), and the first estimate is that of
    the capped eps_max. When even that contracts on the probes, it is
    returned.
    """
    eps_max = model.coupling_cap(eps_max)
    estimates = [contraction_estimate(model.with_eps(eps_max), spec, probes)]
    if estimates[-1].factor < 1.0:
        return eps_max, tuple(estimates)
    lo, hi = 0.0, eps_max
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        estimates.append(contraction_estimate(model.with_eps(mid), spec, probes))
        if estimates[-1].factor < 1.0:
            lo = mid
        else:
            hi = mid
    return lo, tuple(estimates)


def linear_response(model: MeanFieldModel, spec: GridSpec,
                    eps_grid: Sequence[float]) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Sampled contraction factor along an eps grid with its linear fit.

    Returns (eps values, factors, slope, r_squared). The factor of the
    decoupled model (eps = 0) is exactly zero, so the fit is anchored near
    the origin and r_squared measures how linear the response is.
    """
    eps_arr = np.asarray(list(eps_grid), dtype=float)
    facs = np.array([contraction_estimate(model.with_eps(e), spec).factor for e in eps_arr])
    slope, intercept, sse = fit_line(eps_arr, facs)
    tot = float(np.sum((facs - facs.mean()) ** 2))
    r2 = 1.0 - sse / tot if tot > 0 else 1.0
    return eps_arr, facs, float(slope), float(r2)
