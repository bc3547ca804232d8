"""Poisson equations L u = psi~ for the stationary generator, with growth bounds.

Given a coefficient pair (A, b) with stationary density rho and a source psi
centered so that integral psi~ rho = 0, the solution machinery provides:

* lyapunov_constants: certified constants (M0, R0) with
  L(1 + |x|^{2k}) <= -M0 (1 + |x|^{2k}) outside B(0, R0), from a radius scan
  of the closed-form action of L on |x|^{2k}, plus a parameter-formula branch
  that depends only on (d, k, lambda, beta1, beta2). The scan aims at
  M0 = 1, or at half the rate of the largest radius where that is below 1.

* solve_poisson_1d: the quadrature closed form. From (E u')' = E psi~ / a
  with E = exp(integral b/a), u'(x) = exp(-I(x)) Z S(x) where S is the
  cumulative integral of psi~ rho on the fpk.SUBDIV-times finer mesh of
  fpk.solve_exact_1d; u follows by one more cumulative integration and is
  normalized to zero average over B(0, 2 R0). psi is centered by the rule
  the solver integrates with, the Simpson integral of psi rho on that mesh
  over that of rho, so the integral of psi~ rho over the box vanishes up to
  roundoff. Where that constant and the cell-quadrature centering against
  the declared density differ by more than INCOMPATIBILITY_FACTOR times the
  O(h^2) scale, the declared density disagrees with the coefficients: an
  IncompatibilityError, as the grid solver raises for the same case.

* solve_poisson_grid: the generator L_h of fpk.generator_matrix (centered
  differences with reflecting walls), the same operator whose transpose
  gives the grid density. L_h kills constants; solvability is restored by
  subtracting the projection constant <psi~, w> with w the discrete
  adjoint null vector. One factor of the pinned L_h^T (fpk.PinnedFactor)
  serves both: its pinned null vector gives w, and a transposed solve gives
  u with the center-most cell pinned to u = 0. The factor is ordered by
  fpk's one rule (fpk._pinned_factor): where upwinding leaves cells that the
  pin does not reach, only the pin's closed class is factored for w, which
  is exactly 0 on those transient cells, and the transposed solve factors
  the transient block as well, once. The
  kernel is then fixed by subtracting the B(0, 2 R0) cell average of u, so
  that average is zero. With a
  confining drift the artificial wall closure only pollutes a boundary
  layer; interior accuracy is second order. The derivatives are the same
  second-order differences along every axis, in d = 1 and d = 2.

* stationary_poisson: density and Poisson solution together. In d = 2 the
  grid density of fpk.solve_grid is the same plain solve as w, so one
  factor of the pinned L_h^T gives rho, w and u; verify_growth_bounds
  factors each grid's closed class once, and its transient block (if any)
  once. `fpkit poisson` solves each distinct grid once:
  when its main grid is also the first check grid (check_grids), it passes
  the main solution to growth_bound_report instead of solving it again.

Both solvers return through one finishing step (_solution), which computes
the bound constants below, the residual over the grid and over the cells at
least 1 from the walls, and the info keys they share: the Lyapunov witness,
the residual per cell and the centering defect, |integral psi~ rho| by the
solver's own rule (cell quadrature against the declared density on the
grid, fine-mesh Simpson against the closed form in 1d).

The growth report normalizes everything by Psi = sup |psi~(y)| / (1 + |y|^k):
G0 = sup |u| / (1 + |x|^k), G1 = sup |grad u| / (1 + |x|^{k + beta}), and the
weighted Hessian integral H = (integral |D^2 u|^p / (1 + |x|^s))^{1/p} with
s = (2 beta + k) p + d + 1 and p defaulting to 2d standalone. A constant
source centers to psi~ = 0, so Psi = 0 and the quotients are nan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfinementError, ConvergenceError, IncompatibilityError
from .fields import ClosureField, DiffusionMatrixField, DriftField, ScalarField
from . import fpk
from .fpk import (ModelSpec, PinnedFactor, _diffusion_matrix, _fine_profile_1d, _sampled_diffusion,
                  _scalar_diffusion, builtin_models, solve_exact_1d)
from .grids import GridDensity, GridSpec
from .quadrature import cumulative_integral, lp_from_logs

# ---------------------------------------------------------------------------
# Lyapunov constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LyapunovWitness:
    """Constants certifying L(1+|x|^{2k}) <= -M0 (1+|x|^{2k}) for |x| > R0.

    (m0, r0) come from scanning the closed-form action of the actual
    coefficients on a radius grid; (m0_formula, r0_formula) from the bound
    using only (d, k, lambda, beta1, beta2), so coefficient pairs sharing
    those parameters report identical formula constants.
    """

    k: float
    m0: float
    r0: float
    m0_formula: float
    r0_formula: float

    @property
    def pin_radius(self) -> float:
        """Radius 2 R0 of the ball used to normalize Poisson solutions."""
        return 2.0 * self.r0


def radial_power_generator_values(A: DiffusionMatrixField, b: DriftField, pts: np.ndarray,
                                  k: float) -> np.ndarray:
    """L(|x|^{2k}) at the given (nonzero) points, from the closed form.

    L(|x|^{2k}) = 2k |x|^{2k-2} tr A + 2k(2k-2) |x|^{2k-4} <A x, x>
                + 2k |x|^{2k-2} <b, x>.

    |x|^2 and <A x, x> are sums of whole columns, in the order in which a
    reduction over the axes and the einsum "ni,nij,nj->n" add their terms,
    so they equal those bit for bit without their strided passes.
    """
    d = pts.shape[1]
    x = [pts[:, i] for i in range(d)]
    r2 = x[0] * x[0]
    for i in range(1, d):
        r2 = r2 + x[i] * x[i]
    if (r2 <= 0).any():
        raise ValueError("points must be nonzero")
    a_val = A.values(pts)
    b_val = b.values(pts)
    tr = np.einsum("nii->n", a_val)
    axx = np.zeros(len(pts))
    for i in range(d):
        for j in range(d):
            axx += x[i] * a_val[:, i, j] * x[j]
    bx = np.einsum("ni,ni->n", b_val, pts)
    tk = 2.0 * k
    return tk * r2 ** (k - 1.0) * (tr + bx) + tk * (tk - 2.0) * r2 ** (k - 2.0) * axx


def _scan_radius(phi: np.ndarray, radii: np.ndarray, k: float) -> tuple[float, float]:
    """(M0, R0) with phi <= -M0 (1+r^{2k}) for all sampled r > R0, phi = L(|x|^{2k}) at r.

    The target rate is 1 where the largest radius reaches it. Otherwise it is
    half the rate -phi / (1+r^{2k}) measured at the largest radius, so a
    drift too weak for rate 1 (b = -beta x with beta < 1/2 at k = 1) is
    still certified, at a smaller M0; only a rate <= 0 there (no confinement
    at this weight order) is a ConfinementError. R0 is the smallest grid
    radius past which every sampled radius meets the target, and M0 the best
    rate over those radii, at least the target. Where the weight overflows
    or phi is NaN (r^{2k} past the float range), that is a ConfinementError
    naming k and the smallest such radius; phi = -inf is a rate that is met.
    """
    weight = 1.0 + radii ** (2.0 * k)
    past = np.isnan(phi) | ~np.isfinite(weight)
    if past.any():
        raise ConfinementError(f"L(|x|^{2 * k:g}) or 1+|x|^{2 * k:g} leaves the float range at "
                               f"radius {radii[past.argmax()]:g}: weight order k = {k:g} is too "
                               "large for the Lyapunov scan")
    target = 1.0
    if phi[-1] + weight[-1] > 0.0:
        target = 0.5 * float(-phi[-1] / weight[-1])
        if not target > 0.0:
            raise ConfinementError(
                f"no Lyapunov radius within the sampled range (at the largest radius "
                f"{radii[-1]:g} the rate -L(1+|x|^{2 * k:g}) / (1+|x|^{2 * k:g}) is "
                f"{2.0 * target:.3g}); drift does not confine at this weight order")
    ok = phi + target * weight <= 0.0
    bad = np.nonzero(~ok)[0]
    idx = int(bad[-1]) if len(bad) else 0
    r0 = float(radii[idx])
    after = slice(idx + 1, None) if len(bad) else slice(0, None)
    m0 = float((-phi[after] / weight[after]).min())
    if m0 < target * (1.0 - 1e-12):
        raise ConfinementError(f"internal scan inconsistency: M0 < {target:.6g} "
                               "at the certified radius")
    return m0, r0


N_RADII = 800  # radius grid of the Lyapunov scan on (0, r_max]
N_ANGLES = 32  # directions of the scan when d = 2


def lyapunov_constants(A: DiffusionMatrixField, b: DriftField, k: float,
                       r_max: float = 8.0) -> LyapunovWitness:
    """Scan for drift-confinement constants at weight order k >= 1.

    The sampled branch evaluates L(|x|^{2k}) on N_RADII radii in (0, r_max]
    (worst case over N_ANGLES directions when d = 2); the formula branch
    replaces tr A and <Ax, x>/|x|^2 by d/lambda and 1/lambda and the drift term by
    beta1 - beta2 |x|^2. Each branch certifies M0 = 1 or, where the largest
    radius does not reach rate 1, half the rate there (_scan_radius).
    Raises ConfinementError when the rate at the largest radius is not
    positive (e.g. an outward drift).
    """
    if k < 1.0:
        raise ValueError("weight order k must be >= 1")
    d = b.dim
    radii = np.linspace(r_max / N_RADII, r_max, N_RADII)
    if d == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        th = (np.arange(N_ANGLES) + 0.5) / N_ANGLES * 2.0 * math.pi
        dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
    pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, d)
    # |x|^{2k} may leave the float range; _scan_radius names that as a ConfinementError
    with np.errstate(over="ignore", invalid="ignore"):
        vals = radial_power_generator_values(A, b, pts, k).reshape(len(radii), len(dirs))
        phi = vals.max(axis=1)
        m0, r0 = _scan_radius(phi, radii, k)

        g = b.growth
        s_up = 1.0 / A.lam
        tk = 2.0 * k
        phi_f = tk * radii ** (tk - 2.0) * (d * s_up + (tk - 2.0) * s_up + g.beta1
                                            - g.beta2 * radii ** 2)
        m0f, r0f = _scan_radius(phi_f, radii, k)

        # internal consistency: the certified inequality must hold on the sampled
        # window (R0, 2 R0], up to a tolerance relative to the size of its terms,
        # which grow like r^{2k}
        w = (radii > r0) & (radii <= min(2.0 * r0, r_max))
        if w.any():
            bound = m0 * (1.0 + radii[w] ** tk)
            if ((phi[w] + bound) / bound).max() > 1e-9:
                raise ConfinementError("certified Lyapunov inequality fails on (R0, 2 R0]")
    return LyapunovWitness(k=float(k), m0=m0, r0=r0, m0_formula=m0f, r0_formula=r0f)


# ---------------------------------------------------------------------------
# problems and solutions
# ---------------------------------------------------------------------------


class PoissonProblem:
    """A source problem L u = psi - <psi, rho> for a stationary pair (A, b, rho).

    k >= 1 declares the polynomial weight order (the source must satisfy
    sup |psi|/(1+|x|^k) < infinity, automatic on the truncated grid and
    reported as Psi); p > d the Hessian integrability exponent (default 2d).
    The weight power in the Hessian integral is s = (2 beta + k) p + d + 1.
    """

    def __init__(self, A, b: DriftField, psi: ScalarField, k: float, rho: GridDensity,
                 p: float | None = None):
        A = _diffusion_matrix(A, rho.spec)
        d = rho.spec.dim
        if A.dim != d or b.dim != d or psi.dim != d:
            raise ValueError("coefficient/source dimensions must match the density grid")
        if k < 1.0:
            raise ValueError("weight order k must be >= 1")
        p = float(p) if p is not None else 2.0 * d
        if p <= d:
            raise ValueError(f"integrability exponent p must exceed d={d}, got {p}")
        beta = b.growth.beta
        self.A, self.b, self.psi, self.k, self.rho, self.p = A, b, psi, float(k), rho, p
        self.s = (2.0 * beta + k) * p + d + 1.0
        pts = rho.spec.cell_centers()
        self.psi_cells = psi.values(pts)
        self.center_constant = float((self.psi_cells @ rho.flat()) * rho.spec.cell_volume)

    @property
    def spec(self) -> GridSpec:
        return self.rho.spec

    def psi_tilde_cells(self) -> np.ndarray:
        """Source centered by cell quadrature; integral against rho is 0 by construction."""
        return self.psi_cells - self.center_constant

    def centering_defect(self) -> float:
        """|integral psi~ rho| by cell quadrature (0 up to roundoff)."""
        return abs(float((self.psi_tilde_cells() @ self.rho.flat()) * self.spec.cell_volume))


@dataclass(eq=False)
class PoissonSolution:
    """Grid solution of the Poisson problem with derivative fields and bounds.

    u has the grid shape; du has shape grid + (d,); d2u grid + (d, d). The
    bound constants are G0 = sup |u|/(1+|x|^k), G1 = sup |du|/(1+|x|^{k+beta}),
    H = (integral |d2u|_F^p / (1+|x|^s))^{1/p}, reported alongside
    Psi = sup |psi~|/(1+|x|^k) and the quotients G0/Psi, G1/Psi, H/Psi. A
    source that centers to zero (a constant psi) has Psi = 0, u = 0 and nan
    quotients.
    """

    spec: GridSpec
    k: float
    beta: float
    p: float
    s: float
    u: np.ndarray
    du: np.ndarray
    d2u: np.ndarray
    psi_tilde: np.ndarray
    psi_sup: float
    g0: float
    g1: float
    h_norm: float
    residual: float
    residual_interior: float
    pin_radius: float
    info: dict

    def _quotient(self, bound: float) -> float:
        return bound / self.psi_sup if self.psi_sup > 0.0 else math.nan

    @property
    def g0_quotient(self) -> float:
        return self._quotient(self.g0)

    @property
    def g1_quotient(self) -> float:
        return self._quotient(self.g1)

    @property
    def h_quotient(self) -> float:
        return self._quotient(self.h_norm)


def _pin_ball_mask(spec: GridSpec, pin_radius: float) -> np.ndarray:
    mask = spec.center_radii() <= min(pin_radius, spec.radius)
    if not mask.any():
        mask = spec.center_radii() <= spec.center_radii().min() + 1e-12
    return mask


def _solution(problem: PoissonProblem, wit: LyapunovWitness, u: np.ndarray, du: np.ndarray,
              d2u: np.ndarray, psi_tilde: np.ndarray, res: np.ndarray, centering_defect: float,
              **info) -> PoissonSolution:
    """The PoissonSolution of both solvers: bound constants, residuals and the shared info.

    u (grid shape, zero mean on the pin ball of wit), du (grid + (d,)), d2u
    (grid + (d, d)) and psi_tilde (grid shape) are the solver's results at
    the cells, and res its absolute residual per cell. residual is the
    largest over the grid, residual_interior over the cells at least 1 from
    the walls. info holds the solver's own keys and "lyapunov" (wit),
    "residual_cells" (res) and "centering_defect", |integral psi~ rho| by
    the solver's rule.
    """
    spec = problem.spec
    r = spec.center_radii()
    k, p, s = problem.k, problem.p, problem.s
    beta = problem.b.growth.beta
    w0 = 1.0 + r ** k
    psi_sup = float((np.abs(psi_tilde.ravel()) / w0).max())
    g0 = float((np.abs(u.ravel()) / w0).max())
    grad_norm = np.sqrt(np.sum(du.reshape(-1, spec.dim) ** 2, axis=1))
    g1 = float((grad_norm / (1.0 + r ** (k + beta))).max())
    frob = np.sqrt(np.sum(d2u.reshape(-1, spec.dim, spec.dim) ** 2, axis=(1, 2)))
    with np.errstate(divide="ignore"):  # log 0 = -inf; log(1 + r^s) without r^s
        h_norm = lp_from_logs(np.log(frob) - np.logaddexp(0.0, s * np.log(r)) / p, p,
                              spec.cell_volume)
    interior = r <= spec.radius - 1.0
    residual = float(res.max())
    return PoissonSolution(
        spec=spec, k=k, beta=beta, p=p, s=s, u=u, du=du, d2u=d2u, psi_tilde=psi_tilde,
        psi_sup=psi_sup, g0=g0, g1=g1, h_norm=h_norm, residual=residual,
        residual_interior=float(res[interior].max()) if interior.any() else residual,
        pin_radius=wit.pin_radius,
        info={**info, "lyapunov": wit, "residual_cells": res,
              "centering_defect": centering_defect})


INCOMPATIBILITY_FACTOR = 10.0


def _check_compatible(c_proj: float, psi_t: np.ndarray, spec: GridSpec) -> None:
    """IncompatibilityError unless |c_proj| <= INCOMPATIBILITY_FACTOR h^2 (1 + max |psi_t|).

    c_proj is the constant that the solver's own centering takes from psi_t,
    the source centered against the declared density: the disagreement
    between that density and the solver's, which is of the order of the
    discretization error, h^2, when both are right.
    """
    scale = spec.h ** 2 * (1.0 + float(np.abs(psi_t).max()))
    if abs(c_proj) > INCOMPATIBILITY_FACTOR * scale:
        raise IncompatibilityError(
            f"range projection {abs(c_proj):.3e} exceeds {INCOMPATIBILITY_FACTOR:g} x h^2 scale "
            f"{scale:.3e}: the reference density disagrees with the discrete operator",
            projection_magnitude=abs(c_proj))


def solve_poisson_1d(problem: PoissonProblem) -> PoissonSolution:
    """Solve the 1D Poisson equation by the quadrature closed form.

    Works on a mesh fpk.SUBDIV times finer than the grid. psi is centered by
    Simpson integration against the closed-form density on that mesh, and u'
    and u come from cumulative Simpson integration; the second derivative is
    a fourth-order difference of the fine-mesh u', so the reported interior
    residual a u'' + b u' - psi~ reflects quadrature accuracy rather than
    grid differencing. A declared density whose centering of psi disagrees
    with that one beyond the O(h^2) scale is an IncompatibilityError
    (_check_compatible).
    """
    spec = problem.spec
    if spec.dim != 1:
        raise ValueError("solve_poisson_1d needs a one-dimensional problem")
    prof = _fine_profile_1d(problem.A, problem.b, spec)
    a_c = _scalar_diffusion(problem.A).values(spec.cell_centers())
    return _solve_quadrature_1d(problem, prof, a_c)


def _solve_quadrature_1d(problem: PoissonProblem, prof: dict, a_c: np.ndarray) -> PoissonSolution:
    """solve_poisson_1d from prof, the fine-mesh profile of the problem's coefficients
    (fpk._fine_profile_1d), and a_c, the diffusion at the cells."""
    spec = problem.spec
    pts, hf, cidx = prof["pts"], prof["hf"], prof["center_idx"]
    rho_f = prof["rho_fine"]
    integ = prof["integral_b_over_a"]
    log_norm = prof["log_normalizer"]

    psi_f = problem.psi.values(pts[:, None])
    center = cumulative_integral(psi_f * rho_f, hf)[-1] / cumulative_integral(rho_f, hf)[-1]
    psi_tc = problem.psi_cells - center
    _check_compatible(center - problem.center_constant, psi_tc, spec)
    g = (psi_f - center) * rho_f
    S_left = cumulative_integral(g, hf)

    # cumulate toward the density mode from both walls: a one-sided cumulative
    # plateaus at roundoff in the far tail and exp(-I) amplifies that noise
    im = int(np.argmax(rho_f))
    S_tail = cumulative_integral(g[::-1], hf)[::-1]
    S = np.concatenate([S_left[:im], -S_tail[im:]])

    # u'(x) = exp(-I(x)) C S(x), with C = exp(log_norm) the density
    # normalization constant; assembled in log space to avoid overflow
    with np.errstate(divide="ignore"):
        log_mag = np.where(S != 0.0, np.log(np.abs(np.where(S != 0.0, S, 1.0))), -np.inf)
    du_f = np.sign(S) * np.exp(-integ + log_norm + log_mag)
    du_f[S == 0.0] = 0.0
    if not np.all(np.isfinite(du_f)):
        raise ConvergenceError("gradient overflowed; problem is under-truncated or not confined")

    u_c = cumulative_integral(du_f, hf)[cidx]
    du_c = du_f[cidx]
    wit = lyapunov_constants(problem.A, problem.b, problem.k, r_max=spec.radius)
    u_c = u_c - u_c[_pin_ball_mask(spec, wit.pin_radius)].mean()

    # fourth-order centered first derivative of the fine u' at cell centers
    d2u_c = (-du_f[cidx + 2] + 8.0 * du_f[cidx + 1] - 8.0 * du_f[cidx - 1] + du_f[cidx - 2]) / (12.0 * hf)

    b_c = problem.b.values(spec.cell_centers())[:, 0]
    res = np.abs(a_c * d2u_c + b_c * du_c - psi_tc)
    return _solution(problem, wit, u_c, du_c.reshape(spec.n, 1), d2u_c.reshape(spec.n, 1, 1),
                     psi_tc, res, abs(float(S_left[-1])), method="quadrature-1d")


# ---------------------------------------------------------------------------
# grid solver (non-divergence finite differences)
# ---------------------------------------------------------------------------


def discrete_adjoint_null(lu: PinnedFactor) -> np.ndarray:
    """Left null vector w of L_h (L_h^T w = 0), normalized to sum 1.

    `lu` is the factor of the pinned L_h^T (fpk._solve_null), so w is its
    pinned null vector scaled to sum 1.
    """
    total = lu.null.sum()
    if abs(total) < 1e-300:
        raise ConvergenceError("adjoint null vector has zero mass")
    return lu.null / total


def solve_poisson_grid(problem: PoissonProblem) -> PoissonSolution:
    """Solve the Poisson problem by non-divergence finite differences.

    Factors the pinned L_h^T once, in the order fpk._pinned_factor gives
    every grid solve; that one factor gives w and u (and, in
    stationary_poisson, rho as well). Where some cells are transient, w
    needs the factor of the pin's closed class only, and the transposed
    solve for u factors the transient block too. The source is recentered against the
    discrete adjoint null vector w (the factor's pinned null vector); the
    magnitude of that projection is the disagreement between the declared
    density and the discrete operator and must stay below
    INCOMPATIBILITY_FACTOR times the expected O(h^2) discretization scale.
    It vanishes up to roundoff for a density from fpk.solve_grid, which is w
    itself. A transposed solve with the same factor solves L_h with column
    `pin` replaced by e_pin: with a zero right-hand side at the center-most
    cell and u = 0 there afterwards, every other row of L_h u = psi~ holds
    exactly. The kernel direction (constants) is then fixed by subtracting
    the cell average of u over B(0, 2 R0). The derivatives are second-order
    differences (numpy.gradient) along each axis, of u for du and of du for
    d2u, whose mixed entries are the average of the two orders.
    """
    spec = problem.spec
    table, lu, *_ = fpk._solve_null(fpk._generator_table(problem.A, problem.b, spec, None),
                                    spec, None)
    return _solve_factored(problem, table, lu)


def _solve_factored(problem: PoissonProblem, table: tuple, lu: PinnedFactor) -> PoissonSolution:
    """solve_poisson_grid on a given factor lu of the pinned L_h^T; table is (T, offsets, ...),
    the table of L_h (fpk._generator_table)."""
    spec = problem.spec
    psi_t = problem.psi_tilde_cells()
    c_proj = float(discrete_adjoint_null(lu) @ psi_t)
    _check_compatible(c_proj, psi_t, spec)
    psi_proj = psi_t - c_proj

    wit = lyapunov_constants(problem.A, problem.b, problem.k, r_max=spec.radius)
    rhs = psi_proj.copy()
    rhs[lu.pin] = 0.0
    u = lu.solve(rhs, trans="T")
    if not np.all(np.isfinite(u)):
        raise ConvergenceError("Poisson grid solve produced non-finite values")
    u[lu.pin] = 0.0
    u -= u[_pin_ball_mask(spec, wit.pin_radius)].mean()

    res = np.abs(fpk._apply(*table[:2], u, adjoint=False) - psi_proj)
    res[lu.pin] = 0.0  # pinned row is implied by the others

    U, h, d = u.reshape(spec.shape), spec.h, spec.dim
    du = np.stack([np.gradient(U, h, axis=i, edge_order=2) for i in range(d)], axis=-1)
    d2u = np.stack([np.gradient(du, h, axis=i, edge_order=2) for i in range(d)], axis=-2)
    mixed = ~np.eye(d, dtype=bool)  # d2u[..., i, j] differentiates du_j along axis i
    d2u[..., mixed] = 0.5 * (d2u[..., mixed] + d2u.swapaxes(-1, -2)[..., mixed])
    return _solution(problem, wit, U, du, d2u, psi_proj.reshape(spec.shape), res,
                     problem.centering_defect(), method="fd-grid",
                     projection_magnitude=abs(c_proj), pinned_cell=lu.pin,
                     ordering=lu.ordering, factor_nnz=lu.nnz)


def solve_poisson(problem: PoissonProblem) -> PoissonSolution:
    """Dispatch: quadrature solver in d = 1, grid solver in d = 2."""
    if problem.spec.dim == 1:
        return solve_poisson_1d(problem)
    return solve_poisson_grid(problem)


def stationary_poisson(A, b: DriftField, psi: ScalarField, k: float, spec: GridSpec,
                       p: float | None = None) -> tuple[GridDensity, PoissonSolution]:
    """The stationary density rho on the grid and the Poisson solution for psi.

    The diffusion is sampled at the cells once (a scalar one becomes a I).
    In d = 1 both are the closed forms (fpk.solve_exact_1d, solve_poisson_1d),
    built from one fine-mesh profile and that sample. In d = 2 one factor
    of the pinned L_h^T (fpk.PinnedFactor), in the order fpk._pinned_factor
    gives every grid solve, gives rho, w and u: its pinned null vector
    (PinnedFactor.null), scaled to unit mass, is the density, validated and
    clipped as in fpk.solve_grid, and, scaled to sum 1, the adjoint null
    vector w; its transposed solve gives u. Where some cells are transient,
    rho and w need the factor of the pin's closed class only, and the
    transposed solve factors the transient block as well. The result equals
    stationary_density followed by solve_poisson bit for bit, with the
    closed class factored once instead of twice.
    """
    A, a = _sampled_diffusion(A, spec)  # PoissonProblem takes this A as it is
    if spec.dim == 1:
        prof = _fine_profile_1d(A, b, spec)
        rho = solve_exact_1d(A, b, spec, profile=prof)
        return rho, _solve_quadrature_1d(PoissonProblem(A, b, psi, k, rho, p=p), prof,
                                         a[:, 0, 0])
    table = fpk._generator_table(A, b, spec, None, a)
    del a  # the factor runs without the samples
    table, lu, *null = fpk._solve_null(table, spec, None)
    rho = fpk._null_density(spec, table, lu, *null, check_truncation=True)
    return rho, _solve_factored(PoissonProblem(A, b, psi, k, rho, p=p), table, lu)


# ---------------------------------------------------------------------------
# growth-bound verification across truncation radii
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthBoundReport:
    """Bound quotients per truncation radius and their relative drift."""

    radii: tuple[float, ...]
    quotients: tuple[tuple[float, float, float], ...]  # (G0/Psi, G1/Psi, H/Psi)
    max_drift: float
    all_finite: bool


def check_grids(dim: int, radii: tuple[float, ...], n_base: int) -> tuple[GridSpec, ...]:
    """The grid of each check radius: n = n_base R / radii[0], so h is the same on all."""
    return tuple(GridSpec(dim, R, int(round(n_base * R / radii[0]))) for R in radii)


def growth_bound_report(solutions: list[PoissonSolution]) -> GrowthBoundReport:
    """Quotients G0/Psi, G1/Psi, H/Psi per solution and their drift between neighbours."""
    rows = [(sol.g0_quotient, sol.g1_quotient, sol.h_quotient) for sol in solutions]
    drifts = []
    for prev, cur in zip(rows, rows[1:]):
        for qp, qc in zip(prev, cur):
            if max(abs(qp), abs(qc)) < 1e-14:
                continue
            drifts.append(abs(qc - qp) / max(abs(qp), 1e-14))
    finite = all(np.isfinite(v) for row in rows for v in row)
    return GrowthBoundReport(radii=tuple(float(sol.spec.radius) for sol in solutions),
                             quotients=tuple(rows),
                             max_drift=float(max(drifts)) if drifts else 0.0,
                             all_finite=finite)


def verify_growth_bounds(A, b: DriftField, psi: ScalarField, k: float,
                         radii: tuple[float, ...] = (8.0, 16.0), n_base: int = 512,
                         p: float | None = None) -> GrowthBoundReport:
    """Solve the Poisson problem at several truncation radii and compare bounds.

    The cell width is held fixed (n scales with R, check_grids), so the
    quotients G0/Psi, G1/Psi, H/Psi are directly comparable; their maximal
    relative drift between consecutive radii is reported
    (growth_bound_report). Each radius is one stationary_poisson call (in
    d = 2 one factor of the pin's closed class, and one of the transient
    block where the grid has transient cells).
    """
    return growth_bound_report(
        [stationary_poisson(A, b, psi, k, grid, p=p)[1]
         for grid in check_grids(b.dim, radii, n_base)])


# ---------------------------------------------------------------------------
# built-in Poisson cases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoissonCase:
    """A named (model, source) pair for the bound-verification suite."""

    name: str
    model: ModelSpec
    psi: ScalarField


def builtin_poisson_cases() -> tuple[PoissonCase, ...]:
    """Bounded odd sources over the built-in models (one per dimension flavor).

    Bounded sources keep the bound quotients interior-dominated, which is
    what makes them stable under truncation-radius doubling; polynomially
    growing sources at the critical weight order are exercised by the
    analytic-recovery tests instead.
    """
    models = {m.name: m for m in builtin_models()}
    tanh1 = ClosureField(lambda x: np.tanh(x[:, 0]), 1, name="tanh(x1)")
    tanh2 = ClosureField(lambda x: np.tanh(x[:, 0]), 2, name="tanh(x1)")
    return (
        PoissonCase("ou-1d-tanh", models["ou-1d"], tanh1),
        PoissonCase("dini-1d-tanh", models["dini-1d"], tanh1),
        PoissonCase("ou-2d-tanh", models["ou-2d"], tanh2),
    )
