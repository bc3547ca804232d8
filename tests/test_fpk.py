"""Stationary solvers: closed forms, the null vector of L_h^T, and density diagnostics."""

import gc
import math
import subprocess
import sys
import weakref
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fpkit
from fpkit import fpk, poisson
from fpkit.errors import (
    ConvergenceError,
    DegenerateDensityError,
    EllipticityError,
    EvaluationError,
    SupportError,
    TruncationError,
)
from fpkit.fields import (
    ClosureField,
    ConstantField,
    DiffusionMatrixField,
    DriftField,
    GrowthParams,
    linear_drift,
    make_example_field,
)
from fpkit.fpk import (
    REFINE_MAX_STEPS,
    NearbyFactor,
    _factor,
    builtin_models,
    discretization_error,
    generator_matrix,
    harnack_ratio,
    moment,
    normalized_against_generator,
    solve_exact_1d,
    solve_grid,
    stationary_density,
    weak_residual,
    weighted_lp_norm,
)
from fpkit.grids import GridDensity, GridSpec
from fpkit.poisson import stationary_poisson
from fpkit.quadrature import fine_mesh
from fpkit.testfunctions import BumpFunction, random_bumps

MODELS = {m.name: m for m in builtin_models()}


def weighted_l1_gap(a: GridDensity, b: GridDensity, k: float) -> float:
    r = a.spec.center_radii()
    return float(((1.0 + r) ** k * np.abs(a.flat() - b.flat())).sum()) * a.spec.cell_volume


def repelling_drift() -> DriftField:
    return DriftField(
        [ClosureField(lambda x: x[:, 0], 1, "x1")],
        GrowthParams(beta=1.0, beta1=1.0, beta2=1.0, beta3=1.0),
        "repelling",
    )


@pytest.fixture(scope="module")
def rough_interval_problem():
    """Zero drift and rough a on [-4, 4], where rho is exactly 1/a up to Z."""
    w = make_example_field("weierstrass-holder", alpha=0.5, lam=0.5, d=1)
    a = ClosureField(lambda x, f=w: 1.5 + f.values(x), 1, "rough-a")
    b = DriftField(
        [ConstantField(0.0, 1)],
        GrowthParams(beta=1.0, beta1=20.0, beta2=1.0, beta3=0.1),
        "zero-drift",
    )
    spec = GridSpec(1, 4.0, 256)
    inv_a = 1.0 / a.values(spec.cell_centers())
    inv_a /= inv_a.sum() * spec.h
    return a, b, spec, inv_a


class TestExactSolver1D:
    def test_ou_density_matches_standard_gaussian(self, ou_1d, grid_1d):
        _, b = ou_1d
        rho = solve_exact_1d(ConstantField(1.0, 1), b, grid_1d)
        x = grid_1d.axis_centers()
        oracle = np.exp(-0.5 * x * x)
        oracle /= oracle.sum() * grid_1d.h
        assert np.abs(rho.flat() - oracle).max() < 1e-13
        assert rho.flat()[len(x) // 2] == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-4)

    def test_doubled_diffusion_gives_variance_two(self, ou_1d, grid_1d):
        # (a rho)' = b rho with a = 2, b = -x integrates to exp(-x^2/4)
        _, b = ou_1d
        rho = solve_exact_1d(ConstantField(2.0, 1), b, grid_1d)
        x = grid_1d.axis_centers()
        oracle = np.exp(-0.25 * x * x)
        oracle /= oracle.sum() * grid_1d.h
        assert np.abs(rho.flat() - oracle).max() < 1e-13
        assert moment(rho, 2.0) == pytest.approx(2.0, rel=1e-5)

    def test_mass_is_exactly_one(self, ou_1d, grid_1d):
        _, b = ou_1d
        rho = solve_exact_1d(ConstantField(1.0, 1), b, grid_1d)
        assert rho.mass == pytest.approx(1.0, abs=1e-14)

    def test_matrix_diffusion_accepted_in_1d(self, ou_1d, grid_1d):
        A, b = ou_1d
        rho = solve_exact_1d(A, b, grid_1d)
        assert rho.info["method"] == "exact-1d"
        assert np.isfinite(rho.info["log_normalizer"])

    def test_repelling_drift_is_under_truncated(self, ou_1d):
        with pytest.raises(TruncationError, match="boundary cells hold mass"):
            solve_exact_1d(ConstantField(1.0, 1), repelling_drift(), GridSpec(1, 4.0, 256))

    def test_nonpositive_diffusion_rejected(self, ou_1d, grid_1d):
        _, b = ou_1d
        a = ClosureField(lambda x: x[:, 0], 1, "x")
        with pytest.raises(EllipticityError, match="nonpositive"):
            solve_exact_1d(a, b, grid_1d)

    def test_bounded_interval_density_is_reciprocal_diffusion(self, rough_interval_problem):
        """With zero drift on the box itself, the zero-flux first integral
        gives rho proportional to 1/a; check_truncation=False admits the
        boundary mass that a bounded domain legitimately carries."""
        a, b, spec, inv_a = rough_interval_problem
        rho = solve_exact_1d(a, b, spec, check_truncation=False)
        assert np.abs(rho.flat() - inv_a).max() < 1e-12


class TestGridGeometry:
    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 32)])
    def test_geometry_equals_a_fresh_meshgrid_and_is_read_only(self, dim, n):
        spec = GridSpec(dim, 8.0, n)
        c = -8.0 + (np.arange(n) + 0.5) * spec.h
        ref = np.stack([g.ravel() for g in np.meshgrid(*[c] * dim, indexing="ij")], axis=1)
        assert np.array_equal(spec.cell_centers(), ref)
        assert np.array_equal(spec.center_radii(), np.sqrt(np.sum(ref * ref, axis=1)))
        for arr in (spec.cell_centers(), spec.center_radii()):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    def test_geometry_is_built_once_per_spec_and_does_not_enter_equality(self):
        spec = GridSpec(2, 8.0, 32)
        assert spec.cell_centers() is spec.cell_centers()
        assert spec.center_radii() is spec.center_radii()
        fresh = GridSpec(2, 8.0, 32)
        assert fresh == spec and hash(fresh) == hash(spec)
        assert fresh.cell_centers() is not spec.cell_centers()


    @settings(max_examples=20, deadline=None)
    @given(n=st.sampled_from((16, 32, 64, 128, 256)), radius=st.floats(4.0, 64.0))
    def test_dissection_order_is_a_read_only_permutation_per_spec(self, n, radius):
        spec = GridSpec(2, radius, n)
        order = spec.dissection_order()
        assert np.array_equal(np.sort(order), np.arange(n * n))
        with pytest.raises(ValueError, match="read-only"):
            order[0] = 0
        assert order is spec.dissection_order()
        assert np.array_equal(GridSpec(2, radius, n).dissection_order(), order)
        # the first separator, the middle row across axis 0, comes last
        assert np.array_equal(order[-n:], (n // 2) * n + np.arange(n))


class TestGridSolver:
    def test_matches_exact_solution(self, ou_1d, grid_1d):
        A, b = ou_1d
        sol = solve_grid(A, b, grid_1d)
        ref = solve_exact_1d(ConstantField(1.0, 1), b, grid_1d)
        assert weighted_l1_gap(sol, ref, 1.0) < 1e-3
        assert sol.info["method"] == "generator-null"
        assert sol.info["residual"] <= 1e-10
        assert sol.info["clipped_mass"] <= 1e-6

    def test_second_order_in_weighted_l1(self, ou_1d):
        A, b = ou_1d
        gaps = {}
        for n in (512, 1024):
            spec = GridSpec(1, 8.0, n)
            gaps[n] = weighted_l1_gap(
                solve_grid(A, b, spec), solve_exact_1d(ConstantField(1.0, 1), b, spec), 1.0
            )
        assert 3.0 < gaps[512] / gaps[1024] < 5.0

    def test_2d_product_gaussian_max_norm(self, ou_2d):
        A, b = ou_2d
        spec = GridSpec(2, 8.0, 128)
        sol = solve_grid(A, b, spec)
        ref = MODELS["ou-2d"].reference(spec)
        assert np.abs(sol.flat() - ref.flat()).max() < 1e-3

    def test_cross_term_stencil_is_second_order(self):
        # the rotated anisotropic model is exactly where the corner-averaged
        # cross fluxes matter; halving h must cut the L1 error near 4x
        m = MODELS["anisotropic-2d"]
        errs = {n: discretization_error(m, GridSpec(2, 8.0, n)) for n in (64, 128)}
        assert 3.0 < errs[64] / errs[128] < 5.0

    def test_bounded_interval_grid_density(self, rough_interval_problem):
        a, b, spec, inv_a = rough_interval_problem
        sol = solve_grid(
            DiffusionMatrixField.isotropic(a, 0.25), b, spec, check_truncation=False
        )
        assert np.abs(sol.flat() - inv_a).max() < 1e-12

    def test_repelling_drift_is_under_truncated(self, ou_1d):
        A, _ = ou_1d
        with pytest.raises(TruncationError):
            solve_grid(A, repelling_drift(), GridSpec(1, 4.0, 256))

    def test_mass_and_positivity_on_unit_ball(self, ou_1d, grid_1d):
        A, b = ou_1d
        sol = solve_grid(A, b, grid_1d)
        assert sol.mass == pytest.approx(1.0, abs=1e-12)
        inner = sol.spec.center_radii() <= 1.0
        assert (sol.flat()[inner] > 0.0).all()

    def test_declared_window_violation_rejected(self, ou_1d, grid_1d):
        _, b = ou_1d
        A = DiffusionMatrixField.from_constant(np.array([[3.0]]), lam=0.5)
        with pytest.raises(EllipticityError):
            solve_grid(A, b, grid_1d)


class TestGridDensityProperty:
    """Grid densities of constant SPD diffusions with affine confining drift.

    A = theta S and b = -theta (x - mu) have the stationary density
    N(mu, S). S has eigenvalues in [0.25, 1.5] along a random axis. At
    R = 8, n = 64 the worst L1 gap measured over the corners of that range
    (eigenvalues 0.25 and 1.5 at 17 angles) and 150 random draws was
    0.0358, at eigenvalues 0.25 and 1.5 turned by 3 pi / 8, where no cell is
    dominant and the centered cross stencil clips 4.9e-4 of the mass; over
    the dominant diffusions it was 0.0212. The bound is 0.06. The example is
    a dominant diffusion whose lowered axis coefficient a^00 - |a^01| is
    0.019: upwinded on its axes alone, without the diagonal's share of the
    drift, its gap was 0.069.
    """

    @settings(max_examples=25, deadline=None)
    @example(eigs=(1.375, 0.25), angle=2.0, theta=1.0, mu=(0.0, 0.0))
    @given(eigs=st.tuples(st.floats(0.25, 1.5), st.floats(0.25, 1.5)),
           angle=st.floats(0.0, math.pi), theta=st.floats(0.5, 2.0),
           mu=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
    def test_unit_mass_nonnegative_and_close_to_the_gaussian(self, eigs, angle, theta, mu):
        Q = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        S = Q @ np.diag(eigs) @ Q.T
        mean = np.array(mu)
        spec = GridSpec(2, 8.0, 64)
        rho = solve_grid(DiffusionMatrixField.from_constant(theta * S),
                         linear_drift(2, theta, mu=mean), spec)
        assert abs(rho.mass - 1.0) <= 1e-8
        assert rho.values.min() >= 0.0
        assert rho.info["residual"] <= 1e-10
        P = np.linalg.inv(S)
        ref = GridDensity.from_function(
            spec, lambda x: np.exp(-0.5 * np.einsum("ni,ij,nj->n", x - mean, P, x - mean)))
        assert float(np.abs(rho.flat() - ref.flat()).sum()) * spec.cell_volume <= 0.06


class TestPinnedSolve:
    @pytest.mark.parametrize("name", ["ou-2d", "anisotropic-2d"])
    def test_matches_dense_mass_row_closure(self, name):
        """Unit-row pin plus signed normalization equals the mass-constraint row."""
        m = MODELS[name]
        spec = GridSpec(2, 8.0, 32)
        N = spec.n_cells
        pin = int(np.argmin(spec.center_radii()))
        M = generator_matrix(m.A, m.b, spec).T.toarray()
        M[pin, :] = spec.cell_volume
        rhs = np.zeros(N)
        rhs[pin] = 1.0
        ref = np.maximum(scipy.linalg.solve(M, rhs), 0.0)
        ref /= ref.sum() * spec.cell_volume
        sol = solve_grid(m.A, m.b, spec).flat()
        assert np.abs(sol - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("d", [1, 2])
    def test_lenient_clipped_mass_matches_the_mass_row_closure(self, d, skewed_2d):
        # the signed normalization keeps the clipped negative mass of the
        # mass-constraint closure. In 2d the non-dominant skewed diffusion
        # clips. In 1d the grid is too coarse for the drift (Pe 25): the fitted
        # L_h upwinds it, so the closure is a nonnegative density, and the
        # pinned solve is that density
        if d == 1:
            A = DiffusionMatrixField.from_constant(0.05 * np.eye(d), 0.05)
            b, spec = linear_drift(d, 5.0), GridSpec(d, 4.0, 64)
        else:
            A, b, spec = skewed_2d, linear_drift(d), GridSpec(d, 8.0, 16)
        pin = int(np.argmin(spec.center_radii()))
        M = generator_matrix(A, b, spec).T.tolil()
        M[pin, :] = spec.cell_volume
        rhs = np.zeros(spec.n_cells)
        rhs[pin] = 1.0
        ref = spla.spsolve(M.tocsc(), rhs)
        clipped = float(np.maximum(-ref, 0.0).sum()) * spec.cell_volume
        sol = solve_grid(A, b, spec, check_truncation=False)
        if d == 1:
            assert ref.min() >= 0.0 and clipped == 0.0
            assert np.abs(sol.flat() - ref).max() <= 1e-12 * ref.max()
        else:
            assert clipped > 1e-2
        assert sol.info["clipped_mass"] == pytest.approx(clipped, rel=1e-9)

    def test_bistable_drift_gives_each_well_half_the_mass(self):
        # regression: b = (4 (x1 - x1^3), -x2) pushes away from x1 = 0 at cell
        # Peclet numbers above 1 (h = 0.25, a = 0.05), so minimal upwinding
        # left no step across that line: the chain had two closed classes and
        # the pinned solve put all the mass in the pin's well. The fitted
        # chain links the wells. The exact density is exp(-V / a) with V =
        # x1^4 - 2 x1^2 + x2^2 / 2, whose wells are 0.08 wide, under a cell
        A = DiffusionMatrixField.from_constant(0.05 * np.eye(2), 0.05)
        b = DriftField([ClosureField(lambda x: 4.0 * (x[:, 0] - x[:, 0] ** 3), 2, "b1"),
                        ClosureField(lambda x: -x[:, 1], 2, "b2")],
                       GrowthParams(beta=3.0, beta1=1.0, beta2=1.0, beta3=10.0))
        spec = GridSpec(2, 8.0, 64)
        rho = solve_grid(A, b, spec)
        assert rho.info["exponential_fitting"] is True
        assert rho.info["clipped_mass"] == 0.0
        assert abs(rho.mass - 1.0) <= 1e-12
        left = rho.values[: spec.n // 2].sum() * spec.cell_volume
        assert left == pytest.approx(0.5, abs=1e-6)
        ref = GridDensity.from_function(spec, lambda x: np.exp(
            -(x[:, 0] ** 4 - 2.0 * x[:, 0] ** 2 + 0.5 * x[:, 1] ** 2) / 0.05))
        assert float(np.abs(rho.flat() - ref.flat()).sum()) * spec.cell_volume <= 0.1

    def test_chain_that_cannot_reach_the_pin_is_a_degenerate_density(self):
        # b = 1000 x on a = 0.001 pushes to the walls at cell Peclet numbers up
        # to 1e6: even exponentially fitted, the inward rates underflow to 0
        A = DiffusionMatrixField.from_constant(0.001 * np.eye(1), 0.001)
        b = DriftField([ClosureField(lambda x: 1000.0 * x[:, 0], 1, "b")], GrowthParams())
        with pytest.raises(DegenerateDensityError, match="does not reach the pinned cell"):
            solve_grid(A, b, GridSpec(1, 4.0, 16), check_truncation=False)

    def test_nothing_clipped_is_positive_zero(self):
        sol = solve_grid(MODELS["ou-2d"].A, MODELS["ou-2d"].b, GridSpec(2, 8.0, 64))
        clipped = sol.info["clipped_mass"]
        assert clipped == 0.0
        assert math.copysign(1.0, clipped) == 1.0

    def test_pinned_cell_takes_the_right_hand_side(self):
        # the pinned row is the unit row, so the null vector (the solve for
        # e_pin) is 1 at the pin, in every factor order: at n = 32 every model
        # has transient cells, at n = 128 none
        for n, want in ((128, ["mmd", "mmd", "nested-dissection"]), (32, ["block-triangular"] * 3)):
            orderings = []
            for name in ("ou-1d", "ou-2d", "anisotropic-2d"):
                m, nearby = MODELS[name], NearbyFactor()
                solve_grid(m.A, m.b, GridSpec(m.dim, 8.0, n), nearby=nearby)
                lu = nearby.factor
                orderings.append(lu.ordering)
                assert lu.null[lu.pin] == pytest.approx(1.0, rel=0.0, abs=1e-14)
            assert orderings == want

    def test_two_dimensional_kernel_is_a_convergence_error(self):
        # two decoupled Neumann blocks, row 0 pinned: the second block stays singular
        block = np.array([[1.0, -1.0], [-1.0, 1.0]])
        P = sp.block_diag([np.array([[1.0, 0.0], [-1.0, 1.0]]), block], format="csc")
        with pytest.raises(ConvergenceError, match="factorization failed"):
            _factor(P, 0, None)


class TestBlockTriangularOrder:
    """Where the pin does not reach every cell, its closed class comes last in the factor."""

    @staticmethod
    def full_reach_factor(A, b, spec):
        """A factor of the pinned L_h^T in the order used wherever the pin reaches every
        cell: SuperLU's MMD for 5 points, the grid's nested dissection for 9."""
        P = sp.csc_matrix(generator_matrix(A, b, spec).T, copy=True)
        pin = int(np.argmin(spec.center_radii()))
        P.data[P.indices == pin] = 0.0
        P[pin, pin] = 1.0
        P.eliminate_zeros()
        order = None
        if np.any(A.values(spec.cell_centers())[:, 0, 1]):
            order = spec.dissection_order()
            P = P[order][:, order]
        return _factor(sp.csc_matrix(P), pin, order)

    @pytest.mark.parametrize("n,transient,ordering", [(32, 700, "block-triangular"),
                                                      (256, 0, "mmd")])
    def test_transient_cells_are_reported(self, n, transient, ordering):
        # ou-2d at R = 8: past n = 64 no cell Peclet number exceeds 1
        m = MODELS["ou-2d"]
        rho = solve_grid(m.A, m.b, GridSpec(2, 8.0, n))
        assert rho.info["transient_cells"] == transient
        assert rho.info["ordering"] == ordering
        r = GridSpec(2, 8.0, n).center_radii()
        if transient:  # the corners, past the Pe = 1 line, hold no mass at all
            assert np.count_nonzero(rho.flat() == 0.0) == transient
            assert rho.flat()[r.argmax()] == 0.0

    @pytest.mark.parametrize("name", ["ou-2d", "anisotropic-2d"])
    def test_full_reach_keeps_the_stencil_order_bit_for_bit(self, name):
        m, spec = MODELS[name], GridSpec(2, 8.0, 256)
        psi = ClosureField(lambda x: np.tanh(x[:, 0]), 2, "psi")
        rho = solve_grid(m.A, m.b, spec)
        both, sol = stationary_poisson(m.A, m.b, psi, 1.0, spec)
        assert rho.info["transient_cells"] == 0
        ref = self.full_reach_factor(m.A, m.b, spec)
        table = fpk._generator_table(m.A, m.b, spec, None)
        ref_rho = fpk._null_density(spec, table, ref, fpk._unit_mass(ref.null, spec), None,
                                    check_truncation=True)
        ref_sol = poisson._solve_factored(poisson.PoissonProblem(m.A, m.b, psi, 1.0, ref_rho),
                                          table, ref)
        assert rho.values.tobytes() == both.values.tobytes() == ref_rho.values.tobytes()
        assert rho.info == both.info == ref_rho.info
        assert sol.u.tobytes() == ref_sol.u.tobytes()

    def test_check_grid_factor_fills_less_than_mmd(self):
        # the R = 16, n = 128 check grid of poisson-2d: 12,028 of 16,384 cells
        # transient; MMD_AT_PLUS_A filled it to 400,487 L + U nonzeros
        m, spec = MODELS["ou-2d"], GridSpec(2, 16.0, 128)
        rho = solve_grid(m.A, m.b, spec)
        mmd = self.full_reach_factor(m.A, m.b, spec)
        assert rho.info["transient_cells"] == 12028
        assert rho.info["factor_nnz"] <= mmd.nnz == 400487
        table = fpk._generator_table(m.A, m.b, spec, None)
        ref = fpk._null_density(spec, table, mmd, fpk._unit_mass(mmd.null, spec), None,
                                check_truncation=True)
        assert np.abs(rho.values - ref.values).max() <= 1e-12 * ref.values.max()


class TestNearbyFactor:
    """solve_grid refining against a held factor, and its fallback to a fresh one."""

    @pytest.mark.parametrize("name", ["ou-2d", "anisotropic-2d"])
    def test_held_factor_of_the_same_operator_needs_no_step(self, name):
        m, spec = MODELS[name], GridSpec(2, 8.0, 32)
        nearby = NearbyFactor()
        first = solve_grid(m.A, m.b, spec, nearby=nearby)
        held = nearby.factor
        again = solve_grid(m.A, m.b, spec, nearby=nearby)
        plain = solve_grid(m.A, m.b, spec)
        assert first.info["refinement_steps"] == again.info["refinement_steps"] == 0
        assert nearby.factor is held
        assert np.array_equal(again.values, plain.values)
        # the first slot solve factors afresh: the plain solve, bit for bit
        assert first.values.tobytes() == plain.values.tobytes()
        assert first.info == {**plain.info, "refinement_steps": 0}

    def test_far_factor_falls_back_to_a_fresh_one(self):
        # the factor for b = -x does not refine b = -5x (A = 0.05 I): the
        # solve factors afresh, and its density is the plain solve's, bit for bit
        A = DiffusionMatrixField.from_constant(0.05 * np.eye(2), 0.05)
        spec = GridSpec(2, 4.0, 32)
        nearby = NearbyFactor()
        solve_grid(A, linear_drift(2, 1.0), spec, check_truncation=False, nearby=nearby)
        far = nearby.factor
        rho = solve_grid(A, linear_drift(2, 5.0), spec, check_truncation=False, nearby=nearby)
        direct = solve_grid(A, linear_drift(2, 5.0), spec, check_truncation=False)
        assert nearby.factor is not far
        assert rho.info["refinement_steps"] == REFINE_MAX_STEPS
        assert np.array_equal(rho.values, direct.values)
        assert rho.info == {**direct.info, "refinement_steps": REFINE_MAX_STEPS}

    def test_factor_of_another_grid_is_not_refined_against(self):
        m = MODELS["ou-2d"]
        nearby = NearbyFactor()
        solve_grid(m.A, m.b, GridSpec(2, 8.0, 16), nearby=nearby)
        coarse = nearby.factor
        rho = solve_grid(m.A, m.b, GridSpec(2, 8.0, 32), nearby=nearby)
        assert nearby.factor is not coarse
        assert rho.info["refinement_steps"] == 0

    def test_plain_solve_records_no_refinement(self):
        m = MODELS["ou-2d"]
        assert "refinement_steps" not in solve_grid(m.A, m.b, GridSpec(2, 8.0, 16)).info

    @pytest.mark.parametrize("name", ["ou-2d", "anisotropic-2d"])
    def test_refined_step_builds_only_what_it_reads(self, name, monkeypatch):
        # M x and |M| |x| are applied from the table of L_h: no sparse matrix is
        # built, and |M| |x| is formed only where refinement can stop
        m, spec = MODELS[name], GridSpec(2, 8.0, 32)
        drifts = [linear_drift(2, beta) for beta in (1.0, 1.01, 1.02, 1.03)]
        nearby = NearbyFactor()
        solve_grid(m.A, drifts[0], spec, nearby=nearby)
        held = nearby.factor
        built, measured = [], []
        real = fpk._relative_residual

        def refuse(*args):
            raise AssertionError("a refined step built a sparse matrix")

        def relative_residual(*args):
            measured.append(args)
            return real(*args)

        for cls in (sp.csr_matrix, sp.csc_matrix):
            monkeypatch.setattr(cls, "__init__", refuse)
        monkeypatch.setattr(fpk, "_relative_residual", relative_residual)
        for b in drifts[1:]:
            before = len(measured)
            rho = solve_grid(m.A, b, spec, nearby=nearby)
            built.append((rho.info["refinement_steps"] > 1, len(measured) - before))
        assert nearby.factor is held  # every step refined
        # one |M| |x| per accepted vector; the first refinement also measures
        # its start, the held factor's own null vector, which is accepted as
        # it is when the operator is the factored one
        assert built == [(True, 2), (True, 1), (True, 1)]

    def test_held_diffusion_is_sampled_once(self):
        # the same diffusion object on an equal grid: its checked samples are
        # read again, the drift is sampled at every solve, and the densities
        # are those of a run that samples a new diffusion object every time
        calls = {"a": 0, "b": 0}

        def counted(key, values):
            def wrapped(x):
                calls[key] += 1
                return values(x)
            return wrapped

        A = DiffusionMatrixField.from_constant(np.eye(2))
        A.values = counted("a", A.values)
        spec, nearby, resampled = GridSpec(2, 8.0, 16), NearbyFactor(), NearbyFactor()
        for beta in (1.0, 1.01, 1.02):
            b = linear_drift(2, beta)
            b.values = counted("b", b.values)
            rho = solve_grid(A, b, spec, nearby=nearby)
            fresh = DiffusionMatrixField.from_constant(np.eye(2))
            assert np.array_equal(rho.values,
                                  solve_grid(fresh, linear_drift(2, beta), spec,
                                             nearby=resampled).values)
        assert calls == {"a": 1, "b": 3}
        assert nearby.diffusion is A and nearby.grid == spec
        solve_grid(A, linear_drift(2), GridSpec(2, 8.0, 32), nearby=nearby)
        assert calls["a"] == 2  # another grid samples again

    def test_held_diffusion_still_names_a_non_finite_drift(self):
        spec, nearby = GridSpec(2, 8.0, 16), NearbyFactor()
        A = MODELS["anisotropic-2d"].A
        solve_grid(A, linear_drift(2), spec, nearby=nearby)
        with pytest.raises(EvaluationError) as held:
            solve_grid(A, NanDrift(2, "half"), spec, nearby=nearby)
        with pytest.raises(EvaluationError) as fresh:
            solve_grid(A, NanDrift(2, "half"), spec)
        assert str(held.value) == str(fresh.value)
        assert np.array_equal(held.value.point, first_nan_point(spec.cell_centers(), "half"))


class TestMoments:
    def test_gaussian_radial_moments(self, ou_1d, grid_1d):
        _, b = ou_1d
        rho = solve_exact_1d(ConstantField(1.0, 1), b, grid_1d)
        assert moment(rho, 0.0) == 1.0
        assert moment(rho, 1.0) == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-4)
        assert moment(rho, 2.0) == pytest.approx(1.0, abs=1e-9)
        assert moment(rho, 4.0) == pytest.approx(3.0, abs=1e-8)

    def test_negative_order_rejected(self, ou_1d, grid_1d):
        _, b = ou_1d
        rho = solve_exact_1d(ConstantField(1.0, 1), b, grid_1d)
        with pytest.raises(ValueError, match="nonnegative"):
            moment(rho, -1.0)

    @pytest.mark.parametrize("theta", [1.0, 2.0, 4.0])
    def test_second_moment_uniform_over_drift_family(self, grid_1d, theta):
        # var = 1/theta for b = -theta x, so theta >= 1 keeps m2 <= the
        # theta = 1 value: the confinement constants control the whole family
        rho = solve_exact_1d(ConstantField(1.0, 1), linear_drift(1, theta), grid_1d)
        assert moment(rho, 2.0) == pytest.approx(1.0 / theta, rel=1e-6)
        assert moment(rho, 2.0) <= 1.0 + 1e-9


class TestWeightedNorms:
    def test_uniform_density_closed_form(self, grid_1d):
        unif = GridDensity(grid_1d, np.full(grid_1d.n, 1.0 / 16.0))
        assert weighted_lp_norm(unif, 0.0, 2.0) == pytest.approx(16.0 ** -0.5, rel=1e-12)
        assert weighted_lp_norm(unif, 0.0, math.inf) == pytest.approx(1.0 / 16.0)

    def test_exponent_at_most_one_rejected(self, grid_1d):
        unif = GridDensity(grid_1d, np.full(grid_1d.n, 1.0 / 16.0))
        with pytest.raises(ValueError, match="exceed 1"):
            weighted_lp_norm(unif, 1.0, 1.0)

    def test_heavy_weight_does_not_overflow(self):
        # regression: (1 + r)^(k p) overflowed at k = 200, and inf times a rho^p
        # that underflowed gave nan, though the norm is about 2e158. At k = 400
        # the norm, about 1e408, is past the float range: inf, not nan
        m, spec = MODELS["ou-2d"], GridSpec(2, 8.0, 32)
        rho = solve_grid(m.A, m.b, spec)
        r, vals = spec.center_radii(), rho.flat()
        for k in (1.0, 200.0):
            exact = sum(Decimal(1.0 + float(ri)) ** Decimal(2.0 * k) * Decimal(float(v)) ** 2
                        for ri, v in zip(r, vals)) * Decimal(spec.cell_volume)
            assert weighted_lp_norm(rho, k, 2.0) == pytest.approx(float(exact.sqrt()), rel=1e-13)
        assert weighted_lp_norm(rho, 400.0, 2.0) == math.inf

    def test_nondecreasing_in_weight_order(self, ou_1d, grid_1d):
        _, b = ou_1d
        rho = solve_exact_1d(ConstantField(1.0, 1), b, grid_1d)
        norms = [weighted_lp_norm(rho, k, 2.0) for k in (0.0, 1.0, 2.0)]
        assert norms[0] < norms[1] < norms[2]


class TestHarnack:
    def test_constant_density_has_unit_ratio(self, grid_1d):
        unif = GridDensity(grid_1d, np.full(grid_1d.n, 1.0 / 16.0))
        assert harnack_ratio(unif, 1.0) == 1.0

    def test_gaussian_unit_ball_ratio(self, ou_1d, grid_1d):
        _, b = ou_1d
        rho = solve_exact_1d(ConstantField(1.0, 1), b, grid_1d)
        ratio = harnack_ratio(rho, 1.0)
        # continuum value exp(1/2); cell centers stop short of |x| = 1
        assert ratio == pytest.approx(math.exp(0.5), rel=0.03)
        assert ratio >= 1.0

    def test_radius_outside_grid_rejected(self, ou_1d, grid_1d):
        _, b = ou_1d
        rho = solve_exact_1d(ConstantField(1.0, 1), b, grid_1d)
        with pytest.raises(ValueError, match="must lie in"):
            harnack_ratio(rho, 9.0)

    def test_ball_without_a_cell_center_is_named(self):
        # regression: h = 1000 leaves B(0, 1) empty, and the ratio reduced an empty array
        spec = GridSpec(1, 8000.0, 16)
        rho = GridDensity.from_samples(spec, np.ones(16))
        with pytest.raises(ValueError, match=r"no cell center lies in B\(0, 1\)"):
            harnack_ratio(rho, 1.0)

    def test_vanishing_cell_is_degenerate(self, grid_1d):
        vals = np.full(grid_1d.n, 1.0)
        vals[grid_1d.n // 2] = 0.0
        rho = GridDensity.from_samples(grid_1d, vals)
        with pytest.raises(DegenerateDensityError):
            harnack_ratio(rho, 1.0)


class TestWeakForm:
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_random_bumps_within_discretization_error(self, name):
        """20 seeded bumps, each normalized to max |L phi| = 1: the weak
        residual of the discrete density stays within 10x its measured L1
        distance from the reference density."""
        m = MODELS[name]
        spec = GridSpec(m.dim, 8.0, 256 if m.dim == 1 else 128)
        sol = solve_grid(m.A, m.b, spec)
        disc = discretization_error(m, spec)
        rng = np.random.default_rng(3)
        phis = [
            normalized_against_generator(p, m.A, m.b, spec)
            for p in random_bumps(rng, 20, m.dim, 6.0)
        ]
        res = weak_residual(sol, m.A, m.b, phis)
        assert (res <= 10.0 * disc).all()

    def test_support_leaving_box_rejected(self, ou_1d, grid_1d):
        A, b = ou_1d
        sol = solve_grid(A, b, grid_1d)
        phi = BumpFunction([7.5], 1.0)
        with pytest.raises(SupportError, match="outside the box"):
            weak_residual(sol, A, b, [phi])

    def test_normalization_sets_unit_generator_sup(self, ou_1d, grid_1d):
        from fpkit.fpk import apply_generator

        A, b = ou_1d
        phi = normalized_against_generator(BumpFunction([0.5], 1.5), A, b, grid_1d)
        vals = apply_generator(A, b, phi, grid_1d.cell_centers())
        assert np.abs(vals).max() == pytest.approx(1.0, rel=1e-12)


class TestCoefficientSampling:
    """One 2d solve evaluates each coefficient entry once, at the cell centers."""

    @staticmethod
    def counted(calls, name, fn, at=None):
        """fn as a field counting its evaluations (only those at the points `at`, if given)."""
        def values(x):
            if at is None or np.array_equal(x, at):
                calls[name] = calls.get(name, 0) + 1
            return fn(x)
        return ClosureField(values, 2, name)

    @pytest.mark.parametrize("diffusion", ["matrix", "scalar", "isotropic"])
    def test_each_coefficient_is_evaluated_once(self, diffusion):
        calls = {}
        b = DriftField([self.counted(calls, f"b{i}", lambda x, i=i: -x[:, i]) for i in range(2)],
                       GrowthParams(beta=1.0, beta1=1.0, beta2=1.0, beta3=1.0))
        radius = lambda x: np.sqrt(np.sum(x * x, axis=1))  # noqa: E731
        if diffusion == "scalar":  # lambda = min(1, min a, 1 / max a) from the same samples
            A = self.counted(calls, "a", lambda x: 1.0 + 0.1 * radius(x))
        elif diffusion == "isotropic":  # one field on both diagonal slots
            A = DiffusionMatrixField.isotropic(
                self.counted(calls, "a", lambda x: 1.0 + 0.1 * np.tanh(radius(x))), lam=0.9)
        else:
            A = DiffusionMatrixField(
                {(0, 0): self.counted(calls, "a00", lambda x: 1.2 + 0.1 * np.sin(x[:, 0])),
                 (0, 1): self.counted(calls, "a01", lambda x: 0.2 + 0.0 * x[:, 0]),
                 (1, 1): self.counted(calls, "a11", lambda x: 0.9 + 0.0 * x[:, 0])}, 2, lam=0.5)
        rho = solve_grid(A, b, GridSpec(2, 8.0, 32))
        # the scalar a = 1 + 0.1 |x| keeps every cell Peclet number below 1 and
        # the pin reaches every cell; the other two leave transient cells
        assert rho.info["ordering"] == ("mmd" if diffusion == "scalar" else "block-triangular")
        assert calls and set(calls.values()) == {1}, calls

    def test_stationary_poisson_samples_a_scalar_diffusion_once(self):
        # PoissonProblem takes the a I that stationary_poisson built; the
        # Lyapunov scan evaluates a off the cells and is not counted
        calls = {}
        spec = GridSpec(2, 8.0, 32)
        cells = spec.cell_centers()
        a = self.counted(calls, "a", lambda x: 1.0 + 0.1 * np.tanh(x[:, 0]), at=cells)
        b = DriftField([self.counted(calls, f"b{i}", lambda x, i=i: -x[:, i], at=cells)
                        for i in range(2)], GrowthParams())
        psi = ClosureField(lambda x: x[:, 0], 2, "x1")
        stationary_poisson(a, b, psi, 1.0, spec)
        assert calls == {"a": 1, "b0": 1, "b1": 1}

    @pytest.mark.parametrize("solve", ["solve_grid", "stationary_poisson"])
    def test_diffusion_samples_are_gone_before_the_factor(self, solve, monkeypatch):
        # the (N, d, d) samples of A die once the table is built, so SuperLU
        # runs without them; only a slot a caller holds keeps them
        A = DiffusionMatrixField.from_constant(np.array([[1.2, 0.3], [0.3, 0.8]]), lam=0.5)
        values, samples, alive = A.values, [], []

        def sampled(x):
            out = values(x)
            samples.append(weakref.ref(out))
            return out

        def factor(*args):
            gc.collect()
            alive.append([ref() is not None for ref in samples])
            return real_factor(*args)

        real_factor = fpk._factor
        A.values = sampled
        monkeypatch.setattr(fpk, "_factor", factor)
        spec, b = GridSpec(2, 8.0, 32), linear_drift(2)
        if solve == "solve_grid":
            solve_grid(A, b, spec)
        else:
            stationary_poisson(A, b, ClosureField(lambda x: np.tanh(x[:, 0]), 2, "psi"),
                               1.0, spec)
        assert alive == [[False]]


class NanDrift(DriftField):
    """-x, NaN where x1 > 0 ("half") or everywhere ("all"), past the fields' own checks."""

    def __init__(self, dim: int, where: str):
        super().__init__(linear_drift(dim).components, GrowthParams())
        self.where = where

    def values(self, x):
        out = super().values(x)
        out[(x[:, 0] > 0.0) if self.where == "half" else slice(None)] = np.nan
        return out


def first_nan_point(pts: np.ndarray, where: str) -> np.ndarray:
    return pts[int(np.argmax(pts[:, 0] > 0.0)) if where == "half" else 0]


# the 5-point case in a child interpreter: SuperLU given NaN ended the process
NAN_CHILD = """
import numpy as np
from fpkit.errors import EvaluationError
from fpkit.fields import DriftField, GrowthParams, linear_drift
from fpkit.fpk import builtin_models, stationary_density
from fpkit.grids import GridSpec

class NanDrift(DriftField):
    def __init__(self, dim, where):
        super().__init__(linear_drift(dim).components, GrowthParams())
        self.where = where

    def values(self, x):
        out = super().values(x)
        out[(x[:, 0] > 0.0) if self.where == "half" else slice(None)] = np.nan
        return out

m = {m.name: m for m in builtin_models()}["ou-2d"]
for n in (16, 32):
    for where in ("half", "all"):
        try:
            stationary_density(m.A, NanDrift(2, where), GridSpec(2, 8.0, n))
            print(n, where, "solved")
        except EvaluationError as exc:
            print(n, where, *exc.point)
"""


class TestNonFiniteCoefficients:
    """A NaN coefficient sample is an EvaluationError naming the first such point."""

    @pytest.mark.parametrize("where", ["half", "all"])
    def test_one_dimensional_closed_form(self, where):
        # regression: a misleading ConfinementError
        spec = GridSpec(1, 8.0, 256)
        with pytest.raises(EvaluationError, match=r"non-finite at x=\(") as exc:
            stationary_density(ConstantField(1.0, 1), NanDrift(1, where), spec)
        mesh = fine_mesh(spec.radius, spec.n, 8)[0][:, None]
        assert np.array_equal(exc.value.point, first_nan_point(mesh, where))

    @pytest.mark.parametrize("where", ["half", "all"])
    def test_nine_point_grid(self, where):
        # regression: a misleading ConvergenceError
        spec = GridSpec(2, 8.0, 16)
        with pytest.raises(EvaluationError, match=r"non-finite at x=\(") as exc:
            stationary_density(MODELS["anisotropic-2d"].A, NanDrift(2, where), spec)
        assert np.array_equal(exc.value.point, first_nan_point(spec.cell_centers(), where))

    def test_five_point_grid_in_a_child_interpreter(self):
        # regression: SuperLU crashed the interpreter (exit 139) on ou-2d at n = 16 and 32
        proc = subprocess.run([sys.executable, "-c", NAN_CHILD], capture_output=True, text=True,
                              cwd=Path(fpkit.__file__).resolve().parent.parent)
        assert proc.returncode == 0, proc.stderr
        expected = []
        for n in (16, 32):
            for where in ("half", "all"):
                point = first_nan_point(GridSpec(2, 8.0, n).cell_centers(), where)
                expected.append(f"{n} {where} {point[0]} {point[1]}")
        assert proc.stdout.splitlines() == expected
