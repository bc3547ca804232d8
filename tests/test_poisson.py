"""Poisson equations for the generator: constants, closed forms, grids, bounds."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.sparse.linalg as spla

from fpkit.errors import ConfinementError, IncompatibilityError, TruncationError
from fpkit.fields import (
    ClosureField,
    ConstantField,
    DiffusionMatrixField,
    DriftField,
    GrowthParams,
    linear_drift,
)
from fpkit.fpk import (
    BOUNDARY_MASS_LIMIT,
    ELLIPTICITY_TOL,
    PinnedFactor,
    _generator_table,
    _null_density,
    _solve_null,
    _unit_mass,
    builtin_models,
    generator_matrix,
    solve_exact_1d,
    solve_grid,
)
from fpkit.grids import GridDensity, GridSpec
from fpkit.poisson import (
    PoissonProblem,
    _pin_ball_mask,
    _solve_factored,
    builtin_poisson_cases,
    discrete_adjoint_null,
    lyapunov_constants,
    radial_power_generator_values,
    solve_poisson,
    solve_poisson_1d,
    solve_poisson_grid,
    stationary_poisson,
    verify_growth_bounds,
)

SCAN_STEP = 8.0 / 800.0  # default radius grid spacing in lyapunov_constants


def source(fn, dim, name):
    return ClosureField(fn, dim, name)


@pytest.fixture(scope="module")
def ou_problem_parts(ou_1d, grid_1d):
    A, b = ou_1d
    rho = solve_exact_1d(ConstantField(1.0, 1), b, grid_1d)
    return A, b, rho


class TestLyapunovConstants:
    def test_ou_sampled_radius_near_sqrt3(self, ou_1d):
        # L(1+x^2) = 2 - 2x^2 <= -(1+x^2) exactly when x^2 >= 3
        A, b = ou_1d
        wit = lyapunov_constants(A, b, 1.0)
        assert abs(wit.r0 - math.sqrt(3.0)) <= SCAN_STEP
        assert 1.0 <= wit.m0 <= 1.01
        assert wit.pin_radius == 2.0 * wit.r0

    def test_formula_radius_near_sqrt5(self, ou_1d):
        # formula branch: 2(d/lam + beta1 - beta2 r^2) <= -(1+r^2) at r^2 >= 5
        A, b = ou_1d
        wit = lyapunov_constants(A, b, 1.0)
        assert abs(wit.r0_formula - math.sqrt(5.0)) <= SCAN_STEP
        assert wit.m0_formula >= 1.0

    def test_formula_constants_depend_only_on_parameters(self, ou_1d):
        A, b = ou_1d
        perturbed = DriftField(
            [ClosureField(lambda x: -x[:, 0] - 0.2 * np.tanh(x[:, 0]), 1, "bt")],
            GrowthParams(beta=1.0, beta1=1.0, beta2=1.0, beta3=2.0),
            "perturbed-linear",
        )
        wit = lyapunov_constants(A, b, 1.0)
        wit_p = lyapunov_constants(A, perturbed, 1.0)
        assert wit_p.m0_formula == wit.m0_formula
        assert wit_p.r0_formula == wit.r0_formula
        # the sampled branch sees the actual coefficients
        assert wit_p.r0 != wit.r0

    def test_certified_inequality_holds_past_r0(self, ou_1d):
        A, b = ou_1d
        wit = lyapunov_constants(A, b, 1.0)
        radii = np.arange(wit.r0 + SCAN_STEP, 2.0 * wit.r0 + 1e-12, SCAN_STEP)
        vals = radial_power_generator_values(A, b, radii[:, None], 1.0)
        assert (vals + wit.m0 * (1.0 + radii ** 2) <= 1e-9).all()

    def test_weak_drift_is_certified_at_half_its_rate(self, ou_1d):
        # regression: b = -0.1 x gives L(1+x^2) = 2 - 0.2 x^2, whose rate
        # -L(1+x^2) / (1+x^2) stays below 0.2, so a target M0 = 1 refused it
        A, _ = ou_1d
        wit = lyapunov_constants(A, linear_drift(1, 0.1), 1.0)
        target = 0.5 * (0.2 * 64.0 - 2.0) / 65.0  # half the rate at r_max = 8
        assert target <= wit.m0 <= target + 1e-3
        # 2 - 0.2 r^2 <= -m (1 + r^2) exactly when r^2 >= (2 + m) / (0.2 - m)
        assert abs(wit.r0 - math.sqrt((2.0 + target) / (0.2 - target))) <= SCAN_STEP
        radii = np.arange(wit.r0 + SCAN_STEP, 8.0, SCAN_STEP)
        vals = radial_power_generator_values(A, linear_drift(1, 0.1), radii[:, None], 1.0)
        assert (vals + wit.m0 * (1.0 + radii ** 2) <= 1e-9).all()

    def test_outward_drift_has_no_radius(self, ou_1d):
        A, _ = ou_1d
        outward = DriftField(
            [ClosureField(lambda x: x[:, 0], 1, "x1")],
            GrowthParams(beta=1.0, beta1=1.0, beta2=1.0, beta3=1.0),
            "outward",
        )
        with pytest.raises(ConfinementError, match="does not confine"):
            lyapunov_constants(A, outward, 1.0)

    def test_weight_order_past_the_float_range_is_a_confinement_error(self, ou_1d):
        # regression: 8^400 overflows, L(|x|^400) is NaN at the outer radii, the
        # certified slice was empty and .min() raised numpy's ValueError
        A, b = ou_1d
        with pytest.raises(ConfinementError, match=r"at radius 5\.81: weight order k = 200 "):
            lyapunov_constants(A, b, 200.0)

    def test_generator_value_past_the_float_range_is_a_rate_that_is_met(self, ou_1d):
        # at R = 64, k = 85 the weight 1 + r^170 is finite but L(|x|^170) is -inf
        # at the outer radii: an unbounded rate, so the witness is the scan's as before
        A, b = ou_1d
        wit = lyapunov_constants(A, b, 85.0, r_max=64.0)
        assert (wit.m0, wit.r0) == (1.0413451767097257, 12.96)

    def test_weight_order_below_one_rejected(self, ou_1d):
        A, b = ou_1d
        with pytest.raises(ValueError, match=">= 1"):
            lyapunov_constants(A, b, 0.5)

    def test_radial_action_closed_form(self, ou_1d):
        A, b = ou_1d
        r = np.array([0.5, 1.0, 2.0, 3.0])
        vals = radial_power_generator_values(A, b, r[:, None], 1.0)
        assert vals == pytest.approx(2.0 - 2.0 * r ** 2, rel=1e-14)
        with pytest.raises(ValueError, match="nonzero"):
            radial_power_generator_values(A, b, np.zeros((1, 1)), 1.0)

    # (m0, r0, m0_formula, r0_formula) of the built-in Poisson cases, as float
    # hex, from the three-operand einsum form of L(|x|^{2k})
    PINNED = {
        ("ou-1d-tanh", 1.0): ("0x1.01c119803752fp+0", "0x1.bae147ae147aep+0",
                              "0x1.00bfad3b039b8p+0", "0x1.1d70a3d70a3d7p+1"),
        ("ou-1d-tanh", 2.0): ("0x1.070ac9d3f1568p+0", "0x1.028f5c28f5c29p+1",
                              "0x1.04acc030219ccp+0", "0x1.28f5c28f5c28fp+1"),
        ("dini-1d-tanh", 1.0): ("0x1.0149cdad77fcap+0", "0x1.eb851eb851eb9p+0",
                                "0x1.01c546295743bp+0", "0x1.35c28f5c28f5cp+1"),
        ("dini-1d-tanh", 2.0): ("0x1.01b19cf10d0bbp+0", "0x1.2a3d70a3d70a3p+1",
                                "0x1.03a5bc29b6647p+0", "0x1.547ae147ae147p+1"),
        ("ou-2d-tanh", 1.0): ("0x1.00bfad3b039b6p+0", "0x1.1d70a3d70a3d7p+1",
                              "0x1.00b7cd94f0ec2p+0", "0x1.51eb851eb851ep+1"),
        ("ou-2d-tanh", 2.0): ("0x1.04acc030219c8p+0", "0x1.28f5c28f5c28fp+1",
                              "0x1.04e4f77de7558p+0", "0x1.4b851eb851eb8p+1"),
    }

    @pytest.mark.parametrize("case,k", sorted(PINNED))
    def test_builtin_case_constants_are_pinned(self, case, k):
        model = {c.name: c.model for c in builtin_poisson_cases()}[case]
        wit = lyapunov_constants(model.A, model.b, k)
        got = (wit.m0, wit.r0, wit.m0_formula, wit.r0_formula)
        assert tuple(v.hex() for v in got) == self.PINNED[(case, k)]

    @pytest.mark.parametrize("name", ["ou-2d", "anisotropic-2d"])
    def test_radial_action_matches_the_einsum_form_bit_for_bit(self, name):
        # the scan's points at r_max = 16, and the three-operand einsum of <A x, x>
        m = {m.name: m for m in builtin_models()}[name]
        radii = np.linspace(16.0 / 800, 16.0, 800)
        th = (np.arange(32) + 0.5) / 32 * 2.0 * math.pi
        pts = (radii[:, None, None] * np.stack([np.cos(th), np.sin(th)], axis=1)).reshape(-1, 2)
        a, bx = m.A.values(pts), np.einsum("ni,ni->n", m.b.values(pts), pts)
        r2 = np.sum(pts * pts, axis=1)
        for k in (1.0, 2.0):
            tk = 2.0 * k
            ref = (tk * r2 ** (k - 1.0) * (np.einsum("nii->n", a) + bx)
                   + tk * (tk - 2.0) * r2 ** (k - 2.0) * np.einsum("ni,nij,nj->n", pts, a, pts))
            assert np.array_equal(radial_power_generator_values(m.A, m.b, pts, k), ref)


class TestPoissonProblem:
    def test_centering_removes_the_mean(self, ou_problem_parts):
        A, b, rho = ou_problem_parts
        prob = PoissonProblem(A, b, source(lambda z: z[:, 0] ** 2, 1, "x2"), 2.0, rho)
        assert prob.center_constant == pytest.approx(1.0, abs=1e-8)
        assert prob.centering_defect() <= 1e-14

    def test_hessian_weight_defaults(self, ou_problem_parts):
        A, b, rho = ou_problem_parts
        prob = PoissonProblem(A, b, source(lambda z: z[:, 0], 1, "x"), 1.0, rho)
        # p = 2d and s = (2 beta + k) p + d + 1 with beta = 1
        assert prob.p == 2.0
        assert prob.s == 8.0
        prob2 = PoissonProblem(A, b, source(lambda z: z[:, 0], 1, "x"), 2.0, rho, p=4.0)
        assert prob2.s == (2.0 + 2.0) * 4.0 + 2.0

    def test_parameter_validation(self, ou_problem_parts):
        A, b, rho = ou_problem_parts
        psi = source(lambda z: z[:, 0], 1, "x")
        with pytest.raises(ValueError, match="k must be >= 1"):
            PoissonProblem(A, b, psi, 0.5, rho)
        with pytest.raises(ValueError, match="must exceed d"):
            PoissonProblem(A, b, psi, 1.0, rho, p=1.0)
        with pytest.raises(ValueError, match="dimensions"):
            PoissonProblem(A, b, source(lambda z: z[:, 0], 2, "x1"), 1.0, rho)

    def test_scalar_diffusion_follows_the_grid_solver_rule(self, ou_1d, grid_1d):
        # a I with a = 2: ellipticity min(1, min a, 1 / max a) = 1/2, as in solve_grid
        _, b = ou_1d
        a = ConstantField(2.0, 1)
        prob = PoissonProblem(a, b, source(lambda z: z[:, 0], 1, "x1"), 1.0,
                              solve_exact_1d(a, b, grid_1d))
        assert prob.A.lam == 0.5
        prob.A.check_ellipticity(grid_1d.cell_centers(), tol=ELLIPTICITY_TOL)
        wit = lyapunov_constants(prob.A, b, 1.0)
        assert wit.r0_formula == pytest.approx(2.64, abs=SCAN_STEP)


class TestQuadratureSolver:
    def test_linear_source_recovers_minus_x(self, ou_problem_parts, grid_1d):
        A, b, rho = ou_problem_parts
        sol = solve_poisson_1d(PoissonProblem(A, b, source(lambda z: z[:, 0], 1, "x"), 1.0, rho))
        x = grid_1d.axis_centers()
        core = np.abs(x) <= 4.0
        assert np.abs(sol.u + x)[core].max() <= 1e-6

    def test_quadratic_source_recovers_parabola(self, ou_problem_parts, grid_1d):
        A, b, rho = ou_problem_parts
        sol = solve_poisson_1d(
            PoissonProblem(A, b, source(lambda z: z[:, 0] ** 2 - 1.0, 1, "x2-1"), 2.0, rho)
        )
        x = grid_1d.axis_centers()
        exact = -0.5 * x ** 2
        # both sides carry the same pin-ball normalization
        mask = grid_1d.center_radii() <= sol.pin_radius
        exact = exact - exact[mask].mean()
        core = np.abs(x) <= 4.0
        assert np.abs(sol.u - exact)[core].max() <= 1e-6

    def test_bounded_source_interior_residual(self, ou_problem_parts):
        A, b, rho = ou_problem_parts
        sol = solve_poisson_1d(
            PoissonProblem(A, b, source(lambda z: np.tanh(z[:, 0]), 1, "tanh"), 1.0, rho)
        )
        assert sol.residual_interior <= 1e-6
        assert sol.info["method"] == "quadrature-1d"

    def test_wrong_reference_density_breaks_the_tail(self, ou_1d, grid_1d):
        # centered against a uniform density, x^2 - 64/3 is far from centered
        # against the OU density the closed form integrates with
        A, b = ou_1d
        uniform = GridDensity(grid_1d, np.full(grid_1d.n, 1.0 / 16.0))
        prob = PoissonProblem(A, b, source(lambda z: z[:, 0] ** 2, 1, "x2"), 2.0, uniform)
        with pytest.raises(IncompatibilityError, match="disagrees") as exc:
            solve_poisson_1d(prob)
        assert exc.value.projection_magnitude == pytest.approx(64.0 / 3.0 - 1.0, rel=1e-3)

    def test_constant_source_centers_to_zero_solution(self, ou_problem_parts):
        A, b, rho = ou_problem_parts
        sol = solve_poisson_1d(PoissonProblem(A, b, ConstantField(1.0, 1), 1.0, rho))
        assert np.abs(sol.u).max() == 0.0
        assert np.abs(sol.du).max() == 0.0

    @pytest.mark.parametrize("name,n", [("ou-1d", 512), ("ou-2d", 16)])
    def test_constant_source_has_nan_quotients(self, name, n):
        # regression: Psi = 0 made each quotient a ZeroDivisionError
        m = {m.name: m for m in builtin_models()}[name]
        _, sol = stationary_poisson(m.A, m.b, ConstantField(2.0, m.dim), 1.0,
                                    GridSpec(m.dim, 8.0, n))
        assert sol.psi_sup == 0.0
        assert all(math.isnan(q) for q in (sol.g0_quotient, sol.g1_quotient, sol.h_quotient))

    def test_quotients_divide_by_source_sup(self, ou_problem_parts):
        A, b, rho = ou_problem_parts
        sol = solve_poisson_1d(
            PoissonProblem(A, b, source(lambda z: np.tanh(z[:, 0]), 1, "tanh"), 1.0, rho)
        )
        assert sol.g0_quotient == pytest.approx(sol.g0 / sol.psi_sup, rel=1e-14)
        assert sol.g1_quotient == pytest.approx(sol.g1 / sol.psi_sup, rel=1e-14)
        assert sol.h_quotient == pytest.approx(sol.h_norm / sol.psi_sup, rel=1e-14)
        assert sol.psi_sup > 0


class TestGridSolver:
    @pytest.mark.parametrize(
        "fn,k,exact_fn",
        [
            (lambda z: z[:, 0], 1.0, lambda x: -x),
            (lambda z: z[:, 0] ** 2 - 1.0, 2.0, lambda x: -0.5 * x ** 2),
        ],
        ids=["linear", "quadratic"],
    )
    def test_polynomial_sources_within_h_squared(self, ou_problem_parts, grid_1d, fn, k, exact_fn):
        A, b, rho = ou_problem_parts
        sol = solve_poisson_grid(PoissonProblem(A, b, source(fn, 1, "psi"), k, rho))
        x = grid_1d.axis_centers()
        exact = exact_fn(x)
        mask = grid_1d.center_radii() <= sol.pin_radius
        exact = exact - exact[mask].mean()
        core = np.abs(x) <= 4.0
        assert np.abs(sol.u.ravel() - exact)[core].max() <= grid_1d.h ** 2

    def test_bounded_source_is_second_order(self, ou_1d):
        """Against the quadrature solution, halving h cuts the core error 4x."""
        A, b = ou_1d
        psi = source(lambda z: np.tanh(z[:, 0]), 1, "tanh")
        errs = {}
        for n in (512, 1024):
            spec = GridSpec(1, 8.0, n)
            rho = solve_exact_1d(ConstantField(1.0, 1), b, spec)
            prob = PoissonProblem(A, b, psi, 1.0, rho)
            core = np.abs(spec.axis_centers()) <= 4.0
            gap = solve_poisson_grid(prob).u.ravel() - solve_poisson_1d(prob).u
            errs[n] = np.abs(gap)[core].max()
        assert 3.0 < errs[512] / errs[1024] < 5.0

    def test_2d_linear_source(self, ou_2d):
        A, b = ou_2d
        spec = GridSpec(2, 8.0, 128)
        rho = solve_grid(A, b, spec)
        sol = solve_poisson(PoissonProblem(A, b, source(lambda z: z[:, 0], 2, "x1"), 1.0, rho))
        pts = spec.cell_centers()
        core = spec.center_radii() <= 4.0
        assert np.abs(sol.u.ravel() + pts[:, 0])[core].max() <= spec.h ** 2
        assert sol.residual_interior <= 1e-9

    @pytest.mark.parametrize("name", ["ou-1d", "ou-2d", "anisotropic-2d"])
    def test_adjoint_null_vector(self, name):
        m = {m.name: m for m in builtin_models()}[name]
        spec = GridSpec(m.dim, 8.0, 256 if m.dim == 1 else 32)
        _, lu, *_ = _solve_null(_generator_table(m.A, m.b, spec, None), spec, None)
        M = generator_matrix(m.A, m.b, spec).T
        w = discrete_adjoint_null(lu)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.abs(M @ w).max() <= 1e-10 * (abs(M) @ np.abs(w)).max()

    @pytest.mark.parametrize("name", ["ou-2d", "anisotropic-2d"])
    def test_grid_density_is_compatible_with_the_generator(self, name):
        # the density is the adjoint null vector of the same L_h, so the range
        # projection of a source that is centered against it vanishes
        m = {m.name: m for m in builtin_models()}[name]
        spec = GridSpec(2, 8.0, 64)
        psi = source(lambda z: np.exp(-np.sum(z * z, axis=1)) + 0.3 * z[:, 0], 2, "psi")
        sol = solve_poisson_grid(PoissonProblem(m.A, m.b, psi, 1.0, solve_grid(m.A, m.b, spec)))
        assert sol.info["projection_magnitude"] <= 1e-9

    def test_2d_solution_has_zero_mean_on_the_pin_ball(self, ou_2d):
        A, b = ou_2d
        spec = GridSpec(2, 8.0, 64)
        rho = solve_grid(A, b, spec)
        sol = solve_poisson_grid(
            PoissonProblem(A, b, source(lambda z: np.tanh(z[:, 0]) + z[:, 1] ** 2, 2, "psi"),
                           2.0, rho))
        u = sol.u.ravel()
        mask = _pin_ball_mask(spec, sol.pin_radius)
        assert mask.sum() > 1
        assert abs(u[mask].mean()) <= 1e-12 * np.abs(u).max()

    def test_wrong_reference_density_is_incompatible(self, ou_1d, grid_1d):
        A, b = ou_1d
        uniform = GridDensity(grid_1d, np.full(grid_1d.n, 1.0 / 16.0))
        prob = PoissonProblem(A, b, source(lambda z: z[:, 0] ** 2, 1, "x2"), 2.0, uniform)
        with pytest.raises(IncompatibilityError, match="disagrees") as exc:
            solve_poisson_grid(prob)
        assert exc.value.projection_magnitude > 1.0

    def test_hessian_norm_of_a_large_exponent_tends_to_the_weighted_sup(self, ou_2d):
        # regression: frob^p / (1 + r^s) under- and overflowed at p = 1e6, so
        # H was 0 and bounds.csv wrote h_over_psi 0. As p grows, H tends to
        # max |D^2 u|_F / max(1, r^(2 beta + k)), since s / p -> 2 beta + k
        A, b = ou_2d
        psi = source(lambda z: np.tanh(z[:, 0]), 2, "tanh")
        spec = GridSpec(2, 8.0, 32)
        sols = {p: stationary_poisson(A, b, psi, 1.0, spec, p=p)[1] for p in (4.0, 1e6)}
        r = spec.center_radii()
        frob = np.sqrt(np.sum(sols[4.0].d2u.reshape(-1, 4) ** 2, axis=1))
        direct = float(np.sum(frob ** 4.0 / (1.0 + r ** sols[4.0].s)) * spec.cell_volume) ** 0.25
        assert sols[4.0].h_norm == pytest.approx(direct, rel=1e-14)
        sol = sols[1e6]
        limit = float((frob / np.maximum(1.0, r ** (2.0 * sol.beta + sol.k))).max())
        assert sol.h_norm == pytest.approx(limit, rel=1e-4)
        assert 0.0 < sol.h_quotient < math.inf


class TestGrowthBounds:
    @pytest.mark.parametrize("k", [1.0, 2.0])
    @pytest.mark.parametrize("case", builtin_poisson_cases(), ids=lambda c: c.name)
    def test_quotients_stable_under_radius_doubling(self, case, k):
        if case.model.dim == 2 and k == 2.0:
            pytest.skip("2d k=2 runs in the acceptance suite")
        n_base = 512 if case.model.dim == 1 else 128
        report = verify_growth_bounds(case.model.A, case.model.b, case.psi, k, n_base=n_base)
        assert report.all_finite
        assert report.max_drift < 0.05
        assert report.radii == (8.0, 16.0)
        assert all(q > 0 for row in report.quotients for q in row)

    def test_clipped_coarse_grid_is_a_truncation_error(self, skewed_2d):
        # the non-dominant skewed diffusion with b = -0.8 x: at R = 4,
        # n_base = 16 the density clips 4e-2 of its mass, and the check sees
        # the 2.8e-4 that the clipped oscillation pushes onto the walls. At
        # n = 32 the walls hold 7.9e-5, below the limit
        b = linear_drift(2, 0.8)
        psi = source(lambda z: z[:, 0], 2, "x1")
        with pytest.raises(TruncationError):
            verify_growth_bounds(skewed_2d, b, psi, 1.0, radii=(4.0, 8.0), n_base=16)
        assert solve_grid(skewed_2d, b, GridSpec(2, 4.0, 32)).boundary_mass < BOUNDARY_MASS_LIMIT


class TestSharedFactor:
    """One SuperLU factor of the pinned L_h^T gives rho, w and u."""

    def test_one_factorization_per_radius(self, monkeypatch):
        shapes = []
        splu = spla.splu

        def counted(P, *args, **kwargs):
            shapes.append(P.shape[0])
            return splu(P, *args, **kwargs)

        monkeypatch.setattr(spla, "splu", counted)
        case = {c.name: c for c in builtin_poisson_cases()}["ou-2d-tanh"]
        verify_growth_bounds(case.model.A, case.model.b, case.psi, 1.0,
                             radii=(8.0, 16.0), n_base=32)
        assert shapes == [32 ** 2, 64 ** 2]

    @pytest.mark.parametrize("name,n,permc_spec", [
        pytest.param("ou-2d", 64, "MMD_AT_PLUS_A", id="ou-2d-MMD_AT_PLUS_A"),
        pytest.param("anisotropic-2d", 32, "NATURAL", id="anisotropic-2d-NATURAL"),
        pytest.param("ou-2d", 32, "NATURAL", id="ou-2d-transient-NATURAL"),
    ])
    def test_one_factorization_ordered_by_the_stencil(self, monkeypatch, name, n, permc_spec):
        # where the pin reaches every cell (ou-2d at n = 64) the 5-point L_h^T
        # leaves the order to SuperLU; with transient cells (both models at
        # n = 32) it comes pre-ordered block triangular, as a 9-point one without
        # them comes in nested dissection (the test below)
        calls = []
        splu = spla.splu

        def counted(P, *args, **kwargs):
            calls.append((P.shape[0], kwargs["permc_spec"]))
            return splu(P, *args, **kwargs)

        monkeypatch.setattr(spla, "splu", counted)
        m = {m.name: m for m in builtin_models()}[name]
        psi = source(lambda z: np.tanh(z[:, 0]), 2, "psi")
        stationary_poisson(m.A, m.b, psi, 1.0, GridSpec(2, 8.0, n))
        assert calls == [(n ** 2, permc_spec)]

    @pytest.mark.parametrize("name", ["ou-2d", "anisotropic-2d"])
    def test_bitwise_equal_to_the_two_solves(self, name):
        m = {m.name: m for m in builtin_models()}[name]
        spec = GridSpec(2, 8.0, 32)
        psi = source(lambda z: np.tanh(z[:, 0]) + 0.3 * z[:, 1], 2, "psi")
        rho, sol = stationary_poisson(m.A, m.b, psi, 1.0, spec)
        ref_rho = solve_grid(m.A, m.b, spec)
        ref = solve_poisson_grid(PoissonProblem(m.A, m.b, psi, 1.0, ref_rho))
        assert np.array_equal(rho.values, ref_rho.values)
        assert rho.info["clipped_mass"] == ref_rho.info["clipped_mass"]
        assert np.array_equal(sol.u, ref.u)
        assert np.array_equal(sol.d2u, ref.d2u)
        assert ((sol.g0_quotient, sol.g1_quotient, sol.h_quotient)
                == (ref.g0_quotient, ref.g1_quotient, ref.h_quotient))

    def test_dissection_factor_is_smaller_than_mmd_and_agrees_with_it(self):
        # anisotropic-2d at n = 128, where the pin reaches every cell, against a
        # factor of the same pinned L_h^T ordered by SuperLU's MMD_AT_PLUS_A
        m = {m.name: m for m in builtin_models()}["anisotropic-2d"]
        spec = GridSpec(2, 8.0, 128)
        psi = source(lambda z: np.tanh(z[:, 0]) + 0.3 * z[:, 1], 2, "psi")
        rho, sol = stationary_poisson(m.A, m.b, psi, 1.0, spec)
        L = generator_matrix(m.A, m.b, spec)
        pin = int(np.argmin(spec.center_radii()))
        P = sp.csc_matrix(L.T, copy=True)
        P.data[P.indices == pin] = 0.0
        P[pin, pin] = 1.0
        P.eliminate_zeros()
        mmd = PinnedFactor(spla.splu(P, permc_spec="MMD_AT_PLUS_A"), pin)
        assert rho.info["ordering"] == sol.info["ordering"] == "nested-dissection"
        assert rho.info["factor_nnz"] == sol.info["factor_nnz"] < mmd.nnz
        table = _generator_table(m.A, m.b, spec, None)
        ref_rho = _null_density(spec, table, mmd, _unit_mass(mmd.null, spec), None,
                                check_truncation=True)
        ref = _solve_factored(PoissonProblem(m.A, m.b, psi, 1.0, ref_rho), table, mmd)
        assert np.abs(rho.values - ref_rho.values).max() <= 1e-12 * ref_rho.values.max()
        assert np.abs(sol.u - ref.u).max() <= 1e-12 * np.abs(ref.u).max()

    def test_closed_forms_in_one_dimension(self, ou_1d, grid_1d):
        A, b = ou_1d
        psi = source(lambda z: z[:, 0], 1, "x")
        rho, sol = stationary_poisson(A, b, psi, 1.0, grid_1d)
        assert rho.info["method"] == "exact-1d"
        assert sol.info["method"] == "quadrature-1d"
        assert sol.info["centering_defect"] <= 1e-14

    @pytest.mark.parametrize("lam", [None, 0.5])
    def test_one_dimension_samples_the_diffusion_once_per_mesh(self, lam):
        # one fine-mesh profile and one sample at the cells per grid, besides
        # the Lyapunov scan (two directions of 800 radii), with the same
        # density and solution as solve_exact_1d followed by solve_poisson_1d
        sizes = []

        def logged(x):
            sizes.append(len(x))
            return 1.0 + 0.5 * np.exp(-x[:, 0] ** 2)

        a = ClosureField(logged, 1, "a")
        A = a if lam is None else DiffusionMatrixField.isotropic(a, lam)
        b = linear_drift(1, 1.0)
        psi = source(lambda z: np.tanh(z[:, 0]), 1, "tanh")
        spec = GridSpec(1, 8.0, 256)
        rho, sol = stationary_poisson(A, b, psi, 1.0, spec)
        assert sorted(sizes) == [256, 1600, 8 * 256 + 1]
        ref_rho = solve_exact_1d(A, b, spec)
        ref = solve_poisson_1d(PoissonProblem(A, b, psi, 1.0, ref_rho))
        assert np.array_equal(rho.values, ref_rho.values)
        assert np.array_equal(sol.u, ref.u)
        assert np.array_equal(sol.du, ref.du)
        assert np.array_equal(sol.info["residual_cells"], ref.info["residual_cells"])
        assert ((sol.g0_quotient, sol.g1_quotient, sol.h_quotient)
                == (ref.g0_quotient, ref.g1_quotient, ref.h_quotient))


MODELS = {m.name: m for m in builtin_models()}


def mixed_source(dim: int, c: tuple[float, float, float], shift: float) -> ClosureField:
    """c0 tanh(x1 - shift) + c1 cos(x_d) + c2: bounded, and odd in neither variable."""
    return source(lambda z: (c[0] * np.tanh(z[:, 0] - shift) + c[1] * np.cos(z[:, -1]) + c[2]),
                  dim, "mixed")


class TestStationaryPoissonProperties:
    """stationary_poisson on 1d grids and 2d grids with n <= 32."""

    grids = st.sampled_from([("ou-1d", 128), ("dini-1d", 256), ("ou-2d", 16),
                             ("ou-2d", 32), ("anisotropic-2d", 32)])
    coefs = st.tuples(*(st.floats(-2.0, 2.0),) * 3)

    @staticmethod
    def solve(name, n, psi):
        m = MODELS[name]
        return stationary_poisson(m.A, m.b, psi, 1.0, GridSpec(m.dim, 8.0, n))[1]

    @settings(max_examples=12, deadline=None)
    @given(grid=grids, c=coefs, shift=st.floats(-1.0, 1.0), const=st.floats(-50.0, 50.0))
    def test_constant_in_the_source_leaves_u_unchanged(self, grid, c, shift, const):
        name, n = grid
        dim = MODELS[name].dim
        u = self.solve(name, n, mixed_source(dim, c, shift)).u
        moved = self.solve(name, n, mixed_source(dim, (c[0], c[1], c[2] + const), shift)).u
        assert np.abs(moved - u).max() <= 1e-12 * (1.0 + abs(const)) * max(1.0, np.abs(u).max())

    @settings(max_examples=12, deadline=None)
    @given(grid=grids, c=coefs, d=coefs, a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0))
    def test_u_is_linear_in_the_source(self, grid, c, d, a, b):
        name, n = grid
        dim = MODELS[name].dim
        u1 = self.solve(name, n, mixed_source(dim, c, 0.3)).u
        u2 = self.solve(name, n, mixed_source(dim, d, 0.3)).u
        mix = tuple(a * ci + b * di for ci, di in zip(c, d))
        u = self.solve(name, n, mixed_source(dim, mix, 0.3)).u
        scale = max(1.0, abs(a) * np.abs(u1).max() + abs(b) * np.abs(u2).max())
        assert np.abs(u - (a * u1 + b * u2)).max() <= 1e-12 * scale

    @settings(max_examples=12, deadline=None)
    @given(grid=grids, c=coefs, shift=st.floats(-1.0, 1.0))
    def test_u_has_zero_mean_on_the_pin_ball(self, grid, c, shift):
        name, n = grid
        sol = self.solve(name, n, mixed_source(MODELS[name].dim, c, shift))
        u = sol.u.ravel()
        mask = _pin_ball_mask(sol.spec, sol.pin_radius)
        assert abs(u[mask].mean()) <= 1e-12 * max(1.0, np.abs(u).max())

    @settings(max_examples=12, deadline=None)
    @given(name=st.sampled_from(["ou-2d", "anisotropic-2d"]), n=st.sampled_from([16, 32]),
           c=coefs, shift=st.floats(-1.0, 1.0))
    def test_grid_rows_but_the_pin_solve_the_projected_source(self, name, n, c, shift):
        # every row of L_h u but the pinned one is psi~ - <psi~, w>, which the
        # solution carries as psi_tilde
        m = MODELS[name]
        spec = GridSpec(2, 8.0, n)
        sol = stationary_poisson(m.A, m.b, mixed_source(2, c, shift), 1.0, spec)[1]
        L = generator_matrix(m.A, m.b, spec)
        u = sol.u.ravel()
        rows = L @ u - sol.psi_tilde.ravel()
        rows[sol.info["pinned_cell"]] = 0.0
        assert np.abs(rows).max() <= 1e-12 * max(1.0, (abs(L) @ np.abs(u)).max())
