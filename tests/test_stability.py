"""Perturbation estimates: distances, discrepancy terms, duality, sweeps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fpkit import stability
from fpkit.errors import GridMismatchError, SupportError
from fpkit.fields import ConstantField, DiffusionMatrixField, linear_drift
from fpkit.fpk import builtin_models, discretization_error, solve_exact_1d, solve_grid
from fpkit.grids import GridDensity, GridSpec
from fpkit.stability import (
    CoefficientPair,
    duality_check,
    rhs_discrepancy,
    stability_sweep,
    weighted_l1_distance,
)
from fpkit.testfunctions import BumpFunction

I1 = DiffusionMatrixField.from_constant(np.eye(1))
OU = linear_drift(1)


def diffusion_pair(delta: float) -> CoefficientPair:
    scaled = DiffusionMatrixField.from_constant(
        (1.0 + delta) * np.eye(1), lam=1.0 / (1.0 + delta)
    )
    return CoefficientPair(scaled, OU, I1, OU)


def drift_pair(delta: float) -> CoefficientPair:
    return CoefficientPair(I1, linear_drift(1, 1.0 + delta), I1, OU)


def estimate(pair: CoefficientPair, spec: GridSpec, k: float, r: float = 2.0):
    """Solve both members of the pair and measure both sides of the estimate."""
    return stability._measure(pair, *pair.solve_pair(spec), k, r)


@pytest.fixture(scope="module")
def gaussian_rho(grid_1d):
    return solve_exact_1d(ConstantField(1.0, 1), OU, grid_1d)


class TestWeightedDistance:
    def test_identical_densities_are_at_zero(self, gaussian_rho):
        assert weighted_l1_distance(gaussian_rho, gaussian_rho, 1.0) == 0.0

    def test_symmetry(self, grid_1d, gaussian_rho):
        shifted = solve_exact_1d(ConstantField(1.0, 1), linear_drift(1, 1.0, mu=[0.1]), grid_1d)
        d12 = weighted_l1_distance(gaussian_rho, shifted, 1.0)
        d21 = weighted_l1_distance(shifted, gaussian_rho, 1.0)
        assert d12 == d21 > 0.0

    def test_shifted_gaussian_against_quadrature_oracle(self, grid_1d, gaussian_rho):
        shifted = solve_exact_1d(ConstantField(1.0, 1), linear_drift(1, 1.0, mu=[0.1]), grid_1d)
        measured = weighted_l1_distance(gaussian_rho, shifted, 1.0)
        phi = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        oracle = quad(lambda x: (1 + abs(x)) * abs(phi(x) - phi(x - 0.1)), -8, 8, limit=400)[0]
        assert measured == pytest.approx(oracle, rel=1e-4)

    def test_triangle_inequality_on_random_triples(self, grid_1d):
        rng = np.random.default_rng(11)
        for _ in range(5):
            a, b, c = (
                GridDensity.from_samples(grid_1d, rng.uniform(0.1, 1.0, grid_1d.n))
                for _ in range(3)
            )
            dab = weighted_l1_distance(a, b, 1.0)
            dbc = weighted_l1_distance(b, c, 1.0)
            dac = weighted_l1_distance(a, c, 1.0)
            assert dac <= dab + dbc + 1e-14

    @settings(max_examples=40, deadline=None)
    @given(dim=st.sampled_from((1, 2)), n=st.sampled_from((16, 32)), k=st.floats(0.0, 4.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_is_a_metric_on_a_shared_grid(self, dim, n, k, seed):
        spec = GridSpec(dim, 4.0, n)
        rng = np.random.default_rng(seed)
        # cubed uniforms put several cells near zero, as in density tails
        a, b, c = (GridDensity.from_samples(spec, rng.random(spec.shape) ** 3)
                   for _ in range(3))
        assert weighted_l1_distance(a, GridDensity(spec, a.values), k) == 0.0
        dab, dba = weighted_l1_distance(a, b, k), weighted_l1_distance(b, a, k)
        assert dab == dba > 0.0
        dbc, dac = weighted_l1_distance(b, c, k), weighted_l1_distance(a, c, k)
        assert dac <= (dab + dbc) * (1.0 + 1e-12)

    def test_mismatched_grids_rejected(self, gaussian_rho):
        other = GridSpec(1, 8.0, 256)
        coarse = solve_exact_1d(ConstantField(1.0, 1), OU, other)
        with pytest.raises(GridMismatchError):
            weighted_l1_distance(gaussian_rho, coarse, 1.0)

    def test_negative_weight_order_rejected(self, gaussian_rho):
        with pytest.raises(ValueError, match="nonnegative"):
            weighted_l1_distance(gaussian_rho, gaussian_rho, -1.0)


class TestDiscrepancyTerms:
    def test_identical_pair_vanishes(self, gaussian_rho):
        pair = CoefficientPair(I1, OU, I1, OU)
        assert rhs_discrepancy(pair, gaussian_rho, 1.0) == (0.0, 0.0)

    def test_constant_diffusion_shift_is_exact(self, gaussian_rho):
        # |A_mu - A_sigma|_F = delta pointwise, so the L^r mean is delta
        diffusion, drift = rhs_discrepancy(diffusion_pair(0.05), gaussian_rho, 1.0)
        assert diffusion == pytest.approx(0.05, rel=1e-12)
        assert drift == 0.0

    def test_drift_scaling_moment_oracle(self, gaussian_rho):
        # |b_mu - b_sigma| = delta |x| against (1 + |x|^2) rho integrates to
        # delta (E|x| + E|x|^3) = 3 delta sqrt(2/pi) for the standard Gaussian
        diffusion, drift = rhs_discrepancy(drift_pair(0.05), gaussian_rho, 1.0)
        assert diffusion == 0.0
        assert drift == pytest.approx(0.05 * 3.0 * math.sqrt(2.0 / math.pi), rel=1e-4)

    def test_exponent_below_one_rejected(self, gaussian_rho):
        with pytest.raises(ValueError, match=">= 1"):
            rhs_discrepancy(drift_pair(0.05), gaussian_rho, 1.0, r=0.5)

    def test_shared_envelope_takes_weaker_clauses(self):
        pair = drift_pair(0.5)
        g = pair.shared_growth
        assert g.beta2 == min(pair.b_mu.growth.beta2, pair.b_sigma.growth.beta2)
        assert g.beta3 == max(pair.b_mu.growth.beta3, pair.b_sigma.growth.beta3)


class TestEstimate:
    def test_report_entries_nonnegative(self, grid_1d):
        rep = estimate(drift_pair(0.05), grid_1d, 1.0)
        assert rep.lhs > 0.0
        assert rep.rhs_diffusion >= 0.0
        assert rep.rhs_drift > 0.0
        assert rep.rhs == rep.rhs_diffusion + rep.rhs_drift
        assert 0.0 < rep.c_hat < 1.0

    def test_coincident_pair_reports_nan_ratio(self, grid_1d):
        rep = estimate(CoefficientPair(I1, OU, I1, OU), grid_1d, 1.0)
        assert rep.lhs == 0.0
        assert math.isnan(rep.c_hat)

    def test_ratio_stable_under_grid_refinement(self):
        cs = {}
        for n in (512, 1024):
            cs[n] = estimate(drift_pair(0.05), GridSpec(1, 8.0, n), 1.0).c_hat
        assert abs(cs[512] - cs[1024]) / cs[1024] < 0.10


class TestDuality:
    def test_residual_shrinks_superlinearly(self):
        """Midpoint quadrature of the smooth decaying integrand gains more
        than the generic second order when h halves."""
        v = BumpFunction([0.3], 2.0)
        res = {}
        for n in (512, 1024):
            spec = GridSpec(1, 8.0, n)
            rho_s = solve_exact_1d(ConstantField(1.0, 1), OU, spec)
            rho_m = solve_exact_1d(ConstantField(1.0, 1), linear_drift(1, 1.05), spec)
            res[n] = duality_check(drift_pair(0.05), rho_m, rho_s, v).residual
        assert res[512] <= 1e-6
        assert res[1024] <= res[512] / 3.5

    def test_grid_densities_within_discretization_error(self):
        spec = GridSpec(1, 8.0, 256)
        model = {m.name: m for m in builtin_models()}["ou-1d"]
        rho_s = solve_grid(I1, OU, spec)
        rho_m = solve_grid(I1, linear_drift(1, 1.05), spec)
        disc = discretization_error(model, spec)
        rep = duality_check(drift_pair(0.05), rho_m, rho_s, BumpFunction([0.3], 2.0))
        assert rep.residual <= 10.0 * disc

    def test_zero_test_function_is_exact(self, grid_1d, gaussian_rho):
        rho_m = solve_exact_1d(ConstantField(1.0, 1), linear_drift(1, 1.05), grid_1d)
        rep = duality_check(drift_pair(0.05), rho_m, gaussian_rho, BumpFunction([0.3], 2.0).scaled(0.0))
        assert rep.lhs == rep.rhs == 0.0

    def test_support_touching_boundary_rejected(self, grid_1d, gaussian_rho):
        rho_m = solve_exact_1d(ConstantField(1.0, 1), linear_drift(1, 1.05), grid_1d)
        with pytest.raises(SupportError):
            duality_check(drift_pair(0.05), rho_m, gaussian_rho, BumpFunction([7.0], 1.5))


class TestSweep:
    DELTAS = (1e-3, 3e-3, 1e-2, 3e-2, 1e-1)

    @pytest.mark.parametrize("family", [drift_pair, diffusion_pair], ids=["drift", "diffusion"])
    def test_linear_scaling_and_bounded_ratio(self, grid_1d, family):
        sweep = stability_sweep(family, self.DELTAS, grid_1d, 1.0)
        assert sweep.slope == pytest.approx(1.0, abs=0.1)
        assert sweep.c_spread <= 10.0
        assert sweep.fit_sse < 0.01
        assert (sweep.lhs_values > 0).all()

    def test_zero_delta_reported_but_not_fit(self, grid_1d):
        sweep = stability_sweep(drift_pair, (0.0,) + self.DELTAS, grid_1d, 1.0)
        assert sweep.reports[0].lhs == 0.0
        assert math.isnan(sweep.c_hats[0])
        ref = stability_sweep(drift_pair, self.DELTAS, grid_1d, 1.0)
        assert sweep.slope == ref.slope

    def test_sweep_input_validation(self, grid_1d):
        with pytest.raises(ValueError, match="nonnegative"):
            stability_sweep(drift_pair, (-0.1, 0.1), grid_1d, 1.0)
        with pytest.raises(ValueError, match="two nonzero"):
            stability_sweep(drift_pair, (0.0, 0.1), grid_1d, 1.0)

    @pytest.mark.parametrize("fresh_sigma, solves", [(False, 4), (True, 6)],
                             ids=["shared", "own"])
    def test_a_shared_sigma_is_solved_once(self, grid_1d, monkeypatch, fresh_sigma, solves):
        def pair(delta):
            if fresh_sigma:  # equal coefficients, but not the same objects
                return CoefficientPair(I1, linear_drift(1, 1.0 + delta),
                                       DiffusionMatrixField.from_constant(np.eye(1)), linear_drift(1))
            return drift_pair(delta)

        calls = []
        real = stability.stationary_density
        monkeypatch.setattr(stability, "stationary_density",
                            lambda *a, **kw: calls.append(a) or real(*a, **kw))
        deltas = (1e-2, 3e-2, 1e-1)
        sweep = stability_sweep(pair, deltas, grid_1d, 1.0)
        assert len(calls) == solves
        monkeypatch.undo()
        # each report is the one-pair estimate, bit for bit
        assert sweep.reports == tuple(estimate(drift_pair(d), grid_1d, 1.0)
                                      for d in deltas)
