"""Self-consistency map for distribution-dependent coefficients."""

import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from fpkit import fpk, meanfield
from fpkit.config import kernel_from_name
from fpkit.errors import (
    ConvergenceError,
    DegenerateDensityError,
    EllipticityMarginError,
    EvaluationError,
    NonContractionError,
)
from fpkit.fields import ClosureField, ConstantField, DiffusionMatrixField, linear_drift
from fpkit.fpk import REFINE_MAX_STEPS, REFINE_RESIDUAL, NearbyFactor, PinnedFactor
from fpkit.grids import GridDensity, GridSpec
from fpkit.meanfield import (
    InteractionKernel,
    MeanFieldModel,
    apply_phi,
    contraction_estimate,
    gaussian_probe,
    linear_response,
    nonlocal_coefficients,
    picard_iterate,
    threshold_search,
)
from fpkit.stability import weighted_l1_distance

I1 = DiffusionMatrixField.from_constant(np.eye(1))
OU = linear_drift(1)


def tanh_model(eps: float) -> MeanFieldModel:
    return MeanFieldModel(I1, OU, eps=eps, **kernel_from_name("tanh", 1))


def relative_model_2d(eps: float) -> MeanFieldModel:
    return MeanFieldModel(DiffusionMatrixField.from_constant(np.eye(2)), linear_drift(2),
                          eps=eps, **kernel_from_name("tanh-relative", 2))


def amplifying_model(eps: float) -> MeanFieldModel:
    # offset 1.8 * mean(rho): the iteration mean grows by 1.8 eps per step,
    # so the map stops contracting right at eps = 1/1.8
    ker = InteractionKernel(
        "drift", lambda y: 1.8 * y, 1, sup_bound=1.8, growth_order=1.0,
        depends_on_x=False, name="amplify",
    )
    return MeanFieldModel(I1, OU, eps=eps, drift_kernel=ker)


@pytest.fixture(scope="module")
def centered_probe(grid_1d):
    return gaussian_probe(grid_1d, [0.0], 1.0)


class TestKernels:
    def test_tanh_offset_vanishes_at_symmetric_density(self, centered_probe):
        ker = kernel_from_name("tanh", 1)["drift_kernel"]
        off = ker.convolve(centered_probe)
        assert np.abs(off).max() < 1e-15

    def test_gaussian_diffusion_offset_moment(self, centered_probe):
        # E exp(-Y^2) = 1/sqrt(3) for standard Gaussian Y
        ker = kernel_from_name("gaussian-diffusion", 1)["diffusion_kernel"]
        off = ker.convolve(centered_probe)
        assert off.shape == (1, 1)
        assert off[0, 0] == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-6)

    def test_sampled_values_stay_inside_declared_envelope(self, grid_1d, centered_probe):
        ker = kernel_from_name("tanh", 1)["drift_kernel"]
        y = grid_1d.cell_centers()
        vals = np.asarray(ker.fn(y))
        env = ker.sup_bound * (1.0 + np.abs(y[:, 0])) ** ker.growth_order
        assert (np.abs(vals[:, 0]) <= env + 1e-12).all()

    def test_asymmetric_diffusion_offset_rejected(self):
        def bad(y):
            m = np.zeros((len(y), 2, 2))
            m[:, 0, 1] = 1.0
            return m

        ker = InteractionKernel("diffusion", bad, 2, sup_bound=1.0, depends_on_x=False)
        probe = gaussian_probe(GridSpec(2, 8.0, 16), [0.0, 0.0], 1.0)
        with pytest.raises(ValueError, match="non-symmetric"):
            ker.convolve(probe)

    @pytest.mark.parametrize("path", ["lattice", "direct"])
    def test_asymmetric_x_dependent_diffusion_offset_rejected(self, path):
        def upper(z):  # q[..., 0, 1] = 0.1, q[..., 1, 0] = 0
            m = np.zeros(z.shape[:-1] + (2, 2))
            m[..., 0, 0] = m[..., 1, 1] = 1.0
            m[..., 0, 1] = 0.1
            return m

        ker = InteractionKernel("diffusion", None, 2, sup_bound=1.0, profile=upper)
        model = MeanFieldModel(DiffusionMatrixField.from_constant(np.eye(2)), linear_drift(2),
                               eps=0.1, diffusion_kernel=ker if path == "lattice"
                               else direct_twin(ker))
        with pytest.raises(ValueError, match="non-symmetric"):
            apply_phi(model, gaussian_probe(GridSpec(2, 8.0, 16), [0.0, 0.0], 1.0))

    def test_wrong_value_shape_rejected(self, centered_probe):
        ker = InteractionKernel("drift", lambda y: y[:, 0], 1, sup_bound=1.0,
                                depends_on_x=False)
        with pytest.raises(ValueError, match="returned shape"):
            ker.convolve(centered_probe)

    def test_kernel_declares_exactly_one_of_fn_and_profile(self):
        rel = kernel_from_name("tanh-relative", 1)["drift_kernel"]
        with pytest.raises(ValueError, match="exactly one"):
            InteractionKernel("drift", rel.fn, 1, sup_bound=1.0, profile=np.tanh)
        with pytest.raises(ValueError, match="exactly one"):
            InteractionKernel("drift", None, 1, sup_bound=1.0)
        with pytest.raises(ValueError, match="depends on x"):
            InteractionKernel("drift", None, 1, sup_bound=1.0, profile=np.tanh,
                              depends_on_x=False)

    def test_declaration_validation(self):
        with pytest.raises(ValueError, match="kind"):
            InteractionKernel("source", np.tanh, 1, sup_bound=1.0)
        with pytest.raises(ValueError, match="bound must be positive"):
            InteractionKernel("drift", np.tanh, 1, sup_bound=0.0)
        with pytest.raises(ValueError, match="growth order 0"):
            InteractionKernel("diffusion", np.tanh, 1, sup_bound=1.0, growth_order=1.0)


def direct_twin(ker: InteractionKernel) -> InteractionKernel:
    """The same kernel declared by fn, so every offset takes direct quadrature."""
    return InteractionKernel(ker.kind, ker.fn, ker.dim, sup_bound=ker.sup_bound,
                             name=f"{ker.name}-direct")


def counting_tanh(seen: list):
    """np.tanh as a profile that records the shape of every offset array it gets."""
    def profile(z):
        seen.append(z.shape)
        return np.tanh(z)
    return profile


def cross_diffusion(dim: int) -> DiffusionMatrixField:
    """An x-dependent base diffusion, with a cross term in d = 2."""
    a00 = ClosureField(lambda x: 1.2 + 0.1 * np.sin(x[:, 0]), dim, "a00")
    if dim == 1:
        return DiffusionMatrixField({(0, 0): a00}, 1, lam=0.5)
    a01 = ClosureField(lambda x: 0.1 * np.cos(x[:, 1]), dim, "a01")
    return DiffusionMatrixField({(0, 0): a00, (0, 1): a01, (1, 1): ConstantField(1.0, 2)},
                                2, lam=0.5)


def gaussian_bump(z):
    # a matrix-valued profile, to exercise the (d, d) value axes of the FFT
    d = z.shape[-1]
    return np.exp(-np.sum(z * z, axis=-1))[..., None, None] * np.eye(d)


class TestLatticeOffset:
    """Profile kernels on the cell centers: FFT correlation against quadrature."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_fft_matches_direct_quadrature(self, dim):
        spec = GridSpec(dim, 8.0, 32)
        ker = kernel_from_name("tanh-relative", dim)["drift_kernel"]
        rho = gaussian_probe(spec, np.full(dim, 0.5), 1.0)
        cells = spec.cell_centers()
        fft = ker.convolve(rho)(cells)
        direct = direct_twin(ker).convolve(rho)(cells)
        assert fft.shape == (spec.n_cells, dim)
        assert np.abs(fft - direct).max() <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(dim=st.sampled_from((1, 2)), n=st.sampled_from((16, 32)),
           kind=st.sampled_from(("drift", "diffusion")), seed=st.integers(0, 2 ** 32 - 1))
    def test_fft_matches_direct_quadrature_on_random_densities(self, dim, n, kind, seed):
        spec = GridSpec(dim, 4.0, n)
        profile = np.tanh if kind == "drift" else gaussian_bump
        ker = InteractionKernel(kind, None, dim, sup_bound=1.0, profile=profile)
        rng = np.random.default_rng(seed)
        rho = GridDensity.from_samples(spec, rng.random(spec.shape) ** 4)
        cells = spec.cell_centers()
        fft = ker.convolve(rho)(cells)
        direct = direct_twin(ker).convolve(rho)(cells)
        assert np.abs(fft - direct).max() <= 1e-12

    def test_points_off_the_lattice_take_direct_quadrature(self):
        spec = GridSpec(2, 8.0, 16)
        seen = []
        ker = InteractionKernel("drift", None, 2, sup_bound=1.0, profile=counting_tanh(seen))
        rho = gaussian_probe(spec, [0.5, 0.0], 1.0)
        off = ker.convolve(rho)
        cells = spec.cell_centers()
        twin = direct_twin(kernel_from_name("tanh-relative", 2)["drift_kernel"]).convolve(rho)
        for pts in (cells[:5], cells + 0.5 * spec.h):
            assert np.array_equal(off(pts), twin(pts))
        off(cells)
        assert seen == [(5, spec.n_cells, 2), (spec.n_cells, spec.n_cells, 2),
                        ((2 * spec.n - 1) ** 2, 2)]

    def test_profile_shape_is_checked_on_the_lattice(self):
        spec = GridSpec(1, 8.0, 16)
        ker = InteractionKernel("drift", None, 1, sup_bound=1.0,
                                profile=lambda z: np.tanh(z[..., 0]), name="flat")
        off = ker.convolve(gaussian_probe(spec, [0.0], 1.0))
        with pytest.raises(ValueError, match="profile returned shape"):
            off(spec.cell_centers())


    def test_profile_is_sampled_once_per_grid(self):
        # the spectrum of the sampled profile is kept on the kernel, per grid:
        # a whole Picard run samples it once, its with_eps copies share it, and
        # another grid samples it again
        seen = []
        ker = InteractionKernel("drift", None, 2, sup_bound=1.0, profile=counting_tanh(seen))
        model = MeanFieldModel(DiffusionMatrixField.from_constant(np.eye(2)), linear_drift(2),
                               eps=0.05, drift_kernel=ker)
        lattice = [(31 ** 2, 2)]
        spec = GridSpec(2, 8.0, 16)
        trace = picard_iterate(model, gaussian_probe(spec, [0.5, 0.5], 1.0))
        assert trace.n_steps > 1
        assert seen == lattice
        for eps in (0.1, 0.2):
            apply_phi(model.with_eps(eps), gaussian_probe(spec, [-0.5, 0.0], 1.0))
        assert seen == lattice
        apply_phi(model, gaussian_probe(GridSpec(2, 8.0, 32), [0.5, 0.5], 1.0))
        assert seen == lattice + [(63 ** 2, 2)]

    @pytest.mark.parametrize("dim,kind", [(1, "drift"), (2, "drift"), (2, "diffusion")])
    def test_kept_spectrum_gives_a_fresh_kernels_offset(self, dim, kind):
        spec = GridSpec(dim, 8.0, 32)
        profile = np.tanh if kind == "drift" else gaussian_bump
        ker = InteractionKernel(kind, None, dim, sup_bound=1.0, profile=profile)
        cells = spec.cell_centers()
        ker.convolve(gaussian_probe(spec, np.full(dim, 0.5), 1.0))(cells)  # keeps the spectrum
        for mean in (0.25, -1.0):
            rho = gaussian_probe(spec, np.full(dim, mean), 1.3)
            fresh = InteractionKernel(kind, None, dim, sup_bound=1.0, profile=profile)
            assert np.array_equal(ker.convolve(rho)(cells), fresh.convolve(rho)(cells))


    def test_threads_sharing_a_kernel_get_the_serial_offsets(self):
        # concurrent first offsets on one grid may both build its spectrum;
        # either stored copy gives the offsets of a kernel used serially
        rhos = [gaussian_probe(GridSpec(2, 8.0, n), [0.5, -0.5], 1.0) for n in (16, 32)]
        serial = [InteractionKernel("drift", None, 2, sup_bound=1.0, profile=np.tanh)
                  .convolve(rho)(rho.spec.cell_centers()) for rho in rhos]
        shared = InteractionKernel("drift", None, 2, sup_bound=1.0, profile=np.tanh)
        mismatches = []

        def work(first):
            try:
                for j in range(10):
                    i = (first + j) % 2
                    off = shared.convolve(rhos[i])(rhos[i].spec.cell_centers())
                    if not np.array_equal(off, serial[i]):
                        mismatches.append((first, j))
            except Exception as exc:  # an error in a thread is otherwise lost
                mismatches.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []
        assert set(shared._spectra) == {rho.spec for rho in rhos}


class TestModelAssembly:
    def test_decoupled_model_returns_base_pair(self, centered_probe):
        model = tanh_model(0.0)
        a_eff, b_eff = nonlocal_coefficients(model, centered_probe)
        assert a_eff is model.a0
        assert b_eff is model.b0

    def test_constant_offset_shifts_the_gaussian(self, grid_1d, centered_probe):
        ker = InteractionKernel(
            "drift", lambda y: np.full((len(y), 1), 0.8), 1, sup_bound=0.8,
            depends_on_x=False, name="const",
        )
        model = MeanFieldModel(I1, OU, eps=0.5, drift_kernel=ker)
        image = apply_phi(model, centered_probe)
        x = grid_1d.axis_centers()
        oracle = np.exp(-0.5 * (x - 0.4) ** 2)
        oracle /= oracle.sum() * grid_1d.h
        assert image.mass == pytest.approx(1.0, abs=1e-12)
        assert np.abs(image.flat() - oracle).max() < 1e-12

    def test_coupling_eating_the_margin_rejected(self, centered_probe):
        model = MeanFieldModel(I1, OU, eps=0.6, **kernel_from_name("gaussian-diffusion", 1))
        with pytest.raises(EllipticityMarginError, match="lambda/2"):
            nonlocal_coefficients(model, centered_probe)

    def test_coupling_below_the_margin_solves(self, centered_probe):
        model = MeanFieldModel(I1, OU, eps=0.4, **kernel_from_name("gaussian-diffusion", 1))
        image = apply_phi(model, centered_probe)
        assert image.mass == pytest.approx(1.0, abs=1e-12)

    def test_drift_envelope_weakened_consistently(self, centered_probe):
        model = tanh_model(0.2)
        _, b_eff = nonlocal_coefficients(model, centered_probe)
        g0, g = model.b0.growth, b_eff.growth
        assert g.beta2 == g0.beta2 / 2.0
        assert g.beta1 >= g0.beta1
        assert g.beta3 >= g0.beta3

    def test_drift_components_share_one_kernel_pass(self):
        # one values call makes one kernel pass for both components of a d = 2 offset
        spec = GridSpec(2, 8.0, 16)
        rel = kernel_from_name("tanh-relative", 2)["drift_kernel"]
        calls = []

        def counted(x, y):
            calls.append(len(x))
            return rel.fn(x, y)

        b0 = linear_drift(2)
        model = MeanFieldModel(DiffusionMatrixField.from_constant(np.eye(2)), b0, eps=0.5,
                               drift_kernel=InteractionKernel("drift", counted, 2, sup_bound=1.0))
        rho = gaussian_probe(spec, [0.5, 0.0], 1.0)
        _, b = nonlocal_coefficients(model, rho)
        cells = spec.cell_centers()
        vals = b.values(cells)
        assert calls == [spec.n_cells]
        expected = b0.values(cells) + 0.5 * rel.convolve(rho)(cells)
        assert np.abs(vals - expected).max() <= 1e-15
        b.values(cells[:3])
        assert calls == [spec.n_cells, 3]

    def test_profile_components_share_one_lattice_pass(self):
        spec = GridSpec(2, 8.0, 16)
        samples = []
        ker = InteractionKernel("drift", None, 2, sup_bound=1.0, profile=counting_tanh(samples))
        model = MeanFieldModel(DiffusionMatrixField.from_constant(np.eye(2)), linear_drift(2),
                               eps=0.5, drift_kernel=ker)
        _, b = nonlocal_coefficients(model, gaussian_probe(spec, [0.5, 0.0], 1.0))
        b.values(spec.cell_centers())
        assert samples == [((2 * spec.n - 1) ** 2, 2)]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_non_finite_offset_raises_evaluation_error(self, dim):
        nan_near = lambda x, y: np.where(np.abs(y[None] - x[:, None]) < 0.1, np.nan, 0.0)  # noqa: E731
        ker = InteractionKernel("drift", nan_near, dim, sup_bound=1.0)
        model = MeanFieldModel(DiffusionMatrixField.from_constant(np.eye(dim)), linear_drift(dim),
                               eps=0.1, drift_kernel=ker)
        with pytest.raises(EvaluationError, match="non-finite offset"):
            apply_phi(model, gaussian_probe(GridSpec(dim, 8.0, 16), np.zeros(dim), 1.0))

    @settings(max_examples=25, deadline=None)
    @given(dim=st.sampled_from((1, 2)), kind=st.sampled_from(("drift", "diffusion")),
           depends_on_x=st.booleans(), shift=st.sampled_from((0.0, 0.3)),
           eps=st.floats(0.01, 0.2), seed=st.integers(0, 2 ** 32 - 1))
    def test_frozen_values_are_base_plus_offset(self, dim, kind, depends_on_x, shift, eps, seed):
        # shift 0 asks for the cell centers (the lattice path of a profile kernel)
        spec = GridSpec(dim, 4.0, 16)
        rng = np.random.default_rng(seed)
        rho = GridDensity.from_samples(spec, rng.random(spec.shape) ** 4)
        x = spec.cell_centers() + shift * spec.h
        a0 = cross_diffusion(dim)
        b0 = linear_drift(dim, mu=np.full(dim, 0.25))
        cross = np.full((dim, dim), 0.2) + 0.8 * np.eye(dim)
        cross[-1, 0] *= 1.0 + 1e-12  # symmetric to 1e-10 but not bitwise: the mirror decides
        profile = np.tanh if kind == "drift" else (
            lambda z: np.exp(-np.sum(z * z, axis=-1))[..., None, None] * cross)
        if depends_on_x:
            ker = InteractionKernel(kind, None, dim, sup_bound=1.0, profile=profile)
        else:
            ker = InteractionKernel(kind, profile, dim, sup_bound=1.0, depends_on_x=False)
        model = MeanFieldModel(a0, b0, eps=eps, **{f"{kind}_kernel": ker})
        a, b = nonlocal_coefficients(model, rho)
        frozen, base = (b, b0) if kind == "drift" else (a, a0)
        off = ker.convolve(rho)
        expected = base.values(x) + eps * (off(x) if depends_on_x else off)
        if kind == "diffusion":
            i, j = np.triu_indices(dim, 1)
            expected[:, j, i] = expected[:, i, j]
        vals = frozen.values(x)
        assert np.array_equal(vals, expected)
        if kind == "drift":
            assert all(np.array_equal(c.values(x), vals[:, i]) for i, c in enumerate(b.components))
        else:
            assert np.array_equal(vals, np.swapaxes(vals, 1, 2))
            assert all(np.array_equal(a.entry(i, j).values(x), vals[:, i, j])
                       for i in range(dim) for j in range(dim))

    def test_model_validation(self):
        with pytest.raises(ValueError, match="coupling strength"):
            tanh_model(1.5)
        with pytest.raises(ValueError, match="weight order"):
            MeanFieldModel(I1, OU, eps=0.1, weight_order=0.5)
        diff_ker = kernel_from_name("gaussian-diffusion", 1)["diffusion_kernel"]
        with pytest.raises(ValueError, match="kind 'drift'"):
            MeanFieldModel(I1, OU, eps=0.1, drift_kernel=diff_ker)


class TestPicardIteration:
    def test_symmetric_start_is_the_fixed_point(self, centered_probe):
        # the tanh offset vanishes at N(0, 1), so Phi reproduces the start
        trace = picard_iterate(tanh_model(0.05), centered_probe)
        assert trace.converged
        assert trace.n_steps == 1
        assert trace.gaps[0] <= 1e-12

    def test_weighted_moment_along_iteration(self, centered_probe):
        # M_hat = integral (1+|x|)^2 rho = 2 + 2 sqrt(2/pi) at the Gaussian
        trace = picard_iterate(tanh_model(0.05), centered_probe)
        assert trace.m_hat == pytest.approx(2.0 + 2.0 * math.sqrt(2.0 / math.pi), rel=1e-3)
        scale = trace.eps * trace.kernel_bound * (math.sqrt(trace.m_hat) + trace.m_hat)
        assert trace.threshold_scale == pytest.approx(scale, rel=1e-12)

    def test_distinct_starts_share_the_fixed_point(self, grid_1d):
        model = tanh_model(0.05)
        traces = [
            picard_iterate(model, gaussian_probe(grid_1d, [m], 1.0))
            for m in (0.5, -0.5)
        ]
        for tr in traces:
            assert tr.converged
            assert tr.n_steps <= 8
            assert all(f < 1.0 for f in tr.factors)
            assert all(g >= 0.0 for g in tr.gaps)
            assert all(b <= a for a, b in zip(tr.gaps, tr.gaps[1:]))
        gap = weighted_l1_distance(traces[0].fixed_point, traces[1].fixed_point, 1.0)
        assert gap <= 1e-6

    def test_five_starts_cluster_within_tolerance(self, grid_1d):
        model = tanh_model(0.05)
        tol = 1e-8
        points = [
            picard_iterate(model, gaussian_probe(grid_1d, [m], 1.0), tol=tol).fixed_point
            for m in (-1.0, -0.5, 0.0, 0.5, 1.0)
        ]
        diameter = max(
            weighted_l1_distance(p, q, 1.0)
            for i, p in enumerate(points)
            for q in points[i + 1:]
        )
        assert diameter <= 10.0 * tol

    def test_clipped_mass_is_the_largest_over_the_iterates(self, monkeypatch, skewed_2d):
        # on the non-dominant skewed diffusion at d = 2, R = 8, n = 16 every
        # iterate clips; with the relative kernel they clip different masses
        clipped = []
        solve = meanfield.stationary_density

        def recorded(*args):
            rho = solve(*args)
            clipped.append(rho.info["clipped_mass"])
            return rho

        monkeypatch.setattr(meanfield, "stationary_density", recorded)
        spec = GridSpec(2, 8.0, 16)
        model = MeanFieldModel(skewed_2d, linear_drift(2), eps=0.05,
                               **kernel_from_name("tanh-relative", 2))
        # the first iterate clips 6.670e-2, the fixed point 6.660e-2
        trace = picard_iterate(model, gaussian_probe(spec, [0.5, 0.0], 0.5))
        assert len(clipped) == trace.n_steps
        assert trace.clipped_mass == max(clipped) > trace.fixed_point.info["clipped_mass"]

    def test_closed_form_iterates_clip_nothing(self, centered_probe):
        assert picard_iterate(tanh_model(0.05), centered_probe).clipped_mass == 0.0

    def test_expanding_map_raises_noncontraction(self, grid_1d):
        with pytest.raises(NonContractionError) as exc:
            picard_iterate(amplifying_model(1.0), gaussian_probe(grid_1d, [0.3], 1.0),
                           max_iter=3)
        gaps = exc.value.gaps
        assert len(gaps) == 3
        assert gaps[-1] > gaps[0]

    def test_exhausted_budget_while_contracting_raises_convergence(self, grid_1d):
        with pytest.raises(ConvergenceError) as exc:
            picard_iterate(tanh_model(0.05), gaussian_probe(grid_1d, [0.5], 1.0),
                           tol=1e-15, max_iter=2)
        assert len(exc.value.history) == 2


class TestContraction:
    def test_decoupled_factor_is_exactly_zero(self, grid_1d):
        assert contraction_estimate(tanh_model(0.0), grid_1d).factor == 0.0

    def test_factor_linear_in_coupling(self, grid_1d):
        eps_grid = (0.01, 0.05, 0.1, 0.15, 0.2)
        _, factors, slope, r2 = linear_response(tanh_model(0.05), grid_1d, eps_grid)
        assert (factors < 1.0).all()
        assert r2 > 0.9
        assert 0.3 < slope < 1.0

    def test_coincident_probes_rejected(self, grid_1d, centered_probe):
        with pytest.raises(DegenerateDensityError, match="coincide"):
            contraction_estimate(tanh_model(0.05), grid_1d,
                                 probes=(centered_probe, centered_probe))

    def test_threshold_saturates_for_the_contracting_kernel(self, grid_1d):
        # factor ~ 0.6 eps stays below 1 on all of [0, 1]
        assert threshold_search(tanh_model(0.05), grid_1d)[0] == 1.0

    def test_threshold_locates_the_expansion_onset(self, grid_1d):
        thr = threshold_search(amplifying_model(0.1), grid_1d, tol=0.02)[0]
        assert thr == pytest.approx(1.0 / 1.8, abs=0.05)


class TestGaussianProbe:
    def test_probe_validation(self, grid_1d):
        with pytest.raises(ValueError, match="shape"):
            gaussian_probe(grid_1d, [0.0, 0.0], 1.0)
        with pytest.raises(ValueError, match="positive"):
            gaussian_probe(grid_1d, [0.0], 0.0)

    def test_probe_is_normalized(self, grid_1d):
        probe = gaussian_probe(grid_1d, [0.25], 0.8)
        assert probe.mass == pytest.approx(1.0, abs=1e-12)


class TestFactorReuse:
    """2d Picard steps refine against the last factor of the run."""

    def test_factor_budget_of_the_meanfield_2d_model(self, monkeypatch):
        # the model of the meanfield-2d benchmark (b = -x, R = 8, n = 32, eps =
        # 0.05): 700 of 1,024 cells are transient, so the run factors the
        # 324 cells of the closed class once and no transient block, and
        # compresses the whole table once, for the search of the class
        sizes, lines = [], []
        splu, compressed = spla.splu, fpk._compressed

        def counted(P, *args, **kwargs):
            sizes.append(P.shape[0])
            return splu(P, *args, **kwargs)

        def counted_lines(T, offsets, order=None):
            lines.append(T.shape[1] if order is None else len(order))
            return compressed(T, offsets, order)

        monkeypatch.setattr(spla, "splu", counted)
        monkeypatch.setattr(fpk, "_compressed", counted_lines)
        model = MeanFieldModel(DiffusionMatrixField.from_constant(np.eye(2), 1.0),
                               linear_drift(2, 1.0), eps=0.05, weight_order=1.0,
                               **kernel_from_name("tanh-relative", 2))
        trace = picard_iterate(model, gaussian_probe(GridSpec(2, 8.0, 32), [0.5, 0.5], 1.0))
        transient = trace.fixed_point.info["transient_cells"]
        assert transient == 700
        assert trace.factorizations == 1 and trace.n_steps > 1
        assert sizes == [32 ** 2 - transient]
        assert lines.count(32 ** 2) == 1

    @settings(max_examples=20, deadline=None)
    @given(n=st.sampled_from((16, 32)), eps=st.floats(0.0, 0.2),
           mean=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
    def test_refined_step_matches_the_direct_solve(self, n, eps, mean):
        model = relative_model_2d(eps)
        nearby = NearbyFactor()
        rho = apply_phi(model, gaussian_probe(GridSpec(2, 8.0, n), mean, 1.0), nearby)
        held = nearby.factor
        refined = apply_phi(model, rho, nearby)
        direct = apply_phi(model, rho)
        l1 = float(np.abs(refined.flat() - direct.flat()).sum()) * rho.spec.cell_volume
        assert l1 <= 1e-12
        if nearby.factor is held:  # refinement converged
            assert refined.info["residual"] <= REFINE_RESIDUAL
        else:  # a fresh factor: the direct solve itself
            assert np.array_equal(refined.values, direct.values)

    @pytest.mark.parametrize("eps", [0.05, 0.2])
    def test_refined_steps_match_the_direct_solves_at_n_128(self, eps):
        # the stop on the size of the correction bounds the forward error: the
        # residual stop alone left refined densities up to 7e-13 in L1 from
        # the direct ones at n = 128
        model = relative_model_2d(eps)
        rho = gaussian_probe(GridSpec(2, 8.0, 128), [0.5, 0.5], 1.0)
        nearby = NearbyFactor()
        for step in range(7):
            held = nearby.factor
            refined = apply_phi(model, rho, nearby)
            direct = apply_phi(model, rho)
            l1 = float(np.abs(refined.flat() - direct.flat()).sum()) * rho.spec.cell_volume
            assert l1 <= 1e-13
            assert (nearby.factor is held) == (step > 0)  # one factor for the whole run
            rho = refined

    def test_two_dimensional_run_factors_less_than_once_per_step(self):
        trace = picard_iterate(relative_model_2d(0.05),
                               gaussian_probe(GridSpec(2, 8.0, 32), [0.5, 0.5], 1.0))
        assert 1 <= trace.factorizations < trace.n_steps
        assert len(trace.refinement_steps) == trace.n_steps
        assert trace.refinement_steps[0] == 0  # nothing held yet
        assert all(s > 0 for s in trace.refinement_steps[1:])

    def test_one_dimensional_run_neither_factors_nor_refines(self, grid_1d):
        trace = picard_iterate(tanh_model(0.05), gaussian_probe(grid_1d, [0.5], 1.0))
        assert trace.factorizations == 0
        assert trace.refinement_steps == (0,) * trace.n_steps
        assert trace.factored == (False,) * trace.n_steps

    def test_each_step_says_whether_it_factored(self):
        # regression: step 1 records REFINE_MAX_STEPS refinement steps at both
        # couplings; at eps 0.15 it converged at the last of them, at eps 0.2
        # it gave up and factored
        start = gaussian_probe(GridSpec(2, 8.0, 32), [1.0, 1.0], 1.0)
        late = picard_iterate(relative_model_2d(0.15), start)
        gave_up = picard_iterate(relative_model_2d(0.2), start)
        assert late.refinement_steps[:3] == (0, REFINE_MAX_STEPS, 9)
        assert late.factored[:3] == (True, False, False)
        assert late.factorizations == 1
        assert gave_up.refinement_steps[:3] == (0, REFINE_MAX_STEPS, 6)
        assert gave_up.factored[:3] == (True, True, False)
        assert gave_up.factorizations == 2
        for trace in (late, gave_up):
            assert len(trace.factored) == trace.n_steps

    @pytest.mark.parametrize("mean", [0.5, -0.25])
    def test_fixed_point_matches_the_iteration_of_direct_solves(self, mean):
        model = relative_model_2d(0.05)
        start = gaussian_probe(GridSpec(2, 8.0, 32), [mean, mean], 1.0)
        trace = picard_iterate(model, start, tol=1e-8)
        rho, steps = start, 0
        while True:
            nxt, steps = apply_phi(model, rho), steps + 1
            gap, rho = weighted_l1_distance(nxt, rho, 1.0), nxt
            if gap <= 1e-8:
                break
        assert trace.n_steps == steps
        assert weighted_l1_distance(trace.fixed_point, rho, 1.0) <= 1e-12

    def test_no_factor_outlives_the_iteration(self, monkeypatch):
        made = []
        pinned_factor = fpk._pinned_factor

        def recorded(*args):
            factor = pinned_factor(*args)
            made.append(weakref.ref(factor))
            return factor

        monkeypatch.setattr(fpk, "_pinned_factor", recorded)
        trace = picard_iterate(relative_model_2d(0.05),
                               gaussian_probe(GridSpec(2, 8.0, 16), [0.5, 0.5], 1.0))
        gc.collect()
        assert len(made) == trace.factorizations >= 1
        assert all(ref() is None for ref in made)
        assert not any(isinstance(v, PinnedFactor) for v in trace.fixed_point.info.values())

    def test_no_slot_outlives_the_iteration(self, monkeypatch):
        # the slot holds the factor and the run's diffusion samples; both go with the run
        slots = []

        class Recorded(NearbyFactor):
            def __init__(self):
                super().__init__()
                slots.append(weakref.ref(self))

        monkeypatch.setattr(meanfield, "NearbyFactor", Recorded)
        picard_iterate(relative_model_2d(0.05),
                       gaussian_probe(GridSpec(2, 8.0, 16), [0.5, 0.5], 1.0))
        gc.collect()
        assert len(slots) == 1
        assert slots[0]() is None

    @pytest.mark.parametrize("kernel", ["tanh", "tanh-relative"])
    def test_drift_only_run_samples_its_diffusion_once(self, kernel):
        # the frozen diffusion of a drift-only kernel is the model's own a0 at
        # every step, so the run samples and checks it once
        calls = []
        a0 = DiffusionMatrixField.from_constant(np.eye(2))
        values = a0.values
        a0.values = lambda x: calls.append(len(x)) or values(x)
        model = MeanFieldModel(a0, linear_drift(2), eps=0.05, **kernel_from_name(kernel, 2))
        trace = picard_iterate(model, gaussian_probe(GridSpec(2, 8.0, 32), [0.5, 0.5], 1.0))
        assert trace.n_steps > 1
        assert calls == [32 * 32]

    def test_diffusion_kernel_run_samples_every_frozen_diffusion(self):
        # a diffusion kernel freezes a new a0 + eps * offset at every step;
        # each one is sampled (through a0) and checked by its own step
        calls = []
        a0 = DiffusionMatrixField.from_constant(np.eye(2))
        values = a0.values
        a0.values = lambda x: calls.append(len(x)) or values(x)
        model = MeanFieldModel(a0, linear_drift(2), eps=0.05,
                               **kernel_from_name("gaussian-diffusion", 2))
        trace = picard_iterate(model, gaussian_probe(GridSpec(2, 8.0, 32), [0.5, 0.5], 1.0))
        assert trace.n_steps > 1
        assert calls == [32 * 32] * trace.n_steps
