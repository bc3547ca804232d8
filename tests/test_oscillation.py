import math

import numpy as np
import pytest

from fpkit import (ClosureField, ConstantField, EvaluationError, ExpressionField,
                   InsufficientResolutionError, MollifierSpec, OscillationModulus,
                   SamplingSpec, dini_integral, dini_mean_oscillation,
                   make_example_field, mollify)
from fpkit.oscillation import fit_line
from fpkit.quadrature import ball_average_rule


class TestMeanOscillation:
    def test_constants_have_zero_oscillation(self):
        mod = dini_mean_oscillation(ConstantField(5.0, 1), [0.1, 0.2, 0.4])
        assert np.abs(mod.omega).max() < 1e-14

    def test_linear_field_oscillates_at_half_the_radius(self):
        # mean of |y - x| over [x-r, x+r] is r/2
        mod = dini_mean_oscillation(ExpressionField("x1", 1), [0.5], SamplingSpec(seed=1))
        assert mod.omega[0] == pytest.approx(0.25, rel=1e-3)

    @pytest.mark.parametrize("c", [0.5, 3.0])
    def test_modulus_scales_linearly_with_the_field(self, c):
        radii = [0.1, 0.3, 0.5]
        mod = dini_mean_oscillation(ExpressionField(f"{c}*x1", 1), radii, SamplingSpec(seed=1))
        assert np.allclose(mod.omega, c * np.asarray(radii) / 2.0, rtol=1e-3)

    def test_smooth_field_modulus_vanishes_at_small_radii(self):
        mod = dini_mean_oscillation(ExpressionField("sin(x1)", 1),
                                    np.geomspace(1e-4, 0.5, 8), SamplingSpec(seed=2))
        assert mod.omega[0] < 1e-4
        assert mod.omega[0] < mod.omega[-1]

    def test_modulus_records_its_seed(self):
        mod = dini_mean_oscillation(ConstantField(1.0, 1), [0.1], SamplingSpec(seed=42))
        assert mod.sampling.seed == 42

    def test_same_seed_reproduces_the_curve(self):
        f = make_example_field("weierstrass-holder", alpha=0.5)
        radii = np.geomspace(0.01, 0.2, 5)
        a = dini_mean_oscillation(f, radii, SamplingSpec(seed=9))
        b = dini_mean_oscillation(f, radii, SamplingSpec(seed=9))
        assert np.array_equal(a.omega, b.omega)

    def test_non_finite_field_values_name_the_point(self):
        f = ClosureField(lambda p: np.where(np.abs(p[:, 0]) < 0.05, np.nan, 1.0), 1)
        with pytest.raises(EvaluationError, match="non-finite at"):
            dini_mean_oscillation(f, [0.5], SamplingSpec(seed=0))

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_holder_exponent_recovered_from_the_loglog_slope(self, alpha):
        f = make_example_field("weierstrass-holder", alpha=alpha)
        radii = np.geomspace(1e-3, 1e-1, 13)
        mod = dini_mean_oscillation(f, radii, SamplingSpec(seed=0))
        slope = fit_line(np.log(radii), np.log(mod.omega))[0]
        assert alpha - 0.1 <= slope <= alpha + 0.1

    def test_log_modulus_cusp_oscillation_decays_like_log_power(self):
        # at the cusp the ball-averaged oscillation of |ln|x||^(-1/2) behaves
        # like |ln r|^(-3/2): the compensated quotient stays flat over six
        # decades (1.30 spread measured against a 4096-point quadrature)
        f = make_example_field("log-modulus", gamma=0.5)
        qs = []
        for r in np.geomspace(1e-8, 1e-2, 13):
            pts, w = ball_average_rule(np.zeros(1), float(r), 4096, 2)
            vals = f.values(pts)
            osc = w @ np.abs(vals - w @ vals)
            qs.append(osc * abs(math.log(r)) ** 1.5)
        qs = np.array(qs)
        assert qs.max() <= 0.4
        assert qs.max() / qs.min() <= 1.5


class TestDiniIntegral:
    def test_linear_modulus_integrates_to_one(self):
        radii = np.geomspace(1e-4, 1.0, 64)
        est = dini_integral(OscillationModulus.from_curve(radii, radii, t0=1.0))
        assert est.finite
        assert est.value == pytest.approx(1.0, rel=5e-3)

    def test_inverse_log_modulus_is_divergent(self):
        radii = np.geomspace(1e-8, 0.4, 64)
        est = dini_integral(OscillationModulus.from_curve(radii, 1.0 / np.abs(np.log(radii))))
        assert not est.finite
        assert est.value == np.inf
        assert est.tail_model == "log-modulus"
        assert est.tail_exponent == pytest.approx(1.0, abs=0.05)

    def test_log_power_modulus_has_the_closed_form_value(self):
        # integral of |ln t|^(-3/2)/t over (0, 1/2] is 2|ln(1/2)|^(-1/2)
        radii = np.geomspace(1e-8, 0.5, 96)
        om = np.abs(np.log(radii)) ** -1.5
        est = dini_integral(OscillationModulus.from_curve(radii, om, t0=0.5))
        assert est.finite
        assert est.tail_model == "log-modulus"
        assert est.value == pytest.approx(2.0 * math.log(2.0) ** -0.5, rel=0.02)

    def test_zero_modulus_short_circuits(self):
        radii = np.geomspace(1e-3, 0.5, 8)
        est = dini_integral(OscillationModulus.from_curve(radii, np.zeros(8)))
        assert est.finite and est.value == 0.0 and est.tail_model == "zero"

    def test_too_few_small_radii_is_an_error(self):
        mod = OscillationModulus.from_curve([0.1, 0.2, 0.3], [0.1, 0.2, 0.3], t0=0.25)
        with pytest.raises(InsufficientResolutionError):
            dini_integral(mod, t0=0.25)

    def test_power_modulus_verdict_is_finite(self):
        radii = np.geomspace(1e-5, 0.5, 48)
        est = dini_integral(OscillationModulus.from_curve(radii, radii**0.5))
        assert est.finite
        # integral of t^(-1/2) over (0, 1/2] = 2 sqrt(1/2)
        assert est.value == pytest.approx(2.0 * math.sqrt(0.5), rel=5e-3)

    def test_rapid_oscillation_flagged_divergent(self):
        """An entry whose sampled modulus plateaus must fail the Dini test.

        cos(Kx) with K = 1e6 oscillates far below the sampled radii, so the
        measured mean oscillation is flat near 0.19 across the whole range
        and no admissible tail model integrates it.
        """
        wiggle = ClosureField(lambda x: 1.0 + 0.3 * np.cos(1e6 * x[:, 0]), 1, "wiggle")
        mod = dini_mean_oscillation(wiggle, np.geomspace(2e-3, 0.4, 10),
                                    SamplingSpec(box_radius=1.0), t0=0.5)
        est = dini_integral(mod, t0=0.5)
        assert not est.finite
        assert est.value == np.inf


class TestModulusConstruction:
    def test_radii_must_increase(self):
        with pytest.raises(ValueError):
            OscillationModulus.from_curve([0.2, 0.1], [1.0, 1.0])

    def test_omega_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            OscillationModulus.from_curve([0.1, 0.2], [-0.5, 1.0])


class TestMollificationPreservesModuli:
    """Mollifying never enlarges the sampled modulus beyond sampling error."""

    @pytest.mark.parametrize("name,params", [
        ("weierstrass-holder", {"alpha": 0.5}),
        ("log-modulus", {"gamma": 0.5}),
    ])
    def test_modulus_preserved_at_shared_radii(self, name, params):
        base = make_example_field(name, **params)
        kernel = MollifierSpec.standard_bump(1)
        radii = np.geomspace(2e-3, 0.4, 10)
        sampling = SamplingSpec(seed=7)
        ref = dini_mean_oscillation(base, radii, sampling)
        for eps in (0.1, 0.01):
            mod = dini_mean_oscillation(mollify(base, kernel, eps), radii, sampling)
            assert (mod.omega <= ref.omega + 2.0 * ref.stderr + 1e-12).all()

    @pytest.mark.parametrize("name,params", [
        ("weierstrass-holder", {"alpha": 0.5}),
        ("log-modulus", {"gamma": 0.5}),
    ])
    def test_sup_gap_decreases_along_the_scale_sequence(self, name, params):
        base = make_example_field(name, **params)
        kernel = MollifierSpec.standard_bump(1)
        x = np.linspace(-1.5, 1.5, 801)[:, None]
        vals = base.values(x)
        gaps = [np.abs(mollify(base, kernel, eps).values(x) - vals).max()
                for eps in (0.1, 0.01)]
        assert gaps[1] < gaps[0]
