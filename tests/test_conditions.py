"""Clause-by-clause audit of the standing coefficient assumptions."""

import numpy as np
import pytest

from fpkit.conditions import check_condition_h
from fpkit.fields import (
    ClosureField,
    DiffusionMatrixField,
    DriftField,
    GrowthParams,
    linear_drift,
    polynomial_drift,
)

CLAUSES = ("ellipticity", "dini", "confinement", "growth")


def repelling_drift(beta1: float, beta3: float = 1.0) -> DriftField:
    # b(x) = +x with hand-declared constants; confinement must catch it
    return DriftField(
        [ClosureField(lambda x: x[:, 0], 1, "x1")],
        GrowthParams(beta=1.0, beta1=beta1, beta2=1.0, beta3=beta3),
        "repelling",
    )


class TestClauseVerdicts:
    def test_linear_confining_drift_passes(self, ou_1d):
        A, b = ou_1d
        report = check_condition_h(A, b)
        assert report.passed
        assert tuple(c.clause for c in report.clauses) == CLAUSES
        assert all(c.passed for c in report.clauses)
        assert report.lam == 1.0
        assert report.beta == 1.0
        assert report.beta2 == 1.0

    def test_cubic_confining_drift_passes(self, ou_1d):
        A, _ = ou_1d
        report = check_condition_h(A, polynomial_drift(1, beta=3.0))
        assert report.passed
        assert report.beta == 3.0

    def test_2d_identity_passes(self, ou_2d):
        A, b = ou_2d
        report = check_condition_h(A, b, n_samples=17)
        assert report.passed
        # d = 2 keeps one modulus per upper-triangle entry
        assert len(report.entry_moduli) == 3

    def test_repelling_drift_fails_confinement(self, ou_1d):
        A, _ = ou_1d
        report = check_condition_h(A, repelling_drift(beta1=1.0), box_radius=1.0)
        assert not report.passed
        verdict = report.clause("confinement")
        assert not verdict.passed
        assert verdict.witness is not None
        # the sampled box [-1, 1] pins the worst violation to the endpoints
        assert abs(float(np.linalg.norm(verdict.witness))) == pytest.approx(1.0)
        x = np.asarray(verdict.witness, dtype=float)
        assert float(x @ x) > 1.0 - 1.0 * float(x @ x)
        assert report.clause("ellipticity").passed
        assert report.clause("dini").passed

    def test_report_collects_every_failure(self, ou_1d):
        A, _ = ou_1d
        report = check_condition_h(A, repelling_drift(beta1=1.0, beta3=0.01), box_radius=1.0)
        assert not report.passed
        assert not report.clause("confinement").passed
        assert not report.clause("growth").passed
        assert report.clause("ellipticity").passed
        assert report.clause("growth").witness is not None

    def test_unknown_clause_name_raises(self, ou_1d):
        A, b = ou_1d
        report = check_condition_h(A, b)
        with pytest.raises(KeyError):
            report.clause("positivity")

    def test_dimension_mismatch_rejected(self, ou_1d, ou_2d):
        A, _ = ou_1d
        _, b2 = ou_2d
        with pytest.raises(ValueError, match="dimensions differ"):
            check_condition_h(A, b2)


class TestEllipticityClause:
    def test_declared_window_too_tight_fails(self):
        A = DiffusionMatrixField.from_constant(np.array([[3.0]]), lam=0.5)
        verdict = check_condition_h(A, linear_drift(1, 1.0)).clause("ellipticity")
        assert not verdict.passed
        assert verdict.witness is not None

    def test_heterogeneous_entry_inside_window_passes(self):
        a = ClosureField(lambda x: 1.0 + 0.4 * np.tanh(x[:, 0]), 1, "a")
        A = DiffusionMatrixField({(0, 0): a}, dim=1, lam=0.5)
        report = check_condition_h(A, linear_drift(1, 1.0))
        assert report.clause("ellipticity").passed
        assert report.passed


class TestDiniClause:
    def test_rapid_oscillation_flagged_divergent(self, ou_1d):
        """An entry whose sampled modulus plateaus must fail the Dini test.

        cos(Kx) with K = 1e6 oscillates far below the sampled radii, so the
        measured mean oscillation is flat near 0.19 across the whole range
        and no admissible tail model integrates it.
        """
        _, b = ou_1d
        wiggle = ClosureField(
            lambda x: 1.0 + 0.3 * np.cos(1e6 * x[:, 0]), 1, "wiggle"
        )
        A = DiffusionMatrixField({(0, 0): wiggle}, dim=1, lam=0.5)
        report = check_condition_h(A, b)
        assert not report.clause("dini").passed
        # the dini clause names the entry, not a point
        assert report.clause("dini").witness is None
        assert len(report.entry_moduli) == 1
        assert not report.entry_moduli[0].dini.finite
        # the failure is about oscillation, not the eigenvalue window
        assert report.clause("ellipticity").passed

    def test_constant_matrix_moduli_are_finite(self, ou_1d):
        A, b = ou_1d
        report = check_condition_h(A, b)
        assert all(m.dini.finite for m in report.entry_moduli)
        assert report.entry_moduli[0].dini.value == 0.0


class TestBoxMonotonicity:
    # margin beta1 - beta2 |x|^2 - <b, x> only shrinks as the box grows, so a
    # verdict can flip pass -> fail under enlargement but never fail -> pass
    def test_enlarging_box_never_rescues_a_failure(self, ou_1d):
        A, _ = ou_1d
        b = repelling_drift(beta1=10.0)
        small = check_condition_h(A, b, box_radius=2.0)
        assert small.clause("confinement").passed
        margins = []
        for radius in (4.0, 8.0, 16.0):
            report = check_condition_h(A, b, box_radius=radius)
            assert not report.clause("confinement").passed
            margins.append(report.clause("confinement").margin)
        assert margins[0] > margins[1] > margins[2]


class TestSharpestConstants:
    def test_ou_largest_beta2_and_tightest_beta3(self, ou_1d):
        A, b = ou_1d
        report = check_condition_h(A, b, box_radius=4.0)
        # <b, x> = -|x|^2, so (beta1 - <b, x>)/|x|^2 = 1 + 1/|x|^2 bottoms
        # out at the box edge; |b|/(1+|x|) = |x|/(1+|x|) peaks there
        assert report.largest_beta2 == pytest.approx(1.0 + 1.0 / 16.0, rel=1e-12)
        assert report.tightest_beta3 == pytest.approx(0.8, rel=1e-12)
        assert report.largest_beta2 >= report.beta2
        assert report.tightest_beta3 <= report.beta3

    @pytest.mark.parametrize("radius", [2.0, 4.0, 8.0])
    def test_declared_constants_stay_admissible(self, ou_1d, radius):
        A, b = ou_1d
        report = check_condition_h(A, b, box_radius=radius)
        assert report.largest_beta2 >= report.beta2
        assert report.tightest_beta3 <= report.beta3
        assert report.box_radius == radius
