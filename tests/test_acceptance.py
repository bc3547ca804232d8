"""Acceptance gate: ten primary criteria, one verdict line each.

Each test measures its quantities first, prints a single ``criterion NN
[PASS|FAIL]`` line with the key numbers, then asserts. Run with

    pytest -s tests/test_acceptance.py

to see the verdict lines as they happen; every criterion finishes in well
under a minute on a laptop.
"""

import json

import numpy as np
import pytest

from fpkit.cli import main
from fpkit.fields import (
    ConstantField,
    DiffusionMatrixField,
    MollifierSpec,
    linear_drift,
    make_example_field,
    mollify,
)
from fpkit.fpk import (
    builtin_models,
    discretization_error,
    normalized_against_generator,
    solve_exact_1d,
    solve_grid,
    weak_residual,
    weighted_lp_norm,
)
from fpkit.grids import GridSpec
from fpkit.meanfield import (
    MeanFieldModel,
    contraction_estimate,
    gaussian_probe,
    linear_response,
    picard_iterate,
)
from fpkit.config import kernel_from_name
from fpkit.oscillation import SamplingSpec, dini_mean_oscillation
from fpkit.poisson import (
    PoissonProblem,
    builtin_poisson_cases,
    solve_poisson_1d,
    solve_poisson_grid,
    verify_growth_bounds,
)
from fpkit.stability import (
    CoefficientPair,
    duality_check,
    stability_sweep,
    weighted_l1_distance,
)
from fpkit.testfunctions import BumpFunction, random_bumps
from fpkit.fields import ClosureField

MODELS = {m.name: m for m in builtin_models()}
I1 = DiffusionMatrixField.from_constant(np.eye(1))
OU = linear_drift(1)


def _verdict(num: int, ok: bool, label: str) -> None:
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {num} failed: {label}"


def _source(fn, dim, name):
    return ClosureField(fn, dim, name)


def _ou_pair(delta: float) -> CoefficientPair:
    return CoefficientPair(I1, linear_drift(1, 1.0 + delta), I1, OU)


def _diffusion_pair(delta: float) -> CoefficientPair:
    a_mu = DiffusionMatrixField.from_constant((1.0 + delta) * np.eye(1),
                                              lam=1.0 / (1.0 + delta))
    return CoefficientPair(a_mu, OU, I1, OU)


class _BumpTimesSquare(BumpFunction):
    """bump(x) * x^2 in one dimension, derivatives by the product rule."""

    def value(self, x):
        return super().value(x) * x[:, 0] ** 2

    def grad(self, x):
        b = super().value(x)
        g = super().grad(x)
        return g * (x[:, 0] ** 2)[:, None] + np.stack([2.0 * x[:, 0] * b], axis=1)

    def hess(self, x):
        b = super().value(x)
        g = super().grad(x)
        h = super().hess(x)
        out = h * (x[:, 0] ** 2)[:, None, None]
        out[:, 0, 0] += 4.0 * x[:, 0] * g[:, 0] + 2.0 * b
        return out


def test_criterion_01_solver_oracle_equivalence():
    gaps = {}
    for n in (2048, 4096):
        spec = GridSpec(1, 8.0, n)
        gaps[n] = weighted_l1_distance(solve_grid(I1, OU, spec),
                                       solve_exact_1d(I1, OU, spec), 1.0)
    ratio = gaps[2048] / gaps[4096]
    ok = gaps[2048] <= 1e-3 and 3.0 <= ratio <= 5.0
    _verdict(1, ok, f"grid vs exact OU density: weighted L1 gap {gaps[2048]:.2e} "
                    f"(tol 1e-3), refinement ratio {ratio:.2f} in [3, 5]")


def test_criterion_02_probability_solution_contract():
    worst = 0.0
    for name in sorted(MODELS):
        m = MODELS[name]
        spec = GridSpec(m.dim, 8.0, 256 if m.dim == 1 else 128)
        sol = solve_grid(m.A, m.b, spec)
        disc = discretization_error(m, spec)
        rng = np.random.default_rng(3)
        phis = [normalized_against_generator(p, m.A, m.b, spec)
                for p in random_bumps(rng, 20, m.dim, 6.0)]
        res = weak_residual(sol, m.A, m.b, phis)
        worst = max(worst, float(res.max() / disc))
    ok = worst <= 10.0
    _verdict(2, ok, f"weak residual of 20 random bumps <= 10x discretization "
                    f"error on all {len(MODELS)} built-ins (worst ratio {worst:.2f})")


def test_criterion_03_poisson_analytic_cases():
    spec = GridSpec(1, 8.0, 512)
    rho = solve_exact_1d(ConstantField(1.0, 1), OU, spec)
    x = spec.axis_centers()
    core = np.abs(x) <= 4.0
    errs_quad, errs_grid = [], []
    for fn, k, exact_fn in (
        (lambda z: z[:, 0], 1.0, lambda t: -t),
        (lambda z: z[:, 0] ** 2 - 1.0, 2.0, lambda t: -0.5 * t ** 2),
    ):
        prob = PoissonProblem(I1, OU, _source(fn, 1, "psi"), k, rho)
        for solver, box in ((solve_poisson_1d, errs_quad), (solve_poisson_grid, errs_grid)):
            sol = solver(prob)
            exact = exact_fn(x)
            exact = exact - exact[spec.center_radii() <= sol.pin_radius].mean()
            box.append(float(np.abs(np.ravel(sol.u) - exact)[core].max()))
    ok = max(errs_quad) <= 1e-6 and max(errs_grid) <= spec.h ** 2
    _verdict(3, ok, f"psi=x and psi=x^2-1 recovered: quadrature err "
                    f"{max(errs_quad):.1e} <= 1e-6, grid err {max(errs_grid):.1e} "
                    f"<= h^2 = {spec.h ** 2:.1e}")


def test_criterion_04_growth_bound_quotients():
    worst = 0.0
    all_finite = True
    cases = builtin_poisson_cases()
    for case in cases:
        n_base = 512 if case.model.dim == 1 else 128
        for k in (1.0, 2.0):
            rep = verify_growth_bounds(case.model.A, case.model.b, case.psi, k,
                                       n_base=n_base)
            all_finite = all_finite and rep.all_finite
            worst = max(worst, rep.max_drift)
    ok = all_finite and worst < 0.05
    _verdict(4, ok, f"G0/G1/H quotients finite for {len(cases)} cases x k in "
                    f"{{1, 2}}; worst drift {worst:.4%} < 5% when R doubles")


def test_criterion_05_mollification_preserves_moduli():
    kernel = MollifierSpec.standard_bump(1)
    radii = np.geomspace(2e-3, 0.4, 10)
    sampling = SamplingSpec(seed=7)
    x = np.linspace(-1.5, 1.5, 801)[:, None]
    preserved = True
    monotone = True
    for name, params in (("weierstrass-holder", {"alpha": 0.5}),
                         ("log-modulus", {"gamma": 0.5})):
        base = make_example_field(name, **params)
        ref = dini_mean_oscillation(base, radii, sampling)
        vals = base.values(x)
        gaps = []
        for eps in (0.1, 0.01):
            smooth = mollify(base, kernel, eps)
            mod = dini_mean_oscillation(smooth, radii, sampling)
            preserved = preserved and bool(
                (mod.omega <= ref.omega + 2.0 * ref.stderr + 1e-12).all())
            gaps.append(float(np.abs(smooth.values(x) - vals).max()))
        monotone = monotone and gaps[1] < gaps[0]
    ok = preserved and monotone
    _verdict(5, ok, "mollified moduli within 2 stderr of the originals at all "
                    "shared radii; sup gaps shrink from eps 0.1 to 0.01")


def test_criterion_06_weighted_norm_refinement_2d():
    m = MODELS["ou-2d"]
    norms = {}
    for n in (256, 512):
        rho = solve_grid(m.A, m.b, GridSpec(2, 8.0, n))
        norms[n] = weighted_lp_norm(rho, 1.0, 2.0)
    rel = abs(norms[512] - norms[256]) / norms[512]
    ok = rel < 0.02
    _verdict(6, ok, f"2d weighted L2 norm moves {rel:.4%} < 2% when n doubles "
                    f"256 -> 512")


def test_criterion_07_perturbation_scaling():
    deltas = (1e-3, 3e-3, 1e-2, 3e-2, 1e-1)
    spec = GridSpec(1, 8.0, 1024)
    labels = []
    ok = True
    for family, make in (("drift", _ou_pair), ("diffusion", _diffusion_pair)):
        sweep = stability_sweep(make, deltas, spec, 1.0, r=2.0)
        ok = ok and abs(sweep.slope - 1.0) <= 0.1 and sweep.c_spread <= 10.0
        labels.append(f"{family} slope {sweep.slope:.3f}, spread {sweep.c_spread:.2f}")
    _verdict(7, ok, "estimate scales linearly with both families: "
                    + "; ".join(labels))


def test_criterion_08_duality_identity():
    v = _BumpTimesSquare([0.3], 2.0)
    pair = _ou_pair(0.05)
    res, disc = {}, {}
    for n in (512, 1024):
        spec = GridSpec(1, 8.0, n)
        rho_s = solve_grid(I1, OU, spec)
        rho_m = solve_grid(I1, linear_drift(1, 1.05), spec)
        res[n] = duality_check(pair, rho_m, rho_s, v).residual
        disc[n] = discretization_error(MODELS["ou-1d"], spec)
    order = float(np.log2(res[512] / res[1024]))
    ok = res[512] <= 10.0 * disc[512] and res[1024] <= 10.0 * disc[1024] and order >= 1.8
    _verdict(8, ok, f"duality residual {res[512]:.1e} <= 10x disc error "
                    f"{disc[512]:.1e}; refinement order {order:.2f} >= 1.8")


def test_criterion_09_mean_field_fixed_point():
    spec = GridSpec(1, 8.0, 512)
    model = MeanFieldModel(I1, OU, eps=0.05, **kernel_from_name("tanh", 1))
    traces = [picard_iterate(model, gaussian_probe(spec, [mean], 1.0))
              for mean in (0.5, -0.5)]
    gap = weighted_l1_distance(traces[0].fixed_point, traces[1].fixed_point, 1.0)
    factors = [f for tr in traces for f in tr.factors]
    _, _, slope, r2 = linear_response(model, spec, [0.01, 0.05, 0.1, 0.15, 0.2])
    zero_factor = contraction_estimate(model.with_eps(0.0), spec).factor
    ok = (all(tr.converged for tr in traces) and gap <= 1e-6
          and all(f < 1.0 for f in factors) and r2 > 0.9 and zero_factor == 0.0)
    _verdict(9, ok, f"both starts reach one fixed point (gap {gap:.1e}); factors "
                    f"< 1, linear in eps (R^2 {r2:.6f}), exactly 0 at eps 0")


def test_criterion_10_determinism(tmp_path):
    configs = {
        "solve": {"model": "ou-1d", "n": 256},
        "sweep": {"task": "stability", "axis": [0.01, 0.03, 0.1],
                  "base": {"family": "drift-linear", "n": 256}},
    }
    compared = 0
    identical = True
    for command, cfg in configs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        runs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}-{tag}"
            assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
            runs.append(out)
        for rel in sorted(p.relative_to(runs[0]) for p in runs[0].rglob("*.csv")):
            identical = identical and (
                (runs[0] / rel).read_bytes() == (runs[1] / rel).read_bytes())
            compared += 1
    ok = identical and compared >= 3
    _verdict(10, ok, f"identical config and seed reproduce {compared} CSV "
                     f"artifacts byte for byte")
