"""Command-line driver: validated experiments with reproducible artifacts.

Every subcommand reads a JSON config, validates it strictly, runs the
numerics, and writes into the output directory:

* one or more CSV files with fixed float formatting (%.12g), so a rerun with
  the same config, seed, and package version produces byte-identical CSVs.
  write_csv takes the table as columns: a float array column is formatted
  in one pass, any other column value by value (_fmt);
* SVG figures rendered by the built-in writer (no plotting dependency, every
  coordinate %.2f, a heatmap at most svg.MAX_BLOCKS = 64 blocks per side);
* run_report.json with the config digest, package version, outcome
  ("pass", "fail" when a check fails, "error" with the error's class and
  message when the numerics raise), wall time, the artifact manifest and a
  list of warnings (possibly empty). A run warns ("clipped_mass") of each
  density that clipped more negative mass than CLIP_MASS_LIMIT: each grid of
  solve and poisson, each meanfield "start"'s iterates (the largest clip of
  the start), the probe images behind meanfield's "max_factor" (per "eps")
  and "eps_threshold" (the bisection's worst "eps"), each stability
  "delta"'s pair, in the run's own report (a sweep point's, in a sweep, and
  again in the sweep's report). Each names the "non_dominant_cells" of the
  density that clipped most. The solvers only record clipped mass; under
  --strict the first warning ends the run as a SchemePositivityError (exit
  3). A summary figure that is not finite, such as a norm past the float
  range, is written as null with a "non_finite" warning naming its key, so
  the report is strict JSON; it is a note on the report, written as the
  report is, and --strict does not escalate it. The 2d solve and
  poisson summaries carry the solver telemetry of the main grid: residual,
  clipped mass, pinned cell, the order of the factor of the pinned cell's
  closed class ("mmd" or "nested-dissection"), the L + U nonzeros of every
  factor the solve made (for poisson, with the transient block's), the
  count of transient cells (outside the closed class, where the density is
  exactly 0), the largest cell Peclet number and the count of non-dominant
  cells (the only cells where L_h can put a negative weight off the
  diagonal), and for poisson the Lyapunov witness (m0, r0) (the 1d closed
  form has a null residual). The 2d solve summary counts the cells of
  B(0, 1) that hold no mass ("empty_cells_r1"); its "harnack_ratio_r1" is
  taken over the others, and is null with a "non_finite" warning when no
  cell of the ball holds mass (the run then fails positive_on_unit_ball).
  The meanfield summary's telemetry lists, per start, the
  SuperLU factorizations of its Picard steps, and for each step its
  refinement steps, whether it factored and its weighted gap to the step
  before (meanfield.FixedPointTrace), the contraction that trace.csv plots.
  Its "eps_threshold_cap" is the coupling the threshold search starts from:
  1, or just below lambda / (2 sup|q|) for a diffusion kernel q. A meanfield
  "eps" or "eps_grid" entry at or above that bound is a config error.
  Timings vary, so the report is the one artifact excluded from the
  byte-identical guarantee.
  A numerical failure (exit 3) still writes the report. A config error
  (exit 2) writes nothing, not even the output directory: every one is
  found by config.validate_command_config before the run starts, and the
  runners take the objects it built and only run.

Without "lam" a coefficients block's diffusion a gets lambda =
min(1, min a, 1 / max a) over the cells of each solved grid. A diffusion
not positive on the grid is an EllipticityError (exit 3) naming a point.

Exit codes: 0 on success, 2 for validation failures (bad config, unknown
keys, bad CLI usage), 3 for numerical failures (solver or check errors).

The sweep subcommand fans a delta/eps axis out over a thread pool
(--workers, default 4) with one subdirectory per point and a merged summary
sorted by axis value. Each point is validated as its own run before any
point runs (config.validate_command_config), so a bad point exits 2 naming
axis.<i> or base.<key>. Each point writes the report that its run would
write on its own (run_and_report). The sweep's own report lists every point's
warnings, each tagged with its "axis_value"; a strict sweep whose point
failed exits 3 with the first such point's error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .config import load_config_file, validate_command_config
from .errors import FpkError, SchemePositivityError, ValidationError
from .fpk import harnack_ratio, moment, stationary_density, weighted_lp_norm
from .grids import GridSpec
from .meanfield import contraction_estimate, gaussian_probe, picard_iterate, threshold_search
from .oscillation import SamplingSpec, dini_integral, dini_mean_oscillation
from .poisson import growth_bound_report, stationary_poisson
from .stability import clip_of, stability_sweep, weighted_l1_distance
from . import svg

_EXIT_VALIDATION = 2
_EXIT_NUMERICAL = 3
CLIP_MASS_LIMIT = 1e-6  # clipped negative mass above which a run warns (or, strict, fails)


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    return str(v)


def _column(col) -> list[str]:
    """The cells of one CSV column: a float array in one pass, anything else value by value."""
    if isinstance(col, np.ndarray) and col.dtype.kind == "f":
        # float.__format__, as in _fmt
        return list(map("{:.12g}".format, col.tolist()))
    return [_fmt(v) for v in col]


def write_csv(path: str, header: list[str], columns) -> str:
    """Write one CSV line per row of `columns`, one sequence per header name; return path."""
    cells = [_column(col) for col in columns]
    if len(cells) != len(header):
        raise ValueError(f"{len(cells)} columns for a header of {len(header)}")
    if len({len(col) for col in cells}) > 1:
        raise ValueError("CSV columns differ in length")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n")
    return path


def config_digest(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _finite_figures(value, key: str, warnings: list):
    """value with each float in it that is not finite replaced by None, and a
    {"kind": "non_finite", "key": ...} warning for each, its key the dotted path."""
    if isinstance(value, dict):
        return {k: _finite_figures(v, f"{key}.{k}" if key else str(k), warnings)
                for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_figures(v, f"{key}.{i}", warnings) for i, v in enumerate(value)]
    if isinstance(value, float) and not np.isfinite(value):
        warnings.append({"kind": "non_finite", "key": key})
        return None
    return value


class RunContext:
    """Output directory plus the bookkeeping for run_report.json, under the run's --strict flag."""

    def __init__(self, out_dir: str, command: str, cfg: dict, seed: int, strict: bool):
        self.out_dir = out_dir
        self.command = command
        self.cfg = cfg
        self.seed = seed
        self.strict = strict
        self.t0 = time.monotonic()
        self.artifacts: list[str] = []
        self.summary: dict = {}
        self.warnings: list[dict] = []
        self.error: FpkError | None = None  # set when the run ends in a numerical failure
        os.makedirs(out_dir, exist_ok=True)

    def path(self, name: str) -> str:
        p = os.path.join(self.out_dir, name)
        self.artifacts.append(name)
        return p

    def finish(self, checks: dict) -> dict:
        """Write run_report.json. outcome is "pass", "fail" (a check failed) or "error".

        A summary figure that is not finite is written as null, with a
        "non_finite" warning naming its key, so the report is strict JSON.
        """
        summary = _finite_figures(self.summary, "", self.warnings)
        passed = self.error is None and all(checks.values())
        report = {
            "command": self.command,
            "version": __version__,
            "config_digest": config_digest(self.cfg),
            "seed": self.seed,
            "checks": {k: bool(v) for k, v in checks.items()},
            "passed": bool(passed),
            "outcome": "error" if self.error is not None else ("pass" if passed else "fail"),
            "wall_time_s": round(time.monotonic() - self.t0, 6),
            "artifacts": sorted(self.artifacts),
            "summary": summary,
            "warnings": self.warnings,
        }
        if self.error is not None:
            report["error"] = {"class": type(self.error).__name__, "message": str(self.error)}
        with open(os.path.join(self.out_dir, "run_report.json"), "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return report

    def note_clipping(self, clipped: float, non_dominant: int, spec: GridSpec,
                      **where) -> None:
        """Warn of a density on spec (at `where` in the run) clipped past CLIP_MASS_LIMIT,
        naming its non-dominant cells (the only ones whose negative weights can make it clip).

        Under --strict, then raise the warning as a SchemePositivityError.
        """
        if clipped <= CLIP_MASS_LIMIT:
            return
        place = {"radius": spec.radius, "n": spec.n, **where, "non_dominant_cells": non_dominant}
        self.warnings.append({"kind": "clipped_mass", "value": clipped,
                              "limit": CLIP_MASS_LIMIT, **place})
        if self.strict:
            at = ", ".join(f"{k} {v}" for k, v in place.items())
            raise SchemePositivityError(
                f"clipped negative mass {clipped:.6g} exceeds {CLIP_MASS_LIMIT:g} ({at})")


TELEMETRY_KEYS = ("residual", "clipped_mass", "pinned_cell", "ordering", "factor_nnz",
                  "transient_cells", "max_cell_peclet", "non_dominant_cells",
                  "exponential_fitting")


# ---------------------------------------------------------------------------
# subcommand runners; each takes a validated config and what config.validate_command_config
# built from it, runs, and returns the named invariant checks it evaluated
# ---------------------------------------------------------------------------


def run_dini(ctx: RunContext, cfg: dict, built: dict) -> dict:
    field = built["field"]
    rc = cfg["radii"]
    radii = np.geomspace(rc["min"], rc["max"], rc["count"])
    sampling = SamplingSpec(box_radius=cfg["box_radius"], n_centers=cfg["n_centers"],
                            seed=cfg["seed"])
    mod = dini_mean_oscillation(field, radii, sampling, t0=cfg["t0"])
    est = dini_integral(mod, t0=cfg["t0"])
    write_csv(ctx.path("omega.csv"), ["r", "omega", "stderr"],
              [mod.radii, mod.omega, mod.stderr])
    verdict = {
        "field": field.name,
        "finite": est.finite,
        "value": est.value if np.isfinite(est.value) else None,
        "tail_model": est.tail_model,
        "tail_exponent": est.tail_exponent,
        "sampled_part": est.sampled_part,
        "tail_part": est.tail_part if np.isfinite(est.tail_part) else None,
    }
    with open(ctx.path("dini_verdict.json"), "w") as fh:
        json.dump(verdict, fh, indent=2, sort_keys=True)
        fh.write("\n")
    pos = mod.omega > 0
    if pos.sum() >= 2:
        svg.line_plot(ctx.path("omega.svg"),
                      [("omega(r)", mod.radii[pos], mod.omega[pos])],
                      title=f"mean oscillation of {field.name}",
                      xlabel="r", ylabel="omega", logx=True, logy=True)
    ctx.summary.update(verdict)
    return {"omega_nonnegative": bool((mod.omega >= 0).all())}


def run_solve(ctx: RunContext, cfg: dict, built: dict) -> dict:
    A, b, name, spec = built["A"], built["b"], built["name"], built["spec"]
    rho = stationary_density(A, b, spec)
    ctx.note_clipping(*clip_of(rho), spec)
    if spec.dim == 2:
        ctx.summary["telemetry"] = {key: rho.info[key] for key in TELEMETRY_KEYS}
    k = cfg["weight_order"]
    moments = {order: moment(rho, order) for order in (0.0, 1.0, 2.0, 4.0)}
    mass = moments[0.0]
    ctx.summary.update({
        "model": name, "method": rho.info["method"], "n": spec.n, "radius": spec.radius,
        "mass": mass,
        "boundary_mass": rho.boundary_mass,
        "residual": rho.info.get("residual"),  # the 1d closed form measures none
        "weighted_l2_norm": weighted_lp_norm(rho, k, 2.0),
        "harnack_ratio_r1": harnack_ratio(rho, 1.0),
        "moments": {f"k={order:g}": v for order, v in moments.items()},
    })
    unit_ball = rho.flat()[spec.center_radii() <= 1.0]
    if spec.dim == 2:  # the cells the Harnack ratio skips
        ctx.summary["empty_cells_r1"] = int(np.count_nonzero(unit_ball <= 0.0))
    checks = {
        "mass_ok": abs(mass - 1.0) <= 1e-8,
        "boundary_mass_ok": rho.boundary_mass < 1e-4,
        "positive_on_unit_ball": float(unit_ball.min()) > 0.0,
    }
    pts = spec.cell_centers()
    if spec.dim == 1:
        write_csv(ctx.path("density.csv"), ["x1", "rho"], [pts[:, 0], rho.flat()])
        svg.line_plot(ctx.path("density.svg"), [("rho", pts[:, 0], rho.flat())],
                      title=f"stationary density ({name})", xlabel="x1", ylabel="rho")
    else:
        write_csv(ctx.path("density.csv"), ["x1", "x2", "rho"],
                  [pts[:, 0], pts[:, 1], rho.flat()])
        svg.heatmap(ctx.path("density.svg"), rho.values, spec.radius,
                    title=f"stationary density ({name})")
    write_csv(ctx.path("moments.csv"), ["order", "value"], [list(moments), list(moments.values())])
    return checks


def run_poisson(ctx: RunContext, cfg: dict, built: dict) -> dict:
    A, b, name, psi, spec = built["A"], built["b"], built["name"], built["psi"], built["spec"]
    # verify_growth_bounds with each distinct grid solved once: with the default
    # check_radii, the first check grid is the main grid (validate_command_config)
    rho, sol = stationary_poisson(A, b, psi, cfg["k"], spec, p=cfg["p"])
    ctx.note_clipping(*clip_of(rho), spec)
    if spec.dim == 2:  # the factor of u's transposed solve counts too
        ctx.summary["telemetry"] = {key: rho.info[key] for key in TELEMETRY_KEYS}
        ctx.summary["telemetry"]["factor_nnz"] = sol.info["factor_nnz"]
    pts = spec.cell_centers()
    res_cells = np.asarray(sol.info["residual_cells"]).ravel()
    if spec.dim == 1:
        write_csv(ctx.path("solution.csv"), ["x1", "u", "du", "residual"],
                  [pts[:, 0], sol.u.ravel(), sol.du[:, 0], res_cells])
        svg.line_plot(ctx.path("solution.svg"),
                      [("u", pts[:, 0], sol.u.ravel()), ("du", pts[:, 0], sol.du[:, 0])],
                      title=f"Poisson solution ({name})", xlabel="x1", ylabel="value")
    else:
        du = sol.du.reshape(-1, 2)
        write_csv(ctx.path("solution.csv"), ["x1", "x2", "u", "du1", "du2", "residual"],
                  [pts[:, 0], pts[:, 1], sol.u.ravel(), du[:, 0], du[:, 1], res_cells])
        svg.heatmap(ctx.path("solution.svg"), sol.u, spec.radius,
                    title=f"Poisson solution ({name})")
    solved = {spec: sol}
    for grid in built["grids"]:
        if grid not in solved:
            grid_rho, solved[grid] = stationary_poisson(A, b, psi, cfg["k"], grid, p=cfg["p"])
            ctx.note_clipping(*clip_of(grid_rho), grid)
    rep = growth_bound_report([solved[grid] for grid in built["grids"]])
    write_csv(ctx.path("bounds.csv"),
              ["radius", "g0_over_psi", "g1_over_psi", "h_over_psi"],
              [rep.radii, *zip(*rep.quotients)])
    wit = sol.info["lyapunov"]
    if spec.dim == 2:
        ctx.summary["telemetry"]["lyapunov"] = {"m0": wit.m0, "r0": wit.r0}
    ctx.summary.update({
        "model": name, "k": cfg["k"], "residual_interior": sol.residual_interior,
        "psi_sup": sol.psi_sup, "g0": sol.g0, "g1": sol.g1, "h_norm": sol.h_norm,
        "g0_quotient": sol.g0_quotient, "g1_quotient": sol.g1_quotient,
        "h_quotient": sol.h_quotient, "m0": wit.m0, "r0": wit.r0,
        "bound_drift": rep.max_drift, "bounds_finite": rep.all_finite,
    })
    return {
        "bounds_finite": rep.all_finite,
        "centering_ok": sol.info["centering_defect"] <= 1e-8,
        "residual_finite": bool(np.isfinite(sol.residual)),
    }


def run_stability(ctx: RunContext, cfg: dict, built: dict) -> dict:
    spec = built["spec"]
    res = stability_sweep(built["make"], cfg["deltas"], spec, k=cfg["k"], r=cfg["r"])
    rows = [(d, rep.lhs, rep.rhs_diffusion, rep.rhs_drift, rep.c_hat)
            for d, rep in zip(res.deltas, res.reports)]
    for d, rep in zip(res.deltas, res.reports):
        ctx.note_clipping(rep.clipped_mass, rep.non_dominant_cells, spec, delta=float(d))
    write_csv(ctx.path("sweep.csv"),
              ["delta", "lhs", "rhs_diffusion", "rhs_drift", "c_hat"], zip(*rows))
    pos = (res.deltas > 0) & np.isfinite(res.lhs_values) & (res.lhs_values > 0)
    if pos.sum() >= 2:  # a log-log plot of the deltas whose response it can draw
        svg.line_plot(ctx.path("sweep.svg"),
                      [("lhs", res.deltas[pos], res.lhs_values[pos])],
                      title=f"perturbation response ({cfg['family']})",
                      xlabel="delta", ylabel="weighted L1 distance", logx=True, logy=True)
    cs = res.c_hats[np.isfinite(res.c_hats)]
    ctx.summary.update({"family": cfg["family"], "slope": res.slope,
                        "fit_sse": res.fit_sse, "c_spread": res.c_spread,
                        "c_hat_max": float(cs.max()) if len(cs) else None,
                        "c_hat_min": float(cs.min()) if len(cs) else None,
                        "k": cfg["k"], "r": cfg["r"]})
    return {"slope_near_one": bool(abs(res.slope - 1.0) <= 0.2),
            "c_hat_spread_ok": bool(res.c_spread <= 10.0)}


def run_meanfield(ctx: RunContext, cfg: dict, built: dict) -> dict:
    model, spec = built["model"], built["spec"]
    traces = []
    for mean in cfg["starts"]:
        start = gaussian_probe(spec, np.full(spec.dim, float(mean)), 1.0)
        traces.append(picard_iterate(model, start, tol=cfg["tol"], max_iter=cfg["max_iter"]))
        ctx.note_clipping(traces[-1].clipped_mass, traces[-1].non_dominant_cells, spec,
                          start=float(mean))
    rows = [(si, t + 1, g, tr.factors[t - 1] if 0 < t <= len(tr.factors) else float("nan"))
            for si, tr in enumerate(traces) for t, g in enumerate(tr.gaps)]
    write_csv(ctx.path("trace.csv"),
              ["start", "iteration", "gap", "contraction_factor"], zip(*rows))
    series = [(f"start {cfg['starts'][i]:g}", np.arange(1, len(tr.gaps) + 1),
               np.maximum(tr.gaps, 1e-300)) for i, tr in enumerate(traces) if tr.gaps]
    if series and all(len(s[1]) >= 2 for s in series):
        svg.line_plot(ctx.path("gaps.svg"), series, title="fixed-point iteration gaps",
                      xlabel="iteration", ylabel="weighted gap", logy=True)
    spread = 0.0
    for i in range(len(traces)):
        for j in range(i + 1, len(traces)):
            spread = max(spread, weighted_l1_distance(traces[i].fixed_point,
                                                      traces[j].fixed_point,
                                                      cfg["weight_order"]))
    factors = [f for tr in traces for f in tr.factors]
    summary = {
        "eps": cfg["eps"], "kernel": cfg["kernel"],
        "converged": all(tr.converged for tr in traces),
        "iterations": [tr.n_steps for tr in traces],
        "fixed_point_spread": spread,
        "threshold_scale": traces[0].threshold_scale if traces else None,
        "m_hat": traces[0].m_hat if traces else None,
        "telemetry": [{"start": float(mean), "factorizations": tr.factorizations,
                       "refinement_steps": list(tr.refinement_steps),
                       "factored": list(tr.factored), "gaps": list(tr.gaps)}
                      for mean, tr in zip(cfg["starts"], traces)],
    }
    if cfg["threshold"]:
        summary["eps_threshold"], tried = threshold_search(model, spec)
        summary["eps_threshold_cap"] = tried[0].eps
        worst = max(tried, key=lambda est: est.clipped_mass)
        ctx.note_clipping(worst.clipped_mass, worst.non_dominant_cells, spec, eps=worst.eps,
                          probes="eps_threshold")
    if cfg["eps_grid"]:
        ests = [contraction_estimate(model.with_eps(e), spec) for e in cfg["eps_grid"]]
        facs = [est.factor for est in ests]
        write_csv(ctx.path("response.csv"), ["eps", "factor"], [cfg["eps_grid"], facs])
        summary["max_factor"] = max(facs)
        for est in ests:
            ctx.note_clipping(est.clipped_mass, est.non_dominant_cells, spec, eps=est.eps,
                              probes="max_factor")
    ctx.summary.update(summary)
    return {"converged": bool(summary["converged"]),
            "fixed_points_agree": bool(spread <= 1e-5),
            "factors_below_one": bool(all(f < 1.0 for f in factors))}


RUNNERS = {"dini": run_dini, "solve": run_solve, "poisson": run_poisson,
           "stability": run_stability, "meanfield": run_meanfield}


def run_and_report(ctx: RunContext, runner, *args) -> dict:
    """Run runner(ctx, *args) and write ctx's report, which is returned.

    A numerical failure (an FpkError) is kept as ctx.error and reported with
    no checks.
    """
    try:
        checks = runner(ctx, *args)
    except FpkError as exc:
        ctx.error, checks = exc, {}
    return ctx.finish(checks)


def _run_sweep_point(task: str, cfg: dict, built: dict, value: float, out_dir: str,
                     strict: bool) -> dict:
    """Run one point's validated config and its built objects into out_dir, as a run of its own.

    The result carries the point's summary as computed, its warnings and, if
    its numerics failed, the error (which a strict sweep raises once every
    point has run).
    """
    ctx = RunContext(out_dir, task, cfg, cfg["seed"], strict)
    report = run_and_report(ctx, RUNNERS[task], cfg, built)
    return {"value": value, "passed": report["passed"], "error": ctx.error,
            "summary": ctx.summary, "warnings": report["warnings"]}


def run_sweep(ctx: RunContext, cfg: dict, built: dict, workers: int) -> dict:
    task = cfg["task"]
    values = cfg["axis"]
    with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
        jobs = [pool.submit(_run_sweep_point, task, point, made, v,
                            os.path.join(ctx.out_dir, f"point-{i:03d}"), ctx.strict)
                for i, (v, point, made) in enumerate(zip(values, cfg["points"], built["points"]))]
        results = [j.result() for j in jobs]
    for r in results:  # each point's warnings, tagged with its axis value
        ctx.warnings.extend({**w, "axis_value": r["value"]} for w in r["warnings"])
    errors = [r["error"] for r in results if r["error"] is not None]
    if ctx.strict and errors:
        raise errors[0]
    metric = "slope" if task == "stability" else "fixed_point_spread"
    rows = [(r["value"], r["passed"], r["summary"].get(metric, float("nan"))) for r in results]
    write_csv(ctx.path("summary.csv"), ["value", "passed", metric], zip(*rows))
    failures = [r["value"] for r in results if not r["passed"]]
    ctx.summary.update({"task": task, "points": len(values),
                        "all_passed": not failures, "failed_values": failures})
    for i in range(len(values)):
        ctx.artifacts.append(f"point-{i:03d}/run_report.json")
    if ctx.strict:
        return {"all_points_passed": not failures}
    # lenient mode records failures in the summary and still exits 0
    return {"sweep_completed": True}


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="fpkit",
        description="stationary Kolmogorov equation toolkit: solvers, bounds, sweeps")
    parser.add_argument("--version", action="version", version=f"fpkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("dini", "sample a mean-oscillation modulus and test its Dini integral"),
        ("solve", "solve a stationary equation and report density diagnostics"),
        ("poisson", "solve a source problem and verify growth bounds"),
        ("stability", "measure the perturbation estimate along a family"),
        ("meanfield", "iterate the self-consistency map to a fixed point"),
        ("sweep", "fan a stability/meanfield axis over a thread pool"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--strict", action="store_true",
                       help="escalate soft numerical warnings to errors: exit 3 at the "
                            "first warning, or at a failing sweep point")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--workers", type=int, default=4,
                       help="thread count for sweep points (default: 4)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        raw = load_config_file(args.config)
        if args.seed is not None:
            raw["seed"] = args.seed
        cfg, built = validate_command_config(args.command, raw)
        ctx = RunContext(args.out, args.command, cfg, cfg.get("seed", 0), args.strict)
        if args.command == "sweep":
            report = run_and_report(ctx, run_sweep, cfg, built, args.workers)
        else:
            report = run_and_report(ctx, RUNNERS[args.command], cfg, built)
    except ValidationError as exc:
        print(f"config error: {exc}" + (f" [at {exc.path}]" if exc.path else ""),
              file=sys.stderr)
        return _EXIT_VALIDATION
    except ValueError as exc:
        print(f"invalid parameter: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION
    if ctx.error is not None:
        print(f"numerical failure: {type(ctx.error).__name__}: {ctx.error}", file=sys.stderr)
        return _EXIT_NUMERICAL
    status = "pass" if report["passed"] else "fail"
    print(f"{args.command}: {status} ({report['wall_time_s']:.2f}s) -> {args.out}")
    return 0 if report["passed"] else _EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
