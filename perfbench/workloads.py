"""The four benchmark workloads.

Each workload builds its inputs in `setup` (timed as part of setup_s, which
is why fpkit is imported there and not at module import), lists the ops of
one cycle in `ops`, runs one op in `run` and checks its output in `check`.
`check` returns None when the output is right, else the reason it is not.

Ops call fpkit through module attributes (`fpk.solve_grid`, not a name bound
at setup), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

# output checks; each bound is stated where the workload is described
REF_L1_BOUND = 1e-3       # seed: 5.8e-4 (ou-2d), 6.1e-4 (anisotropic-2d) at n = 256
MASS_TOL = 1e-8           # unit mass of a returned density, as in `fpkit solve`
DRIFT_BOUND = 0.05        # growth-bound quotient drift, as in acceptance criterion 04
AGREE_BOUND = 1e-5        # weighted L1 between fixed points, as in `fpkit meanfield`


class Workload:
    name = ""

    def setup(self, workdir: str):
        raise NotImplementedError

    def ops(self) -> list:
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out) -> str | None:
        raise NotImplementedError

    def span_name(self, op) -> str:
        """Name of the root span of one op in the traced run."""
        return "op"

    def extra(self) -> dict:
        """Workload-specific end-to-end figures: name -> (value, unit)."""
        return {}


class Stationary2d(Workload):
    """fpk.solve_grid at R = 8, n = 256 on ou-2d and anisotropic-2d."""

    name = "stationary-2d"

    def setup(self, workdir):
        import numpy as np
        from fpkit import fpk, grids

        self.np, self.fpk = np, fpk
        self.spec = grids.GridSpec(2, 8.0, 256)
        catalog = {m.name: m for m in fpk.builtin_models()}
        self.models = {n: catalog[n] for n in ("ou-2d", "anisotropic-2d")}
        self.refs = {n: m.reference(self.spec).flat() for n, m in self.models.items()}
        self.max_gap = 0.0

    def ops(self):
        return ["ou-2d", "anisotropic-2d"]

    def run(self, op):
        m = self.models[op]
        return self.fpk.solve_grid(m.A, m.b, self.spec)

    def check(self, op, rho):
        np, vol = self.np, self.spec.cell_volume
        vals = rho.flat()
        mass = float(vals.sum()) * vol
        gap = float(np.abs(vals - self.refs[op]).sum()) * vol
        self.max_gap = max(self.max_gap, gap)
        if abs(mass - 1.0) > MASS_TOL:
            return f"{op}: mass {mass!r}"
        if float(vals.min()) < 0.0:
            return f"{op}: negative density {float(vals.min())!r}"
        if not gap <= REF_L1_BOUND:
            return f"{op}: L1 gap to reference {gap:.3e} > {REF_L1_BOUND:g}"
        return None

    def extra(self):
        return {"ref_l1_err": (self.max_gap, "L1")}


class Poisson2d(Workload):
    """poisson.verify_growth_bounds on ou-2d-tanh, k = 1, radii (8, 16), n_base = 64."""

    name = "poisson-2d"

    def setup(self, workdir):
        import math
        from fpkit import poisson

        self.isfinite, self.poisson = math.isfinite, poisson
        self.case = {c.name: c for c in poisson.builtin_poisson_cases()}["ou-2d-tanh"]

    def ops(self):
        return ["ou-2d-tanh"]

    def run(self, op):
        c = self.case
        return self.poisson.verify_growth_bounds(c.model.A, c.model.b, c.psi, 1.0,
                                                 radii=(8.0, 16.0), n_base=64)

    def check(self, op, rep):
        if not (rep.all_finite and all(self.isfinite(q) for row in rep.quotients for q in row)):
            return f"non-finite quotients {rep.quotients}"
        if not rep.max_drift <= DRIFT_BOUND:
            return f"quotient drift {rep.max_drift:.3e} > {DRIFT_BOUND:g}"
        return None


class Meanfield2d(Workload):
    """meanfield.picard_iterate, tanh-relative kernel, d = 2, R = 8, n = 32, eps = 0.05."""

    name = "meanfield-2d"
    STARTS = (0.5, -0.5, 0.25, -0.25)

    def setup(self, workdir):
        import numpy as np
        from fpkit import config, fields, grids, meanfield, stability

        self.meanfield, self.stability = meanfield, stability
        spec = grids.GridSpec(2, 8.0, 32)
        a0 = fields.DiffusionMatrixField.from_constant(np.eye(2), 1.0)
        self.model = meanfield.MeanFieldModel(a0, fields.linear_drift(2, 1.0), eps=0.05,
                                              weight_order=1.0,
                                              **config.kernel_from_name("tanh-relative", 2))
        self.starts = {m: meanfield.gaussian_probe(spec, np.full(2, m), 1.0)
                       for m in self.STARTS}
        self.reference = None

    def ops(self):
        return list(self.STARTS)

    def run(self, op):
        return self.meanfield.picard_iterate(self.model, self.starts[op], tol=1e-8)

    def check(self, op, trace):
        if not trace.converged:
            return f"start {op}: Picard iteration did not converge"
        fp = trace.fixed_point
        if self.reference is None:
            self.reference = fp
        gap = self.stability.weighted_l1_distance(fp, self.reference,
                                                  self.model.weight_order)
        if not gap <= AGREE_BOUND:
            return f"start {op}: fixed points differ by {gap:.3e} > {AGREE_BOUND:g}"
        return None


# README 1d configs, verbatim, plus one bad-key config (exit 2) and one
# non-confining drift that raises TruncationError, an FpkError (exit 3).
# Each entry is (command, expected exit code, runs per cycle, config); the
# cheap configs run more often, so each README config takes a similar share
# of a cycle's time (about 50 ms of the 300 ms on a 2-core Xeon).
CLI_CONFIGS = {
    "dini": ("dini", 0, 3, {"field": {"name": "weierstrass-holder"}, "box_radius": 1.0,
                            "n_centers": 24}),
    "solve": ("solve", 0, 3, {"model": "ou-1d", "n": 1024}),
    "poisson": ("poisson", 0, 1, {"model": "ou-1d", "psi": {"expression": "x1"}, "k": 1.0}),
    "stability": ("stability", 0, 3, {"family": "drift-linear",
                                      "deltas": [0.001, 0.003, 0.01, 0.03, 0.1]}),
    "meanfield": ("meanfield", 0, 1, {"eps": 0.05, "kernel": "tanh", "starts": [0.5, -0.5],
                                      "eps_grid": [0.01, 0.05, 0.1]}),
    "sweep": ("sweep", 0, 2, {"task": "stability", "axis": [0.01, 0.03, 0.1],
                              "base": {"family": "drift-linear"}}),
    "bad-key": ("solve", 2, 1, {"model": "ou-1d", "betaa2": 1}),
    "not-confining": ("solve", 3, 1, {"coefficients": {
        "dim": 1, "diffusion": {"constant": 1.0},
        "drift": {"expressions": ["x1"], "beta1": 1.0, "beta2": 1.0, "beta3": 1.0}},
        "n": 256}),
}


class Cli1d(Workload):
    """In-process fpkit.cli.main, one fresh output directory per op."""

    name = "cli-1d"

    def setup(self, workdir):
        from fpkit import cli

        self.cli, self.workdir = cli, workdir
        self.workers = str(min(2, len(os.sched_getaffinity(0))))
        self.paths = {}
        for key, (_, _, _, cfg) in CLI_CONFIGS.items():
            path = os.path.join(workdir, f"{key}.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            self.paths[key] = path
        self.csv_digests: dict[str, str] = {}

    def ops(self):
        return [key for key, (_, _, runs, _) in CLI_CONFIGS.items() for _ in range(runs)]

    def span_name(self, op):
        command, code, _, _ = CLI_CONFIGS[op]
        return f"cli.{command}" if code == 0 else "cli.error"

    def run(self, op):
        command = CLI_CONFIGS[op][0]
        out = os.path.join(tempfile.mkdtemp(dir=self.workdir), "out")
        argv = [command, "--config", self.paths[op], "--out", out]
        if command == "sweep":
            argv += ["--workers", self.workers]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = self.cli.main(argv)
        return code, out

    def check(self, op, result):
        code, out = result
        try:
            expected = CLI_CONFIGS[op][1]
            if code != expected:
                return f"{op}: exit {code}, expected {expected}"
            if expected != 0:
                return None
            if not os.path.isfile(os.path.join(out, "run_report.json")):
                return f"{op}: no run_report.json"
            digest = self._csv_digest(out)
            if self.csv_digests.setdefault(op, digest) != digest:
                return f"{op}: CSV artifacts differ from an earlier run of the same config"
            return None
        finally:
            shutil.rmtree(os.path.dirname(out), ignore_errors=True)

    @staticmethod
    def _csv_digest(out: str) -> str:
        h = hashlib.sha256()
        for path in sorted(Path(out).rglob("*.csv")):
            h.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
        return h.hexdigest()


WORKLOADS = {w.name: w for w in (Stationary2d, Poisson2d, Meanfield2d, Cli1d)}

# root spans the traced run records around each cli-1d op
ROOT_LAYERS = {Cli1d().span_name(k) for k in CLI_CONFIGS}
