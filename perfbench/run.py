"""fpkit benchmark: closed-loop workloads with output checks and a traced split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; fpkit is imported from its `src/`.
One client in one process issues each op after the previous one returns,
in cycles of the workload's op list, each cycle shuffled by the seed. The
last stdout line is one JSON object: `correct`, `attempted`, `failed` and
`metrics`, the end-to-end metrics of BENCHMARK.json with --trace 0 and its
per-layer metrics with --trace 1. Lines before it, prefixed `#`, give the
environment record and every figure with its unit. perfbench/README.md
describes the workloads, metrics and the layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BLAS_THREADS = "1"
SETUP_SAMPLES = 2      # fresh-interpreter set-ups, on top of this process's own
P90_MIN_OPS = 100      # op_p90_s needs >= 10 samples beyond it
CALIB_EVERY_S = 0.5    # loop time between two host-speed samples
CALIB_NOMINAL_S = 0.055  # calibration kernel time at reference speed (2-core Xeon, quiet host)


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-sample", action="store_true",
                   help="only time import + input build and print the seconds")
    return p.parse_args(argv)


class Runner:
    """Runs ops of one workload and keeps the failure accounting."""

    def __init__(self, workload, tracer=None):
        self.wl = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.op_id = 0

    def op(self, op, traced: bool = False) -> float:
        """Run and check one op; returns its wall time (the check excluded)."""
        self.op_id += 1
        tr = self.tracer if traced else None
        err = None
        t0 = time.perf_counter()
        try:
            if tr is None:
                out = self.wl.run(op)
            else:
                with tr.op_span(self.wl.span_name(op), self.op_id):
                    out = self.wl.run(op)
        except Exception:  # an op that raises counts as failed; the loop goes on
            err = f"op {op!r} raised:\n{traceback.format_exc()}"
        dt = time.perf_counter() - t0
        if err is None:
            try:
                err = self.wl.check(op, out)
            except Exception:
                err = f"check of op {op!r} raised:\n{traceback.format_exc()}"
        self.attempted += 1
        if err is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(err)
        return dt

    def cycle(self, rng, traced: bool = False, after=None) -> list[float]:
        ops = list(self.wl.ops())
        rng.shuffle(ops)
        times = []
        for op in ops:
            times.append(self.op(op, traced))
            if after is not None:
                after()
        return times


class HostClock:
    """Host speed, sampled with a fixed kernel that runs no fpkit code.

    On a shared VM the host's speed swings by tens of percent over minutes,
    and CPU time swings with wall time, so more work per run cannot average
    it out. The kernel does the three kinds of work the workloads do:
    SuperLU factor-and-solves, vector tanh passes and an interpreter loop.
    Its median time over a run, over CALIB_NOMINAL_S, is the run's slowdown
    factor, and the gated time metrics are divided by it.
    """

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        n = 40  # everything here stays under 1 MB: peak_rss_mb must not see it
        t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        self._lap = (sp.kron(t, sp.eye(n)) + sp.kron(sp.eye(n), t)).tocsc()
        self._rhs = np.ones(n * n)
        self._x = np.linspace(-3.0, 3.0, 25_000)
        self._buf = np.empty_like(self._x)
        self._np, self._spla = np, spla
        self.samples: list[float] = []
        self.spent = 0.0  # seconds of loop time the samples took
        self._last = time.perf_counter()

    def sample(self):
        t0 = time.perf_counter()
        for _ in range(4):
            self._spla.splu(self._lap).solve(self._rhs)
        for _ in range(160):
            self._np.tanh(self._x, out=self._buf)
        sum(i * i for i in range(200_000))
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += t1 - t0
        self._last = t1

    def maybe_sample(self):
        if time.perf_counter() - self._last >= CALIB_EVERY_S:
            self.sample()

    def factor(self) -> float:
        return statistics.median(self.samples) / CALIB_NOMINAL_S


def setup_workload(name: str, workdir: Path):
    """Import fpkit from the checkout and build the workload's inputs."""
    from workloads import WORKLOADS

    sys.path.insert(0, str(ROOT / "src"))
    wl = WORKLOADS[name]()
    wl.setup(str(workdir))
    import fpkit

    if Path(fpkit.__file__).resolve().parent != (ROOT / "src" / "fpkit").resolve():
        raise RuntimeError(f"fpkit was imported from {fpkit.__file__}, not this checkout")
    return wl


def setup_sample_seconds(name: str) -> float:
    """Import + input build in a fresh interpreter, waited for."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                           "--setup-sample"], cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import platform

    import numpy
    import scipy

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "cpu": cpu_model(), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": {k: os.environ[k] for k in BLAS_ENV},
            "commit": git_commit()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(args, runner, rng, own_setup_s) -> tuple[dict, list[str]]:
    """Untraced closed loop: whole cycles until --seconds have passed.

    Time metrics are in reference seconds: wall seconds divided by the run's
    host slowdown factor (HostClock). The wall figures are printed as well.
    """
    clock = HostClock()
    times: list[float] = []
    t_loop = time.perf_counter()
    clock.sample()
    while True:
        times += runner.cycle(rng, after=clock.maybe_sample)
        if time.perf_counter() - t_loop - clock.spent >= args.seconds:
            break
    wall = time.perf_counter() - t_loop - clock.spent
    setups = [own_setup_s] + [setup_sample_seconds(args.workload) for _ in range(SETUP_SAMPLES)]
    wall_metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(times) / wall,
        "op_p50_s": statistics.median(times),
    }
    f = clock.factor()
    metrics = {
        "setup_s": wall_metrics["setup_s"] / f,
        "ops_per_s": wall_metrics["ops_per_s"] * f,
        "op_p50_s": wall_metrics["op_p50_s"] / f,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = [f"op_p50_s samples: {len(times)} timed ops in {wall:.3f} s "
             f"(+1 warm-up op); setup samples {[round(s, 4) for s in setups]}",
             f"host slowdown factor {f:.4f} from {len(clock.samples)} calibration samples; "
             "wall figures: " + ", ".join(f"{k} {v:.6g}" for k, v in wall_metrics.items())]
    extra = {}
    if len(times) >= P90_MIN_OPS:
        extra["op_p90_s"] = (statistics.quantiles(times, n=10)[-1], "s")
    extra["fail_ratio"] = (runner.failed / runner.attempted, "1")
    extra.update(runner.wl.extra())
    for name, (value, unit) in extra.items():
        notes.append(f"{name} = {value:.6g} {unit}")
    return metrics, notes


def per_layer(args, runner, rng, names) -> tuple[dict, list[str]]:
    """Alternate untraced and traced cycles until --seconds have passed.

    Counts and times are per traced cycle; cycles repeat the same op list, so
    the counts come out exactly the same on every run.
    """
    from spans import TARGETS

    tracer = runner.tracer
    untraced, traced = [], []
    t_loop = time.perf_counter()
    while True:
        untraced.append(sum(runner.cycle(rng)))
        tracer.install()
        try:
            traced.append(sum(runner.cycle(rng, traced=True)))
        finally:
            tracer.uninstall()
        if time.perf_counter() - t_loop >= args.seconds:
            break
    cycles = len(traced)
    stats = tracer.layer_stats()
    counters = {c for _, _, _, c, _ in TARGETS if c}
    metrics = {}
    for name in names:
        if name == "trace.overhead_ratio":
            value = statistics.fmean(traced) / statistics.fmean(untraced)
        elif name in counters:
            value = None if name in tracer.missing_counters else \
                _per_cycle(tracer.counters.get(name, 0), cycles)
        else:
            layer, stat = name.rsplit(".", 1)
            value = None if layer in tracer.missing_layers else \
                _per_cycle(stats.get(layer, {}).get(stat, 0), cycles)
        metrics[name] = value
    ranked = sorted(((st["self_s"] / cycles, layer) for layer, st in stats.items()
                     if layer != "op"), reverse=True)
    notes = [f"{cycles} traced + {len(untraced)} untraced cycles; per traced cycle below",
             "self time ranking: " + ", ".join(f"{layer} {s:.4f} s" for s, layer in ranked[:6])]
    return metrics, notes


def _per_cycle(total, cycles):
    if isinstance(total, int) and total % cycles == 0:
        return total // cycles
    return total / cycles


def check_layer_names(names):
    from spans import TARGETS
    from workloads import ROOT_LAYERS

    layers = {t[2] for t in TARGETS} | ROOT_LAYERS
    counters = {t[3] for t in TARGETS if t[3]}
    for name in names:
        layer, _, stat = name.rpartition(".")
        if name not in counters and name != "trace.overhead_ratio" and \
                not (layer in layers and stat in ("calls", "s", "self_s")):
            raise ValueError(f"BENCHMARK.json names per-layer metric {name!r}, "
                             "which the tracer does not produce")


def main(argv=None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    args = parse_args(argv)
    for k in BLAS_ENV:  # before numpy loads
        os.environ[k] = BLAS_THREADS
    if not (ROOT / "src" / "fpkit" / "__init__.py").is_file():
        print(f"no fpkit sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[kind]}
    if args.trace:
        check_layer_names(units)

    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        wl = setup_workload(args.workload, workdir)
        own_setup_s = time.perf_counter() - t0
        if args.setup_sample:
            print(repr(own_setup_s))
            return 0
        from spans import Tracer

        env = environment(args)
        runner = Runner(wl, Tracer() if args.trace else None)
        rng = random.Random(args.seed)
        runner.op(wl.ops()[0])  # warm-up: lazy imports, first allocations
        if args.trace:
            metrics, notes = per_layer(args, runner, rng, units)
            runner.tracer.write_spans(str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"))
        else:
            metrics, notes = end_to_end(args, runner, rng, own_setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("# env " + json.dumps(env, sort_keys=True))
    for note in notes:
        print("# " + note)
    for name, value in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"# {name} = {shown} {units[name]}")
    for err in runner.errors:
        print("# FAILED " + err.replace("\n", "\n#   "))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
