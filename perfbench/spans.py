"""Span recorder for the traced benchmark run.

The tracer wraps public fpkit functions (and scipy's sparse direct solvers)
at their module boundaries. Each wrapped call records a span (id, name,
start, end, parent span, op id) in memory; count hooks add the work a call
did (cells solved, points evaluated, kernel pairs, bytes written) to named
counters. Nothing inside fpkit is edited: wrappers are bound in place of the
originals while a traced cycle runs and the originals are restored after it.

A layer is merged into itself: a call made while the same layer is already
open on the thread is not recorded, so every count and time is "outermost
only" and a recursive or delegating call is never counted twice.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import os
import sys
import threading
import time

# (home module, attribute path, layer, counter, count hook). The hook gets
# (args, kwargs, result) of a call that returned and gives the count to add.
TARGETS = (
    ("scipy.sparse.linalg", "spsolve", "sparse.direct", None, None),
    ("scipy.sparse.linalg", "splu", "sparse.direct", None, None),
    ("scipy.sparse.linalg", "factorized", "sparse.direct", None, None),
    ("fpkit.fpk", "solve_grid", "fpk.solve_grid", "fpk.cells",
     lambda a, k, out: out.spec.n_cells),
    ("fpkit.fpk", "solve_exact_1d", "fpk.solve_exact_1d", None, None),
    ("fpkit.fields", "ScalarField.values", "fields.values", "fields.values.points",
     lambda a, k, out: len(out)),
    ("fpkit.fields", "DiffusionMatrixField.values", "fields.values", "fields.values.points",
     lambda a, k, out: len(out)),
    ("fpkit.fields", "DriftField.values", "fields.values", "fields.values.points",
     lambda a, k, out: len(out)),
    ("fpkit.meanfield", "apply_phi", "meanfield.apply_phi", None, None),
    ("fpkit.meanfield", "InteractionKernel.convolve", "meanfield.kernel",
     "meanfield.kernel.pairs", None),  # special-cased in Tracer._convolve
    ("fpkit.meanfield", "picard_iterate", "meanfield.picard", "meanfield.picard.iterations",
     lambda a, k, out: out.n_steps),
    ("fpkit.poisson", "solve_poisson", "poisson.solve_poisson", None, None),
    ("fpkit.poisson", "discrete_adjoint_null", "poisson.discrete_adjoint_null", None, None),
    ("fpkit.poisson", "lyapunov_constants", "poisson.lyapunov_constants", None, None),
    ("fpkit.stability", "weighted_l1_distance", "stability.weighted_l1_distance", None, None),
    ("fpkit.stability", "stability_sweep", "stability.stability_sweep", None, None),
    ("fpkit.oscillation", "dini_mean_oscillation", "oscillation.dini_mean_oscillation",
     None, None),
    ("fpkit.config", "validate_command_config", "config.validate_command_config", None, None),
    ("fpkit.cli", "write_csv", "cli.write_csv", "cli.csv.bytes",
     lambda a, k, out: os.path.getsize(out)),
    ("fpkit.cli", "RunContext.finish", "cli.report", "cli.reports", lambda a, k, out: 1),
    ("fpkit.svg", "line_plot", "svg", "svg.bytes",
     lambda a, k, out: os.path.getsize(k.get("path", a[0] if a else ""))),
    ("fpkit.svg", "heatmap", "svg", "svg.bytes",
     lambda a, k, out: os.path.getsize(k.get("path", a[0] if a else ""))),
)


def _resolve(module: str, attr: str):
    """(owner, name, object) for a dotted attribute, or None if it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    return None if obj is None else (owner, name, obj)


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op)
        self.counters: dict[str, int] = {}
        self.op_id: int | None = None
        self.root: int | None = None
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._bound: list[tuple] = []  # (owner, name, original) to restore
        self.missing_layers: set[str] = set()
        self.missing_counters: set[str] = set()

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def call(self, layer, fn, args, kwargs, counter=None, hook=None, rename=None):
        """Run fn(*args, **kwargs) inside a span named `layer`."""
        stack = self._stack()
        if not self.active or any(name == layer for _, name in stack):
            return fn(*args, **kwargs)
        sid = next(self._ids)
        parent = stack[-1][0] if stack else self.root
        stack.append((sid, layer))
        name = layer
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            if rename is not None:
                name = rename(out)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent, self.op_id))
        if counter is not None and hook is not None:
            self.count(counter, hook(args, kwargs, out))
        return out

    def count(self, counter: str, amount: int):
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + int(amount)

    @contextlib.contextmanager
    def op_span(self, name: str, op_id: int):
        """Record the root span of one benchmark op, tracing while it runs."""
        self.op_id, self.root = op_id, next(self._ids)
        t0 = time.perf_counter()
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self.spans.append((self.root, name, t0, time.perf_counter(), None, op_id))
            self.root = None

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, layer, fn, counter, hook):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(layer, fn, args, kwargs, counter, hook)

        traced.__wrapped__ = fn
        return traced

    def _convolve(self, fn):
        """InteractionKernel.convolve: a kernel pass is either the convolve call
        itself (a y-only kernel returns its offset array after one quadrature
        over y) or each evaluation of the returned offset closure (an
        x-dependent kernel). Pairs count the (x, y) evaluations of the latter;
        a y-only quadrature has none."""
        tracer = self

        def traced(kernel, rho, *args, **kwargs):
            cells = rho.spec.n_cells
            out = tracer.call("meanfield.kernel", fn, (kernel, rho) + args, kwargs,
                              rename=lambda o: "meanfield.convolve" if callable(o)
                              else "meanfield.kernel")
            if not callable(out):
                return out
            return tracer._wrap("meanfield.kernel", out, "meanfield.kernel.pairs",
                                lambda a, k, res: len(res) * cells)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Bind a wrapper in place of every target and every fpkit alias of it."""
        present_layers, present_counters = set(), set()
        all_layers, all_counters = set(), set()
        wrappers = {}
        # resolve everything first, so every alias module is loaded when scanned
        resolved = [(_resolve(module, attr), attr, layer, counter, hook)
                    for module, attr, layer, counter, hook in TARGETS]
        for found, attr, layer, counter, hook in resolved:
            all_layers.add(layer)
            if counter:
                all_counters.add(counter)
            if found is None:
                continue
            owner, name, obj = found
            present_layers.add(layer)
            if counter:
                present_counters.add(counter)
            if id(obj) in wrappers:
                continue
            if attr == "InteractionKernel.convolve":
                wrapper = self._convolve(obj)
            else:
                wrapper = self._wrap(layer, obj, counter, hook)
            wrappers[id(obj)] = wrapper
            self._rebind(owner, name, obj, wrapper)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("fpkit") and mod is not owner and mod is not None:
                    for alias, value in list(vars(mod).items()):
                        if value is obj:
                            self._rebind(mod, alias, obj, wrapper)
        self.missing_layers = all_layers - present_layers
        self.missing_counters = all_counters - present_counters

    def _rebind(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._bound.append((owner, name, original))

    def uninstall(self):
        while self._bound:
            owner, name, original = self._bound.pop()
            setattr(owner, name, original)

    # -- analysis ------------------------------------------------------------

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """calls, total seconds and self seconds per span name.

        Self time is a span's duration minus the part of it that its child
        spans cover; children on worker threads may overlap, so the covered
        part is the union of their intervals.
        """
        children: dict[int, list[tuple[float, float]]] = {}
        for _, _, t0, t1, parent, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((t0, t1))
        stats: dict[str, dict[str, float]] = {}
        for sid, name, t0, t1, _, _ in self.spans:
            covered, end = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            st["calls"] += 1
            st["s"] += t1 - t0
            st["self_s"] += (t1 - t0) - covered
        return stats

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")
