"""The traced benchmark run still finds every function it wraps.

perfbench/spans.py binds its wrappers by (module, attribute) name. A function
renamed or deleted in fpkit would leave its layer of the traced run empty
without an error, so every target must resolve.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    """perfbench/spans.py as a module, imported without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves(monkeypatch):
    spans = load_spans(monkeypatch)
    missing = [(module, attr) for module, attr, *_ in spans.TARGETS
               if spans._resolve(module, attr) is None]
    assert not missing
