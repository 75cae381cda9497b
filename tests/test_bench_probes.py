"""The benchmark's tracer wraps package functions by name; every name it
probes must exist, so that renaming or deleting one fails here and not
only in the benchmark's own tests."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules while loading.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_probe_resolves_in_the_package(monkeypatch):
    probes = _load_tracer(monkeypatch).make_probes(64)
    assert probes
    for probe in probes:
        owner = importlib.import_module(probe.module)
        for part in probe.attr.split("."):
            assert hasattr(owner, part), f"{probe.module}.{probe.attr} is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"{probe.module}.{probe.attr} is not callable"
