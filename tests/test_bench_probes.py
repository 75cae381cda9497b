"""The benchmark's tracer wraps package functions by name; every name it
probes must exist, so that renaming or deleting one fails here and not
only in the benchmark's own tests."""

import importlib
import importlib.util
import json
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


def test_tracer_reads_the_arguments_it_counts(tmp_path, monkeypatch):
    """The counting probes read `fit_gmm`'s config and result, the
    trainer's dataset and config, and the trace codec's directory by
    argument position; a run under the tracer must count real work, and
    its one GMM fit as one `fit_gmm` call."""
    from noisesift.data import load_dataset
    from noisesift.pipeline import run_pipeline

    tracer = _load_tracer(monkeypatch)
    epochs = 2
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "grid": {"levels": 3, "classes_per_cell": 1, "per_class_count": 16, "input_dim": 4},
        "train": {"epochs": epochs, "hidden_sizes": [8], "feature_width": 4},
        "eval": {"h_threshold": 2},
    }))
    with tracer.Tracer(tracer.make_probes(64)) as t:
        run_dir = run_pipeline(cfg_path, tmp_path / "run")
    metrics = tracer.layer_metrics(t.op)
    assert metrics["gmm.em_iters"] > 0
    assert metrics["gmm.fit_gmm_calls"] == 1
    partitions = json.loads((run_dir / "partitions.json").read_text())
    assert metrics["gmm.em_iters"] == partitions["2d-GMM_acc-SCD"]["gmm"]["n_iter"]
    assert metrics["mlp.sample_epochs"] == len(load_dataset(run_dir, "train")) * epochs
    assert metrics["mlp.trace_mb"] > 0
    assert metrics["mlp.train_with_tracing_calls"] == 1
