"""Checks of the benchmark itself: tracer coverage and transparency, exact
counts, the output checks, and that BENCHMARK.json names what it prints.

Run from the repository root:

    python3 -m pytest bench/test_bench.py -q

Each workload runs one untraced and two traced operations on the first
instance of its seed-0 pool.  No test asserts on wall-clock time.
"""

import json
import shutil
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

import run  # puts src/ on the path and pins BLAS to one thread
import tracer as T
import workloads as W

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# Spans every workload's operation must contain.
COMMON_SPANS = {
    "pipeline.stage.metrics", "pipeline.stage.partition", "pipeline.stage.eval",
    "pipeline.stage.report", "pipeline.manifest", "data.load_dataset",
    "mlp.load_traces", "metrics.compute_metric_table", "metrics.save_metric_table",
    "metrics.load_metric_table", "metrics.centroid_distance", "gmm.fit_gmm.k3",
    "gmm.responsibilities", "partition.run_method", "partition.save_partition",
    "partition.load_partition", "evaluation.score_partition",
}
FRESH_SPANS = {
    "pipeline.stage.gen", "pipeline.stage.train", "data.generate_base",
    "data.save_dataset", "transforms.apply", "transforms.inject_label_noise",
    "mlp.train_with_tracing", "mlp.forward_batch.minibatch", "mlp.forward_batch.full",
    "mlp.save_traces",
}
EXPECTED_SPANS = {
    "fresh-default": COMMON_SPANS | FRESH_SPANS,
    "table1-retrain": COMMON_SPANS | FRESH_SPANS
    | {"gmm.fit_gmm.k2", "evaluation.retrain_on_subset"},
    "ablation-rerun": COMMON_SPANS | {"gmm.fit_gmm.k2"},
}

# Per-layer values that are exact counts for a config and seed.
EXACT_COUNTS = (
    "mlp.sample_epochs", "mlp.train_with_tracing_calls", "gmm.fit_gmm_calls",
    "gmm.em_iters", "mlp.trace_mb",
)


@pytest.fixture(scope="module", params=sorted(W.WORKLOADS))
def observed(request, tmp_path_factory):
    """Seed-0 set-up, then one untraced and two traced operations on the
    pool's first instance."""
    workload = W.WORKLOADS[request.param]
    setup_dir = tmp_path_factory.mktemp(workload.name)
    configs = W.set_up(workload, run.DEFAULT_SEED, setup_dir)
    probes = T.make_probes(W.BATCH_SIZE)
    ops = []
    for i, traced in enumerate((False, True, True)):
        root = setup_dir if workload.rerun else tmp_path_factory.mktemp(f"op{i}")
        run_dir = W.run_dir(root, 0)
        tracer = T.Tracer(probes)
        with tracer if traced else nullcontext():
            W.operation(workload, configs[0], run_dir)
        ops.append({
            "hashes": W.output_hashes([run_dir]),
            "artifact_mb": W.directory_mb([run_dir]),
            "trace": tracer.op if traced else None,
            "run_dir": run_dir,
            "config": configs[0],
        })
    return workload, ops


def test_traced_outputs_equal_untraced_and_expected(observed):
    workload, ops = observed
    expected = run.expected_hashes(workload, run.DEFAULT_SEED)
    first = {k: v for k, v in expected.items() if k.startswith("i0/")}
    assert len(first) == len(W.HASHED_OUTPUTS)
    assert [op["hashes"] for op in ops] == [first] * len(ops)


def test_committed_hashes_cover_the_pool():
    for name, workload in W.WORKLOADS.items():
        expected = run.expected_hashes(workload, run.DEFAULT_SEED)
        assert len(expected) == workload.pool * len(W.HASHED_OUTPUTS), name


def test_every_layer_is_called_where_it_should_be(observed):
    workload, ops = observed
    for op in ops[1:]:
        missing = EXPECTED_SPANS[workload.name] - set(op["trace"].calls)
        assert not missing, f"{workload.name} never called {sorted(missing)}"


def test_rerun_workload_does_no_training(observed):
    workload, ops = observed
    if not workload.rerun:
        pytest.skip("fresh runs train")
    for op in ops[1:]:
        layers = T.layer_metrics(op["trace"])
        assert layers["mlp.train_with_tracing_calls"] == 0
        assert layers["mlp.sample_epochs"] == 0


def test_exact_counts_repeat(observed):
    workload, ops = observed
    first, second = (T.layer_metrics(op["trace"]) for op in ops[1:])
    assert {n: first[n] for n in EXACT_COUNTS} == {n: second[n] for n in EXACT_COUNTS}
    assert len({op["artifact_mb"] for op in ops}) == 1


def test_spans_nest_and_self_times_add_up(observed):
    workload, ops = observed
    trace = ops[1]["trace"]
    for name, start, end, parent in trace.spans:
        assert start <= end
        if parent >= 0:
            _, p_start, p_end, _ = trace.spans[parent]
            assert p_start <= start and end <= p_end
    roots = sum(end - start for _, start, end, parent in trace.spans if parent < 0)
    assert sum(trace.self_s.values()) == pytest.approx(roots)


def test_manifest_check_catches_a_changed_train_artifact(observed, tmp_path):
    workload, ops = observed
    if not workload.rerun:
        pytest.skip("only reruns check the train stage")
    run_dir = shutil.copytree(ops[-1]["run_dir"], tmp_path / "run")
    W.check_manifest(run_dir, "train")
    with open(run_dir / "traces_train_acc.npy", "ab") as f:
        f.write(b"\0")
    with pytest.raises(AssertionError, match="traces_train_acc.npy"):
        W.check_manifest(run_dir, "train")


def test_output_check_catches_a_bad_report(observed, tmp_path):
    workload, ops = observed
    config_path = Path(ops[-1]["config"])
    run_dir = shutil.copytree(ops[-1]["run_dir"], tmp_path / "run")
    W.check_outputs(run_dir, config_path)
    report = run_dir / "report.csv"
    header, first, *rest = report.read_text().splitlines()
    cells = first.split(",")
    cells[header.split(",").index("recall_h")] = "1.5"
    report.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    manifest = json.loads((run_dir / "manifest.json").read_text())
    manifest["stages"]["report"]["files"]["report.csv"] = W.sha256(report)
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(AssertionError, match="recall_h 1.5"):
        W.check_outputs(run_dir, config_path)
    report.write_text("\n".join([header, *rest]) + "\n")
    with pytest.raises(AssertionError, match="report.csv no longer matches"):
        W.check_outputs(run_dir, config_path)


def test_tracer_restores_every_binding():
    import noisesift.pipeline as pipeline

    with T.Tracer(T.make_probes(W.BATCH_SIZE)):
        assert hasattr(pipeline.STAGE_FUNCS["gen"], "__wrapped__")
        assert hasattr(pipeline.run_method, "__wrapped__")
    for name, module in sys.modules.items():
        if name == "noisesift" or name.startswith("noisesift."):
            for key, value in vars(module).items():
                assert not hasattr(value, "__wrapped__"), f"{name}.{key} still wrapped"
    assert pipeline.STAGE_FUNCS["gen"] is pipeline.stage_gen
    assert not hasattr(pipeline.Run.mark_complete, "__wrapped__")


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {w["name"] for w in spec["workloads"]} == set(W.WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == run.END_TO_END_UNITS
    layer_names = [*T.layer_metrics(T.OpTrace()), "trace_overhead_s"]
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {n: run.layer_unit(n) for n in layer_names}


def test_trace_overhead_pairs_each_traced_operation_with_its_neighbours():
    seconds = [10.0, 11.0, 12.0, 14.0]  # the host slows down as the run goes on
    ops = [{"traced": i % 2 == 1, "seconds": s, "instance": 0} for i, s in enumerate(seconds)]
    # 11 - mean(10, 12) = 0 and 14 - 12 = 2; unpaired medians would give 1.5
    assert run.trace_overhead(ops) == 1.0


def test_trace_overhead_pairs_only_operations_of_the_same_instance():
    seconds = [10.0, 11.0, 20.0, 22.0]  # instance 1 does twice the work
    ops = [{"traced": i % 2 == 1, "seconds": s, "instance": i // 2}
           for i, s in enumerate(seconds)]
    # 11 - 10 = 1 and 22 - 20 = 2; pairing 11 with 20 as well would give -3.5
    assert run.trace_overhead(ops) == 1.5


def test_pool_mean_weighs_every_instance_once():
    ops = [{"instance": i, "rel": r} for i, r in [(0, 1.0), (1, 3.0), (0, 2.0), (0, 9.0)]]
    # instance 0: median of 1, 2, 9 is 2; instance 1: 3
    assert run.pool_mean(ops, lambda op: op["rel"]) == 2.5
