"""End-to-end pipeline runs, stage gating, determinism, and the CLI."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from noisesift import pipeline
from noisesift.artifacts import save_arrays
from noisesift.cli import main
from noisesift.data import GridSpec, load_dataset
from noisesift.errors import ConfigurationError, StageError
from noisesift.mlp import init_model, load_traces, save_traces
from noisesift.partition import load_partition
from noisesift.pipeline import (
    _SCHEMA,
    DEFAULT_CONFIG,
    STAGES,
    Run,
    config_digest,
    experiment,
    load_config,
    make_datasets,
    run_pipeline,
    run_stage,
)

SMALL_GRID = {
    "levels": 3,
    "classes_per_cell": 1,
    "per_class_count": 16,
    "input_dim": 4,
}


def _small_config(tmp_path, **overrides):
    cfg = {
        "seed": 0,
        "grid": SMALL_GRID,
        "train": {"epochs": 6, "hidden_sizes": [8], "feature_width": 4},
        "methods": ["Thres_Loss", "2d-GMM_acc-SCD"],
        "eval": {"h_threshold": 2},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


EXPECTED_ARTIFACTS = (
    "config.json",
    "manifest.json",
    "train_X.npy",
    "test_X.npy",
    "ground_truth.json",
    "model_w0.npy",
    "traces_p_assigned.npy",
    "metrics.csv",
    "partitions.json",
    "partitions_ids.npy",
    "partitions_noisy.npy",
    "eval.json",
    "report.csv",
    "report.md",
    "cells.csv",
)


def test_full_pipeline_produces_all_artifacts(tmp_path):
    cfg_path = _small_config(tmp_path)
    run_dir = run_pipeline(cfg_path, tmp_path / "run")
    for name in EXPECTED_ARTIFACTS:
        assert (run_dir / name).exists(), name
    # The stage's partitions are one JSON, the ids once and one mask row per method.
    assert len(list(run_dir.glob("partition*"))) == 3
    n = len(load_dataset(run_dir, "train"))
    assert np.load(run_dir / "partitions_noisy.npy").shape == (2, n)
    rows = json.loads((run_dir / "eval.json").read_text())
    methods = [r["method"] for r in rows]
    assert methods == ["Original dataset", "Thres_Loss", "2d-GMM_acc-SCD"]
    baseline = rows[0]
    assert baseline["recall_n"] == 0.0 and baseline["recall_h"] == 1.0
    stages = json.loads((run_dir / "manifest.json").read_text())["stages"]
    assert "cells.csv" in stages["metrics"]["files"]
    assert sorted(stages["report"]["files"]) == ["report.csv", "report.md"]


def test_pipeline_rerun_is_byte_identical(tmp_path):
    cfg_path = _small_config(tmp_path)
    d1 = run_pipeline(cfg_path, tmp_path / "a")
    d2 = run_pipeline(cfg_path, tmp_path / "b")
    for name in (
        "report.csv", "cells.csv", "metrics.csv",
        "train_X.npy", "traces_p_assigned.npy", "model_w0.npy",
    ):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_a_run_directory_with_int64_files_still_loads(tmp_path):
    """Run directories written before integer arrays were stored narrow hold
    int64 `.npy` files: every stage stays complete, and the later stages
    rerun on them write the same outputs."""
    run_dir = run_pipeline(_small_config(tmp_path), tmp_path / "run")
    manifest = json.loads((run_dir / "manifest.json").read_text())
    widened = 0
    for entry in manifest["stages"].values():
        for rel in entry["files"]:
            path = run_dir / rel
            if path.suffix == ".npy" and np.load(path).dtype.kind in "iu":
                np.save(path, np.load(path).astype(np.int64))
                entry["files"][rel] = hashlib.sha256(path.read_bytes()).hexdigest()
                widened += 1
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    assert widened == 4 + 4 + 3 + 1  # train and test columns, trace arrays, partition ids
    outputs = ("report.csv", "cells.csv", "metrics.csv")
    before = {name: (run_dir / name).read_bytes() for name in outputs}
    run = Run.open(run_dir)
    assert not any(run_stage(run, s) for s in STAGES)
    for s in STAGES[STAGES.index("metrics"):]:
        assert run_stage(run, s, force=True)
    assert {name: (run_dir / name).read_bytes() for name in outputs} == before


def test_a_run_directory_with_cells_csv_under_report_still_loads(tmp_path):
    """Run directories written before `metrics` wrote cells.csv list it
    under `report`: every stage stays complete, and rerunning `metrics`
    and then `report` moves it to `metrics` with the same bytes."""
    run_dir = run_pipeline(_small_config(tmp_path), tmp_path / "run")
    manifest = json.loads((run_dir / "manifest.json").read_text())
    stages = manifest["stages"]
    stages["report"]["files"]["cells.csv"] = stages["metrics"]["files"].pop("cells.csv")
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    outputs = ("report.csv", "cells.csv", "metrics.csv")
    before = {name: (run_dir / name).read_bytes() for name in outputs}
    run = Run.open(run_dir)
    assert not any(run_stage(run, s) for s in STAGES)
    assert run_stage(run, "metrics", force=True) and run_stage(run, "report", force=True)
    assert {name: (run_dir / name).read_bytes() for name in outputs} == before
    assert "cells.csv" in run.manifest["stages"]["metrics"]["files"]
    assert sorted(run.manifest["stages"]["report"]["files"]) == ["report.csv", "report.md"]


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A finished run of the small config: (its config path, its directory)."""
    root = tmp_path_factory.mktemp("finished")
    cfg_path = _small_config(root)
    return cfg_path, run_pipeline(cfg_path, root / "run")


def _rewrite(run_dir, stage, name, text):
    """Write `text` to a run file and its digest to the manifest, so that
    the checksum guard passes the edit."""
    (run_dir / name).write_text(text)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    manifest["stages"][stage]["files"][name] = hashlib.sha256(text.encode()).hexdigest()
    (run_dir / "manifest.json").write_text(json.dumps(manifest))


def test_a_run_with_no_methods_reports_the_original_dataset_only(tmp_path):
    run_dir = run_pipeline(_small_config(tmp_path, methods=[]), tmp_path / "run")
    assert json.loads((run_dir / "partitions.json").read_text()) == {}
    noisy = np.load(run_dir / "partitions_noisy.npy")
    assert (noisy.shape, noisy.dtype) == ((0, len(load_dataset(run_dir, "train"))), bool)
    lines = (run_dir / "report.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("Original dataset,")


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: {"Thres_AUM": m["Thres_Loss"], "2d-GMM_acc-SCD": m["2d-GMM_acc-SCD"]},
        lambda m: dict(reversed(m.items())),
    ],
    ids=["renamed", "reordered"],
)
def test_eval_refuses_partitions_of_other_methods(tmp_path, finished_run, edit):
    cfg_path, finished = finished_run
    run_dir = shutil.copytree(finished, tmp_path / "run")
    stored = json.loads((run_dir / "partitions.json").read_text())
    _rewrite(run_dir, "partition", "partitions.json", json.dumps(edit(stored)))
    with pytest.raises(StageError, match=r"\[eval\] .*config's methods"):
        run_pipeline(cfg_path, run_dir, stage="eval", force=True)


def test_a_run_directory_with_partition_files_per_method_is_mended_by_partition(
    tmp_path, finished_run
):
    """Run directories written before a stage's partitions were one
    artifact hold `partition_<method>.json`, `_ids.npy` and `_noisy.npy`
    for each method: `eval` stops there, naming partitions.json, and
    `--stage partition --force` mends the run; the old files stay, unread."""
    cfg_path, finished = finished_run
    run_dir = shutil.copytree(finished, tmp_path / "run")
    manifest = json.loads((run_dir / "manifest.json").read_text())
    old = []
    for part in load_partition(run_dir):
        meta = {"method_name": part.method_name, "parameters": part.parameters}
        prefix = f"partition_{part.method_name}"
        old += save_arrays(run_dir, prefix, meta, ids=part.ids, noisy=part.noisy)
    for rel in manifest["stages"]["partition"]["files"]:
        (run_dir / rel).unlink()
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in old}
    manifest["stages"]["partition"]["files"] = digests
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ConfigurationError, match=r"partitions\.json"):
        run_pipeline(cfg_path, run_dir, stage="eval", force=True)
    base = ["run", "--config", str(cfg_path), "--out", str(run_dir), "--force", "--stage"]
    for stage in ("partition", "eval", "report"):
        result = CliRunner().invoke(main, [*base, stage])
        assert result.exit_code == 0, result.output
    for name in ("report.csv", "eval.json", "partitions.json", "partitions_noisy.npy"):
        assert (run_dir / name).read_bytes() == (finished / name).read_bytes(), name
    assert all(p.exists() for p in old)


@pytest.mark.parametrize(
    "rows", [[{"method": "x"}], {"rows": 1}, [1, 2]], ids=["missing-columns", "object", "numbers"]
)
def test_report_refuses_an_eval_json_of_another_shape(tmp_path, finished_run, rows):
    cfg_path, finished = finished_run
    run_dir = shutil.copytree(finished, tmp_path / "run")
    _rewrite(run_dir, "eval", "eval.json", json.dumps(rows))
    args = ["run", "--config", str(cfg_path), "--out", str(run_dir), "--stage", "report"]
    result = CliRunner().invoke(main, [*args, "--force"])
    assert result.exit_code == 1
    assert result.output.startswith("error: [report] artifact eval.json must list ")


def test_pipeline_stages_are_idempotent(tmp_path):
    cfg_path = _small_config(tmp_path)
    run_dir = run_pipeline(cfg_path, tmp_path / "run")
    before = (run_dir / "manifest.json").read_text()
    run = Run.open(run_dir)
    assert run_stage(run, "train") is False  # complete -> skipped
    assert run_stage(run, "train", force=True) is True
    after = json.loads((run_dir / "manifest.json").read_text())
    assert after["stages"]["train"]["complete"]
    assert json.loads(before)["stages"] == after["stages"]  # same checksums


def test_stage_order_is_enforced(tmp_path):
    cfg = load_config(_small_config(tmp_path))
    run = Run.open(tmp_path / "run", cfg)
    with pytest.raises(StageError):
        run_stage(run, "metrics")  # train has not run
    with pytest.raises(StageError, match=r"\[bogus\] unknown stage"):
        run_stage(run, "bogus")


def test_a_deleted_artifact_stops_the_stages_that_read_it(tmp_path):
    cfg_path = _small_config(tmp_path)
    run_dir = run_pipeline(cfg_path, tmp_path / "run", stage="gen")
    (run_dir / "train_X.npy").unlink()
    with pytest.raises(StageError, match=r"\[train\] artifact train_X.npy is missing"):
        run_pipeline(cfg_path, run_dir, stage="train")


def test_a_directory_without_a_config_is_refused(tmp_path):
    with pytest.raises(StageError, match=r"\[init\] no config in "):
        Run.open(tmp_path)
    assert not any(tmp_path.iterdir())


def test_metrics_refuses_traces_of_another_row_order(tmp_path):
    # Traces whose ids are a permutation of the train ids, recorded as the
    # train stage's own files so that the checksum guard passes.
    run = Run.open(tmp_path / "run", load_config(_small_config(tmp_path)))
    for stage in ("gen", "train"):
        run_stage(run, stage)
    traces = load_traces(run.directory)
    traces.ids = traces.ids[::-1].copy()
    save_traces(traces, run.directory)
    files = run.manifest["stages"]["train"]["files"]
    run.mark_complete("train", [run.directory / rel for rel in files])
    with pytest.raises(StageError, match="traces ids do not match the train set"):
        run_stage(run, "metrics")


def _manifest_with(change):
    """A damage that rewrites the manifest after `change(manifest)`."""

    def damage(text: str) -> str:
        manifest = json.loads(text)
        change(manifest)
        return json.dumps(manifest)

    return damage


@pytest.mark.parametrize(
    "name, damage",
    [
        ("manifest.json", lambda _: "{not json"),
        ("manifest.json", lambda _: "[1, 2]"),
        ("manifest.json", lambda _: "{}"),
        ("manifest.json", _manifest_with(lambda m: m.pop("stages"))),
        ("manifest.json", _manifest_with(lambda m: m.pop("timestamps"))),
        ("manifest.json", _manifest_with(lambda m: m["stages"]["gen"].update(files=["a"]))),
        ("config.json", lambda _: "{not json"),
    ],
    ids=[
        "manifest-unparsable",
        "manifest-array",
        "manifest-empty",
        "manifest-without-stages",
        "manifest-without-timestamps",
        "manifest-files-list",
        "config-unparsable",
    ],
)
def test_cli_refuses_a_damaged_run_directory_before_writing(tmp_path, name, damage):
    cfg_path = _small_config(tmp_path)
    out_dir = tmp_path / "run"
    base = ["run", "--config", str(cfg_path), "--out", str(out_dir)]
    runner = CliRunner()
    assert runner.invoke(main, [*base, "--stage", "gen"]).exit_code == 0
    (out_dir / name).write_text(damage((out_dir / name).read_text()))
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    result = runner.invoke(main, base)
    assert result.exit_code == 1
    assert result.output.startswith(f"error: [init] {out_dir / name} ")
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


@pytest.mark.parametrize(
    "tampered, stage",
    [
        ("traces_p_assigned.npy", "metrics"),
        ("traces_p_assigned.npy", "partition"),
        ("train_y_assigned.npy", "metrics"),
        ("train_y_assigned.npy", "eval"),
        ("metrics.csv", "partition"),
        ("eval.json", "report"),
    ],
)
def test_checksum_guard_detects_tampering(tmp_path, tampered, stage):
    # A stage verifies every stage whose files it reads, not only the one
    # just before it.
    cfg_path = _small_config(tmp_path)
    run_dir = tmp_path / "run"
    for done in STAGES[: STAGES.index(stage)]:
        run_pipeline(cfg_path, run_dir, stage=done)
    with open(run_dir / tampered, "ab") as f:
        f.write(b"tampered\n")
    with pytest.raises(StageError, match=tampered):
        run_pipeline(cfg_path, run_dir, stage=stage)


def _count_calls(monkeypatch, name):
    """Patch pipeline.<name> to record the arguments of each call after the
    run directory's."""
    calls = []
    original = getattr(pipeline, name)

    def counted(directory, *args):
        calls.append(args)
        return original(directory, *args)

    monkeypatch.setattr(pipeline, name, counted)
    return calls


@pytest.mark.parametrize("retrain", [False, True], ids=["no-retrain", "retrain"])
def test_a_run_parses_each_artifact_once(tmp_path, monkeypatch, retrain):
    tables = _count_calls(monkeypatch, "load_metric_table")
    datasets = _count_calls(monkeypatch, "load_dataset")
    cfg_path = _small_config(
        tmp_path, eval={"retrain": retrain, "retrain_seeds": [0], "h_threshold": 2}
    )
    run_dir = run_pipeline(cfg_path, tmp_path / "run")
    assert tables == [()]  # by partition
    # The train set by train, metrics and eval; the test set by eval when it retrains.
    assert sorted(datasets) == [("test",)] * retrain + [("train",)] * 3
    assert (run_dir / "report.csv").exists()


def test_ground_truth_json_is_the_split_of_the_train_set(tmp_path):
    cfg_path = _small_config(tmp_path)
    run_dir = run_pipeline(cfg_path, tmp_path / "run", stage="gen")
    train = load_dataset(run_dir, "train")
    gt = json.loads((run_dir / "ground_truth.json").read_text())
    threshold = json.loads(cfg_path.read_text())["eval"]["h_threshold"]
    assert gt["h_threshold"] == threshold
    noisy, hard = train.mislabeled, train.hard(threshold)
    assert gt["noisy_ids"] == train.ids[noisy].tolist()
    assert gt["hard_ids"] == train.ids[hard].tolist()
    assert gt["easy_ids"] == train.ids[~(noisy | hard)].tolist()
    assert gt["noisy_ids"] and gt["hard_ids"] and gt["easy_ids"]
    # Together they hold each train id exactly once.
    assert sorted(gt["noisy_ids"] + gt["hard_ids"] + gt["easy_ids"]) == sorted(train.ids.tolist())


def test_a_file_changed_after_its_parse_still_stops_the_run(tmp_path):
    run = Run.open(tmp_path / "run", load_config(_small_config(tmp_path)))
    for stage in STAGES[: STAGES.index("eval")]:  # partition parses metrics.csv
        run_stage(run, stage)
    with open(run.directory / "metrics.csv", "ab") as f:
        f.write(b"tampered\n")
    with pytest.raises(StageError, match="metrics.csv"):
        run_stage(run, "partition", force=True)


# The stages whose files each stage verifies and reads.
VERIFIED = {
    "gen": (),
    "train": ("gen",),
    "metrics": ("gen", "train"),
    "partition": ("train", "metrics"),
    "eval": ("gen", "partition"),
    "report": ("eval",),
}


@pytest.mark.parametrize("stage", STAGES)
def test_each_stage_reads_only_the_stages_it_verifies(tmp_path, stage):
    run_dir = run_pipeline(_small_config(tmp_path), tmp_path / "run")
    manifest = json.loads((run_dir / "manifest.json").read_text())
    kept = {rel for s in VERIFIED[stage] for rel in manifest["stages"][s]["files"]}
    for entry in manifest["stages"].values():
        for rel in set(entry["files"]) - kept:
            (run_dir / rel).unlink()
    if stage == "report":
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "config.json", "eval.json", "manifest.json",
        ]
    run = Run.open(run_dir)
    assert run_stage(run, stage, force=True)
    assert all((run_dir / rel).exists() for rel in run.manifest["stages"][stage]["files"])


def test_a_forced_rerun_is_parsed_again(tmp_path, monkeypatch):
    tables = _count_calls(monkeypatch, "load_metric_table")
    run = Run.open(tmp_path / "run", load_config(_small_config(tmp_path)))
    for stage in STAGES:
        run_stage(run, stage)
    assert len(tables) == 1
    run_stage(run, "metrics", force=True)
    run_stage(run, "partition", force=True)
    assert len(tables) == 2


def test_seed_override_changes_the_data(tmp_path):
    cfg_path = _small_config(tmp_path)
    d1 = run_pipeline(cfg_path, tmp_path / "a", stage="gen")
    d2 = run_pipeline(cfg_path, tmp_path / "b", seed=99, stage="gen")
    assert (d1 / "train_X.npy").read_bytes() != (d2 / "train_X.npy").read_bytes()


def test_run_directory_rejects_foreign_config(tmp_path):
    cfg_path = _small_config(tmp_path)
    run_dir = run_pipeline(cfg_path, tmp_path / "run", stage="gen")
    config_before = (run_dir / "config.json").read_bytes()
    (tmp_path / "other").mkdir(exist_ok=True)
    other = _small_config(tmp_path / "other", seed=5)
    with pytest.raises(StageError):
        run_pipeline(other, run_dir, stage="gen")
    # The refused config left the directory untouched and usable.
    assert (run_dir / "config.json").read_bytes() == config_before
    assert Run.open(run_dir).config == load_config(cfg_path)


@pytest.mark.parametrize(
    "raw",
    [
        {"train": {"epoch": 3}},
        {"grid": {"seed": 4}},
        {"bogus": 1},
        {"grid": {"level": 3}},
        {"grid": 3},
        # Known keys with values the stages would reject later.
        {"train": {"epochs": 0}},
        {"oracle": {"epochs": 0}},
        {"noise": {"delta": 1.5}},
        # Text that is not a JSON object, and values of the wrong type.
        pytest.param('{"train": {"epochs": 5', id="malformed-json"),
        pytest.param([{"train": {}}], id="top-level-list"),
        pytest.param({"train": {"epochs": "5"}}, id="epochs-as-string"),
        pytest.param({"train": {"epochs": 5.0}}, id="epochs-as-float"),
        pytest.param({"eval": {"retrain": 1}}, id="retrain-as-int"),
        # Layer widths that init_model rejects, on the default grid's shape.
        pytest.param({"train": {"feature_width": 0}}, id="feature-width-0"),
        pytest.param({"train": {"hidden_sizes": [0]}}, id="hidden-width-0"),
        pytest.param({"train": {"hidden_sizes": []}}, id="no-hidden-m-not-d"),
        # Retraining with no seed would report NaN accuracies.
        pytest.param({"eval": {"retrain": True, "retrain_seeds": []}}, id="retrain-no-seeds"),
        # A second Thres_Loss would share the first's key in partitions.json
        # and add a second report row.
        pytest.param(
            {"methods": ["Thres_Loss", "Thres_Loss", "1d-GMM_Loss"]}, id="method-listed-twice"
        ),
        pytest.param({"hardness": {"jitter_std": -1}}, id="negative-jitter"),
        # A negative eps_max is refused before gen trains the oracle.
        pytest.param({"hardness": {"type": "boundary", "eps_max": -0.3}}, id="negative-eps-max"),
        # The per-level eps schedule and the test-set size are derived, not set.
        pytest.param(
            {"hardness": {"type": "boundary", "eps_by_h": [0, 0.1, 0.2, 0.3, 0.4]}},
            id="eps-by-h",
        ),
        pytest.param({"grid": {"test_per_class": 8}}, id="test-per-class"),
        # No sample of the 5-level default grid is hard at h >= 9.
        pytest.param({"eval": {"h_threshold": 9}}, id="h-threshold-9"),
        pytest.param({"eval": {"h_threshold": -1}}, id="h-threshold-negative"),
        # Training ranges that TrainConfig checks.
        pytest.param({"train": {"momentum": 1.5}}, id="momentum-1.5"),
        pytest.param({"train": {"weight_decay": -1.0}}, id="negative-weight-decay"),
        # Seeds numpy refuses, caught before the run directory is made.
        pytest.param({"seed": -3}, id="negative-seed"),
        pytest.param(
            {"eval": {"retrain": True, "retrain_seeds": [0, -1]}}, id="negative-retrain-seed"
        ),
        # JSON's NaN and Infinity pass every `x < 0` range check.
        pytest.param('{"train": {"learning_rate": NaN}}', id="nan-learning-rate"),
        pytest.param('{"hardness": {"jitter_std": Infinity}}', id="infinite-jitter"),
        pytest.param('{"hardness": {"eps_max": NaN}}', id="nan-eps-max"),
        pytest.param('{"grid": {"cluster_std": NaN}}', id="nan-cluster-std"),
        # An integer too large for a float would overflow in training.
        pytest.param('{"train": {"learning_rate": 1' + "0" * 400 + "}}", id="huge-int-learning-rate"),
    ],
)
def test_load_config_rejects_unknown_keys(tmp_path, raw):
    path = tmp_path / "bad.json"
    path.write_text(raw if isinstance(raw, str) else json.dumps(raw))
    with pytest.raises(ConfigurationError):
        load_config(path)
    result = CliRunner().invoke(
        main, ["run", "--config", str(path), "--out", str(tmp_path / "run")]
    )
    assert result.exit_code == 1
    assert "error:" in result.output
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), pytest.param(10**400, id="int-too-large")]
)
def test_experiment_rejects_non_finite_floats(value):
    with pytest.raises(ConfigurationError, match="learning_rate"):
        experiment({"train": {"learning_rate": value}})


def test_cli_rejects_a_negative_seed_before_writing(tmp_path):
    cfg_path = _small_config(tmp_path)
    out_dir = tmp_path / "run"
    result = CliRunner().invoke(
        main, ["run", "--config", str(cfg_path), "--out", str(out_dir), "--seed", "-3"]
    )
    assert result.exit_code == 1
    assert result.output.startswith("error: ")
    assert not out_dir.exists()


def test_experiment_builds_one_train_config_per_retrain_seed():
    exp = experiment({"eval": {"retrain": True, "retrain_seeds": [3, 5]}})
    assert exp.retrain == (replace(exp.train, seed=3), replace(exp.train, seed=5))
    assert experiment({"eval": {"retrain": False, "retrain_seeds": [3, 5]}}).retrain == ()


def test_every_model_of_a_run_starts_from_its_configs_seed():
    exp = experiment({"eval": {"retrain": True}})
    train, test, _oracle, _provenance = make_datasets(exp)
    assert (test.d, test.K) == (train.d, train.K)
    for cfg in (exp.train, exp.oracle, exp.retrain[-1]):
        got = exp.new_model(cfg)
        want = init_model(train.d, [32], 16, train.K, seed=cfg.seed)
        pairs = list(zip(got.weights + got.biases, want.weights + want.biases))
        assert len(pairs) == 2 * len(want.weights)
        assert all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in pairs)


def test_default_config_is_valid():
    digest = config_digest(DEFAULT_CONFIG)
    assert len(digest) == 64
    assert DEFAULT_CONFIG["hardness"]["type"] == "imbalance"


def test_a_loaded_config_shares_nothing_with_the_defaults(tmp_path):
    digest = config_digest(DEFAULT_CONFIG)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"eval": {"h_threshold": 2}}))
    cfg = load_config(path)
    cfg["train"]["epochs"] = 5  # a section the file leaves out
    cfg["train"]["hidden_sizes"].append(8)
    cfg["eval"]["retrain_seeds"].append(9)  # a list in a section the file sets
    assert experiment({}).train.epochs == 80
    assert experiment({}).hidden_sizes == (32,)
    assert DEFAULT_CONFIG["eval"]["retrain_seeds"] == [0, 1, 2]
    assert config_digest(DEFAULT_CONFIG) == digest


def _key_tree(cfg: dict) -> dict:
    return {k: _key_tree(v) if isinstance(v, dict) else None for k, v in cfg.items()}


def test_readme_config_matches_defaults_and_schema():
    # The JSON block under "### Config format" documents every accepted key
    # with its default.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Config format", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    documented = json.loads(block)
    grid = {k: v for k, v in vars(GridSpec()).items() if k != "seed"}
    assert documented == {**DEFAULT_CONFIG, "grid": grid}
    assert _key_tree(documented) == _key_tree(_SCHEMA)


def test_readme_python_examples_run():
    # README's python blocks run as written, in a fresh interpreter;
    # the first prints the default recipe's noisy and hard recall.
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    code = "\n".join(b.split("```", 1)[0] for b in readme.split("```python\n")[1:])
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    recall_n, recall_h = map(float, out.stdout.splitlines()[0].split())
    assert f"{recall_n:.3f} {recall_h:.3f}" == "0.964 0.452"


def test_load_config_rejects_unknown_method(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"methods": ["bogus"]}))
    from noisesift.errors import UnknownMethodError

    with pytest.raises(UnknownMethodError):
        load_config(path)


def test_cells_csv_covers_the_grid(tmp_path):
    cfg_path = _small_config(tmp_path)
    run_dir = run_pipeline(cfg_path, tmp_path / "run")
    lines = (run_dir / "cells.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 3 * 3  # header + LxL cells


def test_cli_run_and_stage_commands(tmp_path):
    cfg_path = _small_config(tmp_path)
    out_dir = tmp_path / "cli-run"
    base = ["run", "--config", str(cfg_path), "--out", str(out_dir)]
    runner = CliRunner()
    for stage in ("gen", "train"):
        result = runner.invoke(main, [*base, "--stage", stage])
        assert result.exit_code == 0, result.output
    assert sorted(json.loads((out_dir / "manifest.json").read_text())["stages"]) == ["gen", "train"]
    # The whole pipeline runs the remaining stages; --force re-runs one.
    for args in (base, [*base, "--stage", "metrics", "--force"]):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
    assert (out_dir / "report.csv").exists()


def test_cli_reports_pipeline_errors(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"hardness": {"type": "nonsense"}}))
    runner = CliRunner()
    result = runner.invoke(main, ["run", "--config", str(cfg_path)])
    assert result.exit_code == 1
    assert "error:" in result.output


def test_out_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("NOISESIFT_OUT", str(tmp_path / "root"))
    cfg_path = _small_config(tmp_path)
    run_dir = run_pipeline(cfg_path, None, stage="gen")
    assert run_dir.parent == tmp_path / "root"


def test_boundary_pipeline_runs(tmp_path):
    cfg_path = _small_config(
        tmp_path,
        hardness={"type": "boundary", "eps_max": 0.3},
        oracle={"epochs": 8},
    )
    run_dir = run_pipeline(cfg_path, tmp_path / "run", stage="gen")
    assert (run_dir / "oracle_w0.npy").exists()
    assert len(np.load(run_dir / "train_X.npy")) > 0


def test_a_one_class_grid_runs_with_no_other_class_probability(tmp_path):
    cfg_path = _small_config(tmp_path, grid={**SMALL_GRID, "levels": 1}, eval={"h_threshold": 0})
    run_dir = run_pipeline(cfg_path, tmp_path / "run")
    p_max_other = np.load(run_dir / "traces_p_max_other.npy")
    assert p_max_other.shape == (6, 16)
    assert not p_max_other.any() and not np.signbit(p_max_other).any()


def test_retrain_eval_columns(tmp_path):
    cfg_path = _small_config(
        tmp_path,
        eval={"retrain": True, "retrain_seeds": [0], "h_threshold": 2},
        methods=["Thres_Loss"],
    )
    run_dir = run_pipeline(cfg_path, tmp_path / "run")
    rows = json.loads((run_dir / "eval.json").read_text())
    for row in rows:
        assert row["test_accuracy_mean"] is not None
        assert 0.0 <= row["test_accuracy_mean"] <= 1.0
