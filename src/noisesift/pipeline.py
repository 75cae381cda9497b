"""Run-directory pipeline: gen -> train -> metrics -> partition -> eval
-> report, with a checksummed manifest and seeded reproducibility."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import transforms
from .data import Dataset, GridSpec, generate_base, load_dataset, save_dataset
from .errors import ConfigurationError, StageError
from .evaluation import EvalReport, retrain_on_subset, score_partition
from .gmm import GmmConfig
from .metrics import compute_metric_table, load_metric_table, save_metric_table
from .mlp import (
    Model,
    TraceStore,
    TrainConfig,
    init_model,
    layer_sizes,
    load_traces,
    save_model,
    save_traces,
    train_with_tracing,
)
from .partition import (
    MethodSpec,
    Partition,
    lookup_method,
    load_partition,
    run_method,
    save_partition,
)

STAGES = ("gen", "train", "metrics", "partition", "eval", "report")

HARDNESS_TYPES = ("none", "imbalance", "diversification", "boundary")

DEFAULT_CONFIG = {
    "seed": 0,
    "grid": {},
    "hardness": {"type": "imbalance", "jitter_std": 0.1, "eps_max": 0.5},
    "noise": {"delta": 0.4},
    "train": {
        "epochs": 80,
        "batch_size": 64,
        "learning_rate": 0.01,
        "momentum": 0.9,
        "weight_decay": 5e-4,
        "hidden_sizes": [32],
        "feature_width": 16,
    },
    "oracle": {"epochs": 30},
    "methods": ["2d-GMM_acc-SCD"],
    "eval": {"retrain": False, "retrain_seeds": [0, 1, 2], "h_threshold": 4},
}


# Every key a config may hold, each with a value of the type it must have:
# the keys of DEFAULT_CONFIG, the GridSpec fields (the seed is the top-level
# one) and the optional hardness schedule.
_SCHEMA = {
    **DEFAULT_CONFIG,
    "grid": {k: v for k, v in vars(GridSpec()).items() if k != "seed"},
    "hardness": {**DEFAULT_CONFIG["hardness"], "eps_by_h": [0.0]},
}


def _has_type_of(value, example) -> bool:
    """Whether `value` has the type of the schema's `example`: a float also
    takes an int, a None example takes an int or null, a list takes a list
    of items of its first item's type, and only a bool takes a bool."""
    if example is None:
        return value is None or _has_type_of(value, 0)
    if isinstance(value, bool) or isinstance(example, bool):
        return isinstance(value, bool) and isinstance(example, bool)
    if isinstance(example, float):
        return isinstance(value, (int, float))
    if isinstance(example, list):
        return isinstance(value, list) and all(_has_type_of(v, example[0]) for v in value)
    return isinstance(value, type(example))


def _check_schema(cfg: dict, schema: dict, where: str = "") -> None:
    for key, value in cfg.items():
        if key not in schema:
            raise ConfigurationError(f"unknown config key {where + key!r}")
        if isinstance(schema[key], dict):
            if not isinstance(value, dict):
                raise ConfigurationError(f"config key {where + key!r} must be an object")
            _check_schema(value, schema[key], f"{where}{key}.")
        elif not _has_type_of(value, schema[key]):
            raise ConfigurationError(f"config key {where + key!r} has the wrong type: {value!r}")


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = v
    return out


def load_config(path: str | Path, seed_override: int | None = None) -> dict:
    """Read a JSON config, merge it over DEFAULT_CONFIG and check it by
    building its Experiment."""
    try:
        raw = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config {path} must hold a JSON object")
    cfg = _deep_merge(DEFAULT_CONFIG, raw)
    if seed_override is not None:
        cfg["seed"] = seed_override
    experiment(cfg)
    return cfg


@dataclass(frozen=True)
class Experiment:
    """Every object a run needs, built once from a checked config.  Stages
    read this, never the config dict."""

    grid: GridSpec
    hardness: str
    hardness_seed: int
    jitter_std: float
    eps: transforms.EpsSchedule
    noise: transforms.NoiseSpec
    train: TrainConfig
    oracle: TrainConfig
    hidden_sizes: tuple[int, ...]
    feature_width: int
    methods: tuple[MethodSpec, ...]
    retrain_seeds: tuple[int, ...]    # empty when eval.retrain is off
    h_threshold: int

    @property
    def seed(self) -> int:
        return self.grid.seed

    def train_model(self, dataset: Dataset, cfg: TrainConfig) -> tuple[Model, TraceStore]:
        """Train a fresh model of the run's shape on `dataset`, initialised
        with `cfg.seed`."""
        model = init_model(
            dataset.d, list(self.hidden_sizes), self.feature_width, dataset.K, seed=cfg.seed
        )
        return train_with_tracing(model, dataset, cfg)


def experiment(cfg: dict) -> Experiment:
    """Merge `cfg` over DEFAULT_CONFIG, check it and build its Experiment.
    The derived seeds are set here and nowhere else: the hardness transform
    takes seed + 1, label noise seed + 2 and the boundary oracle seed + 7."""
    cfg = _deep_merge(DEFAULT_CONFIG, cfg)
    _check_schema(cfg, _SCHEMA)
    seed, h, t, ev = cfg["seed"], cfg["hardness"], cfg["train"], cfg["eval"]
    if h["type"] not in HARDNESS_TYPES:
        raise ConfigurationError(f"unknown hardness type {h['type']!r}")
    if h["jitter_std"] < 0:
        raise ConfigurationError("hardness.jitter_std must be >= 0")
    grid = GridSpec(**{**cfg["grid"], "seed": seed})
    grid.validate()
    if "eps_by_h" in h:
        eps = transforms.EpsSchedule(tuple(h["eps_by_h"]))
    else:
        eps = transforms.EpsSchedule.linear(grid.levels, h["eps_max"])
    eps.validate(grid.levels)
    noise = transforms.NoiseSpec(delta=cfg["noise"]["delta"], seed=seed + 2)
    noise.validate()
    shape = ("hidden_sizes", "feature_width")  # the model's; the rest make its TrainConfig
    train = TrainConfig(seed=seed, **{k: v for k, v in t.items() if k not in shape})
    oracle = replace(train, epochs=cfg["oracle"]["epochs"], seed=seed + 7)
    train.validate()
    oracle.validate()
    layer_sizes(grid.input_dim, t["hidden_sizes"], t["feature_width"], grid.n_classes)
    if ev["retrain"] and not ev["retrain_seeds"]:
        raise ConfigurationError("eval.retrain needs at least one of eval.retrain_seeds")
    if not 0 <= ev["h_threshold"] < grid.levels:
        raise ConfigurationError(f"eval.h_threshold must be in [0, grid.levels = {grid.levels})")
    return Experiment(
        grid=grid,
        hardness=h["type"],
        hardness_seed=seed + 1,
        jitter_std=h["jitter_std"],
        eps=eps,
        noise=noise,
        train=train,
        oracle=oracle,
        hidden_sizes=tuple(t["hidden_sizes"]),
        feature_width=t["feature_width"],
        methods=tuple(lookup_method(name) for name in cfg["methods"]),
        retrain_seeds=tuple(ev["retrain_seeds"]) if ev["retrain"] else (),
        h_threshold=ev["h_threshold"],
    )


def make_datasets(exp: Experiment) -> tuple[Dataset, Dataset, Model | None, list[dict]]:
    """The seeded recipe of a run: the base grid, its hardness transform and
    label noise.  Returns (train, test, the boundary oracle or None,
    provenance)."""
    train, test = generate_base(exp.grid)
    provenance = [{"transform": "generate_base", "seed": exp.seed}]
    oracle = None
    if exp.hardness == "imbalance":
        train = transforms.apply_imbalance(train, seed=exp.hardness_seed)
        provenance.append({"transform": "imbalance", "seed": exp.hardness_seed})
    elif exp.hardness == "diversification":
        train = transforms.apply_diversification(train, exp.jitter_std, exp.hardness_seed)
        provenance.append(
            {"transform": "diversification", "jitter_std": exp.jitter_std, "seed": exp.hardness_seed}
        )
    elif exp.hardness == "boundary":
        oracle, _ = exp.train_model(train, exp.oracle)
        train = transforms.apply_boundary_shift(train, oracle, exp.eps)
        provenance.append(
            {"transform": "boundary", "eps_by_h": list(exp.eps.eps_by_h), "seed": exp.oracle.seed}
        )
    train = transforms.inject_label_noise(train, exp.noise)
    provenance.append({"transform": "noise", "delta": exp.noise.delta, "seed": exp.noise.seed})
    return train, test, oracle, provenance


def config_digest(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def default_out_root() -> Path:
    return Path(os.environ.get("NOISESIFT_OUT", "runs"))


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


@dataclass
class Run:
    """A run directory with its config and manifest."""

    directory: Path
    config: dict
    experiment: Experiment
    manifest: dict = field(default_factory=dict)

    @staticmethod
    def open(directory: str | Path, config: dict | None = None) -> "Run":
        """Open a run directory; with `config`, create it or check that it
        holds the same config before writing anything."""
        directory = Path(directory)
        cfg_path = directory / "config.json"
        stored = json.loads(cfg_path.read_text()) if cfg_path.exists() else None
        config = stored if config is None else config
        if config is None:
            raise StageError("init", f"no config in {directory}")
        exp = experiment(config)
        digest = config_digest(config)
        man_path = directory / "manifest.json"
        if man_path.exists():
            manifest = json.loads(man_path.read_text())
            if manifest.get("config_digest") != digest:
                raise StageError("init", "run directory holds a different config")
        else:
            manifest = {
                "run_id": digest[:12],
                "config_digest": digest,
                "seed": exp.seed,
                "stages": {},
                "timestamps": {},
            }
        if config != stored:
            directory.mkdir(parents=True, exist_ok=True)
            _write_atomic(cfg_path, json.dumps(config, indent=2, sort_keys=True))
        return Run(directory=directory, config=config, experiment=exp, manifest=manifest)

    # -- manifest bookkeeping -------------------------------------------------

    def _write_manifest(self) -> None:
        _write_atomic(
            self.directory / "manifest.json",
            json.dumps(self.manifest, indent=2, sort_keys=True),
        )

    def stage_complete(self, stage: str) -> bool:
        return self.manifest["stages"].get(stage, {}).get("complete", False)

    def mark_complete(self, stage: str, files: list[Path]) -> None:
        self.manifest["stages"][stage] = {
            "complete": True,
            "files": {
                str(p.relative_to(self.directory)): _sha256(p) for p in files
            },
        }
        self.manifest["timestamps"][stage] = time.strftime(
            "%Y-%m-%dT%H:%M:%S", time.gmtime()
        )
        self._write_manifest()

    def require_stage(self, stage: str, needed_by: str) -> None:
        entry = self.manifest["stages"].get(stage)
        if not entry or not entry.get("complete"):
            raise StageError(needed_by, f"stage {stage!r} has not completed")
        for rel, digest in entry["files"].items():
            p = self.directory / rel
            if not p.exists():
                raise StageError(needed_by, f"artifact {rel} is missing")
            if _sha256(p) != digest:
                raise StageError(needed_by, f"artifact {rel} fails its checksum")

    def _partition_prefix(self, method_name: str) -> str:
        return "partition_" + method_name.replace("/", "_")


# ---------------------------------------------------------------------------
# stages


def stage_gen(run: Run) -> None:
    exp = run.experiment
    train, test, oracle, provenance = make_datasets(exp)
    files = [] if oracle is None else save_model(oracle, run.directory / "oracle")
    gt = transforms.ground_truth_partition(train, exp.h_threshold)
    files += save_dataset(train, run.directory, "train")
    files += save_dataset(test, run.directory, "test")
    gt_path = run.directory / "ground_truth.json"
    # For readers of the run directory; eval recomputes the partition.
    gt_path.write_text(
        json.dumps(
            {
                "noisy_ids": gt.ids[gt.noisy].tolist(),
                "hard_ids": gt.ids[gt.hard].tolist(),
                "easy_ids": gt.ids[gt.easy].tolist(),
                "h_threshold": gt.h_threshold,
            }
        )
    )
    run.manifest["provenance"] = provenance
    run.mark_complete("gen", files + [gt_path])


def stage_train(run: Run) -> None:
    run.require_stage("gen", "train")
    train = load_dataset(run.directory, "train")
    model, traces = run.experiment.train_model(train, run.experiment.train)
    files = save_model(model, run.directory / "model") + save_traces(traces, run.directory)
    run.mark_complete("train", files)


def stage_metrics(run: Run) -> None:
    run.require_stage("train", "metrics")
    traces = load_traces(run.directory)
    table = compute_metric_table(traces)
    run.mark_complete("metrics", save_metric_table(table, run.directory))


def stage_partition(run: Run) -> None:
    run.require_stage("train", "partition")
    run.require_stage("metrics", "partition")
    table = load_metric_table(run.directory)
    traces = load_traces(run.directory)
    gmm_cfg = GmmConfig(seed=run.experiment.seed)
    files: list[Path] = []
    for spec in run.experiment.methods:
        part = run_method(spec, table, traces, gmm_cfg)
        files += save_partition(part, run.directory, run._partition_prefix(spec.name))
    run.mark_complete("partition", files)


def stage_eval(run: Run) -> None:
    run.require_stage("gen", "eval")
    run.require_stage("partition", "eval")
    exp = run.experiment
    train = load_dataset(run.directory, "train")
    test = load_dataset(run.directory, "test")
    gt = transforms.ground_truth_partition(train, exp.h_threshold)

    # Baseline row: the untouched dataset.
    parts = [Partition(train.ids, np.zeros(len(train), dtype=bool), "Original dataset")]
    parts += [load_partition(run.directory, run._partition_prefix(m.name)) for m in exp.methods]
    rows = []
    for part in parts:
        report = score_partition(part, gt, train)
        if exp.retrain_seeds:
            acc, std, loss = retrain_on_subset(
                train, part, exp.train, test, exp.retrain_seeds, exp.hidden_sizes, exp.feature_width
            )
            report.test_accuracy_mean = acc
            report.test_accuracy_std = std
            report.test_loss_mean = loss
        rows.append(asdict(report))

    path = run.directory / "eval.json"
    path.write_text(json.dumps(rows, indent=2))
    run.mark_complete("eval", [path])


REPORT_COLUMNS = tuple(f.name for f in fields(EvalReport))

CELL_METRICS = ("loss_end", "confidence_end", "scd", "acd", "acc_over_training")


def _sig4(v) -> str:
    if v is None or v == "":
        return "NA"
    if isinstance(v, str):
        return v
    if isinstance(v, int):
        return str(v)
    return f"{v:.4g}"


def stage_report(run: Run) -> None:
    run.require_stage("gen", "report")
    run.require_stage("metrics", "report")
    run.require_stage("eval", "report")
    rows = json.loads((run.directory / "eval.json").read_text())
    files = []

    report_csv = run.directory / "report.csv"
    with open(report_csv, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(REPORT_COLUMNS)
        w.writerows([r[c] for c in REPORT_COLUMNS] for r in rows)
    files.append(report_csv)

    md = run.directory / "report.md"
    header = (
        "| Method | |S̃_c| | Correct Label % | Precision_n | Recall_n | Recall_h "
        "| Estimated LNL | Test Acc (mean) | Test Acc (std) | Test Loss |\n"
    )
    sep = "|" + "---|" * 10 + "\n"
    lines = [header, sep]
    for r in rows:
        lines.append(
            "| " + " | ".join(_sig4(r[c]) for c in REPORT_COLUMNS) + " |\n"
        )
    md.write_text("".join(lines))
    files.append(md)

    # Per-cell aggregates for plotting metric-vs-(h, n) behavior.
    table = load_metric_table(run.directory)
    train = load_dataset(run.directory, "train")
    if not np.array_equal(table.ids, train.ids):
        raise StageError("report", "metrics.csv ids do not match the train set")
    cells_csv = run.directory / "cells.csv"
    with open(cells_csv, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["h", "n", "count"] + [f"mean_{m}" for m in CELL_METRICS])
        for h in range(train.levels):
            for n in range(train.levels):
                mask = (train.h == h) & (train.n == n)
                row = [h, n, int(mask.sum())]
                for m in CELL_METRICS:
                    vals = table.values[m][mask]
                    row.append(repr(float(vals.mean())) if len(vals) else "")
                w.writerow(row)
    files.append(cells_csv)
    run.mark_complete("report", files)


STAGE_FUNCS = {
    "gen": stage_gen,
    "train": stage_train,
    "metrics": stage_metrics,
    "partition": stage_partition,
    "eval": stage_eval,
    "report": stage_report,
}


def run_stage(run: Run, stage: str, force: bool = False) -> bool:
    """Execute one stage; returns False if skipped as already complete."""
    if stage not in STAGE_FUNCS:
        raise StageError(stage, "unknown stage")
    if run.stage_complete(stage) and not force:
        return False
    STAGE_FUNCS[stage](run)
    return True


def run_pipeline(
    config_path: str | Path,
    out_dir: str | Path | None = None,
    seed: int | None = None,
    force: bool = False,
    stage: str | None = None,
) -> Path:
    """Run the full pipeline (or one stage) and return the run directory."""
    cfg = load_config(config_path, seed_override=seed)
    if out_dir is None:
        out_dir = default_out_root() / f"run-{config_digest(cfg)[:12]}"
    run = Run.open(out_dir, cfg)
    stages = [stage] if stage else list(STAGES)
    for s in stages:
        run_stage(run, s, force=force)
    return run.directory
