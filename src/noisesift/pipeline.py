"""Run-directory pipeline: gen -> train -> metrics -> partition -> eval
-> report, with a checksummed manifest and seeded reproducibility.  A
stage verifies every stage whose files it reads, then loads them itself."""

from __future__ import annotations

import copy
import csv
import hashlib
import itertools
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import mlp, transforms
from .artifacts import read_object
from .data import Dataset, GridSpec, generate_base, load_dataset, save_dataset
from .errors import ConfigurationError, StageError
from .evaluation import EvalReport, retrain_on_subset, score_partition
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
    run_method,  # noqa: F401  (kept bound here: the benchmark tracer's test probes it)
    run_methods,
    save_partition,
)

HARDNESS_TYPES = ("none", "imbalance", "diversification", "boundary")


def _field_defaults(spec: type) -> dict:
    """The default of every field of a spec class but its seed, which a
    config sets once at the top level."""
    return {f.name: f.default for f in fields(spec) if f.name != "seed"}


DEFAULT_CONFIG = {
    "seed": 0,
    "grid": {},
    "hardness": {"type": "imbalance", "jitter_std": 0.1, "eps_max": 0.5},
    "noise": _field_defaults(transforms.NoiseSpec),
    "train": {**_field_defaults(TrainConfig), "hidden_sizes": [32], "feature_width": 16},
    "oracle": {"epochs": 30},
    "methods": ["2d-GMM_acc-SCD"],
    "eval": {"retrain": False, "retrain_seeds": [0, 1, 2], "h_threshold": 4},
}


# Every key a config may hold, each with a value of the type it must have:
# the keys of DEFAULT_CONFIG and the GridSpec fields.
_SCHEMA = {**DEFAULT_CONFIG, "grid": _field_defaults(GridSpec)}


def _has_type_of(value, example) -> bool:
    """Whether `value` has the type of the schema's `example`: a float takes
    an int or a float that is finite as a float, a list takes a list of
    items of its first item's type, and only a bool takes a bool."""
    if isinstance(value, bool) or isinstance(example, bool):
        return isinstance(value, bool) and isinstance(example, bool)
    if isinstance(example, float):
        try:
            return isinstance(value, (int, float)) and math.isfinite(value)
        except OverflowError:  # an int too large for a float
            return False
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
    """`override` merged key by key over a deep copy of `base`, so that the
    result shares no dict or list with `base`."""
    out = copy.deepcopy(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = v
    return out


def load_config(path: str | Path, seed_override: int | None = None) -> dict:
    """Read a JSON config, merge it over DEFAULT_CONFIG and check it by
    building its Experiment."""
    cfg = _deep_merge(DEFAULT_CONFIG, read_object(path, ConfigurationError))
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
    eps_max: float
    noise: transforms.NoiseSpec
    train: TrainConfig
    oracle: TrainConfig
    hidden_sizes: tuple[int, ...]
    feature_width: int
    methods: tuple[MethodSpec, ...]
    retrain: tuple[TrainConfig, ...]    # empty when eval.retrain is off
    h_threshold: int

    @property
    def seed(self) -> int:
        return self.grid.seed

    def new_model(self, cfg: TrainConfig) -> Model:
        """A fresh model of the run's shape, initialised with `cfg.seed`.
        Every dataset of a run has the grid's input width and class count."""
        return init_model(
            self.grid.input_dim, list(self.hidden_sizes), self.feature_width,
            self.grid.n_classes, seed=cfg.seed,
        )

    def train_model(self, dataset: Dataset) -> tuple[Model, TraceStore]:
        """Train a fresh model on `dataset` with traces and the run's `train` config."""
        return train_with_tracing(self.new_model(self.train), dataset, self.train)


def experiment(cfg: dict) -> Experiment:
    """Merge `cfg` over DEFAULT_CONFIG, check it and build its Experiment.
    The derived seeds are set here and nowhere else: the hardness transform
    takes seed + 1, label noise seed + 2, the boundary oracle seed + 7 and
    each retraining its eval.retrain_seeds entry."""
    cfg = _deep_merge(DEFAULT_CONFIG, cfg)
    _check_schema(cfg, _SCHEMA)
    seed, h, t, ev = cfg["seed"], cfg["hardness"], cfg["train"], cfg["eval"]
    if h["type"] not in HARDNESS_TYPES:
        raise ConfigurationError(f"unknown hardness type {h['type']!r}")
    if h["jitter_std"] < 0:
        raise ConfigurationError("hardness.jitter_std must be >= 0")
    if h["eps_max"] < 0:
        raise ConfigurationError("hardness.eps_max must be >= 0")
    if seed < 0 or any(s < 0 for s in ev["retrain_seeds"]):
        raise ConfigurationError("seed and eval.retrain_seeds must be >= 0")
    grid = GridSpec(**cfg["grid"], seed=seed)
    noise = transforms.NoiseSpec(**cfg["noise"], seed=seed + 2)
    shape = ("hidden_sizes", "feature_width")  # the model's; the rest make its TrainConfig
    train = TrainConfig(seed=seed, **{k: v for k, v in t.items() if k not in shape})
    oracle = replace(train, epochs=cfg["oracle"]["epochs"], seed=seed + 7)
    retrain = tuple(replace(train, seed=s) for s in ev["retrain_seeds"]) if ev["retrain"] else ()
    layer_sizes(grid.input_dim, t["hidden_sizes"], t["feature_width"], grid.n_classes)
    if ev["retrain"] and not ev["retrain_seeds"]:
        raise ConfigurationError("eval.retrain needs at least one of eval.retrain_seeds")
    if not 0 <= ev["h_threshold"] < grid.levels:
        raise ConfigurationError(f"eval.h_threshold must be in [0, grid.levels = {grid.levels})")
    # A method's partition and its report row are keyed by its name.
    names = cfg["methods"]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigurationError(f"methods lists {name!r} more than once")
    return Experiment(
        grid=grid,
        hardness=h["type"],
        hardness_seed=seed + 1,
        jitter_std=h["jitter_std"],
        eps_max=h["eps_max"],
        noise=noise,
        train=train,
        oracle=oracle,
        hidden_sizes=tuple(t["hidden_sizes"]),
        feature_width=t["feature_width"],
        methods=tuple(lookup_method(name) for name in cfg["methods"]),
        retrain=retrain,
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
        [oracle] = mlp.train([exp.new_model(exp.oracle)], [train], [exp.oracle])
        train = transforms.apply_boundary_shift(train, oracle, exp.eps_max)
        provenance.append(
            {"transform": "boundary", "eps_max": exp.eps_max, "seed": exp.oracle.seed}
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


def _check_manifest(manifest: dict, path: Path) -> None:
    """Raise StageError("init") naming `path` unless `manifest` has the
    keys the stages read: a `config_digest` string, `timestamps` and
    `stages` objects, and a `files` object in every stage entry."""
    for key, kind, what in (
        ("config_digest", str, "a string"),
        ("stages", dict, "an object"),
        ("timestamps", dict, "an object"),
    ):
        if not isinstance(manifest.get(key), kind):
            raise StageError("init", f"{path} is not a run manifest: {key!r} must be {what}")
    for stage, entry in manifest["stages"].items():
        if not isinstance(entry, dict) or not isinstance(entry.get("files"), dict):
            raise StageError(
                "init", f"{path} is not a run manifest: stage {stage!r} has no 'files' object"
            )


@dataclass
class Run:
    """A run directory with its config and manifest.  Each stage verifies
    the stages whose files it reads with `require_stage`, then loads those
    files itself."""

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
        stored = read_object(cfg_path, StageError, "init") if cfg_path.exists() else None
        config = stored if config is None else config
        if config is None:
            raise StageError("init", f"no config in {directory}")
        exp = experiment(config)
        digest = config_digest(config)
        man_path = directory / "manifest.json"
        if man_path.exists():
            manifest = read_object(man_path, StageError, "init")
            _check_manifest(manifest, man_path)
            if manifest["config_digest"] != digest:
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


# ---------------------------------------------------------------------------
# stages


def stage_gen(run: Run) -> None:
    exp = run.experiment
    train, test, oracle, provenance = make_datasets(exp)
    files = [] if oracle is None else save_model(oracle, run.directory / "oracle")
    files += save_dataset(train, run.directory, "train")
    files += save_dataset(test, run.directory, "test")
    noisy, hard = train.mislabeled, train.hard(exp.h_threshold)
    gt_path = run.directory / "ground_truth.json"
    # For readers of the run directory; eval reads the split off the train set.
    gt_path.write_text(
        json.dumps(
            {
                "noisy_ids": train.ids[noisy].tolist(),
                "hard_ids": train.ids[hard].tolist(),
                "easy_ids": train.ids[~(noisy | hard)].tolist(),
                "h_threshold": exp.h_threshold,
            }
        )
    )
    run.manifest["provenance"] = provenance
    run.mark_complete("gen", files + [gt_path])


def stage_train(run: Run) -> None:
    run.require_stage("gen", "train")
    train = load_dataset(run.directory, "train")
    model, traces = run.experiment.train_model(train)
    files = save_model(model, run.directory / "model") + save_traces(traces, run.directory)
    run.mark_complete("train", files)


CELL_METRICS = ("loss_end", "confidence_end", "scd", "acd", "acc_over_training")


def stage_metrics(run: Run) -> None:
    run.require_stage("gen", "metrics")
    run.require_stage("train", "metrics")
    train = load_dataset(run.directory, "train")
    traces = load_traces(run.directory)
    if not np.array_equal(traces.ids, train.ids):
        raise StageError("metrics", "traces ids do not match the train set")
    table = compute_metric_table(traces)
    files = save_metric_table(table, run.directory)

    # Per-cell aggregates for plotting metric-vs-(h, n) behavior.
    cells_csv = run.directory / "cells.csv"
    with open(cells_csv, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["h", "n", "count"] + [f"mean_{m}" for m in CELL_METRICS])
        sample_h, sample_n = train.h, train.n
        for h, n in itertools.product(range(train.levels), repeat=2):
            mask = (sample_h == h) & (sample_n == n)
            row = [h, n, int(mask.sum())]
            for m in CELL_METRICS:
                vals = table.values[m][mask]
                row.append(repr(float(vals.mean())) if len(vals) else "")
            w.writerow(row)
    run.mark_complete("metrics", files + [cells_csv])


def stage_partition(run: Run) -> None:
    run.require_stage("train", "partition")
    run.require_stage("metrics", "partition")
    table = load_metric_table(run.directory)
    traces = load_traces(run.directory)
    parts = run_methods(run.experiment.methods, table, traces, seed=run.experiment.seed)
    run.mark_complete("partition", save_partition(table.ids, parts, run.directory))


def stage_eval(run: Run) -> None:
    run.require_stage("gen", "eval")
    run.require_stage("partition", "eval")
    exp = run.experiment
    train = load_dataset(run.directory, "train")

    # Baseline row: the untouched dataset.
    parts = [Partition(train.ids, np.zeros(len(train), dtype=bool), "Original dataset")]
    parts += load_partition(run.directory)
    if [p.method_name for p in parts[1:]] != [m.name for m in exp.methods]:
        raise StageError("eval", "the stored partitions are not the config's methods, in order")
    reports = [score_partition(part, train, exp.h_threshold) for part in parts]
    if exp.retrain:
        models = [exp.new_model(cfg) for cfg in exp.retrain]
        test = load_dataset(run.directory, "test")
        retrained = retrain_on_subset(train, parts, test, models, list(exp.retrain))
        for report, (acc, std, loss) in zip(reports, retrained):
            report.test_accuracy_mean = acc
            report.test_accuracy_std = std
            report.test_loss_mean = loss
    rows = [asdict(report) for report in reports]

    path = run.directory / "eval.json"
    path.write_text(json.dumps(rows, indent=2))
    run.mark_complete("eval", [path])


REPORT_COLUMNS = tuple(f.name for f in fields(EvalReport))


def _sig4(v) -> str:
    if v is None or v == "":
        return "NA"
    if isinstance(v, str):
        return v
    if isinstance(v, int):
        return str(v)
    return f"{v:.4g}"


def stage_report(run: Run) -> None:
    run.require_stage("eval", "report")
    rows = json.loads((run.directory / "eval.json").read_text())
    if not isinstance(rows, list) or not all(
        isinstance(r, dict) and r.keys() >= set(REPORT_COLUMNS) for r in rows
    ):
        raise StageError("report", "artifact eval.json must list objects with every report column")

    report_csv = run.directory / "report.csv"
    with open(report_csv, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(REPORT_COLUMNS)
        w.writerows([r[c] for c in REPORT_COLUMNS] for r in rows)

    md = run.directory / "report.md"
    header = (
        "| Method | |S̃_c| | Correct Label % | Precision_n | Recall_n | Recall_h "
        "| Estimated LNL | Test Acc (mean) | Test Acc (std) | Test Loss |\n"
    )
    sep = "|" + "---|" * 10 + "\n"
    lines = [header, sep]
    lines += ["| " + " | ".join(_sig4(r[c]) for c in REPORT_COLUMNS) + " |\n" for r in rows]
    md.write_text("".join(lines))
    run.mark_complete("report", [report_csv, md])


STAGE_FUNCS = {
    "gen": stage_gen,
    "train": stage_train,
    "metrics": stage_metrics,
    "partition": stage_partition,
    "eval": stage_eval,
    "report": stage_report,
}

STAGES = tuple(STAGE_FUNCS)


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
