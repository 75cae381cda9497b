"""The benchmark's workloads: what one operation is, and how it is checked.

Each workload is a pipeline config and a pool of config seeds drawn from
the workload seed; operations cycle through the pool, one run directory
each.  An operation either runs `gen -> report` into a new run directory
(fresh runs) or re-runs `metrics -> report` with `force=True` on a run
directory built during set-up (reruns).  After each operation the
benchmark hashes the three byte-identity outputs, checks the manifest and
checks the report's shape and ranges on its own, without calling into the
package.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from noisesift.partition import TABLE1_METHOD_NAMES, builtin_methods
from noisesift.pipeline import DEFAULT_CONFIG, STAGES, run_pipeline

# Outputs that must stay byte-identical for a config and seed.
HASHED_OUTPUTS = ("report.csv", "cells.csv", "metrics.csv")
# Report columns that are fractions of a set, so lie in [0, 1] when present.
REPORT_FRACTIONS = (
    "correct_label_fraction", "precision_n", "recall_n", "recall_h",
    "estimated_lnl", "test_accuracy_mean",
)

BATCH_SIZE = DEFAULT_CONFIG["train"]["batch_size"]  # no workload overrides it


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict
    rerun: bool         # ops re-run `metrics -> report` on runs built in set-up
    pool: int = 1       # run directories the operations cycle through, one config seed each
    setup_reps: int = 7  # set-ups per benchmark run; `setup_s` is their median

    def configs(self, seed: int) -> list[dict]:
        """Configs of the pool's instances.  Their seeds are scattered over
        the 32-bit range: the cost of runs with nearby config seeds can be
        correlated, so consecutive seeds would not average out."""
        seeds = np.random.SeedSequence(seed).generate_state(self.pool)
        return [{**self.overrides, "seed": int(s)} for s in seeds]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fresh-default",
            overrides={"train": {"epochs": 20}},
            rerun=False,
        ),
        # A quarter of the default grid, so that a run holds about twelve
        # operations.  Retrain subsets and EM iterations depend on the
        # data, so operations cycle through twelve config seeds.
        Workload(
            name="table1-retrain",
            overrides={
                "grid": {"per_class_count": 64},
                "train": {"epochs": 20},
                "methods": list(TABLE1_METHOD_NAMES),
                "eval": {"retrain": True, "retrain_seeds": [0, 1, 2]},
            },
            rerun=False,
            pool=12,
        ),
        # The EM iterations of one small run vary by about 15% between
        # config seeds, so operations cycle through twelve of them and a
        # benchmark run averages over the pool.  Building the pool makes
        # set-up long, hence three set-ups instead of seven.
        Workload(
            name="ablation-rerun",
            overrides={
                "grid": {"per_class_count": 16},
                "hardness": {"type": "diversification"},
                "train": {"epochs": 20},
                "methods": [m.name for m in builtin_methods()],
            },
            rerun=True,
            pool=12,
            setup_reps=3,
        ),
    )
}


def set_up(workload: Workload, seed: int, directory: Path) -> list[Path]:
    """Write the pool's configs into `directory`; for reruns also run the
    stages that operations do not re-run.  Returns the config paths."""
    paths = []
    for j, config in enumerate(workload.configs(seed)):
        path = directory / f"config-{j}.json"
        path.write_text(json.dumps(config, indent=2, sort_keys=True))
        paths.append(path)
        if workload.rerun:
            for stage in STAGES[: STAGES.index("metrics")]:
                run_pipeline(path, out_dir=run_dir(directory, j), stage=stage)
    return paths


def run_dir(root: Path, instance: int) -> Path:
    return root / f"i{instance}"


def operation(workload: Workload, config_path: Path, run_dir: Path) -> None:
    """One benchmark operation on one instance of the pool: `run_dir` is
    new for fresh runs and was built in set-up for reruns."""
    if workload.rerun:
        for stage in STAGES[STAGES.index("metrics"):]:
            run_pipeline(config_path, out_dir=run_dir, force=True, stage=stage)
    else:
        run_pipeline(config_path, out_dir=run_dir)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_hashes(run_dirs: list[Path]) -> dict[str, str]:
    return {
        f"{d.name}/{name}": sha256(d / name) for d in run_dirs for name in HASHED_OUTPUTS
    }


def check_manifest(run_dir: Path, stage: str) -> None:
    """Raise unless every artifact the manifest lists for `stage` still
    matches its recorded SHA-256."""
    manifest = json.loads((run_dir / "manifest.json").read_text())
    entry = manifest["stages"].get(stage)
    if not entry or not entry.get("complete"):
        raise AssertionError(f"stage {stage} is not complete in the manifest")
    for rel, digest in entry["files"].items():
        if sha256(run_dir / rel) != digest:
            raise AssertionError(f"{rel} no longer matches its {stage} checksum")


def check_outputs(run_dir: Path, config_path: Path) -> None:
    """Raise unless every stage's artifacts match the manifest and the
    report has one row per method, in config order after the
    "Original dataset" row, with sizes and fractions in range.  Unlike the
    hashes, this holds for any seed."""
    for stage in STAGES:
        check_manifest(run_dir, stage)
    methods = json.loads(config_path.read_text()).get("methods", DEFAULT_CONFIG["methods"])
    with open(run_dir / "report.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    names = [row["method"] for row in rows]
    if names != ["Original dataset", *methods]:
        raise AssertionError(f"report rows {names} do not match the methods {methods}")
    n_train = int(rows[0]["clean_size"])
    for row in rows:
        if not 0 <= int(row["clean_size"]) <= n_train:
            raise AssertionError(f"{row['method']}: clean_size {row['clean_size']} out of range")
        for key in REPORT_FRACTIONS:
            if row[key] and not 0.0 <= float(row[key]) <= 1.0:
                raise AssertionError(f"{row['method']}: {key} {row[key]} is not in [0, 1]")


def directory_mb(directories: list[Path]) -> float:
    return sum(
        p.stat().st_size for d in directories for p in d.rglob("*") if p.is_file()
    ) / 1e6
