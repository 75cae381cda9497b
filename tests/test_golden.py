"""Golden outputs: small runs of every hardness type, pinned by SHA-256.

Each run uses the small grid of the pipeline tests, all 15 partition
methods and retraining with one seed.  A refactor that should not change
behaviour must leave every pinned file byte-identical; the failure names
the files that changed.

When a change of output is intended, print the new table with
`PYTHONPATH=src python tests/test_golden.py > tests/golden_hashes.json`
and say in the change description why the outputs moved.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from noisesift.partition import builtin_methods
from noisesift.pipeline import HARDNESS_TYPES, run_pipeline

GOLDEN = Path(__file__).with_name("golden_hashes.json")

SMALL_GRID = {
    "levels": 3,
    "classes_per_cell": 1,
    "per_class_count": 16,
    "input_dim": 4,
}

PINNED = ("report.csv", "cells.csv", "metrics.csv", "eval.json", "report.md", "ground_truth.json")


def golden_config(hardness: str) -> dict:
    cfg = {
        "seed": 0,
        "grid": SMALL_GRID,
        "hardness": {"type": hardness},
        "train": {"epochs": 6, "hidden_sizes": [8], "feature_width": 4},
        "methods": [m.name for m in builtin_methods()],
        "eval": {"retrain": True, "retrain_seeds": [0], "h_threshold": 2},
    }
    if hardness == "boundary":
        cfg["hardness"]["eps_max"] = 0.3
        cfg["oracle"] = {"epochs": 8}
    return cfg


def run_hashes(root: Path, hardness: str) -> dict[str, str]:
    root.mkdir(parents=True, exist_ok=True)
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(golden_config(hardness)))
    run_dir = run_pipeline(cfg_path, root / "run")
    files = [run_dir / name for name in PINNED]
    files += sorted(run_dir.glob("partition*")) + sorted(run_dir.glob("train_*.npy"))
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


@pytest.mark.parametrize("hardness", HARDNESS_TYPES)
def test_outputs_match_golden_hashes(tmp_path, hardness):
    expected = json.loads(GOLDEN.read_text())[hardness]
    actual = run_hashes(tmp_path, hardness)
    missing = sorted(expected.keys() - actual.keys())
    extra = sorted(actual.keys() - expected.keys())
    changed = sorted(k for k in expected.keys() & actual.keys() if expected[k] != actual[k])
    assert not (missing or extra or changed), (
        f"{hardness}: changed {changed}, missing {missing}, unexpected {extra}"
    )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {h: run_hashes(Path(tmp) / h, h) for h in HARDNESS_TYPES}
    json.dump(table, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
