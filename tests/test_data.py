"""Dataset generation: cell allocation, blob geometry, and file round-trips."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisesift import GridSpec, allocate_cells, generate_base
from noisesift.data import load_dataset, save_dataset
from noisesift.errors import ConfigurationError


def test_allocate_cells_matches_index_arithmetic():
    # Reference: place class c = P*(L*(L-1-n) + h) + beta in its cell by
    # looping over every (n, h, beta), and compare the table against it.
    for spec in (GridSpec(), GridSpec(levels=3, classes_per_cell=3, per_class_count=4)):
        L, P = spec.levels, spec.classes_per_cell
        want = np.full((P * L * L, 2), -1, dtype=np.int64)
        for n in range(L):
            for h in range(L):
                for beta in range(P):
                    want[P * (L * (L - 1 - n) + h) + beta] = (h, n)
        table = allocate_cells(spec)
        assert table.dtype == np.int64
        np.testing.assert_array_equal(table, want)


@given(
    levels=st.integers(min_value=1, max_value=6),
    per_cell=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=30, deadline=None)
def test_allocate_cells_is_a_bijection_onto_the_grid(levels, per_cell):
    spec = GridSpec(
        levels=levels,
        classes_per_cell=per_cell,
        per_class_count=2 ** max(levels - 1, 3),
    )
    cells = allocate_cells(spec)
    assert len(cells) == spec.n_classes
    counts = {}
    for h, n in cells.tolist():
        assert 0 <= h < levels and 0 <= n < levels
        counts[(h, n)] = counts.get((h, n), 0) + 1
    assert all(v == per_cell for v in counts.values())
    assert len(counts) == levels * levels


def test_generate_base_counts_and_labels(small_spec):
    train, test = generate_base(small_spec)
    K, X = small_spec.n_classes, small_spec.per_class_count
    assert len(train) == K * X
    assert len(test) == K * small_spec.test_per_class
    assert np.array_equal(train.y_true, train.y_assigned)
    assert len(np.unique(train.ids)) == len(train)
    np.testing.assert_array_equal(np.bincount(train.y_true, minlength=K), X)
    # Every sample carries the (h, n) cell of its class.
    for c, (h, n) in enumerate(train.cell_table.tolist()):
        mask = train.y_true == c
        assert np.all(train.h[mask] == h)
        assert np.all(train.n[mask] == n)


def test_center_spacing_controls_nearest_class_distance():
    # With a tiny cluster std the class means approximate the centers, so
    # the nearest pair of class means should sit at ~spacing * std... of
    # the *configured* std; here spacing dominates.
    spec = GridSpec(
        levels=2,
        classes_per_cell=2,
        per_class_count=64,
        input_dim=6,
        cluster_std=0.01,
        center_spacing=5.0,
        seed=3,
    )
    train, _ = generate_base(spec)
    means = np.array([train.X[train.y_true == c].mean(axis=0) for c in range(spec.n_classes)])
    diff = means[:, None, :] - means[None, :, :]
    pair = np.linalg.norm(diff, axis=2)
    np.fill_diagonal(pair, np.inf)
    target = spec.center_spacing * spec.cluster_std
    assert abs(pair.min() - target) < 0.05 * target


def test_generate_base_is_deterministic(small_spec):
    a, _ = generate_base(small_spec)
    b, _ = generate_base(small_spec)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.y_true, b.y_true)


def test_save_load_roundtrip_is_bit_exact(tmp_path, small_train):
    save_dataset(small_train, tmp_path, "train")
    loaded = load_dataset(tmp_path, "train")
    np.testing.assert_array_equal(loaded.X, small_train.X)
    np.testing.assert_array_equal(loaded.ids, small_train.ids)
    np.testing.assert_array_equal(loaded.y_assigned, small_train.y_assigned)
    np.testing.assert_array_equal(loaded.h, small_train.h)
    np.testing.assert_array_equal(loaded.n, small_train.n)
    np.testing.assert_array_equal(loaded.cell_table, small_train.cell_table)
    assert loaded.cell_table.dtype == np.int64
    assert (loaded.K, loaded.d) == (small_train.K, small_train.d)
    # 144 samples of 9 classes, no base ids: one byte per entry on disk.
    on_disk = {"ids": np.uint8, "y_true": np.uint8, "y_assigned": np.uint8, "base_id": np.int8}
    for column, dtype in on_disk.items():
        assert np.load(tmp_path / f"train_{column}.npy").dtype == dtype
        assert getattr(loaded, column).dtype == np.int64


# The class_cells object that train.json and test.json hold for the 3 x 3
# grid with one class per cell: keys "0".."K-1" in class order, each an
# [h, n] list.
_SMALL_CLASS_CELLS = {
    "0": [0, 2], "1": [1, 2], "2": [2, 2],
    "3": [0, 1], "4": [1, 1], "5": [2, 1],
    "6": [0, 0], "7": [1, 0], "8": [2, 0],
}


def test_class_cells_json_layout_is_unchanged(tmp_path, small_train):
    save_dataset(small_train, tmp_path, "train")
    meta_path = tmp_path / "train.json"
    meta = json.loads(meta_path.read_text())
    assert list(meta["class_cells"].items()) == list(_SMALL_CLASS_CELLS.items())
    # A train.json written by hand in that layout loads to the same table.
    meta_path.write_text(json.dumps({"d": small_train.d, "L": 3, "class_cells": _SMALL_CLASS_CELLS}))
    loaded = load_dataset(tmp_path, "train")
    np.testing.assert_array_equal(loaded.cell_table, small_train.cell_table)
    assert loaded.cell_table.dtype == np.int64


def test_train_json_with_the_old_keys_still_loads(tmp_path, small_train):
    # Older run directories also stored the classes per cell as "P" and
    # the class count as "K"; the classes now come from the cell map.
    save_dataset(small_train, tmp_path, "train")
    meta_path = tmp_path / "train.json"
    meta = json.loads(meta_path.read_text())
    assert "P" not in meta and "K" not in meta
    meta_path.write_text(json.dumps({**meta, "P": 1, "K": small_train.K}))
    loaded = load_dataset(tmp_path, "train")
    assert (loaded.K, loaded.d) == (small_train.K, small_train.d)
    np.testing.assert_array_equal(loaded.X, small_train.X)


def test_a_dataset_stores_no_cell_columns(tmp_path, small_train):
    # (h, n) is read off the cell map, so only the five stored columns are written.
    paths = save_dataset(small_train, tmp_path, "train")
    assert sorted(p.name for p in paths) == [
        "train.json", "train_X.npy", "train_base_id.npy", "train_ids.npy",
        "train_y_assigned.npy", "train_y_true.npy",
    ]
    sub = small_train.take(small_train.y_true % 3 == 0)
    cells = small_train.cell_table[sub.y_true]
    np.testing.assert_array_equal(sub.h, cells[:, 0])
    np.testing.assert_array_equal(sub.n, cells[:, 1])


@pytest.mark.parametrize(
    "edit",
    [
        lambda cells: {str(int(c) + 1): hn for c, hn in cells.items()},  # keyed 1..K
        lambda cells: {k: v for k, v in cells.items() if k != "0"},     # class 0 missing
        lambda cells: {**cells, "0": [0]},                                # not a pair
        lambda cells: {**cells, "0": [0, 9]},                             # n outside 0..L-1
        # JSON booleans and integral floats compare equal to 0, 1 and 2.
        lambda cells: {**cells, "0": [False, 2]},
        lambda cells: {**cells, "0": [0, 2.0]},
        lambda cells: {**cells, "4": [True, 1]},
    ],
    ids=["shifted-keys", "missing-key", "short-cell", "cell-off-grid",
         "bool-h", "float-n", "bool-h-of-class-4"],
)
def test_load_refuses_a_damaged_cell_map(tmp_path, small_train, edit):
    save_dataset(small_train, tmp_path, "train")
    meta_path = tmp_path / "train.json"
    meta = json.loads(meta_path.read_text())
    meta_path.write_text(json.dumps({**meta, "class_cells": edit(meta["class_cells"])}))
    with pytest.raises(ConfigurationError, match=r"train\.json: class_cells must map 0\.\.K-1"):
        load_dataset(tmp_path, "train")


@pytest.mark.parametrize("column", ["y_true", "y_assigned"])
@pytest.mark.parametrize(
    "damage",
    [
        lambda y, K: np.where(np.arange(len(y)) == 3, -1, y),
        lambda y, K: np.where(np.arange(len(y)) == 3, K, y),
        lambda y, K: y.astype(float),
    ],
    ids=["negative", "K", "float"],
)
def test_load_refuses_a_label_outside_the_cell_map(tmp_path, small_train, column, damage):
    save_dataset(small_train, tmp_path, "train")
    np.save(tmp_path / f"train_{column}.npy", damage(getattr(small_train, column), small_train.K))
    with pytest.raises(ConfigurationError, match=f"train\\.json: {column} has a label not in"):
        load_dataset(tmp_path, "train")


def test_take_restricts_rows(small_train):
    mask = small_train.y_true == 0
    sub = small_train.take(mask)
    assert len(sub) == int(mask.sum())
    assert np.all(sub.y_true == 0)
    assert sub.K == small_train.K


@pytest.mark.parametrize(
    "kwargs",
    [
        {"levels": 0},
        {"input_dim": 0},
        {"cluster_std": 0.0},
        {"center_spacing": -1.0},
        {"per_class_count": 8, "levels": 5},  # 8 < 2^4
    ],
)
def test_invalid_grid_specs_are_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        GridSpec(**kwargs)
