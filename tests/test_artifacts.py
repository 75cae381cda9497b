"""The artifact codec: integer arrays are stored in their narrowest dtype
and read back as int64; every other array round-trips as it is."""

import json

import numpy as np
import pytest

from noisesift.artifacts import load_arrays, save_arrays
from noisesift.data import load_dataset, save_dataset
from noisesift.errors import ConfigurationError
from noisesift.mlp import (
    TrainConfig,
    init_model,
    load_model,
    load_traces,
    save_model,
    save_traces,
    train_with_tracing,
)


@pytest.mark.parametrize(
    "array, on_disk",
    [
        (np.arange(256), np.uint8),
        (np.array([-1, 0, 4959]), np.int16),
        (np.array([-128, 127]), np.int8),
        (np.array([0, 65_536]), np.uint32),
        (np.array([0, 2**40]), np.int64),
        (np.array([7, 3], dtype=np.uint64), np.uint8),
        (np.arange(12, dtype=np.int32).reshape(3, 4), np.uint8),
        (np.array([], dtype=np.int32), np.int32),
        (np.array([True, False, True]), bool),
        (np.array([0.1, -2.5e300, np.nan, -0.0]), np.float64),
        (np.array([1.5, 2.0], dtype=np.float32), np.float32),
    ],
)
def test_save_load_roundtrip(tmp_path, array, on_disk):
    save_arrays(tmp_path, "a", {}, x=array)
    stored = np.load(tmp_path / "a_x.npy")
    assert stored.dtype == on_disk
    _, arrays = load_arrays(tmp_path, "a", {"x": array.shape})
    loaded = arrays["x"]
    if array.dtype.kind in "iu":
        assert loaded.dtype == np.int64
        np.testing.assert_array_equal(loaded, array)
    else:
        assert loaded.dtype == array.dtype
        assert loaded.tobytes() == array.tobytes()


def test_saving_the_same_arrays_twice_gives_the_same_bytes(tmp_path):
    arrays = {"ids": np.arange(300), "pred": np.arange(40) % 7, "p": np.linspace(0, 1, 40)}
    first = [p.read_bytes() for p in save_arrays(tmp_path, "a", {"T": 40}, **arrays)]
    second = [p.read_bytes() for p in save_arrays(tmp_path, "a", {"T": 40}, **arrays)]
    assert first == second


def test_an_int64_file_from_plain_np_save_still_loads(tmp_path):
    """Run directories written before the narrow layout hold int64 files."""
    save_arrays(tmp_path, "a", {}, y=np.arange(5))
    np.save(tmp_path / "a_y.npy", np.arange(5, dtype=np.int64))
    _, arrays = load_arrays(tmp_path, "a", {"y": (5,)})
    assert arrays["y"].dtype == np.int64
    np.testing.assert_array_equal(arrays["y"], np.arange(5))


def test_integers_outside_int64_are_refused(tmp_path):
    with pytest.raises(ConfigurationError, match="a_x.npy holds integers outside int64"):
        save_arrays(tmp_path, "a", {}, x=np.array([0, 2**63], dtype=np.uint64))


def test_metadata_that_is_not_an_object_is_refused(tmp_path):
    save_arrays(tmp_path, "a", {}, x=np.arange(3))
    (tmp_path / "a.json").write_text("[1, 2]")
    with pytest.raises(ConfigurationError, match=r"a\.json must hold a JSON object"):
        load_arrays(tmp_path, "a", {"x": (3,)})


_MISSING = object()


@pytest.mark.parametrize(
    "prefix, key, value, load",
    [
        ("train", "L", _MISSING, lambda d: load_dataset(d, "train")),
        ("train", "L", True, lambda d: load_dataset(d, "train")),
        ("model", "layers", _MISSING, lambda d: load_model(d / "model")),
        ("traces", "mid_epoch", _MISSING, load_traces),
        ("traces", "mid_epoch", 99, load_traces),  # T is 3
        ("traces", "mid_epoch", 0, load_traces),
    ],
    ids=["train-no-L", "train-bool-L", "model-no-layers", "traces-no-mid-epoch",
         "traces-mid-epoch-past-T", "traces-mid-epoch-0"],
)
def test_loaders_check_their_metadata(tmp_path, small_train, prefix, key, value, load):
    save_dataset(small_train, tmp_path, "train")
    model = init_model(small_train.d, [8], 4, small_train.K, seed=0)
    save_model(model, tmp_path / "model")
    save_traces(train_with_tracing(model, small_train, TrainConfig(epochs=3))[1], tmp_path)
    path = tmp_path / f"{prefix}.json"
    meta = json.loads(path.read_text())
    load(tmp_path)  # loads as written
    if value is _MISSING:
        del meta[key]
    else:
        meta[key] = value
    path.write_text(json.dumps(meta))
    with pytest.raises(ConfigurationError, match=rf"{prefix}\.json: {key} must be an integer"):
        load(tmp_path)
