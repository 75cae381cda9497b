"""The one codec for machine-read run artifacts.

An artifact is `<prefix>.json` (its metadata, a JSON object whose integer
keys loaders read through `meta_int`) plus one `<prefix>_<name>.npy` per
array.  `.npy` files hold no timestamps, so rewriting the same arrays
gives the same bytes.  An integer array is stored in the narrowest of
`_INT_DTYPES` that holds its values and read back as int64, so a run
directory written with int64 files loads alike.

Loaders name the arrays they expect together with a symbolic shape: an int
dimension must match exactly, a str dimension is taken from the metadata
when it holds that key and otherwise from the first array that uses it, so
every array sharing a symbol must agree on its length.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ConfigurationError

Shape = tuple[int | str, ...]

# The on-disk integer dtypes, narrowest first.
_INT_DTYPES = tuple(np.dtype(t) for t in ("u1", "i1", "u2", "i2", "u4", "i4", "i8"))


def _narrowest(path: Path, array: np.ndarray) -> np.ndarray:
    """A non-empty integer array in the first of `_INT_DTYPES` that holds its
    min and max; any other array as it is.  An integer array that int64
    cannot hold raises ConfigurationError naming the file."""
    if array.dtype.kind not in "iu" or array.size == 0:
        return array
    lo, hi = int(array.min()), int(array.max())
    for dtype in _INT_DTYPES:
        info = np.iinfo(dtype)
        if info.min <= lo and hi <= info.max:
            return array.astype(dtype, copy=False)
    raise ConfigurationError(f"artifact {path.name} holds integers outside int64")


def read_object(path: str | Path, error: type[Exception], *args) -> dict:
    """The JSON object in the file at `path`; anything else raises `error(*args, msg)`."""
    try:
        value = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise error(*args, f"{path} cannot be read: {exc}") from exc
    if not isinstance(value, dict):
        raise error(*args, f"{path} must hold a JSON object")
    return value


def save_arrays(
    directory: str | Path, prefix: str, meta: dict, **arrays: np.ndarray
) -> list[Path]:
    """Write the metadata and every array, an integer one in its narrowest
    dtype; returns the paths written."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta_path = directory / f"{prefix}.json"
    meta_path.write_text(json.dumps(meta, indent=2))
    paths = [meta_path]
    for name, array in arrays.items():
        path = directory / f"{prefix}_{name}.npy"
        np.save(path, _narrowest(path, np.asarray(array)), allow_pickle=False)
        paths.append(path)
    return paths


def load_arrays(
    directory: str | Path, prefix: str, names: dict[str, Shape]
) -> tuple[dict, dict[str, np.ndarray]]:
    """(metadata, arrays) of one artifact; `names` maps each expected array
    to its shape.  Every integer array comes back as int64.  A missing or
    unreadable file, or an array whose shape does not match, raises
    ConfigurationError naming the file."""
    directory = Path(directory)
    meta = read_object(directory / f"{prefix}.json", ConfigurationError)
    dims = {k: v for k, v in meta.items() if isinstance(v, int)}
    arrays = {}
    for name, shape in names.items():
        path = directory / f"{prefix}_{name}.npy"
        try:
            array = np.load(path, allow_pickle=False)
        except (OSError, ValueError, EOFError) as exc:
            raise ConfigurationError(f"artifact {path.name} cannot be read: {exc}") from exc
        if array.ndim != len(shape) or any(
            size != (dims.setdefault(want, size) if isinstance(want, str) else want)
            for size, want in zip(array.shape, shape)
        ):
            expected = ", ".join(f"{s}={dims[s]}" if s in dims else str(s) for s in shape)
            raise ConfigurationError(
                f"artifact {path.name} has shape {array.shape}, expected ({expected})"
            )
        arrays[name] = array.astype(np.int64, copy=False) if array.dtype.kind in "iu" else array
    return meta, arrays


def meta_int(meta: dict, prefix: str, key: str, lo: int, hi: float = float("inf")) -> int:
    """`meta[key]` if it is a JSON integer (not a bool or a float) in
    [lo, hi]; anything else raises ConfigurationError naming `<prefix>.json`."""
    value = meta.get(key)
    if type(value) is not int or not lo <= value <= hi:
        raise ConfigurationError(
            f"artifact {prefix}.json: {key} must be an integer in [{lo}, {hi}]"
        )
    return value
