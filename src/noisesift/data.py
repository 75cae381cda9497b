"""Synthetic labeled vector datasets with a controlled hardness/noisiness grid.

Each class is a Gaussian blob around a center on a hypersphere, and every
class is allocated to one (h, n) cell of an L x L grid: h grades how hard
the class will be made to learn, n how noisy its labels will become.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import load_arrays, meta_int, save_arrays
from .errors import ConfigurationError


@dataclass(frozen=True)
class GridSpec:
    """Parameters of the base dataset and its (h, n) cell grid."""

    levels: int = 5
    classes_per_cell: int = 2
    per_class_count: int = 256
    input_dim: int = 8
    cluster_std: float = 1.0
    # Nearest-center distance between class blobs, in units of cluster_std.
    center_spacing: float = 3.0
    seed: int = 0

    @property
    def n_classes(self) -> int:
        return self.classes_per_cell * self.levels * self.levels

    @property
    def test_per_class(self) -> int:
        return max(self.per_class_count // 4, 8)

    def __post_init__(self) -> None:
        if self.levels < 1:
            raise ConfigurationError("levels must be >= 1")
        if self.classes_per_cell < 1:
            raise ConfigurationError("classes_per_cell must be >= 1")
        if self.input_dim < 1:
            raise ConfigurationError("input_dim must be >= 1")
        # Written so that NaN fails each check.
        if not (self.cluster_std > 0 and math.isfinite(self.cluster_std)):
            raise ConfigurationError("cluster_std must be finite and > 0")
        if not (self.center_spacing > 0 and math.isfinite(self.center_spacing)):
            raise ConfigurationError("center_spacing must be finite and > 0")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        if self.per_class_count < 2 ** (self.levels - 1):
            raise ConfigurationError(
                "per_class_count must be >= 2^(levels-1) so every "
                "subsampling level keeps at least one sample"
            )


_COLUMNS = ("ids", "X", "y_true", "y_assigned", "base_id")


@dataclass
class Dataset:
    """Column-oriented sample store.

    Arrays are parallel: row i describes sample ids[i].  base_id is -1 for
    samples that are not augmented copies of another sample.  Row c of the
    (K, 2) int64 cell_table is the (h, n) cell of class c, so the class
    count K is its length; the input width d is that of X, and a sample's
    (h, n) is the cell of its true class.  The ground truth of a set is
    read off it: the noisy samples are the mislabeled ones, the hard
    samples those of `hard(h_threshold)`, and every other sample is easy.
    """

    ids: np.ndarray
    X: np.ndarray
    y_true: np.ndarray
    y_assigned: np.ndarray
    base_id: np.ndarray
    levels: int
    cell_table: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def K(self) -> int:
        return len(self.cell_table)

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def h(self) -> np.ndarray:
        return self.cell_table[self.y_true, 0]

    @property
    def n(self) -> np.ndarray:
        return self.cell_table[self.y_true, 1]

    @property
    def mislabeled(self) -> np.ndarray:
        return self.y_assigned != self.y_true

    def hard(self, h_threshold: int) -> np.ndarray:
        """Correctly labeled samples whose class is at h >= h_threshold."""
        return ~self.mislabeled & (self.h >= h_threshold)

    def take(self, mask_or_index: np.ndarray | slice) -> "Dataset":
        """New Dataset restricted to the given boolean mask, index array or
        slice; `take(slice(None))` is a full copy."""
        return Dataset(
            **{c: getattr(self, c)[mask_or_index].copy() for c in _COLUMNS},
            levels=self.levels,
            cell_table=self.cell_table.copy(),
        )

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.y_assigned, minlength=self.K)


def allocate_cells(spec: GridSpec) -> np.ndarray:
    """(K, 2) int64 table whose row c is the (h, n) cell of class c.

    Class c = P*(L*(L-1-n) + h) + beta for beta in [0, P), so each cell
    owns exactly P consecutive-by-beta classes.
    """
    L = spec.levels
    cell = np.arange(spec.n_classes, dtype=np.int64) // spec.classes_per_cell
    return np.stack([cell % L, L - 1 - cell // L], axis=1)


def _class_centers(spec: GridSpec, rng: np.random.Generator) -> np.ndarray:
    """K centers with nearest-pair distance == center_spacing * cluster_std.

    Unit directions are picked by greedy farthest-point selection from a
    random candidate pool, then scaled so the realized minimum pairwise
    distance hits the requested spacing.
    """
    K, d = spec.n_classes, spec.input_dim
    if K == 1:
        return np.zeros((1, d))
    pool = max(8 * K, 64)
    cand = rng.standard_normal((pool, d))
    cand /= np.linalg.norm(cand, axis=1, keepdims=True)
    chosen = [0]
    dists = np.linalg.norm(cand - cand[0], axis=1)
    for _ in range(K - 1):
        nxt = int(np.argmax(dists))
        chosen.append(nxt)
        dists = np.minimum(dists, np.linalg.norm(cand - cand[nxt], axis=1))
    centers = cand[chosen]
    diff = centers[:, None, :] - centers[None, :, :]
    pair = np.linalg.norm(diff, axis=2)
    np.fill_diagonal(pair, np.inf)
    min_dist = pair.min()
    target = spec.center_spacing * spec.cluster_std
    return centers * (target / min_dist)


def generate_base(spec: GridSpec) -> tuple[Dataset, Dataset]:
    """Clean balanced train/test pair: X train samples per class, Gaussian
    blobs around hypersphere centers, y_assigned == y_true everywhere."""
    cells = allocate_cells(spec)
    rng = np.random.default_rng(spec.seed)
    centers = _class_centers(spec, rng)

    def _make(count_per_class: int) -> Dataset:
        y = np.repeat(np.arange(spec.n_classes, dtype=np.int64), count_per_class)
        return Dataset(
            ids=np.arange(len(y), dtype=np.int64),
            X=centers[y] + spec.cluster_std * rng.standard_normal((len(y), spec.input_dim)),
            y_true=y,
            y_assigned=y.copy(),
            base_id=np.full(len(y), -1, dtype=np.int64),
            levels=spec.levels,
            cell_table=cells,
        )

    return _make(spec.per_class_count), _make(spec.test_per_class)


def save_dataset(dataset: Dataset, directory: str | Path, prefix: str) -> list[Path]:
    """Write <prefix>.json (sizes and cell map) and one .npy per column."""
    meta = {
        "d": dataset.d,
        "L": dataset.levels,
        "class_cells": {str(c): hn for c, hn in enumerate(dataset.cell_table.tolist())},
    }
    return save_arrays(directory, prefix, meta, **{c: getattr(dataset, c) for c in _COLUMNS})


def load_dataset(directory: str | Path, prefix: str) -> Dataset:
    """Read a set written by save_dataset; an L that is not an integer >= 1,
    a cell map that does not map 0..K-1 to integer cells of the L x L grid,
    or a label outside 0..K-1, raises ConfigurationError."""
    meta, arrays = load_arrays(
        directory, prefix, {c: ("N", "d") if c == "X" else ("N",) for c in _COLUMNS}
    )
    cells, L = meta.get("class_cells"), meta_int(meta, prefix, "L", 1)
    grid = [[h, n] for h in range(L) for n in range(L)]
    if not (
        isinstance(cells, dict)
        and set(cells) == {str(c) for c in range(len(cells))}
        and all(hn in grid and all(type(v) is int for v in hn) for hn in cells.values())
    ):
        raise ConfigurationError(f"artifact {prefix}.json: class_cells must map 0..K-1 to cells")
    for name in ("y_true", "y_assigned"):
        y = arrays[name]
        if y.dtype.kind not in "iu" or np.any((y < 0) | (y >= len(cells))):
            raise ConfigurationError(f"artifact {prefix}.json: {name} has a label not in class_cells")
    table = np.array([cells[str(c)] for c in range(len(cells))], dtype=np.int64).reshape(-1, 2)
    return Dataset(**arrays, levels=L, cell_table=table)
