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

from .artifacts import load_arrays, save_arrays
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


@dataclass
class Dataset:
    """Column-oriented sample store.

    Arrays are parallel: row i describes sample ids[i].  base_id is -1 for
    samples that are not augmented copies of another sample.  The class
    count K is the size of the cell map and the input width d that of X.
    """

    ids: np.ndarray
    X: np.ndarray
    y_true: np.ndarray
    y_assigned: np.ndarray
    h: np.ndarray
    n: np.ndarray
    base_id: np.ndarray
    levels: int
    class_cells: dict[int, tuple[int, int]]

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def K(self) -> int:
        return len(self.class_cells)

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def take(self, mask_or_index: np.ndarray | slice) -> "Dataset":
        """New Dataset restricted to the given boolean mask, index array or
        slice; `take(slice(None))` is a full copy."""
        sel = mask_or_index
        return Dataset(
            ids=self.ids[sel].copy(),
            X=self.X[sel].copy(),
            y_true=self.y_true[sel].copy(),
            y_assigned=self.y_assigned[sel].copy(),
            h=self.h[sel].copy(),
            n=self.n[sel].copy(),
            base_id=self.base_id[sel].copy(),
            levels=self.levels,
            class_cells=dict(self.class_cells),
        )

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.y_assigned, minlength=self.K)


def allocate_cells(spec: GridSpec) -> dict[int, tuple[int, int]]:
    """Map every class index to its (h, n) cell.

    Class c = P*(L*(L-1-n) + h) + beta for beta in [0, P), so each cell
    owns exactly P consecutive-by-beta classes.
    """
    L, P = spec.levels, spec.classes_per_cell
    cells: dict[int, tuple[int, int]] = {}
    for n in range(L):
        for h in range(L):
            for beta in range(P):
                c = P * (L * (L - 1 - n) + h) + beta
                cells[c] = (h, n)
    return cells


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
    K, d, X = spec.n_classes, spec.input_dim, spec.per_class_count

    def _make(count_per_class: int) -> Dataset:
        N = K * count_per_class
        coords = np.empty((N, d))
        y = np.empty(N, dtype=np.int64)
        hh = np.empty(N, dtype=np.int64)
        nn = np.empty(N, dtype=np.int64)
        row = 0
        for c in range(K):
            pts = centers[c] + spec.cluster_std * rng.standard_normal(
                (count_per_class, d)
            )
            coords[row : row + count_per_class] = pts
            y[row : row + count_per_class] = c
            hh[row : row + count_per_class], nn[row : row + count_per_class] = cells[c]
            row += count_per_class
        return Dataset(
            ids=np.arange(N, dtype=np.int64),
            X=coords,
            y_true=y,
            y_assigned=y.copy(),
            h=hh,
            n=nn,
            base_id=np.full(N, -1, dtype=np.int64),
            levels=spec.levels,
            class_cells=cells,
        )

    return _make(X), _make(spec.test_per_class)


_COLUMNS = ("ids", "y_true", "y_assigned", "h", "n", "base_id")


def save_dataset(dataset: Dataset, directory: str | Path, prefix: str) -> list[Path]:
    """Write <prefix>.json (sizes and cell map) and one .npy per column."""
    meta = {
        "d": dataset.d,
        "L": dataset.levels,
        "class_cells": {str(c): list(hn) for c, hn in sorted(dataset.class_cells.items())},
    }
    columns = {c: getattr(dataset, c) for c in _COLUMNS}
    return save_arrays(directory, prefix, meta, X=dataset.X, **columns)


def load_dataset(directory: str | Path, prefix: str) -> Dataset:
    meta, arrays = load_arrays(
        directory, prefix, {"X": ("N", "d"), **{c: ("N",) for c in _COLUMNS}}
    )
    return Dataset(
        **arrays,
        levels=meta["L"],
        class_cells={int(c): tuple(hn) for c, hn in meta["class_cells"].items()},
    )
