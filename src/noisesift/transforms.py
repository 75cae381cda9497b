"""Hardness and noisiness transformations of a base dataset.

Three alternative hardness types (imbalance, diversification, boundary
closeness) and the label-noise injection that follows them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigurationError
from .mlp import Model, forward_batch, input_gradient


@dataclass(frozen=True)
class NoiseSpec:
    """Maximum label-noise level delta; per-sample flip probability is
    delta * n / (L-1)."""

    delta: float = 0.4
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta <= 1.0:
            raise ConfigurationError("delta must be in [0, 1]")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")


def _per_class_rng(seed: int, class_idx: int) -> np.random.Generator:
    return np.random.default_rng([seed, class_idx])


def _subsample(dataset: Dataset, exponents: np.ndarray, seed: int) -> list[np.ndarray]:
    """Per class c, floor(count_c / 2^exponents[c]) of its rows in ascending
    order, drawn without replacement by the class's own generator.  A class
    that would keep no row raises ConfigurationError."""
    counts = dataset.class_counts()
    picked = []
    for c, e in enumerate(exponents.tolist()):
        size = counts[c] // 2**e
        if size < 1:
            raise ConfigurationError(f"class {c}: {counts[c]} samples / 2^{e} leaves no samples")
        rows = np.flatnonzero(dataset.y_assigned == c)
        picked.append(np.sort(_per_class_rng(seed, c).choice(rows, size=size, replace=False)))
    return picked


def apply_imbalance(dataset: Dataset, seed: int = 0) -> Dataset:
    """Keep floor(X / 2^h) samples per class, seeded per class."""
    picked = _subsample(dataset, dataset.cell_table[:, 0], seed)
    return dataset.take(np.sort(np.concatenate(picked)))


def apply_diversification(
    dataset: Dataset, jitter_std: float = 0.1, seed: int = 0
) -> Dataset:
    """Keep floor(X / 2^(L-1-h)) distinct samples per class and add
    2^(L-1-h) - 1 jittered copies of each, so classes stay balanced."""
    exponents = dataset.levels - 1 - dataset.cell_table[:, 0]
    picked = _subsample(dataset, exponents, seed)
    # Each picked row is followed by its 2^e - 1 copies.
    copied = [np.repeat(rows, 2**e - 1) for rows, e in zip(picked, exponents.tolist())]
    jitter = [
        jitter_std * _per_class_rng(seed + 1, c).standard_normal((len(rows), dataset.d))
        for c, rows in enumerate(copied)
    ]
    base_rows = np.sort(np.concatenate(picked))
    copy_rows = np.concatenate(copied)
    out = dataset.take(np.concatenate([base_rows, copy_rows]))
    new = slice(len(base_rows), None)
    next_id = int(dataset.ids.max()) + 1
    out.ids[new] = np.arange(next_id, next_id + len(copy_rows))
    out.X[new] += np.vstack(jitter)
    out.base_id[new] = dataset.ids[copy_rows]
    return out


def apply_boundary_shift(dataset: Dataset, oracle: Model, eps_max: float) -> Dataset:
    """Push samples toward the decision boundary of the trained `oracle`
    model with a single signed-gradient step of size
    eps(h) = h * eps_max / (L-1), then drop samples whose oracle prediction
    no longer equals their true label.  A negative eps_max or an oracle of
    another input width raises ConfigurationError."""
    if eps_max < 0:
        raise ConfigurationError("eps_max must be >= 0")
    eps = dataset.h * eps_max / max(dataset.levels - 1, 1)
    grads = input_gradient(oracle, dataset.X, dataset.y_true)
    shifted = dataset.X + eps[:, None] * np.sign(grads)
    keep = forward_batch(oracle, shifted)[0].argmax(axis=1) == dataset.y_true
    out = dataset.take(keep)
    out.X = shifted[keep]
    return out


def inject_label_noise(dataset: Dataset, spec: NoiseSpec) -> Dataset:
    """Redraw each sample's assigned label with probability
    delta * n / (L-1), uniformly over the classes in the same n-stratum
    (the redraw may land back on the true class)."""
    L = dataset.levels
    out = dataset.take(slice(None))
    rng = np.random.default_rng(spec.seed)
    strata = [np.flatnonzero(dataset.cell_table[:, 1] == n) for n in range(L)]
    sizes = np.array([len(classes) for classes in strata])
    table = np.zeros((L, sizes.max()), dtype=np.int64)  # row n: stratum n's classes, ascending
    for n, classes in enumerate(strata):
        table[n, : len(classes)] = classes
    u = rng.random(len(dataset))
    n = out.n
    flips = np.flatnonzero(u < spec.delta * n / max(L - 1, 1))
    out.y_assigned[flips] = table[n[flips], rng.integers(0, sizes[n[flips]])]
    return out

