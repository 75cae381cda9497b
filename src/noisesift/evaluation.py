"""Scoring of partitions against ground truth, validity statistics, and
the retrain-on-filtered harness."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from .data import Dataset
from .errors import ConfigurationError
from .mlp import TrainConfig, evaluate, init_model, train_with_tracing
from .partition import Partition
from .transforms import GroundTruthPartition


@dataclass
class EvalReport:
    method_name: str
    clean_size: int
    correct_label_fraction: float
    precision_n: float | None
    recall_n: float | None
    recall_h: float | None
    estimated_lnl: float
    test_accuracy_mean: float | None = None
    test_accuracy_std: float | None = None
    test_loss_mean: float | None = None

    def as_row(self) -> dict:
        return {
            "method": self.method_name,
            "clean_size": self.clean_size,
            "correct_label_fraction": self.correct_label_fraction,
            "precision_n": self.precision_n,
            "recall_n": self.recall_n,
            "recall_h": self.recall_h,
            "estimated_lnl": self.estimated_lnl,
            "test_accuracy_mean": self.test_accuracy_mean,
            "test_accuracy_std": self.test_accuracy_std,
            "test_loss_mean": self.test_loss_mean,
        }


def _require_aligned(ids: np.ndarray, dataset: Dataset, what: str) -> None:
    """Masks over `ids` apply to the dataset rows only when the ids are the
    dataset's, in the same order."""
    if not np.array_equal(ids, dataset.ids):
        raise ConfigurationError(f"{what} ids do not match the dataset")


def score_partition(
    partition: Partition, ground_truth: GroundTruthPartition, dataset: Dataset
) -> EvalReport:
    """Precision/recall of the noisy subset, recall of hard samples kept
    clean, correct-label fraction of the clean subset, and estimated
    label-noise level 1 - |clean|/|all|."""
    _require_aligned(partition.ids, dataset, "partition")
    _require_aligned(ground_truth.ids, dataset, "ground truth")
    est_n, s_n, s_h = partition.noisy, ground_truth.noisy, ground_truth.hard
    est_c = ~est_n
    n_est, n_noisy, n_hard = int(est_n.sum()), int(s_n.sum()), int(s_h.sum())
    clean_size = len(dataset) - n_est
    caught = int((est_n & s_n).sum())
    correct = dataset.y_assigned == dataset.y_true
    return EvalReport(
        method_name=partition.method_name,
        clean_size=clean_size,
        correct_label_fraction=float(correct[est_c].mean()) if clean_size else 0.0,
        precision_n=caught / n_est if n_est else None,
        recall_n=caught / n_noisy if n_noisy else None,
        recall_h=int((est_c & s_h).sum()) / n_hard if n_hard else None,
        estimated_lnl=1.0 - clean_size / len(dataset),
    )


def anova_f(
    values: np.ndarray, groups: np.ndarray
) -> tuple[float, int, int, float]:
    """Classic one-way ANOVA: (F, df_between, df_within, p_value).

    The p-value is the F survival function, evaluated through the
    regularized incomplete beta function.
    """
    values = np.asarray(values, dtype=float)
    groups = np.asarray(groups)
    labels = np.unique(groups)
    if len(labels) < 2:
        raise ConfigurationError("ANOVA needs at least two groups")
    if len(values) <= len(labels):
        raise ConfigurationError("ANOVA needs more values than groups")
    grand = values.mean()
    ss_between = 0.0
    ss_within = 0.0
    for g in labels:
        v = values[groups == g]
        if len(v) == 0:
            raise ConfigurationError(f"group {g!r} is empty")
        ss_between += len(v) * (v.mean() - grand) ** 2
        ss_within += ((v - v.mean()) ** 2).sum()
    df_between = len(labels) - 1
    df_within = len(values) - len(labels)
    if ss_within == 0.0:
        if ss_between == 0.0:
            raise ConfigurationError("zero variance everywhere: F undefined")
        return float("inf"), df_between, df_within, 0.0
    f_stat = (ss_between / df_between) / (ss_within / df_within)
    # sf of F(d1, d2) at x = I_{d2/(d2 + d1 x)}(d2/2, d1/2)
    x = df_within / (df_within + df_between * f_stat)
    p = float(special.betainc(df_within / 2.0, df_between / 2.0, x))
    return float(f_stat), df_between, df_within, p


def _average_ranks(xs: np.ndarray) -> np.ndarray:
    order = np.argsort(xs, kind="mergesort")
    ranks = np.empty(len(xs), dtype=float)
    i = 0
    sorted_xs = xs[order]
    while i < len(xs):
        j = i
        while j + 1 < len(xs) and sorted_xs[j + 1] == sorted_xs[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman_rho(xs: np.ndarray, ys: np.ndarray) -> float:
    """Pearson correlation of average ranks (ties averaged)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) != len(ys) or len(xs) < 2:
        raise ConfigurationError("need two equal-length sequences of length >= 2")
    rx, ry = _average_ranks(xs), _average_ranks(ys)
    sx, sy = rx.std(), ry.std()
    if sx == 0 or sy == 0:
        raise ConfigurationError("zero rank variance")
    return float(((rx - rx.mean()) * (ry - ry.mean())).mean() / (sx * sy))


def retrain_on_subset(
    dataset: Dataset,
    partition: Partition,
    train_cfg: TrainConfig,
    test_set: Dataset,
    seeds: tuple[int, ...],
    hidden_sizes: tuple[int, ...],
    feature_width: int,
) -> tuple[float, float, float]:
    """Train fresh models on the estimated clean subset, one per seed, and
    report (mean test accuracy, std, mean test loss) on the clean test set."""
    _require_aligned(partition.ids, dataset, "partition")
    if partition.noisy.all():
        raise ConfigurationError("estimated clean subset is empty")
    subset = dataset.take(~partition.noisy)
    accs, losses = [], []
    for seed in seeds:
        model = init_model(
            dataset.d, list(hidden_sizes), feature_width, dataset.K, seed=seed
        )
        model, _ = train_with_tracing(model, subset, replace(train_cfg, seed=seed))
        acc, loss = evaluate(model, test_set)
        accs.append(acc)
        losses.append(loss)
    return float(np.mean(accs)), float(np.std(accs)), float(np.mean(losses))
