"""Scoring of partitions against ground truth, validity statistics, and
the retrain-on-filtered harness."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .errors import ConfigurationError
from .mlp import TrainConfig, evaluate, init_model, train_with_tracing
from .partition import Partition
from .transforms import GroundTruthPartition


@dataclass
class EvalReport:
    method: str
    clean_size: int
    correct_label_fraction: float
    precision_n: float | None
    recall_n: float | None
    recall_h: float | None
    estimated_lnl: float
    test_accuracy_mean: float | None = None
    test_accuracy_std: float | None = None
    test_loss_mean: float | None = None


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
        method=partition.method_name,
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

    Groups that are each constant but differ in mean give (inf, d1, d2, 0).
    """
    # Imported here: scipy.stats takes about 0.7 s to import, and no pipeline stage calls this.
    from scipy import stats

    values = np.asarray(values, dtype=float)
    groups = np.asarray(groups)
    labels = np.unique(groups)
    if len(labels) < 2:
        raise ConfigurationError("ANOVA needs at least two groups")
    if len(values) <= len(labels):
        raise ConfigurationError("ANOVA needs more values than groups")
    df_between, df_within = len(labels) - 1, len(values) - len(labels)
    samples = [values[groups == g] for g in labels]
    if all((v == v[0]).all() for v in samples):
        if (values == values[0]).all():
            raise ConfigurationError("zero variance everywhere: F undefined")
        return float("inf"), df_between, df_within, 0.0
    res = stats.f_oneway(*samples)
    return float(res.statistic), df_between, df_within, float(res.pvalue)


def spearman_rho(xs: np.ndarray, ys: np.ndarray) -> float:
    """Pearson correlation of average ranks (ties averaged); NaN if any
    value is NaN."""
    # Imported here: scipy.stats takes about 0.7 s to import, and no pipeline stage calls this.
    from scipy import stats

    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) != len(ys) or len(xs) < 2:
        raise ConfigurationError("need two equal-length sequences of length >= 2")
    if (xs == xs[0]).all() or (ys == ys[0]).all():
        raise ConfigurationError("zero rank variance")
    return float(stats.spearmanr(xs, ys).statistic)


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
