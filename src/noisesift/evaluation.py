"""Scoring of partitions against the ground truth of the set they split,
validity statistics, and the retrain-on-filtered harness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigurationError
from .mlp import Model, TrainConfig, evaluate, train
from .partition import Partition


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


def score_partition(partition: Partition, dataset: Dataset, h_threshold: int) -> EvalReport:
    """Precision/recall of the noisy subset against the mislabeled samples
    of `dataset`, recall of its hard samples (`dataset.hard(h_threshold)`)
    kept clean, correct-label fraction of the clean subset, and estimated
    label-noise level 1 - |clean|/|all|."""
    _require_aligned(partition.ids, dataset, "partition")
    est_n, s_n, s_h = partition.noisy, dataset.mislabeled, dataset.hard(h_threshold)
    est_c = ~est_n
    n_est, n_noisy, n_hard = int(est_n.sum()), int(s_n.sum()), int(s_h.sum())
    clean_size = len(dataset) - n_est
    caught = int((est_n & s_n).sum())
    return EvalReport(
        method=partition.method_name,
        clean_size=clean_size,
        correct_label_fraction=float((~s_n)[est_c].mean()) if clean_size else 0.0,
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
    partitions: list[Partition],
    test_set: Dataset,
    models: list[Model],
    cfgs: list[TrainConfig],
) -> list[tuple[float, float, float]]:
    """Train each of `models` with its config in `cfgs` on each partition's
    estimated clean subset, all of them in one untraced stacked loop, and
    report (mean test accuracy, std, mean test loss) over the models on the
    clean test set for each partition, in order."""
    subsets = []
    for part in partitions:
        _require_aligned(part.ids, dataset, "partition")
        if part.noisy.all():
            raise ConfigurationError(f"estimated clean subset of {part.method_name!r} is empty")
        subsets.append(dataset.take(~part.noisy))
    # The stack copies each model in, so the same initial model can repeat.
    trained = train(
        models * len(subsets), [s for s in subsets for _ in models], cfgs * len(subsets)
    )
    results = []
    for i in range(0, len(trained), len(models)):
        # Each model on its own: a stacked test pass would hold a
        # (models, test rows, K) array.
        accs, losses = zip(*(evaluate(model, test_set) for model in trained[i : i + len(models)]))
        results.append((float(np.mean(accs)), float(np.std(accs)), float(np.mean(losses))))
    return results
