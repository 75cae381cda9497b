"""Partition scoring arithmetic and the ANOVA/Spearman statistics."""

import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from noisesift import (
    EvalReport,
    TrainConfig,
    anova_f,
    evaluate,
    generate_base,
    init_model,
    retrain_on_subset,
    score_partition,
    spearman_rho,
    train_with_tracing,
)
from noisesift.data import Dataset
from noisesift.errors import ConfigurationError
from noisesift.partition import Partition


def _tiny_dataset():
    # Class 0 sits in cell h = 0 and class 1 in cell h = 4, so a sample's h
    # is 4 exactly where its true class is 1.
    N = 8
    y_true = np.array([0, 0, 1, 1, 1, 1, 0, 1])
    y_assigned = y_true.copy()
    y_assigned[[1, 5]] = 1 - y_true[[1, 5]]  # two mislabeled samples
    return Dataset(
        ids=np.arange(N),
        X=np.zeros((N, 2)),
        y_true=y_true,
        y_assigned=y_assigned,
        base_id=np.full(N, -1),
        levels=5,
        cell_table=np.array([[0, 0], [4, 0]]),
    )


def _mask(rows, n=8):
    mask = np.zeros(n, dtype=bool)
    mask[list(rows)] = True
    return mask


def test_tiny_dataset_ground_truth():
    # Noisy = {1, 5}; hard = correct with h >= 4 = {2, 3, 4, 7}; easy = {0, 6}.
    ds = _tiny_dataset()
    np.testing.assert_array_equal(ds.mislabeled, _mask({1, 5}))
    np.testing.assert_array_equal(ds.hard(4), _mask({2, 3, 4, 7}))


def test_score_partition_hand_computed():
    ds = _tiny_dataset()
    part = Partition(ids=np.arange(8), noisy=_mask({1, 4, 5}), method_name="hand")
    rep = score_partition(part, ds, 4)
    assert rep.clean_size == 5
    assert rep.recall_n == pytest.approx(2 / 2)    # both noisy caught
    assert rep.precision_n == pytest.approx(2 / 3)  # one clean casualty (4)
    assert rep.recall_h == pytest.approx(3 / 4)    # hard 2, 3, 7 kept clean
    assert rep.correct_label_fraction == pytest.approx(1.0)
    assert rep.estimated_lnl == pytest.approx(1 - 5 / 8)


def test_score_partition_empty_noisy_gives_none_precision():
    ds = _tiny_dataset()
    part = Partition(ids=np.arange(8), noisy=np.zeros(8, dtype=bool), method_name="all")
    rep = score_partition(part, ds, 4)
    assert rep.precision_n is None
    assert rep.recall_n == 0.0
    assert rep.estimated_lnl == 0.0


def test_score_partition_rejects_mismatched_ids():
    ds = _tiny_dataset()
    part = Partition(ids=np.arange(3), noisy=_mask({2}, 3), method_name="bad")
    with pytest.raises(ConfigurationError, match="partition ids"):
        score_partition(part, ds, 4)


def test_score_partition_rejects_reordered_ids():
    """The masks are row-aligned, so the same ids in another order are a
    mismatch, not a permutation to undo."""
    ds = _tiny_dataset()
    part = Partition(ids=np.arange(8)[::-1], noisy=_mask({1, 5}), method_name="rev")
    with pytest.raises(ConfigurationError, match="partition ids"):
        score_partition(part, ds, 4)
    with pytest.raises(ConfigurationError, match="partition ids"):
        retrain_on_subset(
            ds, [part], ds, [init_model(ds.d, [4], 2, ds.K)], [TrainConfig(epochs=1)]
        )


def test_retrain_on_subset_rejects_an_empty_clean_subset():
    ds = _tiny_dataset()
    some = Partition(ids=np.arange(8), noisy=_mask({1, 5}), method_name="some")
    none = Partition(ids=np.arange(8), noisy=np.ones(8, dtype=bool), method_name="none")
    with pytest.raises(ConfigurationError, match="subset of 'none' is empty"):
        retrain_on_subset(
            ds, [some, none], ds, [init_model(ds.d, [4], 2, ds.K)], [TrainConfig(epochs=1)]
        )


def test_retrain_on_subset_matches_one_seed_at_a_time(small_spec):
    """Every partition in one call equals a loop over the partitions that
    trains one seed at a time."""
    train, test = generate_base(small_spec)
    rows = np.arange(len(train))
    parts = [
        Partition(ids=train.ids, noisy=rows % 5 == 0, method_name="every fifth"),
        Partition(ids=train.ids, noisy=np.zeros(len(train), dtype=bool), method_name="none"),
        Partition(ids=train.ids, noisy=rows >= 7, method_name="first seven"),
        Partition(ids=train.ids, noisy=rows % 5 == 1, method_name="same size, other rows"),
    ]
    cfg, seeds = TrainConfig(epochs=3, seed=99), (0, 4, 9)
    models = [init_model(train.d, [8], 4, train.K, seed=seed) for seed in seeds]
    cfgs = [replace(cfg, seed=seed) for seed in seeds]
    got = retrain_on_subset(train, parts, test, models, cfgs)
    expected = []
    for part in parts:
        subset = train.take(~part.noisy)
        accs, losses = [], []
        for seed in seeds:
            model = init_model(train.d, [8], 4, train.K, seed=seed)
            model, _ = train_with_tracing(model, subset, replace(cfg, seed=seed))
            acc, loss = evaluate(model, test)
            accs.append(acc)
            losses.append(loss)
        expected.append((float(np.mean(accs)), float(np.std(accs)), float(np.mean(losses))))
    assert got == expected


def test_eval_report_row_shape():
    rep = EvalReport("m", 10, 0.9, 0.5, 0.6, 0.7, 0.1)
    row = asdict(rep)
    assert row["method"] == "m" and row["recall_h"] == 0.7
    assert row["test_accuracy_mean"] is None


def test_anova_hand_computed_two_groups():
    # Groups: (1, 2, 3) and (5, 6, 7).  Grand mean 4, SSB = 3*(2-4)^2 * 2
    # = 24, SSW = 2 + 2 = 4, df = (1, 4), F = 24 / (4/4) = 24.
    values = np.array([1.0, 2.0, 3.0, 5.0, 6.0, 7.0])
    groups = np.array([0, 0, 0, 1, 1, 1])
    f_stat, d1, d2, p = anova_f(values, groups)
    assert f_stat == pytest.approx(24.0)
    assert (d1, d2) == (1, 4)
    assert p == pytest.approx(stats.f.sf(24.0, 1, 4), rel=1e-12)


def test_anova_matches_scipy_on_random_groups(rng):
    values = rng.normal(size=120)
    groups = rng.integers(0, 5, size=120)
    f_stat, d1, d2, p = anova_f(values, groups)
    ref = stats.f_oneway(*[values[groups == g] for g in range(5)])
    assert f_stat == pytest.approx(ref.statistic, rel=1e-12)
    assert p == pytest.approx(ref.pvalue, rel=1e-10)


@pytest.mark.parametrize(
    "values, groups, dfs",
    [
        ([1.0, 1.0, 2.0, 2.0], [0, 0, 1, 1], (1, 2)),
        # 0.1 and 0.2 are not exact in binary, so computed group means round.
        ([0.1] * 3 + [0.2] * 3, [0, 0, 0, 1, 1, 1], (1, 4)),
    ],
    ids=["integers", "rounding-means"],
)
def test_anova_zero_within_variance(values, groups, dfs):
    f_stat, d1, d2, p = anova_f(np.array(values), np.array(groups))
    assert np.isinf(f_stat) and (d1, d2) == dfs and p == 0.0


def test_anova_validation():
    with pytest.raises(ConfigurationError, match="two groups"):
        anova_f(np.array([1.0, 2.0]), np.array([0, 0]))
    with pytest.raises(ConfigurationError, match="more values"):
        anova_f(np.array([1.0, 2.0]), np.array([0, 1]))
    with pytest.raises(ConfigurationError, match="zero variance everywhere"):
        anova_f(np.array([3.0, 3.0, 3.0]), np.array([0, 0, 1]))


def test_spearman_hand_computed():
    # Perfectly monotone data.
    assert spearman_rho([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert spearman_rho([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)


def test_spearman_with_ties_matches_scipy(rng):
    xs = rng.integers(0, 5, size=50).astype(float)  # heavy ties
    ys = xs + rng.normal(0, 1.0, size=50)
    got = spearman_rho(xs, ys)
    ref = stats.spearmanr(xs, ys).statistic
    assert got == pytest.approx(ref, rel=1e-12)


def test_spearman_matches_brute_force_rank_pearson(rng):
    xs = rng.normal(size=30)
    ys = rng.normal(size=30)
    rx = stats.rankdata(xs)
    ry = stats.rankdata(ys)
    ref = np.corrcoef(rx, ry)[0, 1]
    assert spearman_rho(xs, ys) == pytest.approx(ref, rel=1e-12)


def test_spearman_validation():
    with pytest.raises(ConfigurationError):
        spearman_rho([1.0], [2.0])
    with pytest.raises(ConfigurationError):
        spearman_rho([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ConfigurationError, match="zero rank variance"):
        spearman_rho([1.0, 1.0], [1.0, 2.0])


def test_spearman_with_nan_is_nan():
    assert np.isnan(spearman_rho([1.0, np.nan, 3.0, 4.0], [1.0, 2.0, 3.0, 5.0]))


def test_import_loads_no_scipy():
    """scipy.stats is imported only when a statistic is computed. A fresh
    interpreter is needed: the test session itself has scipy loaded."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = "import sys, noisesift; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
