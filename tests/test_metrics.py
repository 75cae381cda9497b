"""Per-sample metrics against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisesift import ACD_VARIANT, SCD_VARIANT, CentroidVariant, compute_metric_table
from noisesift.errors import ConfigurationError
from noisesift.metrics import (
    centroid_distance,
    jensen_shannon_onehot,
    load_metric_table,
    save_metric_table,
    trajectory_metrics,
    traces_jsd,
)
from noisesift.mlp import TraceStore


def _brute_jsd(p, q):
    """Textbook JSD in nats with 0 log 0 = 0."""
    m = (p + q) / 2.0

    def _kl(a, b):
        mask = a > 0
        return float((a[mask] * np.log(a[mask] / b[mask])).sum())

    return 0.5 * _kl(p, m) + 0.5 * _kl(q, m)


def test_jsd_uniform_two_class_value():
    # Reference value: JSD((1/2, 1/2), (1, 0)) = 0.21576 nats.
    p = np.array([[0.5, 0.5]])
    got = jensen_shannon_onehot(p, np.array([0]))[0]
    assert abs(got - 0.21576) < 1e-4
    exact = _brute_jsd(p[0], np.array([1.0, 0.0]))
    assert abs(got - exact) < 1e-12


@given(st.integers(min_value=2, max_value=6), st.integers(0, 1000))
@settings(max_examples=50, deadline=None)
def test_jsd_matches_brute_force(k, seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(k), size=4)
    assigned = rng.integers(0, k, size=4)
    got = jensen_shannon_onehot(p, assigned)
    for i in range(4):
        onehot = np.zeros(k)
        onehot[assigned[i]] = 1.0
        assert abs(got[i] - _brute_jsd(p[i], onehot)) < 1e-12


def _toy_traces():
    """Hand-sized TraceStore with T=3, N=4 for brute-force comparisons."""
    loss = np.array(
        [[1.0, 2.0, 0.5, 3.0], [0.8, 1.5, 0.4, 2.5], [0.5, 1.0, 0.3, 2.0]]
    )
    pred = np.array([[0, 1, 2, 0], [1, 1, 2, 0], [1, 1, 2, 3]])
    y_assigned = np.array([1, 0, 2, 3])
    p_assigned = np.exp(-loss)
    p_pred = np.clip(p_assigned + 0.05, 0, 1)
    p_runner_up = p_pred - 0.02
    p_max_other = np.where(pred == y_assigned[None, :], p_assigned - 0.1, p_pred)
    feats_mid = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.0]])
    feats_end = feats_mid * 2.0
    return TraceStore(
        ids=np.array([10, 11, 12, 13]),
        y_assigned=y_assigned,
        loss=loss,
        pred=pred,
        p_pred=p_pred,
        p_assigned=p_assigned,
        p_runner_up=p_runner_up,
        p_max_other=p_max_other,
        train_acc=np.array([0.25, 0.5, 0.5]),
        features_mid=feats_mid,
        features_end=feats_end,
        mid_epoch=2,
    )


def test_trajectory_metrics_against_loops():
    traces = _toy_traces()
    first, acc, aul, aum = trajectory_metrics(traces)
    T, N = traces.T, traces.N
    for i in range(N):
        hits = [t for t in range(T) if traces.pred[t, i] == traces.y_assigned[i]]
        expected_first = (hits[0] + 1) if hits else T + 1
        assert first[i] == expected_first
        assert acc[i] == pytest.approx(len(hits) / T)
        assert aul[i] == pytest.approx(sum(traces.loss[t, i] for t in range(T)))
        margin = np.mean(
            [traces.p_assigned[t, i] - traces.p_max_other[t, i] for t in range(T)]
        )
        assert aum[i] == pytest.approx(margin)


def test_aum_literal_uses_predicted_class_margin():
    traces = _toy_traces()
    _, _, _, aum = trajectory_metrics(traces, aum_literal=True)
    expected = (traces.p_pred - traces.p_runner_up).mean(axis=0)
    np.testing.assert_allclose(aum, expected)
    assert np.all(aum >= 0)


def test_traces_jsd_uses_final_epoch_probabilities():
    traces = _toy_traces()
    got = traces_jsd(traces)
    k = 4
    for i in range(traces.N):
        p_c = traces.p_assigned[-1, i]
        # Any distribution with the assigned coordinate equal to p_c gives
        # the same JSD vs the one-hot label; spread the rest uniformly.
        p = np.full(k, (1.0 - p_c) / (k - 1))
        p[traces.y_assigned[i]] = p_c
        onehot = np.zeros(k)
        onehot[traces.y_assigned[i]] = 1.0
        assert abs(got[i] - _brute_jsd(p, onehot)) < 1e-12


def test_static_centroid_distance_brute_force():
    feats = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 4.0], [0.0, 0.0]])
    assigned = np.array([0, 0, 1, 1])
    pred_end = np.array([0, 1, 1, 1])
    p_end = np.array([0.9, 0.1, 0.9, 0.2])
    var = CentroidVariant(epoch="mid", distance="euclidean", centroid="static")
    dist, fallbacks = centroid_distance(feats, assigned, pred_end, p_end, var)
    assert fallbacks == []
    c0 = feats[:2].mean(axis=0)
    c1 = feats[2:].mean(axis=0)
    expected = [
        np.linalg.norm(feats[0] - c0),
        np.linalg.norm(feats[1] - c0),
        np.linalg.norm(feats[2] - c1),
        np.linalg.norm(feats[3] - c1),
    ]
    np.testing.assert_allclose(dist, expected)


def test_adaptive_centroid_membership_rule():
    # Class 0's adaptive centroid must use: samples assigned to 0 with
    # confidence >= threshold, plus samples assigned elsewhere but
    # predicted as 0.
    feats = np.array([[1.0, 0.0], [5.0, 0.0], [3.0, 0.0], [0.0, 2.0]])
    assigned = np.array([0, 0, 1, 1])
    pred_end = np.array([0, 1, 0, 1])
    p_end = np.array([0.9, 0.1, 0.3, 0.9])
    var = CentroidVariant(epoch="end", distance="euclidean", centroid="adaptive")
    dist, fallbacks = centroid_distance(feats, assigned, pred_end, p_end, var)
    assert fallbacks == []
    # members of class 0: row 0 (assigned, confident) + row 2 (predicted 0)
    c0 = feats[[0, 2]].mean(axis=0)
    # members of class 1: row 3 (assigned, confident) + row 1 (predicted 1)
    c1 = feats[[1, 3]].mean(axis=0)
    expected = [
        np.linalg.norm(feats[0] - c0),
        np.linalg.norm(feats[1] - c0),
        np.linalg.norm(feats[2] - c1),
        np.linalg.norm(feats[3] - c1),
    ]
    np.testing.assert_allclose(dist, expected)


def test_adaptive_centroid_falls_back_to_static_when_empty():
    feats = np.array([[1.0, 0.0], [3.0, 0.0], [0.0, 1.0]])
    assigned = np.array([0, 0, 1])
    pred_end = np.array([1, 1, 1])       # nobody predicted as class 0
    p_end = np.array([0.1, 0.2, 0.9])    # nobody confident in class 0
    var = CentroidVariant(epoch="end", distance="euclidean", centroid="adaptive")
    dist, fallbacks = centroid_distance(feats, assigned, pred_end, p_end, var)
    assert fallbacks == [0]
    c0 = feats[:2].mean(axis=0)  # static fallback
    assert dist[0] == pytest.approx(np.linalg.norm(feats[0] - c0))


def test_cosine_distance_formula():
    feats = np.array([[1.0, 0.0], [0.0, 1.0]])
    assigned = np.array([0, 0])
    var = CentroidVariant(epoch="end", distance="cosine", centroid="static")
    dist, _ = centroid_distance(feats, assigned, assigned, np.ones(2), var)
    centroid = feats.mean(axis=0)
    for i in range(2):
        cos = feats[i] @ centroid / (
            np.linalg.norm(feats[i]) * np.linalg.norm(centroid)
        )
        assert dist[i] == pytest.approx(1.0 - cos)


def test_scd_acd_default_corners():
    assert (SCD_VARIANT.epoch, SCD_VARIANT.distance, SCD_VARIANT.centroid) == (
        "mid", "euclidean", "static",
    )
    assert (ACD_VARIANT.epoch, ACD_VARIANT.distance, ACD_VARIANT.centroid) == (
        "end", "cosine", "adaptive",
    )


def test_variant_validation():
    with pytest.raises(ConfigurationError):
        CentroidVariant(epoch="start").validate()
    with pytest.raises(ConfigurationError):
        CentroidVariant(distance="manhattan").validate()
    with pytest.raises(ConfigurationError):
        CentroidVariant(adaptive_conf_threshold=1.5).validate()


def test_metric_table_roundtrip(tmp_path):
    traces = _toy_traces()
    table = compute_metric_table(traces)
    save_metric_table(table, tmp_path)
    loaded = load_metric_table(tmp_path)
    np.testing.assert_array_equal(loaded.ids, table.ids)
    for col, vals in table.values.items():
        np.testing.assert_array_equal(loaded.values[col], vals)
    assert loaded.params == table.params


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda text: text[: text.rindex(",")],              # truncated last row
        lambda text: text.replace("aum", "margin", 1),      # foreign header
        lambda text: text.split("\n", 1)[1],                # header missing
        lambda text: "",                                    # empty file
        lambda text: text.rstrip().rsplit(",", 1)[0] + ",abc\n",  # not a number
    ],
    ids=["truncated-row", "foreign-header", "no-header", "empty", "not-a-number"],
)
def test_load_metric_table_rejects_a_damaged_csv(tmp_path, corrupt):
    save_metric_table(compute_metric_table(_toy_traces()), tmp_path)
    path = tmp_path / "metrics.csv"
    path.write_text(corrupt(path.read_text()))
    with pytest.raises(ConfigurationError, match="metrics.csv"):
        load_metric_table(tmp_path)


def test_first_pred_epoch_sentinel_recorded():
    traces = _toy_traces()
    table = compute_metric_table(traces)
    assert table.params["first_pred_epoch_sentinel"] == traces.T + 1
    # Sample 13 is predicted correctly at epoch 3 only; sample 11 never.
    idx = {int(i): j for j, i in enumerate(table.ids)}
    assert table.values["first_pred_epoch"][idx[13]] == 3
    assert table.values["first_pred_epoch"][idx[11]] == traces.T + 1
