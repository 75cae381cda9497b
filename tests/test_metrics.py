"""Per-sample metrics against brute-force oracles."""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisesift import ACD_VARIANT, SCD_VARIANT, CentroidVariant, compute_metric_table
from noisesift.errors import ConfigurationError
from noisesift.metrics import (
    COLUMNS,
    MetricTable,
    centroid_distance,
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


def _one_epoch_traces(probs, assigned):
    """A T = 1 TraceStore recording the class probabilities `probs` (N, K)
    against the assigned labels."""
    rows = np.arange(len(assigned))
    others = probs.copy()
    others[rows, assigned] = -np.inf
    m = np.zeros((len(assigned), 1))
    return TraceStore(
        ids=rows,
        y_assigned=assigned,
        pred_end=probs.argmax(axis=1),
        p_assigned=probs[rows, assigned][None, :],
        p_max_other=others.max(axis=1)[None, :],
        train_acc=np.zeros(1),
        features_mid=m,
        features_end=m,
        mid_epoch=1,
    )


def test_jsd_uniform_two_class_value():
    # Reference value: JSD((1/2, 1/2), (1, 0)) = 0.21576 nats.
    p = np.array([[0.5, 0.5]])
    got = traces_jsd(_one_epoch_traces(p, np.array([0])))[0]
    assert abs(got - 0.21576) < 1e-4
    exact = _brute_jsd(p[0], np.array([1.0, 0.0]))
    assert abs(got - exact) < 1e-12


@given(st.integers(min_value=2, max_value=6), st.integers(0, 1000))
@settings(max_examples=50, deadline=None)
def test_jsd_matches_brute_force(k, seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(k), size=4)
    assigned = rng.integers(0, k, size=4)
    got = traces_jsd(_one_epoch_traces(p, assigned))
    for i in range(4):
        onehot = np.zeros(k)
        onehot[assigned[i]] = 1.0
        assert abs(got[i] - _brute_jsd(p[i], onehot)) < 1e-12


# The predicted class of each toy sample at each epoch.
_TOY_PRED = np.array([[0, 1, 2, 0], [1, 1, 2, 0], [1, 1, 2, 3]])


def _toy_traces():
    """Hand-sized TraceStore with T=3, N=4 for brute-force comparisons,
    recording the predictions `_TOY_PRED`."""
    y_assigned = np.array([1, 0, 2, 3])
    p_assigned = np.exp(
        -np.array([[1.0, 2.0, 0.5, 3.0], [0.8, 1.5, 0.4, 2.5], [0.5, 1.0, 0.3, 2.0]])
    )
    # Below p_assigned where the prediction is right, above it elsewhere.
    p_max_other = np.where(
        _TOY_PRED == y_assigned[None, :], p_assigned - 0.1, np.clip(p_assigned + 0.05, 0, 1)
    )
    feats_mid = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.0]])
    feats_end = feats_mid * 2.0
    return TraceStore(
        ids=np.array([10, 11, 12, 13]),
        y_assigned=y_assigned,
        pred_end=_TOY_PRED[-1],
        p_assigned=p_assigned,
        p_max_other=p_max_other,
        train_acc=np.array([0.25, 0.5, 0.5]),
        features_mid=feats_mid,
        features_end=feats_end,
        mid_epoch=2,
    )


def test_trajectory_metrics_against_loops():
    traces = _toy_traces()
    first, acc, aul, aum = trajectory_metrics(traces, traces.loss)
    T, N = traces.T, traces.N
    for i in range(N):
        hits = [t for t in range(T) if _TOY_PRED[t, i] == traces.y_assigned[i]]
        expected_first = (hits[0] + 1) if hits else T + 1
        assert first[i] == expected_first
        assert acc[i] == pytest.approx(len(hits) / T)
        assert aul[i] == pytest.approx(sum(traces.loss[t, i] for t in range(T)))
        margin = np.mean(
            [traces.p_assigned[t, i] - traces.p_max_other[t, i] for t in range(T)]
        )
        assert aum[i] == pytest.approx(margin)


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
        CentroidVariant(epoch="start")
    with pytest.raises(ConfigurationError):
        CentroidVariant(distance="manhattan")


def test_metric_table_roundtrip(tmp_path):
    traces = _toy_traces()
    table = compute_metric_table(traces)
    save_metric_table(table, tmp_path)
    loaded = load_metric_table(tmp_path)
    np.testing.assert_array_equal(loaded.ids, table.ids)
    for col, vals in table.values.items():
        np.testing.assert_array_equal(loaded.values[col], vals)
    assert loaded.params == table.params
    # metrics.json records each variant with the adaptive centroid's cut.
    assert json.loads((tmp_path / "metrics.json").read_text())["acd_variant"] == {
        "epoch": "end", "distance": "cosine", "centroid": "adaptive", "adaptive_conf_threshold": 0.5,
    }


def test_compute_metric_table_refuses_traces_with_no_epochs():
    traces = _toy_traces()
    for name in ("p_assigned", "p_max_other", "train_acc"):
        setattr(traces, name, getattr(traces, name)[:0])
    with pytest.raises(ConfigurationError, match="no records"):
        compute_metric_table(traces)


def test_computed_columns_do_not_keep_larger_arrays_alive():
    # A view of the (T, N) loss would hold all of it for as long as the table.
    table = compute_metric_table(_toy_traces())
    for col, vals in table.values.items():
        assert vals.base is None or vals.base.nbytes == vals.nbytes, col


@pytest.mark.parametrize("N", [0, 1, 1024, 2049])
def test_metrics_csv_is_the_csv_modules_text_of_each_float_repr(tmp_path, N):
    # The writer formats the rows in blocks; block ends must not show.
    rng = np.random.default_rng(N)
    table = MetricTable(
        ids=rng.permutation(3 * N)[:N], values={c: rng.standard_normal(N) for c in COLUMNS}, params={}
    )
    save_metric_table(table, tmp_path)
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(["id", *COLUMNS])
    for i in range(N):
        writer.writerow([repr(int(table.ids[i]))] + [repr(float(table.values[c][i])) for c in COLUMNS])
    assert (tmp_path / "metrics.csv").read_bytes() == expected.getvalue().encode()


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda text: text[: text.rindex(",")],              # truncated last row
        lambda text: text.replace("aum", "margin", 1),      # foreign header
        lambda text: text.split("\n", 1)[1],                # header missing
        lambda text: "",                                    # empty file
        lambda text: text.rstrip().rsplit(",", 1)[0] + ",abc\n",  # not a number
        lambda text: text.replace("\n10,", "\n1.5,", 1),          # id not an integer
        # Every row one field short: a reshape of all fields would not notice.
        lambda text: "\n".join(
            [text.split("\n", 1)[0]] + [r.rsplit(",", 1)[0] for r in text.split("\n")[1:] if r]
        ),
    ],
    ids=[
        "truncated-row", "foreign-header", "no-header", "empty", "not-a-number", "id-1.5",
        "every-row-short",
    ],
)
def test_load_metric_table_rejects_a_damaged_csv(tmp_path, corrupt):
    save_metric_table(compute_metric_table(_toy_traces()), tmp_path)
    path = tmp_path / "metrics.csv"
    path.write_text(corrupt(path.read_text()))
    with pytest.raises(ConfigurationError, match="metrics.csv"):
        load_metric_table(tmp_path)


@pytest.mark.parametrize("text", [None, "{bad", "[1]"], ids=["missing", "malformed", "a-list"])
def test_load_metric_table_rejects_a_damaged_metrics_json(tmp_path, text):
    save_metric_table(compute_metric_table(_toy_traces()), tmp_path)
    path = tmp_path / "metrics.json"
    if text is None:
        path.unlink()
    else:
        path.write_text(text)
    with pytest.raises(ConfigurationError, match=r"metrics\.json"):
        load_metric_table(tmp_path)


def test_first_pred_epoch_sentinel_recorded():
    traces = _toy_traces()
    table = compute_metric_table(traces)
    assert table.params["first_pred_epoch_sentinel"] == traces.T + 1
    # Sample 13 is predicted correctly at epoch 3 only; sample 11 never.
    idx = {int(i): j for j, i in enumerate(table.ids)}
    assert table.values["first_pred_epoch"][idx[13]] == 3
    assert table.values["first_pred_epoch"][idx[11]] == traces.T + 1
