"""Partition methods: threshold/GMM semantics and the built-in catalog."""

import numpy as np
import pytest

from noisesift import (
    builtin_methods,
    lookup_method,
    partition_gmm1d,
    partition_gmm2d,
    partition_threshold,
    run_method,
)
from noisesift.errors import UnknownMethodError
from noisesift.partition import (
    ABLATION_METHOD_NAMES,
    HIGH_IS_NOISY,
    LOW_IS_NOISY,
    TABLE1_METHOD_NAMES,
    Partition,
    load_partition,
    save_partition,
)


def test_threshold_median_ties_stay_clean():
    ids = np.arange(5)
    values = np.array([1.0, 2.0, 3.0, 3.0, 5.0])  # median = 3.0
    part = partition_threshold(ids, values, HIGH_IS_NOISY)
    assert part.noisy_ids == {4}           # strictly above the median
    assert part.clean_ids == {0, 1, 2, 3}  # ties at the median stay clean
    part = partition_threshold(ids, values, LOW_IS_NOISY)
    assert part.noisy_ids == {0, 1}
    assert part.clean_ids == {2, 3, 4}


def test_threshold_explicit_value():
    ids = np.arange(4)
    values = np.array([0.1, 0.4, 0.6, 0.9])
    part = partition_threshold(ids, values, HIGH_IS_NOISY, threshold=0.5)
    assert part.noisy_ids == {2, 3}
    assert part.parameters["threshold"] == 0.5


def test_gmm1d_splits_bimodal_data(rng):
    lo = rng.normal(0.0, 0.1, size=300)
    hi = rng.normal(5.0, 0.1, size=100)
    ids = np.arange(400)
    part = partition_gmm1d(ids, np.concatenate([lo, hi]), HIGH_IS_NOISY)
    assert part.noisy_ids == set(range(300, 400))
    # Opposite polarity flags the low mode instead.
    part = partition_gmm1d(ids, np.concatenate([lo, hi]), LOW_IS_NOISY)
    assert part.noisy_ids == set(range(300))


def test_gmm1d_degenerate_falls_back_to_median():
    ids = np.arange(6)
    values = np.full(6, 2.5)
    with pytest.warns(UserWarning, match="degenerate"):
        part = partition_gmm1d(ids, values, HIGH_IS_NOISY)
    assert part.parameters.get("fallback") == "median-threshold"
    assert part.noisy_ids == set()  # all tied at the median -> all clean


def test_gmm2d_flags_the_low_acc_high_distance_cluster(rng):
    # Easy: high acc, low dist.  Noisy: low acc, high dist.
    easy = np.column_stack(
        [rng.normal(0.9, 0.02, 200), rng.normal(1.0, 0.1, 200)]
    )
    noisy = np.column_stack(
        [rng.normal(0.1, 0.02, 100), rng.normal(5.0, 0.1, 100)]
    )
    pts = np.vstack([easy, noisy])
    ids = np.arange(300)
    part = partition_gmm2d(
        ids, pts[:, 0], pts[:, 1],
        polarity_x=LOW_IS_NOISY, polarity_y=HIGH_IS_NOISY, clusters=2,
    )
    assert part.noisy_ids == set(range(200, 300))
    assert part.cluster_labels is not None
    assert set(part.cluster_labels) == set(range(300))


def test_gmm2d_three_clusters_takes_only_the_extreme_corner(rng):
    easy = np.column_stack([rng.normal(0.9, 0.02, 200), rng.normal(1.0, 0.1, 200)])
    hard = np.column_stack([rng.normal(0.5, 0.02, 100), rng.normal(3.0, 0.1, 100)])
    noisy = np.column_stack([rng.normal(0.1, 0.02, 100), rng.normal(6.0, 0.1, 100)])
    pts = np.vstack([easy, hard, noisy])
    ids = np.arange(400)
    part = partition_gmm2d(
        ids, pts[:, 0], pts[:, 1],
        polarity_x=LOW_IS_NOISY, polarity_y=HIGH_IS_NOISY, clusters=3,
    )
    # The middle (hard) cluster must stay clean.
    assert part.noisy_ids == set(range(300, 400))
    assert set(range(200, 300)) <= part.clean_ids


def test_builtin_catalog_shape():
    methods = builtin_methods()
    names = [m.name for m in methods]
    assert len(names) == len(set(names)) == 15
    assert len(TABLE1_METHOD_NAMES) == 7
    assert len(ABLATION_METHOD_NAMES) == 8
    assert "2d-GMM_acc-SCD" in TABLE1_METHOD_NAMES
    assert lookup_method("Thres_Loss").kind == "threshold"
    # Every 2-cluster ablation variant has a 3-cluster counterpart.
    for suffix in ("", "_mid", "_mid-norm", "_mid-static"):
        two = lookup_method(f"2d-GMM_WJSD-ACD{suffix}")
        three = lookup_method(f"2d-GMM-3clusters_WJSD-ACD{suffix}")
        assert two.clusters == 2 and three.clusters == 3
        assert two.metric_x == three.metric_x
        assert two.metric_y == three.metric_y


def test_lookup_unknown_method():
    with pytest.raises(UnknownMethodError):
        lookup_method("no-such-method")


def test_run_method_covers_all_ids(imbalance_run):
    table, traces, train = (
        imbalance_run["table"],
        imbalance_run["traces"],
        imbalance_run["train"],
    )
    all_ids = set(train.ids.tolist())
    for name in ("Thres_Loss", "1d-GMM_AUL", "2d-GMM_acc-SCD"):
        part = run_method(lookup_method(name), table, traces)
        assert part.clean_ids | part.noisy_ids == all_ids
        assert not (part.clean_ids & part.noisy_ids)
        assert part.method_name == name


def test_partition_save_load_roundtrip(tmp_path, rng):
    ids = np.arange(50)
    values = rng.normal(size=50)
    part = partition_threshold(ids, values, HIGH_IS_NOISY, method_name="t")
    save_partition(part, tmp_path, "p")
    loaded = load_partition(tmp_path, "p")
    assert loaded.clean_ids == part.clean_ids
    assert loaded.noisy_ids == part.noisy_ids
    assert loaded.method_name == part.method_name


def test_partition_with_cluster_labels_roundtrip(tmp_path, rng):
    pts = np.vstack(
        [
            np.column_stack([rng.normal(0.9, 0.02, 60), rng.normal(1.0, 0.1, 60)]),
            np.column_stack([rng.normal(0.1, 0.02, 40), rng.normal(5.0, 0.1, 40)]),
        ]
    )
    ids = np.arange(100)
    part = partition_gmm2d(ids, pts[:, 0], pts[:, 1], LOW_IS_NOISY, HIGH_IS_NOISY, 2)
    save_partition(part, tmp_path, "p2")
    loaded = load_partition(tmp_path, "p2")
    assert loaded.cluster_labels == part.cluster_labels
    assert loaded.noisy_ids == part.noisy_ids


@pytest.mark.parametrize(
    "part",
    [
        Partition({40, 7, 300}, {2, 99}, "m", {}, {7: 1, 99: 0, 5: 2, 1000: 1}),
        Partition({3}, set(), "m", {}, None),
        Partition(set(), set(), "m", {}, {4: 0}),
    ],
)
def test_save_partition_arrays_match_per_id_lookup(tmp_path, part):
    save_partition(part, tmp_path, "p")
    ids = sorted(part.clean_ids | part.noisy_ids)
    labels = part.cluster_labels or {}
    np.testing.assert_array_equal(np.load(tmp_path / "p_ids.npy"), ids)
    np.testing.assert_array_equal(
        np.load(tmp_path / "p_noisy.npy"), [i in part.noisy_ids for i in ids]
    )
    np.testing.assert_array_equal(
        np.load(tmp_path / "p_cluster_label.npy"), [labels.get(i, -1) for i in ids]
    )
