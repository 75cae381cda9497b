"""Partition methods: threshold/GMM semantics and the built-in catalog."""

import json
import os
import shutil
import time

import numpy as np
import pytest

from noisesift import (
    builtin_methods,
    lookup_method,
    partition,
    partition_gmm,
    partition_threshold,
    pipeline,
    run_method,
    run_methods,
)
from noisesift.artifacts import save_arrays
from noisesift.errors import ConfigurationError, DegenerateDataError, UnknownMethodError
from noisesift.gmm import GmmConfig, fit_gmm, responsibilities
from noisesift.metrics import (
    ACD_VARIANT,
    COLUMNS,
    SCD_VARIANT,
    CentroidVariant,
    centroid_distance_from_traces,
    load_metric_table,
)
from noisesift.mlp import load_traces
from noisesift.partition import (
    ABLATION_METHOD_NAMES,
    HIGH_IS_NOISY,
    LOW_IS_NOISY,
    METRIC_POLARITY,
    TABLE1_METHOD_NAMES,
    MethodSpec,
    Partition,
    load_partition,
    save_partition,
)
from noisesift.pipeline import run_pipeline


def noisy_ids(part: Partition) -> list[int]:
    return part.ids[part.noisy].tolist()


def clean_ids(part: Partition) -> list[int]:
    return part.ids[~part.noisy].tolist()


def test_threshold_median_ties_stay_clean():
    ids = np.arange(5)
    values = np.array([1.0, 2.0, 3.0, 3.0, 5.0])  # median = 3.0
    part = partition_threshold(ids, values, HIGH_IS_NOISY)
    assert noisy_ids(part) == [4]           # strictly above the median
    assert clean_ids(part) == [0, 1, 2, 3]  # ties at the median stay clean
    part = partition_threshold(ids, values, LOW_IS_NOISY)
    assert noisy_ids(part) == [0, 1]
    assert clean_ids(part) == [2, 3, 4]
    with pytest.raises(ConfigurationError, match="empty value set"):
        partition_threshold(ids[:0], values[:0])


def test_gmm_one_column_splits_bimodal_data(rng):
    lo = rng.normal(0.0, 0.1, size=300)
    hi = rng.normal(5.0, 0.1, size=100)
    ids = np.arange(400)
    part = partition_gmm(ids, [np.concatenate([lo, hi])], (HIGH_IS_NOISY,))
    assert noisy_ids(part) == list(range(300, 400))
    # Opposite polarity flags the low mode instead.
    part = partition_gmm(ids, [np.concatenate([lo, hi])], (LOW_IS_NOISY,))
    assert noisy_ids(part) == list(range(300))


@pytest.mark.parametrize("metric", ["loss_end", "aul"])
def test_gmm_one_column_argmax_equals_half_responsibility(imbalance_run, metric):
    """On one column with two clusters, labelling by the most responsible
    cluster gives the same mask as a noisy responsibility above 0.5."""
    table = imbalance_run["table"]
    values = table.values[metric]
    part = partition_gmm(table.ids, [values], (HIGH_IS_NOISY,), clusters=2, seed=0)
    model = fit_gmm(values, GmmConfig(k=2, seed=0))
    resp = responsibilities(model, values)
    reference = resp[:, int(np.argmax(model.means[:, 0]))] > 0.5
    assert 0 < reference.sum() < len(values)
    np.testing.assert_array_equal(part.noisy, reference)


@pytest.mark.parametrize(
    "columns, polarities",
    [
        ([np.full(6, 2.5)], (HIGH_IS_NOISY,)),
        ([np.full(6, 1.0), np.full(6, 2.5)], (LOW_IS_NOISY, HIGH_IS_NOISY)),
    ],
    ids=["one-column", "two-columns"],
)
def test_gmm_degenerate_falls_back_to_median_on_the_last_column(columns, polarities):
    with pytest.warns(UserWarning, match="degenerate"):
        part = partition_gmm(np.arange(6), columns, polarities)
    assert part.parameters == {"threshold": 2.5, "fallback": "median-threshold-on-last-metric"}
    assert noisy_ids(part) == []  # all tied at the median -> all clean


def test_gmm_two_columns_flags_the_low_acc_high_distance_cluster(rng):
    # Easy: high acc, low dist.  Noisy: low acc, high dist.
    easy = np.column_stack(
        [rng.normal(0.9, 0.02, 200), rng.normal(1.0, 0.1, 200)]
    )
    noisy = np.column_stack(
        [rng.normal(0.1, 0.02, 100), rng.normal(5.0, 0.1, 100)]
    )
    pts = np.vstack([easy, noisy])
    ids = np.arange(300)
    part = partition_gmm(ids, [pts[:, 0], pts[:, 1]], (LOW_IS_NOISY, HIGH_IS_NOISY), clusters=2)
    assert noisy_ids(part) == list(range(200, 300))


def test_gmm_three_clusters_takes_only_the_extreme_corner(rng):
    easy = np.column_stack([rng.normal(0.9, 0.02, 200), rng.normal(1.0, 0.1, 200)])
    hard = np.column_stack([rng.normal(0.5, 0.02, 100), rng.normal(3.0, 0.1, 100)])
    noisy = np.column_stack([rng.normal(0.1, 0.02, 100), rng.normal(6.0, 0.1, 100)])
    pts = np.vstack([easy, hard, noisy])
    ids = np.arange(400)
    part = partition_gmm(ids, [pts[:, 0], pts[:, 1]], (LOW_IS_NOISY, HIGH_IS_NOISY), clusters=3)
    # The middle (hard) cluster must stay clean.
    assert noisy_ids(part) == list(range(300, 400))
    assert set(range(200, 300)) <= set(clean_ids(part))


@pytest.mark.parametrize(
    "make",
    [
        lambda ids, v: partition_threshold(ids, v),
        lambda ids, v: partition_gmm(ids, [v], (HIGH_IS_NOISY,)),
        lambda ids, v: partition_gmm(ids, [v, v[::-1]], (HIGH_IS_NOISY, HIGH_IS_NOISY)),
    ],
    ids=["threshold", "gmm-one-column", "gmm-two-columns"],
)
def test_partitioners_reject_ids_of_another_length(make, rng):
    values = np.concatenate([rng.normal(0.0, 0.1, 30), rng.normal(5.0, 0.1, 10)])
    with pytest.raises(ConfigurationError, match="40 noisy rows for 39 ids"):
        make(np.arange(39), values)


def test_metric_polarity_covers_every_metric_column():
    assert sorted(METRIC_POLARITY) == sorted(COLUMNS)
    assert set(METRIC_POLARITY.values()) == {HIGH_IS_NOISY, LOW_IS_NOISY}


def test_method_polarity_follows_its_metrics():
    # A table column maps through METRIC_POLARITY; a centroid distance is
    # high-is-noisy.
    assert lookup_method("Thres_AUM").polarities == (LOW_IS_NOISY,)
    assert lookup_method("1d-GMM_AUL").polarities == (HIGH_IS_NOISY,)
    assert lookup_method("2d-GMM_acc-SCD").polarities == (LOW_IS_NOISY, HIGH_IS_NOISY)
    flipped = MethodSpec("flipped", "gmm", (SCD_VARIANT, "confidence_end"))
    assert flipped.polarities == (HIGH_IS_NOISY, LOW_IS_NOISY)
    with pytest.raises(ConfigurationError, match="margin"):
        MethodSpec("bogus", "threshold", ("margin",))


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
        assert two.metrics == three.metrics


def test_lookup_unknown_method():
    with pytest.raises(UnknownMethodError):
        lookup_method("no-such-method")


def test_run_method_covers_all_ids(imbalance_run):
    table, traces, train = (
        imbalance_run["table"],
        imbalance_run["traces"],
        imbalance_run["train"],
    )
    for name in ("Thres_Loss", "1d-GMM_AUL", "2d-GMM_acc-SCD"):
        part = run_method(lookup_method(name), table, traces)
        np.testing.assert_array_equal(part.ids, train.ids)
        assert part.noisy.dtype == bool and part.noisy.shape == train.ids.shape
        assert part.method_name == name


def test_partition_stage_computes_each_centroid_distance_once(tmp_path, monkeypatch):
    # All 15 methods use five distinct centroid-distance variants between
    # them; each partition is still what run_method gives for its spec alone.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "grid": {"levels": 3, "classes_per_cell": 1, "per_class_count": 16, "input_dim": 4},
        "train": {"epochs": 6, "hidden_sizes": [8], "feature_width": 4},
        "methods": [spec.name for spec in builtin_methods()],
        "eval": {"h_threshold": 2},
    }))
    out = tmp_path / "run"
    for stage in ("gen", "train", "metrics"):
        run_pipeline(config, out_dir=out, stage=stage)
    variants, parts = [], {}
    distance = partition.centroid_distance_from_traces
    save = pipeline.save_partition

    def save_and_keep(ids, saved, *args):
        parts.update((part.method_name, part) for part in saved)
        return save(ids, saved, *args)

    monkeypatch.setattr(
        partition,
        "centroid_distance_from_traces",
        lambda traces, variant: variants.append(variant) or distance(traces, variant),
    )
    monkeypatch.setattr(pipeline, "save_partition", save_and_keep)
    run_pipeline(config, out_dir=out, stage="partition")
    monkeypatch.undo()
    # All 15 partitions are one artifact of three files.
    assert sorted(p.name for p in out.glob("partition*")) == [
        "partitions.json", "partitions_ids.npy", "partitions_noisy.npy",
    ]
    specs = builtin_methods()
    assert len(variants) == len(set(variants)) == 5
    used = {m for spec in specs for m in spec.metrics if isinstance(m, CentroidVariant)}
    assert set(variants) == used
    table, traces = load_metric_table(out), load_traces(out)
    for spec in specs:
        want = run_method(spec, table, traces)
        np.testing.assert_array_equal(parts[spec.name].noisy, want.noisy, err_msg=spec.name)
        assert parts[spec.name].parameters == want.parameters, spec.name


def test_partition_save_load_roundtrip(tmp_path, rng):
    """The partitions come back in their saved order, with their names,
    masks and parameters; the ids are stored once."""
    ids = np.arange(50)
    values = rng.normal(size=50)
    parts = [
        partition_threshold(ids, values, HIGH_IS_NOISY, method_name="t"),
        partition_gmm(ids, [values], (LOW_IS_NOISY,), 2, method_name="g"),
        partition_threshold(ids, -values, HIGH_IS_NOISY, method_name="a"),
    ]
    save_partition(ids, parts, tmp_path)
    assert np.load(tmp_path / "partitions_noisy.npy").shape == (3, 50)
    loaded = load_partition(tmp_path)
    assert [p.method_name for p in loaded] == ["t", "g", "a"]
    for got, want in zip(loaded, parts):
        np.testing.assert_array_equal(got.ids, ids)
        np.testing.assert_array_equal(got.noisy, want.noisy)
        assert got.parameters == want.parameters


def test_save_partition_refuses_a_partition_over_other_ids(tmp_path):
    ids = np.arange(4)
    parts = [Partition(ids, np.zeros(4, bool), "a"), Partition(ids[::-1], np.zeros(4, bool), "b")]
    with pytest.raises(ConfigurationError, match="ids differ"):
        save_partition(ids, parts, tmp_path)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "part, ids_on_disk",
    [
        (
            Partition(
                np.array([300, 7, 40, 2, 99]), np.array([False, False, False, True, True]), "m"
            ),
            np.uint16,
        ),
        (Partition(np.array([3]), np.array([False]), "m"), np.uint8),
        (Partition(np.array([], dtype=np.int64), np.array([], dtype=bool), "m"), np.int64),
    ],
)
def test_save_partition_arrays_match_per_id_lookup(tmp_path, part, ids_on_disk):
    """The saved arrays are the partition's own, row for row, in its id
    order (not sorted), and nothing else is written.  The ids are stored in
    their narrowest dtype and come back as int64."""
    paths = save_partition(part.ids, [part], tmp_path)
    written = sorted(p.name for p in tmp_path.iterdir())
    assert sorted(p.name for p in paths) == written == [
        "partitions.json", "partitions_ids.npy", "partitions_noisy.npy",
    ]
    on_disk = np.load(tmp_path / "partitions_ids.npy")
    assert on_disk.dtype == ids_on_disk
    np.testing.assert_array_equal(on_disk, part.ids)
    np.testing.assert_array_equal(np.load(tmp_path / "partitions_noisy.npy"), [part.noisy])
    [loaded] = load_partition(tmp_path)
    np.testing.assert_array_equal(loaded.ids, part.ids)
    np.testing.assert_array_equal(loaded.noisy, part.noisy)
    assert (loaded.ids.dtype, loaded.noisy.dtype) == (np.int64, bool)


@pytest.mark.parametrize(
    "meta",
    [{}, {"2d-GMM_acc-SCD": [1]}, {"Thres_Loss": {}, "2d-GMM_acc-SCD": {}}],
    ids=["no-method-name", "parameters-a-list", "one-name-too-many"],
)
def test_partition_metadata_is_checked_when_loaded(tmp_path, meta):
    """One mask row needs exactly one method name, mapped to an object."""
    save_arrays(tmp_path, "partitions", meta, ids=np.arange(4), noisy=np.zeros((1, 4), bool))
    with pytest.raises(ConfigurationError, match=r"partitions\.json"):
        load_partition(tmp_path)


def test_a_non_boolean_noisy_mask_is_refused(tmp_path):
    """A 0/1 integer mask would index rows -1 and -2 under `~noisy`, so it is
    refused when built and when loaded from an integer `partitions_noisy.npy`."""
    ids = np.arange(36)
    mask = np.isin(ids, [4, 17, 30]).astype(np.int64)
    with pytest.raises(ConfigurationError, match="noisy mask has dtype int64"):
        Partition(ids, mask, "int-mask")
    save_arrays(tmp_path, "partitions", {"int-mask": {}}, ids=ids, noisy=mask[None])
    with pytest.raises(ConfigurationError, match="noisy mask has dtype int64"):
        load_partition(tmp_path)


TINY_CONFIG = {
    "grid": {"levels": 3, "classes_per_cell": 1, "per_class_count": 16, "input_dim": 4},
    "train": {"epochs": 6, "hidden_sizes": [8], "feature_width": 4},
    "methods": [spec.name for spec in builtin_methods()],
    "eval": {"h_threshold": 2},
}


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A tiny run listing all 15 methods, through its metrics stage: (the
    config path, the run directory, its metric table and its traces)."""
    root = tmp_path_factory.mktemp("tiny")
    config = root / "config.json"
    config.write_text(json.dumps(TINY_CONFIG))
    out = root / "run"
    for stage in ("gen", "train", "metrics"):
        run_pipeline(config, out_dir=out, stage=stage)
    return config, out, load_metric_table(out), load_traces(out)


def _failing_fits(monkeypatch, table, traces, errors: dict, log):
    """Make `partition.fit_gmm` raise errors[name] on the fit of each named
    method, known by its cluster count and its points, and append
    "<name> <pid>" to the file `log` each time."""
    fits = {}
    for name in errors:
        spec = lookup_method(name)
        columns = [
            centroid_distance_from_traces(traces, m) if isinstance(m, CentroidVariant)
            else table.values[m]
            for m in spec.metrics
        ]
        fits[name] = (spec.clusters, np.column_stack(columns))
    fit = partition.fit_gmm

    def failing_fit(pts, cfg):
        for name, (k, want) in fits.items():
            if cfg.k == k and pts.shape == want.shape and np.array_equal(pts, want):
                with log.open("a") as f:
                    f.write(f"{name} {os.getpid()}\n")
                raise errors[name]
        return fit(pts, cfg)

    monkeypatch.setattr(partition, "fit_gmm", failing_fit)


def test_run_methods_on_one_to_three_cpus_equals_the_one_process_loop(
    tiny_run, use_cpus, assert_no_child_left
):
    _, _, table, traces = tiny_run
    specs = builtin_methods()
    want = [run_method(spec, table, traces, seed=3) for spec in specs]
    for cpus in (1, 2, 3):
        use_cpus(cpus)
        got = run_methods(specs, table, traces, seed=3)
        assert_no_child_left()
        for g, w in zip(got, want, strict=True):
            assert g.method_name == w.method_name
            for a, b in ((g.ids, w.ids), (g.noisy, w.noisy)):
                assert a.dtype == b.dtype and np.array_equal(a, b), (cpus, w.method_name)
            assert json.dumps(g.parameters) == json.dumps(w.parameters), (cpus, w.method_name)


def test_run_method_leaves_a_distances_dict_without_its_variant_unchanged(tiny_run):
    _, _, table, traces = tiny_run
    spec = lookup_method("2d-GMM_acc-SCD")
    acd = centroid_distance_from_traces(traces, ACD_VARIANT)
    distances = {ACD_VARIANT: acd}  # without the SCD column the method needs
    got = run_method(spec, table, traces, distances=distances)
    assert list(distances) == [ACD_VARIANT] and distances[ACD_VARIANT] is acd
    want = run_method(spec, table, traces)
    np.testing.assert_array_equal(got.noisy, want.noisy)
    assert got.parameters == want.parameters


def test_run_methods_forks_one_child_per_further_share(
    tiny_run, use_cpus, assert_no_child_left, forked, refuse_fork
):
    _, _, table, traces = tiny_run
    specs = builtin_methods()
    use_cpus(2)
    run_methods(specs, table, traces)
    assert len(forked) == 1
    use_cpus(3)
    run_methods(specs, table, traces)
    assert len(forked) == 3
    assert_no_child_left()

    # No method, one method or one CPU: all in this process.
    refuse_fork()
    assert run_methods([], table, traces) == []
    run_methods(specs[:1], table, traces)
    use_cpus(1)
    run_methods(specs, table, traces)


@pytest.mark.parametrize("cpus", [2, 3])
def test_run_methods_computes_each_centroid_distance_once_in_this_process(
    tiny_run, use_cpus, monkeypatch, tmp_path, cpus
):
    _, _, table, traces = tiny_run
    log = tmp_path / "computed"
    distance = partition.centroid_distance_from_traces

    def logged_distance(traces, variant):
        with log.open("a") as f:
            f.write(f"{os.getpid()}\n")
        return distance(traces, variant)

    monkeypatch.setattr(partition, "centroid_distance_from_traces", logged_distance)
    use_cpus(cpus)
    run_methods(builtin_methods(), table, traces)
    assert log.read_text().split() == [str(os.getpid())] * 5


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_run_methods_raises_the_first_failure_in_config_order(
    tiny_run, use_cpus, assert_no_child_left, monkeypatch, tmp_path, cpus
):
    # 1d-GMM_AUL is fifth in config order. At 2 and 3 CPUs it runs in a
    # forked share, while the two methods after it, both costlier, run
    # first in share 0.
    _, _, table, traces = tiny_run
    names = ("1d-GMM_AUL", "2d-GMM_WJSD-ACD", "2d-GMM_acc-SCD")
    errors = {name: ValueError(f"{name} failed") for name in names}
    log = tmp_path / "failed"
    _failing_fits(monkeypatch, table, traces, errors, log)
    use_cpus(cpus)
    with pytest.raises(ValueError, match="^1d-GMM_AUL failed$"):
        run_methods(builtin_methods(), table, traces)
    assert_no_child_left()
    failed = dict(line.split() for line in log.read_text().splitlines())
    assert failed.keys() == set(names)
    assert failed["2d-GMM_acc-SCD"] == str(os.getpid())
    assert (failed["1d-GMM_AUL"] == str(os.getpid())) == (cpus == 1)


@pytest.mark.parametrize("cpus", [2, 3])
def test_an_interrupted_run_methods_leaves_no_child(
    tiny_run, use_cpus, assert_no_child_left, monkeypatch, cpus
):
    _, _, table, traces = tiny_run
    parent = os.getpid()

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setattr(partition, "run_method", interrupted)
    use_cpus(cpus)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_methods(builtin_methods(), table, traces)
    assert time.monotonic() - start < 30  # a sleeping child is killed, not awaited
    assert_no_child_left()


def test_a_degenerate_fit_in_a_forked_share_falls_back_and_the_run_completes(
    tiny_run, use_cpus, monkeypatch, tmp_path
):
    config, out, table, traces = tiny_run
    run_dir = shutil.copytree(out, tmp_path / "run")
    log = tmp_path / "failed"
    errors = {"1d-GMM_AUL": DegenerateDataError("all points identical")}
    _failing_fits(monkeypatch, table, traces, errors, log)
    use_cpus(2)
    run_pipeline(config, out_dir=run_dir)
    [(name, pid)] = [line.split() for line in log.read_text().splitlines()]
    assert name == "1d-GMM_AUL" and pid != str(os.getpid())  # fitted in share 1
    meta = json.loads((run_dir / "partitions.json").read_text())
    assert meta["1d-GMM_AUL"]["fallback"] == "median-threshold-on-last-metric"
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert set(manifest["stages"]) == set(pipeline.STAGES)
    assert (run_dir / "report.csv").exists()
