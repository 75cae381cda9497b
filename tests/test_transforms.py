"""Hardness transforms, label-noise injection, and the ground truth of a
noised set."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisesift import (
    GridSpec,
    NoiseSpec,
    apply_boundary_shift,
    apply_diversification,
    apply_imbalance,
    generate_base,
    init_model,
    inject_label_noise,
    input_gradient,
)
from noisesift.data import Dataset
from noisesift.errors import ConfigurationError
from noisesift.mlp import forward_batch


def test_imbalance_keeps_floor_x_over_2_to_h(small_train):
    out = apply_imbalance(small_train, seed=1)
    X = 16
    for c, (h, _n) in enumerate(small_train.cell_table.tolist()):
        assert int((out.y_assigned == c).sum()) == X // (2**h)
    # Kept rows are an untouched subset of the original rows.
    assert set(out.ids.tolist()) <= set(small_train.ids.tolist())
    np.testing.assert_array_equal(out.y_true, out.y_assigned)


@given(x_exp=st.integers(min_value=2, max_value=5), seed=st.integers(0, 10))
@settings(max_examples=10, deadline=None)
def test_imbalance_counts_for_random_sizes(x_exp, seed):
    spec = GridSpec(
        levels=3, classes_per_cell=1, per_class_count=2**x_exp, input_dim=3, seed=seed
    )
    train, _ = generate_base(spec)
    out = apply_imbalance(train, seed=seed)
    for c, (h, _n) in enumerate(train.cell_table.tolist()):
        assert int((out.y_assigned == c).sum()) == (2**x_exp) // (2**h)


def _imbalance_reference(dataset, seed):
    """Per-class reference: a keep mask filled by one draw per class."""
    counts = dataset.class_counts()
    keep = np.zeros(len(dataset), dtype=bool)
    for c, (h, _n) in enumerate(dataset.cell_table.tolist()):
        rows = np.flatnonzero(dataset.y_assigned == c)
        rng = np.random.default_rng([seed, c])
        keep[rng.choice(rows, size=counts[c] // (2**h), replace=False)] = True
    return dataset.take(keep)


@pytest.mark.parametrize(
    "grid, seed",
    [({}, 0), ({}, 3), ({"per_class_count": 16}, 0), ({"per_class_count": 16}, 1),
     ({"levels": 4, "classes_per_cell": 3, "per_class_count": 8, "input_dim": 4}, 2),
     ({"levels": 1, "per_class_count": 4}, 0)],
)
def test_imbalance_matches_per_class_reference(grid, seed):
    train, _ = generate_base(GridSpec(**grid, seed=seed))
    out = apply_imbalance(train, seed=seed + 1)
    expected = _imbalance_reference(train, seed + 1)
    for k in ("ids", "X", "y_true", "y_assigned", "base_id"):
        got, want = getattr(out, k), getattr(expected, k)
        assert got.dtype == want.dtype, k
        np.testing.assert_array_equal(got, want, err_msg=k)


@pytest.mark.parametrize(
    "transform, message",
    [
        (apply_imbalance, "class 1: 1 samples / 2^1 leaves no samples"),
        (apply_diversification, "class 0: 1 samples / 2^1 leaves no samples"),
    ],
    ids=["imbalance", "diversification"],
)
def test_a_class_that_would_keep_no_sample_is_refused(transform, message):
    # Two levels: class 0 is the h = 0 cell, class 1 the h = 1 cell, one
    # sample each.  Imbalance halves class 1; diversification class 0.
    y = np.array([0, 1])
    train = Dataset(
        ids=np.arange(2), X=np.zeros((2, 1)), y_true=y, y_assigned=y.copy(),
        base_id=np.full(2, -1), levels=2, cell_table=np.array([[0, 0], [1, 0]]),
    )
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        transform(train, seed=0)


def test_diversification_base_counts_and_balance(small_train):
    L, X = 3, 16
    out = apply_diversification(small_train, jitter_std=0.1, seed=1)
    originals = out.base_id == -1
    for c, (h, _n) in enumerate(small_train.cell_table.tolist()):
        in_class = out.y_assigned == c
        distinct = X // (2 ** (L - 1 - h))
        assert int((in_class & originals).sum()) == distinct
        # Copies restore the balanced per-class total.
        assert int(in_class.sum()) == distinct * 2 ** (L - 1 - h)


def test_diversification_copies_stay_near_their_base(small_train):
    jitter = 0.05
    out = apply_diversification(small_train, jitter_std=jitter, seed=1)
    copies = out.base_id != -1
    id_to_row = {int(i): j for j, i in enumerate(out.ids)}
    for row in np.flatnonzero(copies):
        base_row = id_to_row[int(out.base_id[row])]
        dist = np.linalg.norm(out.X[row] - out.X[base_row])
        assert dist < 6.0 * jitter * np.sqrt(out.d)
        assert out.y_true[row] == out.y_true[base_row]
        assert out.h[row] == out.h[base_row]


def test_diversification_ids_are_unique(small_train):
    out = apply_diversification(small_train, jitter_std=0.1, seed=1)
    assert len(np.unique(out.ids)) == len(out)


def _diversification_reference(dataset, jitter_std, seed):
    """Per-row reference: one jitter draw and one id range per picked row."""
    L = dataset.levels
    counts = dataset.class_counts()
    keep = np.zeros(len(dataset), dtype=bool)
    plan = []
    for c, (h, _n) in enumerate(dataset.cell_table.tolist()):
        factor = 2 ** (L - 1 - h)
        rows = np.flatnonzero(dataset.y_assigned == c)
        rng = np.random.default_rng([seed, c])
        picked = np.sort(rng.choice(rows, size=counts[c] // factor, replace=False))
        keep[picked] = True
        plan.append((picked, factor - 1, c))
    base = dataset.take(keep)
    next_id = int(dataset.ids.max()) + 1
    cols = {k: [getattr(base, k)] for k in ("ids", "X", "y_true", "y_assigned", "h", "n", "base_id")}
    for picked, copies, c in plan:
        if copies == 0:
            continue
        rng = np.random.default_rng([seed + 1, c])
        for row in picked:
            cols["X"].append(dataset.X[row] + jitter_std * rng.standard_normal((copies, dataset.d)))
            cols["ids"].append(np.arange(next_id, next_id + copies))
            next_id += copies
            for k in ("y_true", "y_assigned", "h", "n"):
                cols[k].append(np.full(copies, getattr(dataset, k)[row]))
            cols["base_id"].append(np.full(copies, dataset.ids[row]))
    return {k: np.concatenate(v) for k, v in cols.items()}


@pytest.mark.parametrize(
    "grid, seed",
    [({}, 0), ({"per_class_count": 16}, 0), ({"per_class_count": 16}, 1),
     ({"per_class_count": 16}, 2), ({"levels": 1, "per_class_count": 4}, 0)],
)
def test_diversification_matches_per_row_reference(grid, seed):
    train, _ = generate_base(GridSpec(**grid, seed=seed))
    out = apply_diversification(train, jitter_std=0.1, seed=seed + 1)
    expected = _diversification_reference(train, 0.1, seed + 1)
    for k, v in expected.items():
        got = getattr(out, k)
        assert got.dtype == v.dtype, k
        np.testing.assert_array_equal(got, v, err_msg=k)


def _linear_oracle(train, seed=0):
    """A quickly trained model to shift samples against."""
    from noisesift import TrainConfig, train_with_tracing

    model = init_model(train.d, [16], 8, train.K, seed=seed)
    model, _ = train_with_tracing(
        model, train, TrainConfig(epochs=15, learning_rate=0.02, seed=seed)
    )
    return model


def test_boundary_shift_moves_by_eps_sign_gradient(small_train):
    oracle = _linear_oracle(small_train)
    out = apply_boundary_shift(small_train, oracle, 0.2)
    # Reconstruct the expected shift for the kept rows: eps(h) is linear in
    # h over the three levels.
    grads = input_gradient(oracle, small_train.X, small_train.y_true)
    eps = np.array([0.0, 0.1, 0.2])[small_train.h]
    expected = small_train.X + eps[:, None] * np.sign(grads)
    id_to_row = {int(i): j for j, i in enumerate(small_train.ids)}
    for row, sample_id in enumerate(out.ids):
        np.testing.assert_array_equal(out.X[row], expected[id_to_row[int(sample_id)]])
    # Every kept sample is still predicted as its true class.
    np.testing.assert_array_equal(forward_batch(oracle, out.X)[0].argmax(1), out.y_true)


def test_boundary_shift_with_zero_eps_keeps_correct_predictions_only(small_train):
    oracle = _linear_oracle(small_train)
    out = apply_boundary_shift(small_train, oracle, 0.0)
    correct = forward_batch(oracle, small_train.X)[0].argmax(1) == small_train.y_true
    assert len(out) == int(correct.sum())
    np.testing.assert_array_equal(out.X, small_train.X[correct])


def test_boundary_shift_rejects_negative_eps(small_train):
    with pytest.raises(ConfigurationError):
        apply_boundary_shift(small_train, init_model(small_train.d, [16], 8, small_train.K), -0.1)


def test_noise_never_crosses_strata():
    spec = GridSpec(seed=0)
    train, _ = generate_base(spec)
    out = inject_label_noise(train, NoiseSpec(delta=0.4, seed=2))
    for row in range(len(out)):
        c = int(out.y_assigned[row])
        assert out.cell_table[c, 1] == int(out.n[row])


def test_noise_flip_fraction_within_binomial_bounds():
    spec = GridSpec(seed=0)
    train, _ = generate_base(spec)
    delta, L = 0.4, spec.levels
    out = inject_label_noise(train, NoiseSpec(delta=delta, seed=2))
    for n in range(L):
        stratum = train.n == n
        N = int(stratum.sum())
        assert N >= 1000
        q = delta * n / (L - 1)
        # A redraw may land back on the true class, so the observable
        # mislabel rate is q * (1 - 1/C) for C classes in the stratum.
        C = len({c for c, (_h, cn) in enumerate(train.cell_table.tolist()) if cn == n})
        p = q * (1.0 - 1.0 / C)
        observed = float((out.y_assigned[stratum] != out.y_true[stratum]).mean())
        sigma = np.sqrt(p * (1 - p) / N) if p > 0 else 0.0
        assert abs(observed - p) <= 3.0 * sigma


def test_noise_zero_delta_changes_nothing(small_train):
    out = inject_label_noise(small_train, NoiseSpec(delta=0.0, seed=5))
    np.testing.assert_array_equal(out.y_assigned, small_train.y_assigned)


def test_noise_leaves_n0_stratum_clean(small_train):
    out = inject_label_noise(small_train, NoiseSpec(delta=1.0, seed=5))
    zero = out.n == 0
    np.testing.assert_array_equal(out.y_assigned[zero], out.y_true[zero])


def _noise_reference(dataset, spec):
    """Per-flip reference: one `choice` over the stratum's classes per
    flipped sample, in row order."""
    L = dataset.levels
    out = dataset.take(slice(None))
    rng = np.random.default_rng(spec.seed)
    strata = [np.flatnonzero(dataset.cell_table[:, 1] == n) for n in range(L)]
    u = rng.random(len(dataset))
    n = out.n
    for i in np.flatnonzero(u < spec.delta * n / max(L - 1, 1)):
        out.y_assigned[i] = rng.choice(strata[int(n[i])])
    return out.y_assigned


@pytest.mark.parametrize(
    "grid",
    [
        {"levels": 3, "classes_per_cell": 1, "per_class_count": 16, "input_dim": 4},
        {"per_class_count": 16},
        {"levels": 4, "classes_per_cell": 3, "per_class_count": 8, "input_dim": 4},
    ],
)
@pytest.mark.parametrize("hardness", ["base", "imbalance", "diversification"])
def test_noise_matches_per_flip_reference(grid, hardness):
    for seed in range(4):
        train, _ = generate_base(GridSpec(**grid, seed=seed))
        if hardness == "imbalance":
            train = apply_imbalance(train, seed=seed + 1)
        elif hardness == "diversification":
            train = apply_diversification(train, 0.1, seed=seed + 1)
        for delta in (0.0, 0.4, 1.0):
            spec = NoiseSpec(delta=delta, seed=seed + 2)
            got = inject_label_noise(train, spec).y_assigned
            np.testing.assert_array_equal(got, _noise_reference(train, spec))


@settings(max_examples=50, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 5), min_size=2, max_size=5),
    rows=st.integers(1, 60),
    seed=st.integers(0, 2**16),
)
def test_noise_matches_per_flip_reference_for_any_strata(sizes, rows, seed):
    # Stratum n holds sizes[n] classes, size-1 strata included.
    L = len(sizes)
    n_of_class = np.repeat(np.arange(L), sizes)
    cell_table = np.stack([n_of_class % L, n_of_class], axis=1)
    y = np.random.default_rng(seed).integers(0, len(cell_table), rows)
    train = Dataset(
        ids=np.arange(rows), X=np.zeros((rows, 1)), y_true=y, y_assigned=y.copy(),
        base_id=np.full(rows, -1), levels=L, cell_table=cell_table,
    )
    spec = NoiseSpec(delta=1.0, seed=seed)
    np.testing.assert_array_equal(
        inject_label_noise(train, spec).y_assigned, _noise_reference(train, spec)
    )


def test_mislabeled_and_hard_match_a_per_row_loop(small_train):
    out = inject_label_noise(small_train, NoiseSpec(delta=0.5, seed=3))
    noisy = out.mislabeled
    np.testing.assert_array_equal(
        noisy, [out.y_assigned[i] != out.y_true[i] for i in range(len(out))]
    )
    assert noisy.any() and not noisy.all()
    for t in range(out.levels):
        hard = out.hard(t)
        want = [out.y_assigned[i] == out.y_true[i] and out.h[i] >= t for i in range(len(out))]
        np.testing.assert_array_equal(hard, want)
        # Every row is in exactly one of noisy, hard and easy.
        easy = ~(noisy | hard)
        np.testing.assert_array_equal(noisy.astype(int) + hard.astype(int) + easy.astype(int), 1)
