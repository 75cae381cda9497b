"""Classifier numerics: backprop vs finite differences, update rule,
snapshot policy, stacked training, and persistence round-trips."""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from noisesift import (
    GridSpec,
    Model,
    TrainConfig,
    evaluate,
    generate_base,
    init_model,
    input_gradient,
    train,
    train_with_tracing,
)
from noisesift import mlp
from noisesift.errors import ConfigurationError, TrainingDivergedError
from noisesift.mlp import (
    _backward,
    forward_batch,
    load_model,
    load_traces,
    save_model,
    save_traces,
)
from noisesift.mlp import _sgd_epochs, _stack, _unstacked


def _batch_loss(model, X, y):
    probs, _ = forward_batch(model, X)
    return float(-np.log(probs[np.arange(len(y)), y]).mean())


def _param_grads(model, X, y):
    probs, acts = forward_batch(model, X)
    dlogits = probs.copy()
    dlogits[np.arange(len(y)), y] -= 1.0
    dlogits /= len(y)
    gw = [np.empty_like(w) for w in model.weights]
    gb = [np.empty_like(b) for b in model.biases]
    _backward(model, acts, dlogits, gw, gb)
    return gw, gb


def test_backprop_matches_central_finite_differences(rng):
    d, K, N = 3, 4, 5
    model = init_model(d, [4, 3], 3, K, seed=7)
    X = rng.standard_normal((N, d))
    y = rng.integers(0, K, size=N)
    gw, gb = _param_grads(model, X, y)
    eps = 1e-6
    for li in range(len(model.weights)):
        for arr, grad in ((model.weights[li], gw[li]), (model.biases[li], gb[li])):
            flat = arr.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + eps
                up = _batch_loss(model, X, y)
                flat[j] = orig - eps
                down = _batch_loss(model, X, y)
                flat[j] = orig
                numeric = (up - down) / (2 * eps)
                analytic = grad.reshape(-1)[j]
                denom = max(abs(numeric), abs(analytic), 1e-8)
                assert abs(numeric - analytic) / denom < 1e-4


def test_input_gradient_matches_central_finite_differences(rng):
    d, K, N = 4, 3, 3
    model = init_model(d, [5], 4, K, seed=2)
    X = rng.standard_normal((N, d))
    y = rng.integers(0, K, size=N)
    analytic = input_gradient(model, X, y)
    eps = 1e-6
    for i in range(N):
        for j in range(d):
            up, down = X.copy(), X.copy()
            up[i, j] += eps
            down[i, j] -= eps
            pu, _ = forward_batch(model, up)
            pd, _ = forward_batch(model, down)
            numeric = (
                -math.log(pu[i, y[i]]) - (-math.log(pd[i, y[i]]))
            ) / (2 * eps)
            denom = max(abs(numeric), abs(analytic[i, j]), 1e-8)
            assert abs(numeric - analytic[i, j]) / denom < 1e-4


def test_zero_hidden_model_is_linear_softmax(rng):
    d = K = 3
    model = init_model(d, [], d, K, seed=1)
    X = rng.standard_normal((5, d))
    logits = X @ model.weights[0] + model.biases[0]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    expected = e / e.sum(axis=1, keepdims=True)
    probs, acts = forward_batch(model, X)
    np.testing.assert_allclose(probs, expected, rtol=1e-12)
    np.testing.assert_array_equal(acts[-1], X)  # feature layer passes through


def test_one_epoch_full_batch_matches_manual_sgd_update(small_train):
    cfg = TrainConfig(
        epochs=1,
        batch_size=len(small_train),
        learning_rate=0.1,
        momentum=0.9,
        weight_decay=0.01,
        seed=0,
    )
    model = init_model(small_train.d, [6], 4, small_train.K, seed=3)
    # Manual update: velocity starts at zero, so after one step
    # w <- w - lr * (grad + wd * w) and b <- b - lr * grad_b.
    gw, gb = _param_grads(model, small_train.X, small_train.y_assigned)
    expected_w = [
        w - cfg.learning_rate * (g + cfg.weight_decay * w)
        for w, g in zip(model.weights, gw)
    ]
    expected_b = [b - cfg.learning_rate * g for b, g in zip(model.biases, gb)]
    trained, _ = train_with_tracing(model, small_train, cfg)
    for w, ew in zip(trained.weights, expected_w):
        np.testing.assert_allclose(w, ew, rtol=1e-12)
    for b, eb in zip(trained.biases, expected_b):
        np.testing.assert_allclose(b, eb, rtol=1e-12)


def test_training_is_deterministic(small_train):
    cfg = TrainConfig(epochs=3, seed=11)
    m1 = init_model(small_train.d, [8], 4, small_train.K, seed=5)
    m2 = init_model(small_train.d, [8], 4, small_train.K, seed=5)
    t1, tr1 = train_with_tracing(m1, small_train, cfg)
    t2, tr2 = train_with_tracing(m2, small_train, cfg)
    for w1, w2 in zip(t1.weights, t2.weights):
        np.testing.assert_array_equal(w1, w2)
    np.testing.assert_array_equal(tr1.loss, tr2.loss)


def test_mid_snapshot_at_first_epoch_reaching_half_accuracy(small_train):
    cfg = TrainConfig(epochs=30, learning_rate=0.05, seed=0)
    model = init_model(small_train.d, [16], 8, small_train.K, seed=0)
    _, traces = train_with_tracing(model, small_train, cfg)
    t = traces.mid_epoch
    assert traces.train_acc[t - 1] >= 0.5
    assert np.all(traces.train_acc[: t - 1] < 0.5)


def test_mid_snapshot_falls_back_to_half_horizon():
    # Identical inputs split over three labels cap accuracy at 1/3 < 0.5.
    from noisesift.data import Dataset

    N = 30
    ds = Dataset(
        ids=np.arange(N),
        X=np.ones((N, 2)),
        y_true=np.arange(N) % 3,
        y_assigned=np.arange(N) % 3,
        base_id=np.full(N, -1),
        levels=1,
        cell_table=np.zeros((3, 2), dtype=np.int64),
    )
    cfg = TrainConfig(epochs=7, learning_rate=0.001, seed=0)
    model = init_model(2, [4], 3, 3, seed=0)
    features = [forward_batch(view, ds.X)[1][-1] for _, [view] in _sgd_epochs([model], [ds], [cfg])]
    _, traces = train_with_tracing(model, ds, cfg)
    assert traces.mid_epoch == math.ceil(7 / 2)
    assert np.all(traces.train_acc < 0.5)
    assert np.array_equal(traces.features_mid, features[traces.mid_epoch - 1])
    assert not np.array_equal(traces.features_mid, traces.features_end)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises(small_train):
    model = init_model(small_train.d, [8], 4, small_train.K, seed=0)
    cfg = TrainConfig(epochs=3, learning_rate=1e30, seed=0)
    with pytest.raises(TrainingDivergedError):
        train_with_tracing(model, small_train, cfg)
    with pytest.raises(TrainingDivergedError):
        train([model, model.copy()], [small_train] * 2, [cfg, replace(cfg, seed=1)])


def test_trace_shapes_and_probability_identities(small_train):
    cfg = TrainConfig(epochs=4, seed=0)
    model = init_model(small_train.d, [8], 4, small_train.K, seed=0)
    trained, traces = train_with_tracing(model, small_train, cfg)
    N = len(small_train)
    assert traces.p_assigned.shape == (4, N)
    assert traces.loss.shape == traces.p_pred.shape == (4, N)
    assert traces.features_mid.shape == (N, 4)
    # The last epoch's records are those of the trained model; p_pred is
    # its max probability and loss the negative log of p_assigned.
    probs, _ = forward_batch(trained, small_train.X)
    p_assigned = probs[np.arange(N), small_train.y_assigned]
    np.testing.assert_array_equal(traces.p_assigned[-1], p_assigned)
    np.testing.assert_array_equal(traces.p_pred[-1], probs.max(axis=1))
    np.testing.assert_array_equal(traces.pred[-1], probs.argmax(axis=1))
    np.testing.assert_allclose(traces.loss, -np.log(traces.p_assigned), rtol=1e-12)
    agree = traces.pred == traces.y_assigned[None, :]
    np.testing.assert_array_equal(
        traces.p_max_other < traces.p_assigned, agree
    )


@pytest.mark.parametrize("hidden_sizes", [[], [8], [6, 5]])
def test_traces_equal_an_allocating_full_pass_at_each_epoch(small_train, hidden_sizes):
    # The traced pass writes into buffers it reuses every epoch; each
    # epoch's records must be those of a fresh pass on that epoch's weights.
    cfg = TrainConfig(epochs=8, learning_rate=0.05, seed=2)
    m = 4 if hidden_sizes else small_train.d
    model = init_model(small_train.d, hidden_sizes, m, small_train.K, seed=1)
    X, y = small_train.X, small_train.y_assigned
    rows = np.arange(len(small_train))
    passes = [
        forward_batch(view.copy(), X) for _, [view] in _sgd_epochs([model], [small_train], [cfg])
    ]
    _, traces = train_with_tracing(model, small_train, cfg)
    assert traces.T == len(passes)
    for e, (probs, _) in enumerate(passes):
        assert np.array_equal(traces.pred[e], probs.argmax(axis=1))
        assert np.array_equal(traces.p_assigned[e], probs[rows, y])
        others = probs.copy()
        others[rows, y] = -np.inf
        assert np.array_equal(traces.p_max_other[e], others.max(axis=1))
    assert np.array_equal(traces.features_mid, passes[traces.mid_epoch - 1][1][-1])
    assert np.array_equal(traces.features_end, passes[-1][1][-1])


def test_trace_arrays_share_no_memory(small_train):
    cfg = TrainConfig(epochs=3, seed=0)
    arrays = [small_train.X, small_train.ids, small_train.y_assigned]
    for hidden_sizes, m in (([8], 4), ([], small_train.d)):
        for seed in (0, 1):
            model = init_model(small_train.d, hidden_sizes, m, small_train.K, seed=seed)
            _, traces = train_with_tracing(model, small_train, cfg)
            arrays += [v for v in vars(traces).values() if isinstance(v, np.ndarray)]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1 :]:
            assert not np.shares_memory(a, b)


def test_evaluate_scores_test_sets_against_true_labels(small_train):
    model = init_model(small_train.d, [8], 4, small_train.K, seed=0)
    test = small_train.take(slice(None))
    test.y_assigned = (test.y_true + 1) % test.K  # corrupt assigned labels
    acc_true, _ = evaluate(model, test)
    probs, _ = forward_batch(model, test.X)
    expected = float(np.mean(np.argmax(probs, axis=1) == test.y_true))
    assert acc_true == expected


@pytest.mark.parametrize("hidden_sizes", [[], [8], [5, 4]])
def test_model_save_load_roundtrip(tmp_path, small_train, hidden_sizes):
    # With no hidden layers the feature layer is the input, so m == d.
    m = 3 if hidden_sizes else small_train.d
    model = init_model(small_train.d, hidden_sizes, m, small_train.K, seed=0)
    save_model(model, tmp_path / "model")
    loaded = load_model(tmp_path / "model")
    assert len(loaded.weights) == len(model.weights)
    for w1, w2 in zip(model.weights, loaded.weights):
        np.testing.assert_array_equal(w1, w2)
    assert (loaded.d, loaded.m, loaded.K) == (small_train.d, m, small_train.K)
    probs, acts = forward_batch(model, small_train.X)
    loaded_probs, loaded_acts = forward_batch(loaded, small_train.X)
    np.testing.assert_array_equal(loaded_probs, probs)
    np.testing.assert_array_equal(loaded_acts[-1], acts[-1])


def test_traces_save_load_roundtrip(tmp_path, small_train):
    cfg = TrainConfig(epochs=3, seed=0)
    model = init_model(small_train.d, [8], 4, small_train.K, seed=0)
    _, traces = train_with_tracing(model, small_train, cfg)
    save_traces(traces, tmp_path)
    loaded = load_traces(tmp_path)
    np.testing.assert_array_equal(loaded.p_assigned, traces.p_assigned)
    np.testing.assert_array_equal(loaded.p_max_other, traces.p_max_other)
    np.testing.assert_array_equal(loaded.pred, traces.pred)
    np.testing.assert_array_equal(loaded.features_mid, traces.features_mid)
    np.testing.assert_array_equal(loaded.features_end, traces.features_end)
    np.testing.assert_array_equal(loaded.train_acc, traces.train_acc)
    np.testing.assert_array_equal(loaded.ids, traces.ids)
    np.testing.assert_array_equal(loaded.y_assigned, traces.y_assigned)
    assert loaded.mid_epoch == traces.mid_epoch
    # 144 samples of 9 classes: the integer arrays take one byte per entry.
    for name in ("ids", "y_assigned", "pred"):
        assert np.load(tmp_path / f"traces_{name}.npy").dtype == np.uint8
        assert getattr(loaded, name).dtype == np.int64


def test_load_traces_rejects_a_misshapen_or_missing_array(tmp_path, small_train):
    cfg = TrainConfig(epochs=3, seed=0)
    model = init_model(small_train.d, [8], 4, small_train.K, seed=0)
    _, traces = train_with_tracing(model, small_train, cfg)
    save_traces(traces, tmp_path)
    np.save(tmp_path / "traces_p_assigned.npy", traces.p_assigned[:, :-1])  # (T, N-1)
    with pytest.raises(ConfigurationError, match="traces_p_assigned.npy"):
        load_traces(tmp_path)
    save_traces(traces, tmp_path)
    (tmp_path / "traces_pred.npy").unlink()
    with pytest.raises(ConfigurationError, match="traces_pred.npy"):
        load_traces(tmp_path)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda m, ds: forward_batch(m, ds.X[:, :-1]), "input dimension 3 != model dimension 4"),
        (lambda m, ds: input_gradient(m, ds.X[:1], [ds.K]), "label out of range"),
        (lambda m, ds: evaluate(m, ds.take(np.zeros(len(ds), dtype=bool))), "empty dataset"),
    ],
    ids=["forward-batch-narrow-input", "input-gradient-label-K", "evaluate-empty-set"],
)
def test_model_functions_refuse_bad_inputs(small_train, call, match):
    model = init_model(small_train.d, [8], 4, small_train.K, seed=0)
    with pytest.raises(ConfigurationError, match=match):
        call(model, small_train)


def test_init_model_rejects_bad_shapes():
    with pytest.raises(ConfigurationError):
        init_model(4, [0], 2, 3)
    with pytest.raises(ConfigurationError):
        init_model(4, [], 2, 3)  # passthrough requires m == d


def _assert_same_weights(got, expected):
    assert len(got.weights) == len(expected.weights)
    for a, b in zip(got.weights + got.biases, expected.weights + expected.biases):
        assert a.shape == b.shape
        assert np.array_equal(a, b)


def test_train_one_model_matches_train_with_tracing(small_train):
    cfg = TrainConfig(epochs=4, seed=3)
    model = init_model(small_train.d, [8], 4, small_train.K, seed=1)
    [trained] = train([model], [small_train], [cfg])
    traced, _ = train_with_tracing(model, small_train, cfg)
    _assert_same_weights(trained, traced)


@pytest.mark.parametrize("hidden_sizes", [[], [8], [8, 8]])
def test_stacked_seeds_match_one_seed_at_a_time(small_train, hidden_sizes):
    cfgs = [TrainConfig(epochs=3, batch_size=10, seed=s) for s in (0, 1, 2)]
    assert len(small_train) % cfgs[0].batch_size != 0  # a short last batch
    m = 4 if hidden_sizes else small_train.d
    models = [init_model(small_train.d, hidden_sizes, m, small_train.K, seed=s) for s in (5, 6, 7)]
    stacked = train(models, [small_train] * 3, cfgs)
    for model, cfg, got in zip(models, cfgs, stacked):
        alone, _ = train_with_tracing(model, small_train, cfg)
        _assert_same_weights(got, alone)


def _reference_train(models, datasets, cfgs):
    """The plain SGD loop, each model alone on its own set: rows gathered
    per batch, every layer updated on its own and every intermediate a
    fresh array.  Arrays keep a leading model axis of length one."""
    trained = []
    for model, dataset, cfg in zip(models, datasets, cfgs):
        N = len(dataset)
        X, y = dataset.X, dataset.y_assigned
        rng = np.random.default_rng(cfg.seed)
        ws = [w[None] for w in model.weights]
        bs = [b[None, None] for b in model.biases]
        vel_w = [np.zeros_like(w) for w in ws]
        vel_b = [np.zeros_like(b) for b in bs]
        last = len(ws) - 1
        for _ in range(cfg.epochs):
            order = rng.permutation(N)
            for start in range(0, N, cfg.batch_size):
                idx = order[None, start : start + cfg.batch_size]
                acts = [X[idx]]
                for i in range(last):
                    a = acts[-1] @ ws[i] + bs[i]
                    acts.append(np.maximum(a, 0.0) if i < last - 1 else a)
                logits = acts[-1] @ ws[last] + bs[last]
                z = np.exp(logits - logits.max(axis=-1, keepdims=True))
                dlogits = z / z.sum(axis=-1, keepdims=True)
                B = idx.shape[1]
                dlogits[0, np.arange(B), y[idx[0]]] -= 1.0
                delta = dlogits / B
                gw, gb = [None] * len(ws), [None] * len(bs)
                for i in range(last, -1, -1):
                    gw[i] = np.swapaxes(acts[i], -1, -2) @ delta
                    gb[i] = delta.sum(axis=-2, keepdims=True)
                    delta = delta @ np.swapaxes(ws[i], -1, -2)
                    if 0 < i < last:
                        delta = delta * (acts[i] > 0)
                for i in range(len(ws)):
                    g = gw[i] + cfg.weight_decay * ws[i]
                    vel_w[i] = cfg.momentum * vel_w[i] + g
                    ws[i] = ws[i] - cfg.learning_rate * vel_w[i]
                    vel_b[i] = cfg.momentum * vel_b[i] + gb[i]
                    bs[i] = bs[i] - cfg.learning_rate * vel_b[i]
        trained.append(Model([w[0] for w in ws], [b[0, 0] for b in bs]))
    return trained


def _assert_bitwise_equal_to_the_reference(models, datasets, cfgs):
    expected = _reference_train(models, datasets, cfgs)
    for got, want in zip(train(models, datasets, cfgs), expected, strict=True):
        assert len(got.weights) == len(want.weights)
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            np.testing.assert_array_equal(a, b)


def _sgd_cfg(seed):
    return TrainConfig(epochs=4, batch_size=10, learning_rate=0.05, momentum=0.9,
                       weight_decay=0.01, seed=seed)


@pytest.mark.parametrize("hidden_sizes", [[], [6], [6, 5]])
@pytest.mark.parametrize("S", [1, 3])
def test_train_is_bitwise_equal_to_the_plain_sgd_loop(small_train, hidden_sizes, S):
    cfgs = [_sgd_cfg(s) for s in range(S)]
    assert len(small_train) % cfgs[0].batch_size != 0  # a short last batch
    m = 4 if hidden_sizes else small_train.d
    models = [init_model(small_train.d, hidden_sizes, m, small_train.K, seed=5 + s) for s in range(S)]
    _assert_bitwise_equal_to_the_reference(models, [small_train] * S, cfgs)


# Per model, the index of its training set in `sizes`; an index that repeats
# is the same Dataset object.  The batch is 10 rows.
PER_MODEL_SETS = {
    # Not ordered by size; N = 1; below the batch; a multiple of it, twice
    # with different rows; the full set, with a short last batch.
    "mixed": ([13, 144, 1, 20, 7, 20], [0, 1, 2, 3, 4, 5]),
    "same-object-twice": ([13, 20], [0, 1, 0]),
    "all-below-the-batch": ([7, 3, 7], [0, 1, 2]),
    "multiples-of-the-batch": ([10, 30, 20, 30], [0, 1, 2, 3]),
}


def _per_model_sets(small_train, case):
    sizes, which = PER_MODEL_SETS[case]
    assert len(small_train) == 144
    sets = [
        small_train.take(np.random.default_rng(i).permutation(len(small_train))[:n])
        for i, n in enumerate(sizes)
    ]
    return [sets[i] for i in which]


@pytest.mark.parametrize("hidden_sizes", [[], [6], [6, 5]])
@pytest.mark.parametrize("case", sorted(PER_MODEL_SETS))
def test_train_on_per_model_sets_is_bitwise_equal_to_the_plain_sgd_loop(
    small_train, hidden_sizes, case
):
    datasets = _per_model_sets(small_train, case)
    m = 4 if hidden_sizes else small_train.d
    models = [
        init_model(small_train.d, hidden_sizes, m, small_train.K, seed=5 + s)
        for s in range(len(datasets))
    ]
    _assert_bitwise_equal_to_the_reference(models, datasets, [_sgd_cfg(s) for s in range(len(datasets))])


def test_trained_models_share_no_memory(small_train, monkeypatch):
    models = [init_model(small_train.d, [8, 6], 4, small_train.K, seed=s) for s in (0, 1)]
    cfgs = [TrainConfig(epochs=1, seed=s) for s in (0, 1)]
    traced, _ = train_with_tracing(models[0], small_train, cfgs[0])
    inputs = [a for m in models for a in m.weights + m.biases]
    inputs += [small_train.X, small_train.y_assigned]
    for cpus in (1, 2):  # with two, the second model comes from a child
        _use_cpus(monkeypatch, cpus)
        trained = train(models, [small_train] * 2, cfgs)
        arrays = [a for m in [*trained, traced] for a in m.weights + m.biases]
        for i, a in enumerate(arrays):
            assert a.base is None  # not a view of a training buffer or a payload
            for b in arrays[i + 1 :] + inputs:
                assert not np.shares_memory(a, b)


def _use_cpus(monkeypatch, n):
    """Make `train` see n usable CPUs (never more than 3 in these tests)."""
    monkeypatch.setattr(mlp.os, "sched_getaffinity", lambda pid: set(range(n)))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("case", sorted(PER_MODEL_SETS))
def test_train_on_one_to_three_cpus_is_bitwise_equal_to_the_plain_sgd_loop(
    small_train, monkeypatch, case
):
    datasets = _per_model_sets(small_train, case)
    models = [
        init_model(small_train.d, [6], 4, small_train.K, seed=5 + s) for s in range(len(datasets))
    ]
    cfgs = [_sgd_cfg(s) for s in range(len(datasets))]
    expected = _reference_train(models, datasets, cfgs)
    results = []
    for cpus in (1, 2, 3):
        _use_cpus(monkeypatch, cpus)
        results.append(train(models, datasets, cfgs))
        _assert_no_child_left()
    for trained in results:  # each equal to the reference, so to each other
        for got, want in zip(trained, expected, strict=True):
            _assert_same_weights(got, want)


def test_train_forks_one_child_per_further_share(small_train, monkeypatch):
    forked = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    def refused_fork():
        raise AssertionError("a process was started")

    models = [init_model(small_train.d, [6], 4, small_train.K, seed=s) for s in range(5)]
    cfgs = [TrainConfig(epochs=1, seed=s) for s in range(5)]
    monkeypatch.setattr(mlp.os, "fork", counting_fork)
    _use_cpus(monkeypatch, 3)
    train(models, [small_train] * 5, cfgs)
    assert len(forked) == 2
    train(models[:2], [small_train] * 2, cfgs[:2])
    assert len(forked) == 3
    _assert_no_child_left()

    # One CPU, one model, tracing, or no affinity call: all in this process.
    monkeypatch.setattr(mlp.os, "fork", refused_fork)
    train(models[:1], [small_train], cfgs[:1])
    train_with_tracing(models[0], small_train, cfgs[0])
    _use_cpus(monkeypatch, 1)
    train(models, [small_train] * 5, cfgs)
    monkeypatch.delattr(mlp.os, "sched_getaffinity")
    train(models, [small_train] * 5, cfgs)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("cpus", [2, 3])
def test_divergence_in_any_share_raises_at_the_one_share_epoch(small_train, monkeypatch, cpus):
    models = [init_model(small_train.d, [8], 4, small_train.K, seed=s) for s in range(4)]
    models[1].weights[0] *= 10  # diverges first; it is share 1's first model
    cfgs = [TrainConfig(epochs=20, learning_rate=1.0, seed=s) for s in range(4)]

    def diverged_at(models, cfgs):
        with pytest.raises(TrainingDivergedError) as info:
            train(models, [small_train] * len(models), cfgs)
        return info.value.epoch

    _use_cpus(monkeypatch, 1)
    alone = [diverged_at([m], [c]) for m, c in zip(models, cfgs)]
    one_share = diverged_at(models, cfgs)
    assert one_share == min(alone) == alone[1] < alone[0]
    _use_cpus(monkeypatch, cpus)
    assert diverged_at(models, cfgs) == one_share
    _assert_no_child_left()


def _child_raises():
    raise ValueError("boom in a child")


def _child_exits():
    os._exit(3)


def _child_sleeps():
    time.sleep(60)


def _parent_interrupted():
    raise KeyboardInterrupt


def _parent_raises():
    raise ValueError("boom in the parent")


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize(
    "in_child, in_parent, raised, match",
    [
        (_child_raises, None, ValueError, "boom in a child"),
        (_child_exits, None, ChildProcessError, "ended without a result"),
        (_child_sleeps, _parent_interrupted, KeyboardInterrupt, None),
        (None, _parent_raises, ValueError, "boom in the parent"),
    ],
    ids=["child-raises", "child-exits", "parent-interrupted", "parent-raises"],
)
def test_a_failing_share_makes_train_raise_and_leaves_no_child(
    small_train, monkeypatch, tmp_path, cpus, in_child, in_parent, raised, match
):
    parent = os.getpid()
    sgd_epochs = mlp._sgd_epochs

    def failing_sgd_epochs(*args):
        if os.getpid() != parent and in_child:
            in_child()
        if os.getpid() == parent and in_parent:
            in_parent()
        yield from sgd_epochs(*args)

    monkeypatch.setattr(mlp, "_sgd_epochs", failing_sgd_epochs)
    _use_cpus(monkeypatch, cpus)
    models = [init_model(small_train.d, [6], 4, small_train.K, seed=s) for s in range(3)]
    cfgs = [TrainConfig(epochs=2, seed=s) for s in range(3)]
    unwound = tmp_path / "unwound"
    start = time.monotonic()
    with pytest.raises(raised, match=match):
        try:
            train(models, [small_train] * 3, cfgs)
        finally:  # a child that returned into this frame would write here too
            with unwound.open("a") as f:
                f.write(f"{os.getpid()}\n")
    assert time.monotonic() - start < 30  # a sleeping child is killed, not awaited
    assert unwound.read_text().split() == [str(parent)]
    _assert_no_child_left()


def test_forward_batch_on_a_stack_matches_each_slice(small_train):
    models = [init_model(small_train.d, [8, 6], 4, small_train.K, seed=s) for s in (0, 1, 2)]
    stacked, _ = _stack(models)
    X = np.stack([small_train.X[s :: 3] for s in range(3)])  # (S, B, d)
    probs, acts = forward_batch(stacked, X)
    assert (stacked.d, stacked.m, stacked.K) == (small_train.d, 4, small_train.K)
    for s, model in enumerate(models):
        _assert_same_weights(_unstacked(stacked, s), model)
        p, a = forward_batch(model, X[s])
        assert np.array_equal(probs[s], p)
        assert all(np.array_equal(stacked_act[s], act) for stacked_act, act in zip(acts, a))


def test_train_rejects_bad_inputs(small_train):
    models = [init_model(small_train.d, [8], 4, small_train.K, seed=s) for s in (0, 1)]
    cfgs = [TrainConfig(epochs=2, seed=s) for s in (0, 1)]
    with pytest.raises(ConfigurationError, match="only in seed"):
        train(models, [small_train] * 2, [cfgs[0], TrainConfig(epochs=3, seed=1)])
    with pytest.raises(ConfigurationError, match="one TrainConfig per model"):
        train(models, [small_train] * 2, cfgs[:1])
    wider = init_model(small_train.d, [9], 4, small_train.K, seed=1)
    with pytest.raises(ConfigurationError, match="same layer shapes"):
        train([models[0], wider], [small_train] * 2, cfgs)
    wrong_k = [init_model(small_train.d, [8], 4, small_train.K + 1, seed=s) for s in (0, 1)]
    with pytest.raises(ConfigurationError, match="training set 0 has d=4 and 9 classes"):
        train(wrong_k, [small_train] * 2, cfgs)
    empty = small_train.take(np.zeros(len(small_train), dtype=bool))
    with pytest.raises(ConfigurationError, match="training set 1 is empty"):
        train(models, [small_train, empty], cfgs)
    with pytest.raises(ConfigurationError, match="one training set per model"):
        train(models, [small_train], cfgs)
    narrow = replace(small_train, X=small_train.X[:, :-1].copy())
    with pytest.raises(ConfigurationError, match="training set 1 has d=3"):
        train(models, [small_train, narrow], cfgs)
