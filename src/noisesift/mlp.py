"""Small feed-forward classifier trained by SGD with per-sample tracing.

Architecture: input -> ReLU hidden layers -> linear feature layer of
width m -> K logits.  With no hidden layers the feature layer is the
input itself (pass-through) and the model is plain linear-softmax.

Everything is float64 numpy; training is deterministic given the seed.
One SGD loop trains a stack of same-shaped models at once, weights on a
leading model axis, each model with its own training set (of any size)
and its own batch order; the forward and backward passes take a single
model or such a stack.  `train` splits a stack into shares, one loop per
usable CPU, and trains every share but the first in a forked process;
the models never interact, so the split changes no number.

The stacked weights and biases are views into one model-major (S, P)
buffer, each row a model's weights and then its biases; the gradients and
velocities have buffers of the same layout, so a step over any contiguous
run of models updates every layer with a few in-place calls on that run's
rows.  Each element still goes through `g + wd*w`, `mom*v + g`, `w - lr*v`
(no decay on biases) in that order, so the trained weights are
bit-identical to a plain per-layer loop that allocates every intermediate
and trains each model alone.

The traced full pass at each epoch's end likewise writes every layer's
(N, width) output into arrays allocated once per training; the feature
snapshots are copies of them.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .artifacts import load_arrays, meta_int, save_arrays
from .data import Dataset
from .errors import ConfigurationError, TrainingDivergedError


@dataclass
class Model:
    """A classifier given by its weight and bias lists, one pair per layer.

    Every layer but the last two is a ReLU layer, the second-to-last is the
    linear feature layer and the last maps the features to the K logits.
    A single layer has no feature layer: the features are the input.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def d(self) -> int:
        return self.weights[0].shape[-2]

    @property
    def m(self) -> int:
        return self.weights[-1].shape[-2]

    @property
    def K(self) -> int:
        return self.weights[-1].shape[-1]

    def copy(self) -> "Model":
        return Model([w.copy() for w in self.weights], [b.copy() for b in self.biases])


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 80
    batch_size: int = 64
    learning_rate: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 5e-4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigurationError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        # Written so that NaN fails each check.
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ConfigurationError("learning_rate must be finite and > 0")
        if not 0 <= self.momentum < 1:
            raise ConfigurationError("momentum must be in [0, 1)")
        if not (self.weight_decay >= 0 and math.isfinite(self.weight_decay)):
            raise ConfigurationError("weight_decay must be finite and >= 0")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")


@dataclass
class TraceStore:
    """Per-epoch per-sample records plus two feature snapshots.

    Arrays with a leading T axis are indexed by epoch-1.  The loss and the
    predicted-class probability are derived from the two recorded
    probabilities, so each has one definition.
    """

    ids: np.ndarray               # (N,)
    y_assigned: np.ndarray        # (N,)
    pred: np.ndarray              # (T, N) int
    p_assigned: np.ndarray        # (T, N)
    p_max_other: np.ndarray       # (T, N) largest prob excluding assigned
    train_acc: np.ndarray         # (T,)
    features_mid: np.ndarray      # (N, m)
    features_end: np.ndarray      # (N, m)
    mid_epoch: int

    @property
    def loss(self) -> np.ndarray:
        """(T, N) cross-entropy against the assigned label."""
        return -np.log(np.maximum(self.p_assigned, 1e-300))

    @property
    def p_pred(self) -> np.ndarray:
        """(T, N) probability of the predicted (argmax) class."""
        return np.maximum(self.p_assigned, self.p_max_other)

    @property
    def T(self) -> int:
        return self.p_assigned.shape[0]

    @property
    def N(self) -> int:
        return self.p_assigned.shape[1]

    @property
    def m(self) -> int:
        return self.features_end.shape[1]


def layer_sizes(d: int, hidden_sizes: list[int], m: int, K: int) -> list[int]:
    """Widths of the layer chain from the input to the logits; with zero
    hidden layers the feature layer is the input itself, so m must be d."""
    if d < 1 or m < 1 or K < 1 or any(s < 1 for s in hidden_sizes):
        raise ConfigurationError("layer widths must be positive")
    if hidden_sizes:
        return [d, *hidden_sizes, m, K]
    if m != d:
        raise ConfigurationError(
            "with zero hidden layers the feature layer is the input, "
            f"so m must equal d (got m={m}, d={d})"
        )
    return [d, K]


def init_model(
    d: int, hidden_sizes: list[int], m: int, K: int, seed: int = 0
) -> Model:
    """He-initialized weights into ReLU layers, Xavier into linear ones."""
    sizes = layer_sizes(d, hidden_sizes, m, K)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        relu_layer = i < len(hidden_sizes)
        scale = math.sqrt((2.0 if relu_layer else 1.0) / fan_in)
        weights.append(rng.standard_normal((fan_in, fan_out)) * scale)
        biases.append(np.zeros(fan_out))
    return Model(weights, biases)


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in place in `logits`."""
    logits -= np.maximum.reduce(logits, axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits, axis=-1, keepdims=True)
    return logits


def forward_batch(model: Model, X: np.ndarray, work: list | None = None):
    """(probs, acts) for a batch: X is (B, d) for a single model, (S, B, d)
    for a stack of S.  acts[0] is X and acts[i] the output of layer i-1, so
    acts[-1] is the feature layer.  `work`, if given, holds one array per
    layer shaped like its output, which the pass fills instead of
    allocating; the last one becomes the probabilities."""
    if X.shape[-1] != model.d:
        raise ConfigurationError(
            f"input dimension {X.shape[-1]} != model dimension {model.d}"
        )
    work = work or [None] * len(model.weights)
    acts = [X]
    last = len(model.weights) - 1
    for i in range(last):
        a = np.matmul(acts[-1], model.weights[i], out=work[i])
        a += model.biases[i]
        if i < last - 1:  # every layer before the feature layer is ReLU
            np.maximum(a, 0.0, out=a)
        acts.append(a)
    logits = np.matmul(acts[-1], model.weights[last], out=work[last])
    logits += model.biases[last]
    return _softmax(logits), acts


def _backward(
    model: Model,
    acts: list[np.ndarray],
    dlogits: np.ndarray,
    grads_w: list[np.ndarray],
    grads_b: list[np.ndarray],
    work: list | None = None,
) -> np.ndarray:
    """Write the gradient of every parameter, given d(loss)/d(logits), into
    the matching array of grads_w/grads_b and return d(loss)/d(output of
    layer 0).  grads_w[i] is shaped like weights[i]; grads_b[i] is (n,) for
    a single model and (S, n) for a stack, without the stacked bias's batch
    axis.  `work`, if given, holds for i = 1, 2, ... an array shaped like
    acts[i], which takes d(loss)/d(acts[i]) instead of a new array."""
    work = work or [None] * len(model.weights)
    delta = dlogits
    for i in range(len(model.weights) - 1, -1, -1):
        np.matmul(acts[i].swapaxes(-1, -2), delta, out=grads_w[i])
        np.add.reduce(delta, axis=-2, out=grads_b[i])
        if i == 0:
            break
        delta = np.matmul(delta, model.weights[i].swapaxes(-1, -2), out=work[i - 1])
        if i < len(model.weights) - 1:
            delta *= acts[i] > 0
    return delta


def input_gradient(model: Model, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of the per-sample cross-entropy loss w.r.t. the input."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    if np.any(y < 0) or np.any(y >= model.K):
        raise ConfigurationError("label out of range")
    probs, acts = forward_batch(model, X)
    dlogits = probs.copy()
    dlogits[np.arange(len(y)), y] -= 1.0
    grads_w = [np.empty_like(w) for w in model.weights]
    grads_b = [np.empty_like(b) for b in model.biases]
    delta = _backward(model, acts, dlogits, grads_w, grads_b)
    return delta @ model.weights[0].T


def _check_training(
    models: list[Model], datasets: list[Dataset], cfgs: list[TrainConfig]
) -> None:
    """Models of one shape, one non-empty training set of their d and K and
    one config each, the configs equal up to the seed."""
    if not models or len(models) != len(cfgs):
        raise ConfigurationError(
            f"need one TrainConfig per model (got {len(models)} models, {len(cfgs)} configs)"
        )
    if len(datasets) != len(models):
        raise ConfigurationError(
            f"need one training set per model (got {len(models)} models, {len(datasets)} sets)"
        )
    if any(replace(cfg, seed=cfgs[0].seed) != cfgs[0] for cfg in cfgs):
        raise ConfigurationError("stacked training configs may differ only in seed")
    shapes = [w.shape for w in models[0].weights]
    if any([w.shape for w in m.weights] != shapes for m in models):
        raise ConfigurationError("stacked models must have the same layer shapes")
    d, K = models[0].d, models[0].K
    for s, dataset in enumerate(datasets):
        if len(dataset) == 0:
            raise ConfigurationError(f"training set {s} is empty")
        if dataset.d != d or dataset.K != K:
            raise ConfigurationError(
                f"training set {s} has d={dataset.d} and {dataset.K} classes, "
                f"but the models take d={d} and output {K}"
            )


def _flat_views(S: int, shapes: list[tuple[int, ...]]) -> tuple[np.ndarray, list[np.ndarray]]:
    """A zeroed model-major (S, P) float64 buffer and, in order, a view of it
    shaped (S, *shape) for each shape: row s holds model s's arrays."""
    sizes = [math.prod(shape) for shape in shapes]
    flat = np.zeros((S, sum(sizes)))
    starts = np.cumsum([0, *sizes]).tolist()
    views = [flat[:, a:b].reshape(S, *shape) for a, b, shape in zip(starts, starts[1:], shapes)]
    return flat, views


def _stack(models: list[Model]) -> tuple[Model, np.ndarray]:
    """Weights as (S, fan_in, fan_out), biases as (S, 1, fan_out): views
    into one model-major (S, P) buffer, also returned, whose row s holds
    model s's weights and then its biases."""
    S, L = len(models), len(models[0].weights)
    shapes = [w.shape for w in models[0].weights] + [(1, *b.shape) for b in models[0].biases]
    flat, views = _flat_views(S, shapes)
    weights, biases = views[:L], views[L:]
    for i, (w, b) in enumerate(zip(weights, biases)):
        np.stack([m.weights[i] for m in models], out=w)
        np.stack([m.biases[i] for m in models], out=b[:, 0])
    return Model(weights, biases), flat


def _unstacked(stacked: Model, s: int) -> Model:
    """Model s of a stack, as views of the stacked arrays."""
    return Model([w[s] for w in stacked.weights], [b[s, 0] for b in stacked.biases])


@dataclass
class _SgdRows:
    """A contiguous run of a stack's models: their stacked model; their rows
    of the model-major (S, P) parameter, gradient and velocity buffers,
    each row a model's weights and then its biases; the weight columns of
    the parameter and gradient rows, with a decay buffer of their shape;
    and the gradient arrays as views of the gradient rows (the bias
    gradients (S, n), as `_backward` writes them)."""

    model: Model
    p: np.ndarray
    g: np.ndarray
    v: np.ndarray
    w: np.ndarray
    gw: np.ndarray
    decay: np.ndarray
    grads_w: list[np.ndarray]
    grads_b: list[np.ndarray]

    @classmethod
    def of(cls, models: list[Model]) -> "_SgdRows":
        """All of a new stack of `models`, with zero velocities."""
        stacked, p = _stack(models)
        S, L = len(models), len(stacked.weights)
        shapes = [a.shape[1:] for a in stacked.weights] + [a.shape[2:] for a in stacked.biases]
        g, grads = _flat_views(S, shapes)
        n_w = sum(a[0].size for a in stacked.weights)
        return cls(stacked, p, g, np.zeros_like(p), p[:, :n_w], g[:, :n_w],
                   np.empty((S, n_w)), grads[:L], grads[L:])

    def rows(self, lo: int, hi: int) -> "_SgdRows":
        """Models lo..hi-1, as views."""
        r = slice(lo, hi)
        model = Model([a[r] for a in self.model.weights], [a[r] for a in self.model.biases])
        return _SgdRows(model, self.p[r], self.g[r], self.v[r], self.w[r], self.gw[r],
                        self.decay[r], [a[r] for a in self.grads_w],
                        [a[r] for a in self.grads_b])

    def update(self, cfg: TrainConfig) -> None:
        """v = mom*v + (g + wd*w), then w -= lr*v; biases get no decay.
        Once v is updated the gradient buffer is free until the next
        _backward, so it holds lr*v."""
        np.multiply(self.w, cfg.weight_decay, out=self.decay)
        self.gw += self.decay
        self.v *= cfg.momentum
        self.v += self.g
        np.multiply(self.v, cfg.learning_rate, out=self.g)
        self.p -= self.g


def _epoch_steps(sizes: list[int], batch_size: int) -> list[tuple[int, int, int, int]]:
    """The SGD steps of one epoch over sets of the given sizes, largest
    first: (first row of the batch, rows in it, models lo..hi-1).  At each
    batch start the models that still have a full batch are one step, and
    each run of equal-size models on its short last batch is another."""
    steps = []
    for start in range(0, sizes[0], batch_size):
        full = sum(n >= start + batch_size for n in sizes)
        if full:
            steps.append((start, batch_size, 0, full))
        lo = full
        for n, run in itertools.groupby(sizes[full:]):
            hi = lo + len(list(run))
            if n > start:
                steps.append((start, n - start, lo, hi))
            lo = hi
    return steps


def _sgd_epochs(models: list[Model], datasets: list[Dataset], cfgs: list[TrainConfig]):
    """Mini-batch SGD with momentum and weight decay on cross-entropy vs
    y_assigned: model s trains on datasets[s] with cfgs[s].  Yields (epoch,
    views) after each epoch, views[s] being model s's weights as views that
    the loop keeps updating in place.

    Model s draws its batch order from default_rng(cfgs[s].seed), so the
    models do not interact: each trains as it would alone.  The stack is
    ordered by set size, largest first (a stable sort), so each step of
    `_epoch_steps` is a contiguous run of models: one forward, one backward
    and one update over its rows of the model-major buffers."""
    cfg, B = cfgs[0], cfgs[0].batch_size
    order = sorted(range(len(models)), key=lambda s: -len(datasets[s]))
    datasets = [datasets[s] for s in order]
    sizes = [len(ds) for ds in datasets]
    S = len(sizes)
    stack = _SgdRows.of([models[s] for s in order])
    views = [None] * S
    for row, s in enumerate(order):
        views[s] = _unstacked(stack.model, row)

    # Each distinct training set once: the rows of model s are X[offsets[s] + i].
    distinct = list({id(ds): ds for ds in datasets}.values())
    X = np.concatenate([ds.X for ds in distinct])
    y = np.concatenate([ds.y_assigned for ds in distinct])
    starts = dict(zip(map(id, distinct), np.cumsum([0, *map(len, distinct)]).tolist()))
    offsets = [starts[id(ds)] for ds in datasets]

    # Scratch that every step reuses: each layer's output, then the loss
    # gradient at the output of each layer but the last.  A fresh array of
    # a large stack's size costs page faults at every step.
    L = len(stack.model.weights)
    widths = [w.shape[-1] for w in stack.model.weights]
    widths += widths[:-1]
    scratch = [np.empty(S * B * n) for n in widths]
    # Per step: its block of the (S, N_max) epoch order, its batch size,
    # its rows of the stack, its scratch for the forward and the backward
    # pass, and its probabilities' scratch flattened.  cells[s, i] is the
    # flat index there of the first class of model s's i-th sample in the
    # epoch, so cells + label is the flat index of its assigned class.
    steps = []
    cells = np.zeros((S, sizes[0]), dtype=np.int64)
    K = widths[L - 1]
    for start, b, lo, hi in _epoch_steps(sizes, B):
        work = [f[: (hi - lo) * b * n].reshape(hi - lo, b, n) for f, n in zip(scratch, widths)]
        block = (slice(lo, hi), slice(start, start + b))
        cells[block] = np.arange(0, (hi - lo) * b * K, K).reshape(hi - lo, b)
        steps.append((block, b, stack.rows(lo, hi), work[:L], work[L:], work[L - 1].reshape(-1)))

    rngs = [np.random.default_rng(cfgs[s].seed) for s in order]
    orders = np.zeros((S, sizes[0]), dtype=np.int64)  # row s: model s's epoch order, padded
    for t in range(1, cfg.epochs + 1):
        for s, (rng, n) in enumerate(zip(rngs, sizes)):
            np.add(rng.permutation(n), offsets[s], out=orders[s, :n])
        labels = y.take(orders)
        labels += cells
        for block, b, part, fwd, bwd, flat_probs in steps:
            rows = X.take(orders[block], axis=0)
            probs, acts = forward_batch(part.model, rows, work=fwd)
            flat_probs[labels[block]] -= 1.0
            dlogits = probs
            dlogits /= b
            _backward(part.model, acts, dlogits, part.grads_w, part.grads_b, work=bwd)
            part.update(cfg)
        if not np.isfinite(stack.p).all():
            raise TrainingDivergedError(t)
        yield t, views


def _usable_cpus() -> int:
    """The CPUs this process may run on; one where the OS cannot say."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _train_share(
    models: list[Model], datasets: list[Dataset], cfgs: list[TrainConfig], share: list[int]
) -> list[Model]:
    """Models `share` trained in one stacked loop, as views of its buffers."""
    for _, views in _sgd_epochs(
        [models[s] for s in share], [datasets[s] for s in share], [cfgs[s] for s in share]
    ):
        pass
    return views


def _fork_share(fn, *args):
    """Call `fn(*args)` in a forked child: (its pid, the read end of a pipe,
    as a binary file, on which it sends the pickled result or the exception
    raised).  The child leaves only through `os._exit`, so it never unwinds
    into its caller's frames and never runs `atexit` handlers."""
    r, w = os.pipe()
    pid = os.fork()
    if pid:
        os.close(w)
        return pid, os.fdopen(r, "rb")
    try:
        os.close(r)
        try:
            result = fn(*args)
        except BaseException as exc:
            result = exc
        try:
            payload = pickle.dumps(result)
        except Exception:  # an exception that does not pickle
            payload = pickle.dumps(RuntimeError(repr(result)))
        with os.fdopen(w, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(0)


def train(
    models: list[Model], datasets: list[Dataset], cfgs: list[TrainConfig]
) -> list[Model]:
    """Train every model, model s on datasets[s] with cfgs[s]; no traces
    are taken.  The sets may differ in size and the same set may repeat;
    the configs may differ only in seed.  Each result equals what
    `train_with_tracing` returns for that model and set.

    The stack, largest set first, is dealt round-robin into one share per
    usable CPU (at most one per model).  This process trains share 0 in
    one stacked loop and a forked child each other share; the models do
    not interact, so the results do not depend on the split.  Divergence
    raises at the earliest epoch of any share, as one loop over the whole
    stack would; any other failure of a share is raised here, and no child
    outlives the call."""
    _check_training(models, datasets, cfgs)
    order = sorted(range(len(models)), key=lambda s: -len(datasets[s]))
    n = min(len(models), _usable_cpus())
    shares = [order[k::n] for k in range(n)]
    children = []  # (pid, pipe) of each child not yet reaped
    try:
        for share in shares[1:]:
            children.append(_fork_share(_train_share, models, datasets, cfgs, share))
        try:
            outcomes = [_train_share(models, datasets, cfgs, shares[0])]
        except TrainingDivergedError as exc:
            outcomes = [exc]
        while children:
            pid, pipe = children[0]
            with pipe:
                payload = pipe.read()
            os.waitpid(pid, 0)
            del children[0]
            if not payload:
                raise ChildProcessError(f"training process {pid} ended without a result")
            outcomes.append(pickle.loads(payload))
    finally:
        for pid, pipe in children:  # this process failed or was interrupted
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
            pipe.close()
    failures = [o for o in outcomes if isinstance(o, BaseException)]
    for exc in failures:
        if not isinstance(exc, TrainingDivergedError):
            raise exc
    if failures:
        raise min(failures, key=lambda exc: exc.epoch)
    trained = [None] * len(models)
    for share, views in zip(shares, outcomes):
        for s, view in zip(share, views):
            trained[s] = view.copy()  # share 0's are views of its loop's buffers
    return trained


def train_with_tracing(
    model: Model, dataset: Dataset, cfg: TrainConfig
) -> tuple[Model, TraceStore]:
    """Mini-batch SGD with momentum and weight decay on cross-entropy vs
    y_assigned; traces are taken in a full forward pass at each epoch end.

    The mid-training feature snapshot is captured at the first epoch whose
    end-of-epoch training accuracy reaches 0.5, with epoch ceil(T/2) kept
    as fallback if the threshold is never reached.
    """
    _check_training([model], [dataset], [cfg])
    N, T = len(dataset), cfg.epochs
    X, y = dataset.X, dataset.y_assigned

    pred = np.empty((T, N), dtype=np.int64)
    p_assigned = np.empty((T, N))
    p_max_other = np.empty((T, N))
    train_acc = np.empty(T)
    fallback_epoch = math.ceil(T / 2)
    features_mid = None
    mid_epoch = None

    # The full pass writes each layer's (N, width) output into the same
    # arrays at every epoch; fresh ones would be faulted in again each time.
    work = [np.empty((N, w.shape[-1])) for w in model.weights]
    assigned = np.arange(0, N * model.K, model.K) + y  # flat index of probs[i, y[i]]
    for t, [model] in _sgd_epochs([model], [dataset], [cfg]):
        probs, acts = forward_batch(model, X, work=work)  # model: views the loop updates
        e = t - 1
        probs.take(assigned, out=p_assigned[e])
        np.argmax(probs, axis=1, out=pred[e])
        # Softmax outputs are >= +0, so a 0 in the assigned slot leaves the
        # others' maximum unchanged, and it is 0 when there is no other class.
        probs.put(assigned, 0.0)  # probs is not read again this epoch
        np.maximum.reduce(probs, axis=1, out=p_max_other[e])
        train_acc[e] = float(np.mean(pred[e] == y))
        # Softmax output is in [0, 1] or NaN, so this is the loss's finiteness.
        if not np.isfinite(p_assigned[e]).all():
            raise TrainingDivergedError(t)
        # The fallback epoch's features stand in until the threshold is met.
        if mid_epoch is None and (train_acc[e] >= 0.5 or t == fallback_epoch):
            features_mid = acts[-1].copy()
            if train_acc[e] >= 0.5:
                mid_epoch = t

    features_end = acts[-1].copy()
    mid_epoch = mid_epoch or fallback_epoch

    traces = TraceStore(
        ids=dataset.ids.copy(),
        y_assigned=y.copy(),
        pred=pred,
        p_assigned=p_assigned,
        p_max_other=p_max_other,
        train_acc=train_acc,
        features_mid=features_mid,
        features_end=features_end,
        mid_epoch=mid_epoch,
    )
    return model.copy(), traces


def evaluate(model: Model, dataset: Dataset) -> tuple[float, float]:
    """(accuracy, mean cross-entropy loss) against the true labels."""
    if len(dataset) == 0:
        raise ConfigurationError("cannot evaluate on an empty dataset")
    probs, _ = forward_batch(model, dataset.X)
    acc = float(np.mean(np.argmax(probs, axis=1) == dataset.y_true))
    p = np.maximum(probs[np.arange(len(dataset)), dataset.y_true], 1e-300)
    return acc, float(np.mean(-np.log(p)))


def save_model(model: Model, path: str | Path) -> list[Path]:
    """Write <path>.json (the layer count) and <path>_w<i>.npy /
    <path>_b<i>.npy per layer."""
    path = Path(path)
    arrays = {}
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        arrays[f"w{i}"] = w
        arrays[f"b{i}"] = b
    return save_arrays(path.parent, path.name, {"layers": len(model.weights)}, **arrays)


def load_model(path: str | Path) -> Model:
    path = Path(path)
    meta, _ = load_arrays(path.parent, path.name, {})
    layers = meta_int(meta, path.name, "layers", 1)
    # Layer i maps width n<i> to n<i+1>; the chain starts at d and ends at K.
    dims = ["d"] + [f"n{i}" for i in range(1, layers)] + ["K"]
    shapes = {}
    for i in range(layers):
        shapes[f"w{i}"] = (dims[i], dims[i + 1])
        shapes[f"b{i}"] = (dims[i + 1],)
    _, arrays = load_arrays(path.parent, path.name, shapes)
    return Model(
        weights=[arrays[f"w{i}"] for i in range(layers)],
        biases=[arrays[f"b{i}"] for i in range(layers)],
    )


# Shape of every TraceStore array: T epochs, N samples, m feature width.
_TRACE_SHAPES = {
    "ids": ("N",),
    "y_assigned": ("N",),
    "pred": ("T", "N"),
    "p_assigned": ("T", "N"),
    "p_max_other": ("T", "N"),
    "train_acc": ("T",),
    "features_mid": ("N", "m"),
    "features_end": ("N", "m"),
}


def save_traces(traces: TraceStore, directory: str | Path) -> list[Path]:
    """Write traces.json (T, N, m, mid_epoch) and one .npy per array."""
    meta = {"T": traces.T, "N": traces.N, "m": traces.m, "mid_epoch": traces.mid_epoch}
    arrays = {name: getattr(traces, name) for name in _TRACE_SHAPES}
    return save_arrays(directory, "traces", meta, **arrays)


def load_traces(directory: str | Path) -> TraceStore:
    meta, arrays = load_arrays(directory, "traces", _TRACE_SHAPES)
    T = len(arrays["train_acc"])
    return TraceStore(**arrays, mid_epoch=meta_int(meta, "traces", "mid_epoch", 1, T))
