"""Clean/noisy partitioning of a dataset from per-sample metric values.

Two method kinds: median thresholding on one metric, and a GMM on one or
two metrics (two or three clusters, with the cluster furthest on the
noisy side of every metric taken as noisy).  A named catalog reproduces
the standard method rows plus the centroid-distance ablation variants.

`run_methods` computes each distinct centroid-distance column of a
stage's methods once, then runs the methods through `shares.run_shares`
with their fit cost (GMM before threshold, then more clusters, then more
columns) as cost.  Each method fits on its own columns with the one
seed, so every partition is byte-identical at any CPU count.

A stage's partitions are one artifact, `partitions`: the ids once, an
(M, N) noisy mask with one row per method, and metadata mapping each
method name, in the stage's order, to its parameters.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .artifacts import load_arrays, save_arrays
from .errors import ConfigurationError, DegenerateDataError, UnknownMethodError
from .gmm import GmmConfig, fit_gmm, responsibilities
from .metrics import (
    ACD_VARIANT,
    HIGH_IS_NOISY,
    LOW_IS_NOISY,
    METRIC_POLARITY,
    SCD_VARIANT,
    CentroidVariant,
    centroid_distance_from_traces,
)
from .shares import run_shares

# The note on every method that uses the plain JSD standing in for the
# paper's weighted JSD.
WJSD_NOTE = "jsd-substituted"


@dataclass
class Partition:
    """A clean/noisy split held as a noisy mask over `ids`, which keep the
    row order of the metric table the partition came from.  A mask that is
    not boolean, or of another length than `ids`, raises
    ConfigurationError."""

    ids: np.ndarray
    noisy: np.ndarray
    method_name: str
    parameters: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.noisy.dtype != bool:
            raise ConfigurationError(
                f"partition {self.method_name}: noisy mask has dtype {self.noisy.dtype}, "
                "expected bool"
            )
        if len(self.noisy) != len(self.ids):
            raise ConfigurationError(
                f"partition {self.method_name}: "
                f"{len(self.noisy)} noisy rows for {len(self.ids)} ids"
            )


def _polarity(metric: str | CentroidVariant) -> str:
    """A table column's polarity; a centroid distance is high-is-noisy."""
    if isinstance(metric, CentroidVariant):
        return HIGH_IS_NOISY
    if metric not in METRIC_POLARITY:
        raise ConfigurationError(f"unknown metric column {metric!r}")
    return METRIC_POLARITY[metric]


# The metric counts each method kind takes.
_METRIC_COUNTS = {"threshold": (1,), "gmm": (1, 2)}


@dataclass(frozen=True)
class MethodSpec:
    """One named partition method.

    `metrics` is a tuple of MetricTable column names, or CentroidVariants
    for on-demand centroid-distance metrics: one for a threshold method,
    one or two for a GMM method, which fits `clusters` (at least 2)
    components.  Each metric's polarity follows from the metric itself.
    An unknown kind or column, a metric count the kind cannot take or
    fewer than 2 GMM clusters raises ConfigurationError.
    """

    name: str
    kind: str                                   # "threshold" | "gmm"
    metrics: tuple[str | CentroidVariant, ...]
    clusters: int = 2

    def __post_init__(self) -> None:
        if self.kind not in _METRIC_COUNTS:
            raise ConfigurationError(f"method {self.name}: unknown kind {self.kind!r}")
        counts = _METRIC_COUNTS[self.kind]
        if not isinstance(self.metrics, tuple) or len(self.metrics) not in counts:
            raise ConfigurationError(
                f"method {self.name}: a {self.kind} method takes a tuple of "
                f"{' or '.join(map(str, counts))} metrics"
            )
        if self.kind == "gmm" and self.clusters < 2:
            raise ConfigurationError(f"method {self.name}: a GMM needs at least 2 clusters")
        for metric in self.metrics:
            _polarity(metric)

    @property
    def polarities(self) -> tuple[str, ...]:
        return tuple(_polarity(m) for m in self.metrics)

    def describe(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "metrics": [
                m.describe() if isinstance(m, CentroidVariant) else m for m in self.metrics
            ],
            "polarities": list(self.polarities),
            "clusters": self.clusters,
            "notes": WJSD_NOTE if "jsd" in self.metrics else "",
        }


def partition_threshold(
    ids: np.ndarray,
    values: np.ndarray,
    polarity: str = HIGH_IS_NOISY,
    method_name: str = "threshold",
) -> Partition:
    """Median threshold: strictly beyond the median on the noisy side goes
    to the noisy subset, ties stay clean."""
    if len(values) == 0:
        raise ConfigurationError("cannot threshold an empty value set")
    thr = float(np.median(values))
    noisy = values > thr if polarity == HIGH_IS_NOISY else values < thr
    return Partition(ids=ids, noisy=noisy, method_name=method_name, parameters={"threshold": thr})


def partition_gmm(
    ids: np.ndarray,
    columns: list[np.ndarray],
    polarities: tuple[str, ...],
    clusters: int = 2,
    seed: int = 0,
    method_name: str = "gmm",
) -> Partition:
    """A `clusters`-component mixture on the standardized metric columns.
    The noisy cluster is the one whose standardized mean lies furthest on
    the noisy side of every metric (for acc/SCD: low accuracy, high
    distance = top left), and each sample goes to its most responsible
    cluster.  A degenerate fit falls back to the median threshold on the
    last column, recorded as parameters["fallback"]."""
    pts = np.column_stack(columns)
    try:
        model = fit_gmm(pts, GmmConfig(k=clusters, seed=seed))
    except DegenerateDataError:
        warnings.warn(f"{method_name}: degenerate fit, falling back to median threshold")
        part = partition_threshold(ids, columns[-1], polarities[-1], method_name=method_name)
        part.parameters["fallback"] = "median-threshold-on-last-metric"
        return part
    signs = np.array([1.0 if p == HIGH_IS_NOISY else -1.0 for p in polarities])
    noisy_cluster = int(np.argmax(model.means @ signs))
    noisy = responsibilities(model, pts).argmax(axis=1) == noisy_cluster
    return Partition(
        ids=ids,
        noisy=noisy,
        method_name=method_name,
        parameters={"noisy_cluster": noisy_cluster, "gmm": model.to_json()},
    )


_ACD_MID = replace(ACD_VARIANT, epoch="mid")
_ACD_MID_NORM = replace(ACD_VARIANT, epoch="mid", distance="euclidean")
_ACD_MID_STATIC = replace(ACD_VARIANT, epoch="mid", centroid="static")

# The standard comparison rows.
TABLE1_METHODS = (
    MethodSpec("Thres_Loss", "threshold", ("loss_end",)),
    MethodSpec("Thres_acc-over-training", "threshold", ("acc_over_training",)),
    MethodSpec("Thres_AUM", "threshold", ("aum",)),
    MethodSpec("1d-GMM_Loss", "gmm", ("loss_end",)),
    MethodSpec("1d-GMM_AUL", "gmm", ("aul",)),
    MethodSpec("2d-GMM_WJSD-ACD", "gmm", ("jsd", ACD_VARIANT)),
    MethodSpec("2d-GMM_acc-SCD", "gmm", ("acc_over_training", SCD_VARIANT), clusters=3),
)

# The centroid-distance ablations.
ABLATION_METHODS = (
    MethodSpec("2d-GMM_WJSD-ACD_mid", "gmm", ("jsd", _ACD_MID)),
    MethodSpec("2d-GMM_WJSD-ACD_mid-norm", "gmm", ("jsd", _ACD_MID_NORM)),
    MethodSpec("2d-GMM_WJSD-ACD_mid-static", "gmm", ("jsd", _ACD_MID_STATIC)),
    MethodSpec("2d-GMM-3clusters_WJSD-ACD", "gmm", ("jsd", ACD_VARIANT), clusters=3),
    MethodSpec("2d-GMM-3clusters_WJSD-ACD_mid", "gmm", ("jsd", _ACD_MID), clusters=3),
    MethodSpec("2d-GMM-3clusters_WJSD-ACD_mid-norm", "gmm", ("jsd", _ACD_MID_NORM), clusters=3),
    MethodSpec(
        "2d-GMM-3clusters_WJSD-ACD_mid-static", "gmm", ("jsd", _ACD_MID_STATIC), clusters=3
    ),
    MethodSpec("2d-GMM-3clusters_acc-ACD", "gmm", ("acc_over_training", ACD_VARIANT), clusters=3),
)

TABLE1_METHOD_NAMES = tuple(m.name for m in TABLE1_METHODS)
ABLATION_METHOD_NAMES = tuple(m.name for m in ABLATION_METHODS)


def builtin_methods() -> list[MethodSpec]:
    """The standard comparison rows plus the centroid-distance ablations."""
    return [*TABLE1_METHODS, *ABLATION_METHODS]


def lookup_method(name: str) -> MethodSpec:
    for spec in builtin_methods():
        if spec.name == name:
            return spec
    raise UnknownMethodError(f"unknown partition method {name!r}")


def run_method(
    spec: MethodSpec,
    table,
    traces,
    seed: int = 0,
    distances: dict[CentroidVariant, np.ndarray] | None = None,
) -> Partition:
    """Execute a MethodSpec against a MetricTable, with the TraceStore it
    came from for the centroid-distance variants; `seed` seeds the GMM
    fit.  A variant's column is read from `distances` when it is there and
    computed otherwise; `distances` is never written."""
    distances = distances or {}
    columns = []
    for m in spec.metrics:
        if not isinstance(m, CentroidVariant):
            columns.append(table.values[m])
        elif m in distances:
            columns.append(distances[m])
        else:
            columns.append(centroid_distance_from_traces(traces, m))
    if spec.kind == "threshold":
        part = partition_threshold(table.ids, columns[0], spec.polarities[0], spec.name)
    else:
        part = partition_gmm(table.ids, columns, spec.polarities, spec.clusters, seed, spec.name)
    part.parameters["method"] = spec.describe()
    return part


def _fit_cost(spec: MethodSpec) -> tuple[bool, int, int]:
    """A sort key that grows with a method's fit cost: a GMM costs more than
    a threshold, then more clusters and more columns cost more."""
    return spec.kind == "gmm", spec.clusters, len(spec.metrics)


def _run_share(specs, table, traces, seed, distances, share) -> list:
    """run_method for each spec index in `share`: its Partition, or the
    exception it raised."""
    outcomes = []
    for i in share:
        try:
            outcomes.append(run_method(specs[i], table, traces, seed, distances))
        except Exception as exc:
            outcomes.append(exc)
    return outcomes


def run_methods(
    specs: list[MethodSpec], table, traces, seed: int = 0
) -> list[Partition]:
    """run_method for every spec, in order, with one `seed` for every fit.

    Each distinct centroid-distance column is computed once, here, first.
    `run_shares`, with `_fit_cost` as cost, then splits the methods into
    shares, one per usable CPU.  Each method fits on its own columns with
    `seed` alone, so every partition is the one `run_method(spec, table,
    traces, seed)` gives, whatever the CPU count.  If methods fail, the
    exception of the first failing one in `specs` order is raised, as a
    loop over `specs` would raise it."""
    variants = dict.fromkeys(
        m for spec in specs for m in spec.metrics if isinstance(m, CentroidVariant)
    )
    distances = {v: centroid_distance_from_traces(traces, v) for v in variants}
    costs = [_fit_cost(spec) for spec in specs]
    outcomes = run_shares(partial(_run_share, specs, table, traces, seed, distances), costs)
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def save_partition(ids: np.ndarray, parts: list[Partition], directory: str | Path) -> list[Path]:
    """Write `parts` as the `partitions` artifact, mask row m for parts[m].
    A partition over other ids than `ids` raises ConfigurationError."""
    if any(not np.array_equal(part.ids, ids) for part in parts):
        raise ConfigurationError("a partition's ids differ from the stage's")
    noisy = np.array([part.noisy for part in parts], dtype=bool).reshape(len(parts), len(ids))
    meta = {part.method_name: part.parameters for part in parts}
    return save_arrays(directory, "partitions", meta, ids=ids, noisy=noisy)


def load_partition(directory: str | Path) -> list[Partition]:
    """The partitions written by save_partition, in their stored order.
    Metadata with another key count than the mask's rows, or a value that
    is not an object, raises ConfigurationError naming `partitions.json`."""
    meta, arrays = load_arrays(directory, "partitions", {"ids": ("N",), "noisy": ("M", "N")})
    if len(meta) != len(arrays["noisy"]) or not all(isinstance(v, dict) for v in meta.values()):
        raise ConfigurationError(
            "artifact partitions.json must map one method name per mask row to an object"
        )
    rows = zip(meta.items(), arrays["noisy"])
    return [Partition(arrays["ids"], noisy, name, params) for (name, params), noisy in rows]
