"""Clean/noisy partitioning of a dataset from per-sample metric values.

Three method kinds: median thresholding, 1-D GMM, and 2-D GMM (two or
three clusters, with the cluster on the low-accuracy/high-distance side
taken as noisy).  A named catalog reproduces the standard method rows
plus the centroid-distance ablation variants.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
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

# The note on every method whose x metric is the plain JSD standing in for
# the paper's weighted JSD.
WJSD_NOTE = "jsd-substituted"


@dataclass
class Partition:
    """A clean/noisy split held as a noisy mask over `ids`, which keep the
    row order of the metric table the partition came from.  A mask of
    another length than `ids` raises ConfigurationError."""

    ids: np.ndarray
    noisy: np.ndarray
    method_name: str
    parameters: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.noisy) != len(self.ids):
            raise ConfigurationError(
                f"partition {self.method_name}: "
                f"{len(self.noisy)} noisy rows for {len(self.ids)} ids"
            )


def _polarity(metric: str | CentroidVariant | None) -> str:
    """A table column's polarity; a centroid distance (or no metric) is
    high-is-noisy."""
    if isinstance(metric, str):
        if metric not in METRIC_POLARITY:
            raise ConfigurationError(f"unknown metric column {metric!r}")
        return METRIC_POLARITY[metric]
    return HIGH_IS_NOISY


@dataclass(frozen=True)
class MethodSpec:
    """One named partition method.

    metric_x / metric_y are MetricTable column names, or a CentroidVariant
    for an on-demand centroid-distance metric.  1-D methods use only
    metric_x.  Each metric's polarity follows from the metric itself.  An
    unknown kind or column, or a gmm2d method without metric_y, raises
    ConfigurationError.
    """

    name: str
    kind: str                                   # "threshold" | "gmm1d" | "gmm2d"
    metric_x: str | CentroidVariant
    metric_y: str | CentroidVariant | None = None
    clusters: int = 2

    def __post_init__(self) -> None:
        if self.kind not in ("threshold", "gmm1d", "gmm2d"):
            raise ConfigurationError(f"method {self.name}: unknown kind {self.kind!r}")
        if self.kind == "gmm2d" and self.metric_y is None:
            raise ConfigurationError(f"method {self.name}: gmm2d needs two metrics")
        _polarity(self.metric_x)
        _polarity(self.metric_y)

    @property
    def notes(self) -> str:
        return WJSD_NOTE if self.metric_x == "jsd" else ""

    @property
    def polarity_x(self) -> str:
        return _polarity(self.metric_x)

    @property
    def polarity_y(self) -> str:
        return _polarity(self.metric_y)

    def describe(self) -> dict:
        def _m(m):
            return vars(m).copy() if isinstance(m, CentroidVariant) else m

        return {
            "name": self.name,
            "kind": self.kind,
            "metric_x": _m(self.metric_x),
            "metric_y": _m(self.metric_y) if self.metric_y is not None else None,
            "polarity_x": self.polarity_x,
            "polarity_y": self.polarity_y,
            "clusters": self.clusters,
            "notes": self.notes,
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
    if polarity == HIGH_IS_NOISY:
        noisy = values > thr
    else:
        noisy = values < thr
    return Partition(
        ids=ids,
        noisy=noisy,
        method_name=method_name,
        parameters={"threshold": thr, "polarity": polarity},
    )


def partition_gmm1d(
    ids: np.ndarray,
    values: np.ndarray,
    polarity: str = HIGH_IS_NOISY,
    seed: int = 0,
    method_name: str = "gmm1d",
) -> Partition:
    """Two-component 1-D mixture; the component whose mean sits on the
    noisy side is the noisy one, samples assigned by max responsibility
    (ties stay clean).  Degenerate fits fall back to the median threshold."""
    try:
        model = fit_gmm(values, GmmConfig(k=2, seed=seed))
    except DegenerateDataError:
        warnings.warn(f"{method_name}: degenerate fit, falling back to median threshold")
        part = partition_threshold(ids, values, polarity, method_name=method_name)
        part.parameters["fallback"] = "median-threshold"
        return part
    resp = responsibilities(model, values)
    means = model.means[:, 0]
    noisy_comp = int(np.argmax(means)) if polarity == HIGH_IS_NOISY else int(np.argmin(means))
    noisy = resp[:, noisy_comp] > 0.5
    return Partition(
        ids=ids,
        noisy=noisy,
        method_name=method_name,
        parameters={"polarity": polarity, "gmm": model.to_json()},
    )


def partition_gmm2d(
    ids: np.ndarray,
    values_x: np.ndarray,
    values_y: np.ndarray,
    polarity_x: str = LOW_IS_NOISY,
    polarity_y: str = HIGH_IS_NOISY,
    clusters: int = 3,
    seed: int = 0,
    method_name: str = "gmm2d",
) -> Partition:
    """k-cluster 2-D mixture on standardized (x, y); the noisy cluster is
    the one whose standardized mean lies furthest on the noisy side of
    both metrics (for acc/SCD: low accuracy, high distance = top left)."""
    if len(values_x) != len(values_y):
        raise ConfigurationError("metric streams must cover the same ids")
    pts = np.column_stack([values_x, values_y])
    try:
        model = fit_gmm(pts, GmmConfig(k=clusters, seed=seed))
    except DegenerateDataError:
        warnings.warn(f"{method_name}: degenerate fit, falling back to median threshold")
        part = partition_threshold(ids, values_y, polarity_y, method_name=method_name)
        part.parameters["fallback"] = "median-threshold-on-y"
        return part
    resp = responsibilities(model, pts)
    labels = resp.argmax(axis=1)
    sx = 1.0 if polarity_x == HIGH_IS_NOISY else -1.0
    sy = 1.0 if polarity_y == HIGH_IS_NOISY else -1.0
    score = sx * model.means[:, 0] + sy * model.means[:, 1]
    noisy_cluster = int(np.argmax(score))
    noisy = labels == noisy_cluster
    return Partition(
        ids=ids,
        noisy=noisy,
        method_name=method_name,
        parameters={
            "polarity_x": polarity_x,
            "polarity_y": polarity_y,
            "clusters": clusters,
            "noisy_cluster": noisy_cluster,
            "gmm": model.to_json(),
        },
    )


_ACD_MID = replace(ACD_VARIANT, epoch="mid")
_ACD_MID_NORM = replace(ACD_VARIANT, epoch="mid", distance="euclidean")
_ACD_MID_STATIC = replace(ACD_VARIANT, epoch="mid", centroid="static")

# The standard comparison rows.
TABLE1_METHODS = (
    MethodSpec("Thres_Loss", "threshold", "loss_end"),
    MethodSpec("Thres_acc-over-training", "threshold", "acc_over_training"),
    MethodSpec("Thres_AUM", "threshold", "aum"),
    MethodSpec("1d-GMM_Loss", "gmm1d", "loss_end"),
    MethodSpec("1d-GMM_AUL", "gmm1d", "aul"),
    MethodSpec("2d-GMM_WJSD-ACD", "gmm2d", "jsd", ACD_VARIANT, clusters=2),
    MethodSpec("2d-GMM_acc-SCD", "gmm2d", "acc_over_training", SCD_VARIANT, clusters=3),
)

# The centroid-distance ablations.
ABLATION_METHODS = (
    MethodSpec("2d-GMM_WJSD-ACD_mid", "gmm2d", "jsd", _ACD_MID, clusters=2),
    MethodSpec("2d-GMM_WJSD-ACD_mid-norm", "gmm2d", "jsd", _ACD_MID_NORM, clusters=2),
    MethodSpec("2d-GMM_WJSD-ACD_mid-static", "gmm2d", "jsd", _ACD_MID_STATIC, clusters=2),
    MethodSpec("2d-GMM-3clusters_WJSD-ACD", "gmm2d", "jsd", ACD_VARIANT, clusters=3),
    MethodSpec("2d-GMM-3clusters_WJSD-ACD_mid", "gmm2d", "jsd", _ACD_MID, clusters=3),
    MethodSpec("2d-GMM-3clusters_WJSD-ACD_mid-norm", "gmm2d", "jsd", _ACD_MID_NORM, clusters=3),
    MethodSpec(
        "2d-GMM-3clusters_WJSD-ACD_mid-static", "gmm2d", "jsd", _ACD_MID_STATIC, clusters=3
    ),
    MethodSpec("2d-GMM-3clusters_acc-ACD", "gmm2d", "acc_over_training", ACD_VARIANT, clusters=3),
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


def run_method(spec: MethodSpec, table, traces, seed: int = 0) -> Partition:
    """Execute a MethodSpec against a MetricTable, with the TraceStore it
    came from for the centroid-distance variants computed on demand;
    `seed` seeds the GMM fit."""

    def _values(metric) -> np.ndarray:
        if isinstance(metric, CentroidVariant):
            return centroid_distance_from_traces(traces, metric)
        return table.values[metric]

    ids = table.ids
    x = _values(spec.metric_x)
    if spec.kind == "threshold":
        part = partition_threshold(ids, x, spec.polarity_x, method_name=spec.name)
    elif spec.kind == "gmm1d":
        part = partition_gmm1d(ids, x, spec.polarity_x, seed, method_name=spec.name)
    else:
        y = _values(spec.metric_y)
        part = partition_gmm2d(
            ids, x, y, spec.polarity_x, spec.polarity_y,
            clusters=spec.clusters, seed=seed, method_name=spec.name,
        )
    part.parameters["method"] = spec.describe()
    return part


def save_partition(part: Partition, directory: str | Path, prefix: str) -> list[Path]:
    """Write <prefix>.json (name and parameters) and the ids and the noisy
    flag, row for row."""
    return save_arrays(
        directory,
        prefix,
        {"method_name": part.method_name, "parameters": part.parameters},
        ids=part.ids,
        noisy=part.noisy,
    )


def load_partition(directory: str | Path, prefix: str) -> Partition:
    meta, arrays = load_arrays(directory, prefix, {"ids": ("N",), "noisy": ("N",)})
    return Partition(method_name=meta["method_name"], parameters=meta["parameters"], **arrays)
