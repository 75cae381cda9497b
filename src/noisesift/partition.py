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
from .metrics import ACD_VARIANT, SCD_VARIANT, CentroidVariant

HIGH_IS_NOISY = "high-is-noisy"
LOW_IS_NOISY = "low-is-noisy"

# Polarity of every standard metric column.
METRIC_POLARITY = {
    "loss_end": HIGH_IS_NOISY,
    "confidence_end": LOW_IS_NOISY,
    "first_pred_epoch": HIGH_IS_NOISY,
    "acc_over_training": LOW_IS_NOISY,
    "aul": HIGH_IS_NOISY,
    "aum": LOW_IS_NOISY,
    "jsd": HIGH_IS_NOISY,
    "acd": HIGH_IS_NOISY,
    "scd": HIGH_IS_NOISY,
}


@dataclass
class Partition:
    clean_ids: set[int]
    noisy_ids: set[int]
    method_name: str
    parameters: dict = field(default_factory=dict)
    cluster_labels: dict[int, int] | None = None

    def subset_of(self, sample_id: int) -> str:
        return "noisy" if sample_id in self.noisy_ids else "clean"


@dataclass(frozen=True)
class MethodSpec:
    """One named partition method.

    metric_x / metric_y are MetricTable column names, or a CentroidVariant
    for an on-demand centroid-distance metric (always high-is-noisy).
    1-D methods use only metric_x.
    """

    name: str
    kind: str                                   # "threshold" | "gmm1d" | "gmm2d"
    metric_x: str | CentroidVariant
    metric_y: str | CentroidVariant | None = None
    polarity_x: str = HIGH_IS_NOISY
    polarity_y: str = HIGH_IS_NOISY
    clusters: int = 2
    notes: str = ""

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
    threshold: float | None = None,
    method_name: str = "threshold",
) -> Partition:
    """Median threshold by default; strictly beyond the threshold on the
    noisy side goes to the noisy subset, ties stay clean."""
    if len(values) == 0:
        raise ConfigurationError("cannot threshold an empty value set")
    thr = float(np.median(values)) if threshold is None else float(threshold)
    if polarity == HIGH_IS_NOISY:
        noisy = values > thr
    else:
        noisy = values < thr
    return Partition(
        clean_ids=set(ids[~noisy].tolist()),
        noisy_ids=set(ids[noisy].tolist()),
        method_name=method_name,
        parameters={"threshold": thr, "polarity": polarity},
    )


def partition_gmm1d(
    ids: np.ndarray,
    values: np.ndarray,
    polarity: str = HIGH_IS_NOISY,
    cfg: GmmConfig | None = None,
    method_name: str = "gmm1d",
) -> Partition:
    """Two-component 1-D mixture; the component whose mean sits on the
    noisy side is the noisy one, samples assigned by max responsibility
    (ties stay clean).  Degenerate fits fall back to the median threshold."""
    cfg = replace(cfg or GmmConfig(), k=2)
    try:
        model = fit_gmm(values, cfg)
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
        clean_ids=set(ids[~noisy].tolist()),
        noisy_ids=set(ids[noisy].tolist()),
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
    cfg: GmmConfig | None = None,
    method_name: str = "gmm2d",
) -> Partition:
    """k-cluster 2-D mixture on standardized (x, y); the noisy cluster is
    the one whose standardized mean lies furthest on the noisy side of
    both metrics (for acc/SCD: low accuracy, high distance = top left)."""
    if len(values_x) != len(values_y) or len(values_x) != len(ids):
        raise ConfigurationError("metric streams must cover the same ids")
    cfg = replace(cfg or GmmConfig(), k=clusters)
    pts = np.column_stack([values_x, values_y])
    try:
        model = fit_gmm(pts, cfg)
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
        clean_ids=set(ids[~noisy].tolist()),
        noisy_ids=set(ids[noisy].tolist()),
        method_name=method_name,
        parameters={
            "polarity_x": polarity_x,
            "polarity_y": polarity_y,
            "clusters": clusters,
            "noisy_cluster": noisy_cluster,
            "gmm": model.to_json(),
        },
        cluster_labels={int(i): int(l) for i, l in zip(ids, labels)},
    )


WJSD_NOTE = "jsd-substituted"

_ACD_MID = replace(ACD_VARIANT, epoch="mid")
_ACD_MID_NORM = replace(ACD_VARIANT, epoch="mid", distance="euclidean")
_ACD_MID_STATIC = replace(ACD_VARIANT, epoch="mid", centroid="static")

# The standard comparison rows.
TABLE1_METHODS = (
    MethodSpec("Thres_Loss", "threshold", "loss_end", polarity_x=HIGH_IS_NOISY),
    MethodSpec(
        "Thres_acc-over-training", "threshold", "acc_over_training",
        polarity_x=LOW_IS_NOISY,
    ),
    MethodSpec("Thres_AUM", "threshold", "aum", polarity_x=LOW_IS_NOISY),
    MethodSpec("1d-GMM_Loss", "gmm1d", "loss_end", polarity_x=HIGH_IS_NOISY),
    MethodSpec("1d-GMM_AUL", "gmm1d", "aul", polarity_x=HIGH_IS_NOISY),
    MethodSpec(
        "2d-GMM_WJSD-ACD", "gmm2d", "jsd", ACD_VARIANT,
        polarity_x=HIGH_IS_NOISY, clusters=2, notes=WJSD_NOTE,
    ),
    MethodSpec(
        "2d-GMM_acc-SCD", "gmm2d", "acc_over_training", SCD_VARIANT,
        polarity_x=LOW_IS_NOISY, clusters=3,
    ),
)

# The centroid-distance ablations.
ABLATION_METHODS = (
    MethodSpec(
        "2d-GMM_WJSD-ACD_mid", "gmm2d", "jsd", _ACD_MID,
        polarity_x=HIGH_IS_NOISY, clusters=2, notes=WJSD_NOTE,
    ),
    MethodSpec(
        "2d-GMM_WJSD-ACD_mid-norm", "gmm2d", "jsd", _ACD_MID_NORM,
        polarity_x=HIGH_IS_NOISY, clusters=2, notes=WJSD_NOTE,
    ),
    MethodSpec(
        "2d-GMM_WJSD-ACD_mid-static", "gmm2d", "jsd", _ACD_MID_STATIC,
        polarity_x=HIGH_IS_NOISY, clusters=2, notes=WJSD_NOTE,
    ),
    MethodSpec(
        "2d-GMM-3clusters_WJSD-ACD", "gmm2d", "jsd", ACD_VARIANT,
        polarity_x=HIGH_IS_NOISY, clusters=3, notes=WJSD_NOTE,
    ),
    MethodSpec(
        "2d-GMM-3clusters_WJSD-ACD_mid", "gmm2d", "jsd", _ACD_MID,
        polarity_x=HIGH_IS_NOISY, clusters=3, notes=WJSD_NOTE,
    ),
    MethodSpec(
        "2d-GMM-3clusters_WJSD-ACD_mid-norm", "gmm2d", "jsd", _ACD_MID_NORM,
        polarity_x=HIGH_IS_NOISY, clusters=3, notes=WJSD_NOTE,
    ),
    MethodSpec(
        "2d-GMM-3clusters_WJSD-ACD_mid-static", "gmm2d", "jsd", _ACD_MID_STATIC,
        polarity_x=HIGH_IS_NOISY, clusters=3, notes=WJSD_NOTE,
    ),
    MethodSpec(
        "2d-GMM-3clusters_acc-ACD", "gmm2d", "acc_over_training", ACD_VARIANT,
        polarity_x=LOW_IS_NOISY, clusters=3,
    ),
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
    traces=None,
    gmm_cfg: GmmConfig | None = None,
) -> Partition:
    """Execute a MethodSpec against a MetricTable (plus TraceStore when a
    centroid-distance variant must be computed on demand)."""
    from .metrics import centroid_distance_from_traces

    def _values(metric) -> np.ndarray:
        if isinstance(metric, CentroidVariant):
            if traces is None:
                raise ConfigurationError(
                    f"method {spec.name} needs a TraceStore for its centroid variant"
                )
            return centroid_distance_from_traces(traces, metric)
        return table.column(metric)

    ids = table.ids
    x = _values(spec.metric_x)
    if spec.kind == "threshold":
        part = partition_threshold(ids, x, spec.polarity_x, method_name=spec.name)
    elif spec.kind == "gmm1d":
        part = partition_gmm1d(ids, x, spec.polarity_x, gmm_cfg, method_name=spec.name)
    elif spec.kind == "gmm2d":
        if spec.metric_y is None:
            raise ConfigurationError(f"method {spec.name}: gmm2d needs two metrics")
        y = _values(spec.metric_y)
        part = partition_gmm2d(
            ids, x, y, spec.polarity_x, spec.polarity_y,
            clusters=spec.clusters, cfg=gmm_cfg, method_name=spec.name,
        )
    else:
        raise ConfigurationError(f"unknown method kind {spec.kind!r}")
    part.parameters["method"] = spec.describe()
    return part


def save_partition(part: Partition, directory: str | Path, prefix: str) -> list[Path]:
    """Write <prefix>.json (name and parameters) and, over the sorted ids,
    the noisy flag and the cluster label (-1 where there is none)."""
    ids = np.array(sorted(part.clean_ids | part.noisy_ids), dtype=np.int64)
    noisy = np.zeros(len(ids), dtype=bool)
    noisy[np.searchsorted(ids, np.fromiter(part.noisy_ids, np.int64, len(part.noisy_ids)))] = True
    # A label for an id outside the partition is dropped.
    labels = part.cluster_labels or {}
    labelled = np.fromiter(labels, np.int64, len(labels))
    pos = np.searchsorted(ids, labelled)
    hit = pos < len(ids)
    hit[hit] = ids[pos[hit]] == labelled[hit]
    cluster_label = np.full(len(ids), -1, dtype=np.int64)
    cluster_label[pos[hit]] = np.fromiter(labels.values(), np.int64, len(labels))[hit]
    return save_arrays(
        directory,
        prefix,
        {"method_name": part.method_name, "parameters": part.parameters},
        ids=ids,
        noisy=noisy,
        cluster_label=cluster_label,
    )


def load_partition(directory: str | Path, prefix: str) -> Partition:
    meta, arrays = load_arrays(
        directory, prefix, {"ids": ("N",), "noisy": ("N",), "cluster_label": ("N",)}
    )
    ids, noisy, label = arrays["ids"], arrays["noisy"], arrays["cluster_label"]
    has_label = label >= 0
    return Partition(
        clean_ids=set(ids[~noisy].tolist()),
        noisy_ids=set(ids[noisy].tolist()),
        method_name=meta["method_name"],
        parameters=meta["parameters"],
        cluster_labels=dict(zip(ids[has_label].tolist(), label[has_label].tolist())) or None,
    )
