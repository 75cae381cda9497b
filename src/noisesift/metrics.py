"""Per-sample training-dynamics metrics computed from a TraceStore.

Covers end-of-training values (loss, confidence, JSD), trajectory
aggregates (first prediction epoch, accuracy over training, AUL, AUM) and
the centroid-distance family whose (epoch, distance, centroid) corners
are SCD = (mid, euclidean, static) and ACD = (end, cosine, adaptive).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import load_arrays, save_arrays
from .errors import ConfigurationError
from .mlp import TraceStore, predicted_as_assigned


# The adaptive centroid's confidence cut: an in-class sample counts when
# its assigned-class probability is at least this.
ADAPTIVE_CONF_THRESHOLD = 0.5


@dataclass(frozen=True)
class CentroidVariant:
    epoch: str = "end"          # "mid" | "end"
    distance: str = "cosine"    # "euclidean" | "cosine"
    centroid: str = "adaptive"  # "static" | "adaptive"

    def __post_init__(self) -> None:
        if self.epoch not in ("mid", "end"):
            raise ConfigurationError(f"unknown snapshot epoch {self.epoch!r}")
        if self.distance not in ("euclidean", "cosine"):
            raise ConfigurationError(f"unknown distance {self.distance!r}")
        if self.centroid not in ("static", "adaptive"):
            raise ConfigurationError(f"unknown centroid rule {self.centroid!r}")

    def describe(self) -> dict:
        return {**vars(self), "adaptive_conf_threshold": ADAPTIVE_CONF_THRESHOLD}


SCD_VARIANT = CentroidVariant(epoch="mid", distance="euclidean", centroid="static")
ACD_VARIANT = CentroidVariant(epoch="end", distance="cosine", centroid="adaptive")

HIGH_IS_NOISY = "high-is-noisy"
LOW_IS_NOISY = "low-is-noisy"

# Every metric column, in table order, with the side of it that is noisy.
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

COLUMNS = tuple(METRIC_POLARITY)


@dataclass
class MetricTable:
    ids: np.ndarray
    values: dict[str, np.ndarray]   # column name -> per-sample array
    params: dict                    # variant parameters, persisted as sidecar


def traces_jsd(traces: TraceStore) -> np.ndarray:
    """JSD at epoch T from stored per-sample probabilities.

    Uses the exact decomposition for P vs one-hot Q:
      JSD = 0.5 * [ sum_j p_j ln(p_j / (p_j/2)) - p_c ln 2
                    + p_c ln(p_c / ((p_c+1)/2)) - ln((p_c+1)/2) ]
    which only depends on p_c = P[assigned] and the entropy-free parts,
    because every non-assigned coordinate of M is p_j / 2.
    """
    T = traces.T
    p_c = traces.p_assigned[T - 1]
    # sum_{j != c} p_j ln(p_j / (p_j/2)) = (1 - p_c) ln 2
    kl_p = (1.0 - p_c) * np.log(2.0)
    kl_p += np.where(
        p_c > 0, p_c * (np.log(np.maximum(p_c, 1e-300)) - np.log((p_c + 1.0) / 2.0)), 0.0
    )
    kl_q = -np.log((p_c + 1.0) / 2.0)
    return 0.5 * (kl_p + kl_q)


def raise_if_missing(traces: TraceStore) -> None:
    if traces.T < 1 or traces.N < 1:
        raise ConfigurationError("trace store has no records")


def trajectory_metrics(
    traces: TraceStore, loss: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(first_pred_epoch, acc_over_training, aul, aum) per sample; `loss`
    is `traces.loss`, derived once by the caller.

    Predicted means `predicted_as_assigned`, never at a tie; first_pred_epoch
    is T+1 for samples never predicted.  AUM is the mean of that rule's
    margin, (1/T) sum_t (p_assigned - max other).
    """
    raise_if_missing(traces)
    T = traces.T
    correct = predicted_as_assigned(traces.p_assigned, traces.p_max_other)
    acc = correct.mean(axis=0)
    ever = correct.any(axis=0)
    first = np.where(ever, correct.argmax(axis=0) + 1, T + 1).astype(np.int64)
    aul = loss.sum(axis=0)
    aum = (traces.p_assigned - traces.p_max_other).mean(axis=0)
    return first, acc, aul, aum


def centroid_distance(
    features: np.ndarray,
    assigned: np.ndarray,
    pred_end: np.ndarray,
    p_assigned_end: np.ndarray,
    variant: CentroidVariant,
) -> tuple[np.ndarray, list[int]]:
    """Distance of each sample's feature vector to its class centroid.

    Static centroid: mean over all samples assigned to the class.
    Adaptive centroid: mean over samples the classifier suspects to be in
    the class (predicted there while assigned elsewhere, or assigned
    there with p_assigned >= ADAPTIVE_CONF_THRESHOLD).  Classes with no
    members under the adaptive rule fall back to the static centroid;
    their indices are returned for provenance.
    """
    classes = np.unique(assigned)
    centroids = np.zeros((int(classes.max()) + 1, features.shape[1]))
    fallbacks: list[int] = []
    for c in classes:
        in_class = assigned == c
        if variant.centroid == "static":
            members = in_class
        else:
            suspected = (pred_end == c) & ~in_class
            confident = in_class & (p_assigned_end >= ADAPTIVE_CONF_THRESHOLD)
            members = suspected | confident
            if not members.any():
                members = in_class
                fallbacks.append(int(c))
        centroids[c] = features[members].mean(axis=0)
    cent = centroids[assigned]
    if variant.distance == "euclidean":
        dist = np.linalg.norm(features - cent, axis=1)
    else:
        num = np.einsum("ij,ij->i", features, cent)
        den = np.linalg.norm(features, axis=1) * np.linalg.norm(cent, axis=1)
        cos = np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)
        dist = 1.0 - cos
    return dist, fallbacks


def centroid_distance_from_traces(
    traces: TraceStore, variant: CentroidVariant
) -> np.ndarray:
    feats = traces.features_mid if variant.epoch == "mid" else traces.features_end
    dist, _ = centroid_distance(
        feats,
        traces.y_assigned,
        traces.pred_end,
        traces.p_assigned[traces.T - 1],
        variant,
    )
    return dist


def compute_metric_table(traces: TraceStore) -> MetricTable:
    raise_if_missing(traces)
    loss = traces.loss
    first, acc, aul, aum = trajectory_metrics(traces, loss)
    acd = centroid_distance_from_traces(traces, ACD_VARIANT)
    scd = centroid_distance_from_traces(traces, SCD_VARIANT)
    last = traces.T - 1
    values = {
        # A copy, so that the table does not keep the whole (T, N) loss.
        "loss_end": loss[last].copy(),
        # The predicted class's probability at the last epoch.
        "confidence_end": np.maximum(traces.p_assigned[last], traces.p_max_other[last]),
        "first_pred_epoch": first.astype(float),
        "acc_over_training": acc,
        "aul": aul,
        "aum": aum,
        "jsd": traces_jsd(traces),
        "acd": acd,
        "scd": scd,
    }
    params = {
        "acd_variant": ACD_VARIANT.describe(),
        "scd_variant": SCD_VARIANT.describe(),
        "first_pred_epoch_sentinel": traces.T + 1,
        "jsd_log_base": "e",
    }
    return MetricTable(ids=traces.ids.copy(), values=values, params=params)


def save_metric_table(table: MetricTable, directory: str | Path) -> list[Path]:
    """Write metrics.json (variant parameters) and the metrics.csv table."""
    params_paths = save_arrays(directory, "metrics", table.params)
    csv_path = Path(directory) / "metrics.csv"
    # A Python float's repr round-trips, and "\r\n" ends every line as in
    # the csv module's default dialect.  The rows are formatted 1024 at a
    # time: the text of the whole table at once would be the stage's
    # largest allocation.
    with open(csv_path, "w", newline="") as f:
        f.write(",".join(["id", *COLUMNS]) + "\r\n")
        for lo in range(0, len(table.ids), 1024):
            block = slice(lo, lo + 1024)
            rows = zip(table.ids[block].tolist(), *(table.values[c][block].tolist() for c in COLUMNS))
            f.write("\r\n".join([",".join(map(repr, row)) for row in rows]) + "\r\n")
    return [csv_path, *params_paths]


def load_metric_table(directory: str | Path) -> MetricTable:
    """Read a table written by save_metric_table.  A header other than
    `id` plus COLUMNS, a row of another width, a field that is not a number
    or an id that is not an integer raises ConfigurationError naming the
    file; so does a `metrics.json` that is missing or not a JSON object."""
    params, _ = load_arrays(directory, "metrics", {})
    csv_path = Path(directory) / "metrics.csv"
    header = ["id", *COLUMNS]

    def damaged(what: str) -> ConfigurationError:
        return ConfigurationError(f"artifact {csv_path.name} {what}")

    with open(csv_path) as f:
        if f.readline().rstrip("\n").split(",") != header:
            raise damaged(f"does not start with the header {','.join(header)}")
        try:
            data = np.loadtxt(f, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise damaged(f"cannot be read: {exc}") from exc
    # Every row one field short still parses, so the width is checked here.
    if data.shape[1] != len(header):
        raise damaged(f"has {data.shape[1]} fields per row, expected {len(header)}")
    ids = data[:, 0].astype(np.int64)
    if not np.array_equal(ids, data[:, 0]):
        raise damaged("holds an id that is not an integer")
    columns = np.ascontiguousarray(data[:, 1:].T)
    values = {c: columns[j] for j, c in enumerate(COLUMNS)}
    return MetricTable(ids=ids, values=values, params=params)
