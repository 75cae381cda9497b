"""Per-sample training-dynamics metrics computed from a TraceStore.

Covers end-of-training values (loss, confidence, JSD), trajectory
aggregates (first prediction epoch, accuracy over training, AUL, AUM) and
the centroid-distance family whose (epoch, distance, centroid) corners
are SCD = (mid, euclidean, static) and ACD = (end, cosine, adaptive).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .mlp import TraceStore


@dataclass(frozen=True)
class CentroidVariant:
    epoch: str = "end"          # "mid" | "end"
    distance: str = "cosine"    # "euclidean" | "cosine"
    centroid: str = "adaptive"  # "static" | "adaptive"
    adaptive_conf_threshold: float = 0.5

    def validate(self) -> None:
        if self.epoch not in ("mid", "end"):
            raise ConfigurationError(f"unknown snapshot epoch {self.epoch!r}")
        if self.distance not in ("euclidean", "cosine"):
            raise ConfigurationError(f"unknown distance {self.distance!r}")
        if self.centroid not in ("static", "adaptive"):
            raise ConfigurationError(f"unknown centroid rule {self.centroid!r}")
        if not 0.0 < self.adaptive_conf_threshold < 1.0:
            raise ConfigurationError("adaptive_conf_threshold must be in (0, 1)")

    def tag(self) -> str:
        return f"{self.epoch}-{self.distance}-{self.centroid}"


SCD_VARIANT = CentroidVariant(epoch="mid", distance="euclidean", centroid="static")
ACD_VARIANT = CentroidVariant(epoch="end", distance="cosine", centroid="adaptive")

COLUMNS = (
    "loss_end",
    "confidence_end",
    "first_pred_epoch",
    "acc_over_training",
    "aul",
    "aum",
    "jsd",
    "acd",
    "scd",
)


@dataclass
class MetricTable:
    ids: np.ndarray
    values: dict[str, np.ndarray]   # column name -> per-sample array
    params: dict                    # variant parameters, persisted as sidecar

    def column(self, name: str) -> np.ndarray:
        return self.values[name]


def jensen_shannon_onehot(probs: np.ndarray, assigned: np.ndarray) -> np.ndarray:
    """JSD in nats between each probability row and the one-hot assigned
    label; bounded by ln 2."""
    rows = np.arange(len(assigned))
    p_c = probs[rows, assigned]
    m = probs / 2.0
    m_c = (p_c + 1.0) / 2.0
    # KL(P || M): the assigned coordinate of M differs from probs/2.
    with np.errstate(divide="ignore", invalid="ignore"):
        term = probs * (np.log(probs) - np.log(m))
        term = np.where(probs > 0, term, 0.0)
    kl_p = term.sum(axis=1)
    kl_p += np.where(p_c > 0, p_c * (np.log(m[rows, assigned]) - np.log(m_c)), 0.0)
    # KL(onehot || M) = -log M[assigned]
    kl_q = -np.log(m_c)
    return 0.5 * (kl_p + kl_q)


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
    traces: TraceStore, aum_literal: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(first_pred_epoch, acc_over_training, aul, aum) per sample.

    first_pred_epoch is the sentinel T+1 for samples never predicted as
    their assigned class.  The default AUM is the assigned-class margin
    (1/T) sum_t (p_assigned - max other); aum_literal switches to the
    predicted-class margin (p_pred - runner-up), which is non-negative.
    """
    raise_if_missing(traces)
    T = traces.T
    correct = traces.pred == traces.y_assigned[None, :]
    acc = correct.mean(axis=0)
    ever = correct.any(axis=0)
    first = np.where(ever, correct.argmax(axis=0) + 1, T + 1).astype(np.int64)
    aul = traces.loss.sum(axis=0)
    if aum_literal:
        aum = (traces.p_pred - traces.p_runner_up).mean(axis=0)
    else:
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
    there with p_assigned >= threshold).  Classes with no members under
    the adaptive rule fall back to the static centroid; their indices are
    returned for provenance.
    """
    variant.validate()
    classes = np.unique(assigned)
    centroids = np.zeros((int(classes.max()) + 1, features.shape[1]))
    fallbacks: list[int] = []
    for c in classes:
        in_class = assigned == c
        if variant.centroid == "static":
            members = in_class
        else:
            suspected = (pred_end == c) & ~in_class
            confident = in_class & (p_assigned_end >= variant.adaptive_conf_threshold)
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
        traces.pred[traces.T - 1],
        traces.p_assigned[traces.T - 1],
        variant,
    )
    return dist


def compute_metric_table(
    traces: TraceStore,
    aum_literal: bool = False,
    acd_variant: CentroidVariant = ACD_VARIANT,
    scd_variant: CentroidVariant = SCD_VARIANT,
) -> MetricTable:
    raise_if_missing(traces)
    first, acc, aul, aum = trajectory_metrics(traces, aum_literal=aum_literal)
    acd = centroid_distance_from_traces(traces, acd_variant)
    scd = centroid_distance_from_traces(traces, scd_variant)
    values = {
        "loss_end": traces.loss[traces.T - 1],
        "confidence_end": traces.p_pred[traces.T - 1],
        "first_pred_epoch": first.astype(float),
        "acc_over_training": acc,
        "aul": aul,
        "aum": aum,
        "jsd": traces_jsd(traces),
        "acd": acd,
        "scd": scd,
    }
    params = {
        "aum_literal": aum_literal,
        "acd_variant": vars(acd_variant).copy(),
        "scd_variant": vars(scd_variant).copy(),
        "first_pred_epoch_sentinel": traces.T + 1,
        "jsd_log_base": "e",
    }
    return MetricTable(ids=traces.ids.copy(), values=values, params=params)


def save_metric_table(
    table: MetricTable, directory: str | Path, prefix: str = "metrics"
) -> list[Path]:
    """Write <prefix>.json (variant parameters) and the <prefix>.csv table."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    params_path = directory / f"{prefix}.json"
    params_path.write_text(json.dumps(table.params, indent=2))
    csv_path = directory / f"{prefix}.csv"
    with open(csv_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["id"] + list(COLUMNS))
        for i in range(len(table.ids)):
            w.writerow(
                [int(table.ids[i])]
                + [repr(float(table.values[c][i])) for c in COLUMNS]
            )
    return [csv_path, params_path]


def load_metric_table(directory: str | Path, prefix: str = "metrics") -> MetricTable:
    """Read a table written by save_metric_table.  A header other than
    `id` plus COLUMNS, a row of another width, or a field that is not a
    number raises ConfigurationError naming the file."""
    directory = Path(directory)
    params = json.loads((directory / f"{prefix}.json").read_text())
    csv_path = directory / f"{prefix}.csv"
    with open(csv_path, newline="") as f:
        rows = list(csv.reader(f))
    header = ["id", *COLUMNS]
    if not rows or rows[0] != header:
        raise ConfigurationError(
            f"artifact {csv_path.name} does not start with the header {','.join(header)}"
        )
    rows = rows[1:]
    for line, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ConfigurationError(
                f"artifact {csv_path.name} line {line} has {len(row)} fields, expected {len(header)}"
            )
    try:
        ids = np.array([int(r[0]) for r in rows], dtype=np.int64)
        values = {
            c: np.array([float(r[j + 1]) for r in rows]) for j, c in enumerate(COLUMNS)
        }
    except ValueError as exc:
        raise ConfigurationError(f"artifact {csv_path.name} cannot be read: {exc}") from exc
    return MetricTable(ids=ids, values=values, params=params)
