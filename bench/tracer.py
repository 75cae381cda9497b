"""Span tracer for the pipeline benchmark.

The tracer wraps the public functions of each noisesift layer from the
outside, so the package itself carries no tracing code.  Every call into a
wrapped function records a span (name, start, end, parent).  Spans of one
benchmark operation are folded into per-layer metrics: self time (a span's
duration minus the time its child spans cover), call counts and a few
exact work counts.

`pipeline`, `evaluation` and `partition` bind names with
`from .x import f`, and `pipeline.STAGE_FUNCS` holds the stage functions
in a dict, so a probe replaces every binding of the original function in
every loaded noisesift module, not just the one in the defining module.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

MB = 1e6


@dataclass
class OpTrace:
    """Spans and counters of one benchmark operation."""

    spans: list[tuple[str, float, float, int]] = field(default_factory=list)
    self_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    total_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    trace_bytes: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Probe:
    """One wrapped function.

    `span` names the span, or computes the name from the call arguments.
    `count` adds exact work counts to the operation from the arguments and
    the result.  A call made while `skip_under` is the innermost open span
    records no span of its own; its time stays in that parent's self time.
    """

    module: str
    attr: str
    span: str | Callable[[tuple, dict], str]
    count: Callable[[OpTrace, tuple, dict, object], None] | None = None
    skip_under: str | None = None


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_sample_epochs(op: OpTrace, args, kwargs, result) -> None:
    dataset, cfg = _arg(args, kwargs, 1, "dataset"), _arg(args, kwargs, 2, "cfg")
    op.counts["mlp.sample_epochs"] += len(dataset) * cfg.epochs


def _trace_files_counter(dir_pos: int) -> Callable:
    def count(op: OpTrace, args, kwargs, result) -> None:
        directory = Path(_arg(args, kwargs, dir_pos, "directory"))
        prefix = kwargs.get("prefix", args[dir_pos + 1] if len(args) > dir_pos + 1 else "traces")
        op.trace_bytes[str(directory / prefix)] = sum(
            p.stat().st_size for p in directory.glob(f"{prefix}[._]*")
        )

    return count


def _count_em_iters(op: OpTrace, args, kwargs, result) -> None:
    op.counts["gmm.em_iters"] += result.n_iter


def _gmm_span(args, kwargs) -> str:
    return f"gmm.fit_gmm.k{_arg(args, kwargs, 1, 'cfg').k}"


def _pipeline_stage(stage: str) -> Probe:
    return Probe("noisesift.pipeline", f"stage_{stage}", f"pipeline.stage.{stage}")


def make_probes(batch_size: int) -> list[Probe]:
    """Probes for every layer; a `forward_batch` call on at most
    `batch_size` rows is an SGD minibatch, a larger one a full pass."""

    def forward_span(args, kwargs) -> str:
        rows = _arg(args, kwargs, 1, "X").shape[0]
        return "mlp.forward_batch." + ("minibatch" if rows <= batch_size else "full")

    return [
        *(_pipeline_stage(s) for s in ("gen", "train", "metrics", "partition", "eval", "report")),
        Probe("noisesift.pipeline", "Run.mark_complete", "pipeline.manifest"),
        Probe("noisesift.pipeline", "Run.require_stage", "pipeline.manifest"),
        Probe("noisesift.data", "generate_base", "data.generate_base"),
        Probe("noisesift.data", "save_dataset", "data.save_dataset"),
        Probe("noisesift.data", "load_dataset", "data.load_dataset"),
        Probe("noisesift.transforms", "apply_imbalance", "transforms.apply"),
        Probe("noisesift.transforms", "apply_diversification", "transforms.apply"),
        Probe("noisesift.transforms", "apply_boundary_shift", "transforms.apply"),
        Probe("noisesift.transforms", "inject_label_noise", "transforms.inject_label_noise"),
        Probe("noisesift.mlp", "train_with_tracing", "mlp.train_with_tracing",
              count=_count_sample_epochs),
        Probe("noisesift.mlp", "forward_batch", forward_span),
        Probe("noisesift.mlp", "save_traces", "mlp.save_traces", count=_trace_files_counter(1)),
        Probe("noisesift.mlp", "load_traces", "mlp.load_traces", count=_trace_files_counter(0)),
        Probe("noisesift.metrics", "compute_metric_table", "metrics.compute_metric_table"),
        # `run_method` imports this at call time, so patching `metrics` covers
        # it; only the on-demand calls from `run_method` get their own span.
        Probe("noisesift.metrics", "centroid_distance_from_traces", "metrics.centroid_distance",
              skip_under="metrics.compute_metric_table"),
        Probe("noisesift.metrics", "save_metric_table", "metrics.save_metric_table"),
        Probe("noisesift.metrics", "load_metric_table", "metrics.load_metric_table"),
        Probe("noisesift.gmm", "fit_gmm", _gmm_span, count=_count_em_iters),
        Probe("noisesift.gmm", "responsibilities", "gmm.responsibilities"),
        Probe("noisesift.partition", "run_method", "partition.run_method"),
        Probe("noisesift.partition", "save_partition", "partition.save_partition"),
        Probe("noisesift.partition", "load_partition", "partition.load_partition"),
        Probe("noisesift.evaluation", "retrain_on_subset", "evaluation.retrain_on_subset"),
        Probe("noisesift.evaluation", "score_partition", "evaluation.score_partition"),
    ]


class Tracer:
    """Installs the probes on enter and restores every binding on exit."""

    def __init__(self, probes: list[Probe]):
        self._probes = probes
        self._restore: list[tuple[object, str, object]] = []
        self._stack: list[list] = []   # open spans: [name, start, child_s, index]
        self.op = OpTrace()

    def __enter__(self) -> "Tracer":
        for probe in self._probes:
            self._install(probe)
        return self

    def __exit__(self, *exc) -> None:
        for holder, key, original in reversed(self._restore):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._restore.clear()

    def _install(self, probe: Probe) -> None:
        owner = sys.modules[probe.module]
        *path, attr = probe.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapped = self._wrap(probe, original)
        if path:  # a method: the class attribute is its only binding
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            return
        for name, module in list(sys.modules.items()):
            if not (name == "noisesift" or name.startswith("noisesift.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, original))
                    setattr(module, key, wrapped)
                elif isinstance(value, dict):
                    for dkey, dvalue in value.items():
                        if dvalue is original:
                            self._restore.append((value, dkey, original))
                            value[dkey] = wrapped

    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if probe.skip_under and stack and stack[-1][0] == probe.skip_under:
                return fn(*args, **kwargs)
            name = probe.span if isinstance(probe.span, str) else probe.span(args, kwargs)
            op = self.op
            parent = stack[-1][3] if stack else -1
            frame = [name, 0.0, 0.0, len(op.spans)]
            op.spans.append((name, 0.0, 0.0, parent))
            stack.append(frame)
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                op.spans[frame[3]] = (name, frame[1], end, parent)
                op.self_s[name] += duration - frame[2]
                op.total_s[name] += duration
                op.calls[name] += 1
                if stack:
                    stack[-1][2] += duration
            if probe.count is not None:
                probe.count(op, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def layer_metrics(op: OpTrace) -> dict[str, float]:
    """Per-layer metrics of one operation, keyed by their benchmark names."""
    s, calls = op.self_s, op.calls
    train_total = op.total_s.get("mlp.train_with_tracing", 0.0)
    sample_epochs = op.counts.get("mlp.sample_epochs", 0.0)
    out = {f"pipeline.stage.{st}_s": s.get(f"pipeline.stage.{st}", 0.0)
           for st in ("gen", "train", "metrics", "partition", "eval", "report")}
    out.update({
        "pipeline.manifest_s": s.get("pipeline.manifest", 0.0),
        "data.generate_base_s": s.get("data.generate_base", 0.0),
        "data.save_dataset_s": s.get("data.save_dataset", 0.0),
        "data.load_dataset_s": s.get("data.load_dataset", 0.0),
        "data.load_dataset_calls": calls.get("data.load_dataset", 0),
        "transforms.apply_s": s.get("transforms.apply", 0.0),
        "transforms.inject_label_noise_s": s.get("transforms.inject_label_noise", 0.0),
        "mlp.train_with_tracing_s": s.get("mlp.train_with_tracing", 0.0),
        "mlp.train_with_tracing_calls": calls.get("mlp.train_with_tracing", 0),
        "mlp.sample_epochs": sample_epochs,
        "mlp.sample_epochs_per_s": sample_epochs / train_total if train_total else 0.0,
        "mlp.forward_batch.minibatch_s": s.get("mlp.forward_batch.minibatch", 0.0),
        "mlp.forward_batch.minibatch_calls": calls.get("mlp.forward_batch.minibatch", 0),
        "mlp.forward_batch.full_s": s.get("mlp.forward_batch.full", 0.0),
        "mlp.forward_batch.full_calls": calls.get("mlp.forward_batch.full", 0),
        "mlp.save_traces_s": s.get("mlp.save_traces", 0.0),
        "mlp.load_traces_s": s.get("mlp.load_traces", 0.0),
        "mlp.load_traces_calls": calls.get("mlp.load_traces", 0),
        "mlp.trace_mb": sum(op.trace_bytes.values()) / MB,
        "metrics.compute_metric_table_s": s.get("metrics.compute_metric_table", 0.0),
        "metrics.centroid_distance_s": s.get("metrics.centroid_distance", 0.0),
        "metrics.centroid_distance_calls": calls.get("metrics.centroid_distance", 0),
        "metrics.save_metric_table_s": s.get("metrics.save_metric_table", 0.0),
        "metrics.load_metric_table_s": s.get("metrics.load_metric_table", 0.0),
        "gmm.fit_gmm.k2_s": s.get("gmm.fit_gmm.k2", 0.0),
        "gmm.fit_gmm.k3_s": s.get("gmm.fit_gmm.k3", 0.0),
        "gmm.fit_gmm_calls": calls.get("gmm.fit_gmm.k2", 0) + calls.get("gmm.fit_gmm.k3", 0),
        "gmm.em_iters": op.counts.get("gmm.em_iters", 0.0),
        "gmm.responsibilities_s": s.get("gmm.responsibilities", 0.0),
        "partition.run_method_s": s.get("partition.run_method", 0.0),
        "partition.run_method_calls": calls.get("partition.run_method", 0),
        "partition.save_partition_s": s.get("partition.save_partition", 0.0),
        "partition.load_partition_s": s.get("partition.load_partition", 0.0),
        "evaluation.retrain_on_subset_s": s.get("evaluation.retrain_on_subset", 0.0),
        "evaluation.retrain_on_subset_calls": calls.get("evaluation.retrain_on_subset", 0),
        "evaluation.score_partition_s": s.get("evaluation.score_partition", 0.0),
    })
    return out
