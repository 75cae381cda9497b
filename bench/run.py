"""Pipeline benchmark for noisesift.

Run from the repository root:

    python3 bench/run.py --workload fresh-default --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload fresh-default --seed 0 --seconds 30 --trace 1

One process, one client, closed loop: each operation starts after the
previous one has finished.  Operations cycle through the workload's pool
of run directories and repeat until `--seconds` have passed (at least
three, and at least one per pool instance).  Before the first operation
and after each one the benchmark times a fixed reference computation that
uses nothing from the package; an operation's relative time is its time
over the mean of the two reference times around it, so that the host's
speed, which drifts in phases of seconds to minutes, cancels.  `run_rel`
takes the median relative time of each instance and averages it over the
pool.

With `--trace 0` the benchmark prints the end-to-end metrics; with
`--trace 1` it alternates untraced and traced operations and prints the
per-layer metrics of the traced ones.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

BLAS runs on one thread.  Run directories live in a temporary directory
inside the current directory and are removed afterwards.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import csv
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
EXPECTED_HASHES = BENCH / "expected_hashes.json"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import noisesift  # noqa: E402
import tracer as T  # noqa: E402  (a sibling module)
import workloads as W  # noqa: E402

DEFAULT_SEED = 0
MIN_OPS = 3
MIN_TRACED_OPS = 2


END_TO_END_UNITS = {
    "run_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB", "artifact_mb": "MB",
}

# Inputs of the reference computation: a minibatch forward pass of the
# default MLP's shape, and rows of floats for a CSV round trip.
_REF_RNG = np.random.default_rng(0)
_REF_X = _REF_RNG.standard_normal((64, 16))
_REF_W = _REF_RNG.standard_normal((16, 32))
_REF_ROWS = _REF_RNG.standard_normal((2000, 8)).tolist()
REF_REPEATS = 3


def reference() -> float:
    """Wall seconds of a fixed computation like the pipeline's own work:
    small matrix products, as in training, and CSV text written and parsed,
    as in the trace codec.  It needs nothing from the package, so a change
    to the package cannot move it; only the host's speed does."""
    t0 = time.perf_counter()
    for _ in range(REF_REPEATS):
        for _ in range(4000):
            np.maximum(_REF_X @ _REF_W, 0.0).sum()
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in _REF_ROWS:
            writer.writerow([repr(v) for v in row])
        for line in csv.reader(io.StringIO(buf.getvalue())):
            [float(v) for v in line]
    return time.perf_counter() - t0


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
    }


def cold_import() -> None:
    """Import the package in a fresh interpreter, as every CLI call does.

    No timeout: with one, `subprocess` polls for the child's exit in steps
    of up to 50 ms, which would show up in `setup_s`.
    """
    subprocess.run(
        [sys.executable, "-c", "import noisesift.pipeline"],
        env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
    )


def set_up(workload, seed: int, workdir: Path) -> tuple[list[Path], Path, list[float]]:
    """Set the workload up `setup_reps` times, each time after a cold
    import; returns the config paths and directory of the last set-up, and
    the set-up times."""
    times = []
    for rep in range(workload.setup_reps):
        rep_dir = workdir / f"setup{rep}"
        rep_dir.mkdir()
        t0 = time.perf_counter()
        cold_import()
        configs = W.set_up(workload, seed, rep_dir)
        times.append(time.perf_counter() - t0)
        if rep < workload.setup_reps - 1:
            shutil.rmtree(rep_dir)
    return configs, rep_dir, times


def expected_hashes(workload, seed: int) -> dict[str, str] | None:
    if seed != DEFAULT_SEED:
        return None
    return json.loads(EXPECTED_HASHES.read_text())[workload.name]


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Set up, then run operations for `seconds`; returns raw results.

    Untraced runs take the pool's instances in turn.  Traced runs give each
    instance an untraced and then a traced operation, so that every traced
    operation has an untraced one of the same instance next to it."""
    configs, setup_dir, setup_times = set_up(workload, seed, workdir)
    probes = T.make_probes(W.BATCH_SIZE)
    expected = expected_hashes(workload, seed)
    seen = {}  # without committed hashes: each output's hash at its first operation
    ops = []  # dicts: instance, seconds, rel, traced, ok, artifact_mb, layers
    refs = [reference()]  # refs[i] and refs[i + 1] bracket operation i
    deadline = time.perf_counter() + seconds
    while True:
        n_traced = sum(op["traced"] for op in ops)
        covered = {op["instance"] for op in ops if op["traced"] == trace}
        enough = (len(ops) >= MIN_OPS and len(covered) == workload.pool
                  and (not trace or n_traced >= MIN_TRACED_OPS))
        if enough and time.perf_counter() >= deadline:
            break
        traced = trace and len(ops) % 2 == 1
        instance = (len(ops) // (2 if trace else 1)) % workload.pool
        root = setup_dir if workload.rerun else workdir / f"op{len(ops)}"
        run_dir = W.run_dir(root, instance)
        op = {"instance": instance, "traced": traced, "ok": False,
              "artifact_mb": None, "layers": None}
        gc.collect()
        tracer = T.Tracer(probes) if traced else None
        try:
            with tracer or nullcontext():
                t0 = time.perf_counter()
                try:
                    W.operation(workload, configs[instance], run_dir)
                finally:
                    op["seconds"] = time.perf_counter() - t0
            hashes = W.output_hashes([run_dir])
            if expected is None:
                want = {k: seen.setdefault(k, v) for k, v in hashes.items()}
            else:
                want = {k: expected[k] for k in hashes}
            if hashes != want:
                raise AssertionError(f"output hashes {hashes} != expected {want}")
            W.check_outputs(run_dir, configs[instance])
            op["artifact_mb"] = W.directory_mb([run_dir])
            op["ok"] = True
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
        if tracer:
            op["layers"] = T.layer_metrics(tracer.op)
        if not workload.rerun:
            shutil.rmtree(root, ignore_errors=True)
        refs.append(reference())
        op["rel"] = op["seconds"] / statistics.fmean(refs[-2:])
        ops.append(op)
    return {"setup_times": setup_times, "ops": ops, "refs": refs,
            "hashes": expected if expected is not None else seen}


def pool_mean(ops: list[dict], value) -> float:
    """Mean over the pool's instances of the median of `value(op)` over
    each instance's operations; the plain median when the pool is one."""
    by_instance = defaultdict(list)
    for op in ops:
        by_instance[op["instance"]].append(value(op))
    return statistics.fmean(statistics.median(v) for v in by_instance.values())


def summarize(raw: dict, trace: bool) -> tuple[dict, dict]:
    """(metrics as {name: value}, summary facts for the human lines)."""
    ops = raw["ops"]

    def pick(traced: bool) -> list[dict]:  # successful ops, or all if none succeeded
        kind = [op for op in ops if op["traced"] == traced]
        return [op for op in kind if op["ok"]] or kind

    untraced = pick(False)
    facts = {
        "attempted": len(ops),
        "failed": sum(not op["ok"] for op in ops),
        "ops_untraced": len(untraced),
        "run_s": pool_mean(untraced, lambda op: op["seconds"]),
        "ref_s": statistics.median(raw["refs"]),
    }
    if not trace:
        sized = [op for op in untraced if op["ok"]]
        metrics = {
            "run_rel": pool_mean(untraced, lambda op: op["rel"]),
            "setup_s": statistics.median(raw["setup_times"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "artifact_mb": pool_mean(sized, lambda op: op["artifact_mb"]) if sized else 0.0,
        }
        return metrics, facts
    traced = pick(True)
    names = traced[0]["layers"].keys()
    metrics = {n: pool_mean(traced, lambda op: op["layers"][n]) for n in names}
    metrics["trace_overhead_s"] = trace_overhead(ops)
    facts["ops_traced"] = len(traced)
    return metrics, facts


def trace_overhead(ops: list[dict]) -> float:
    """Median over traced operations of the traced time minus the mean of
    the untraced operations of the same instance next to it, so that host
    drift between distant operations cancels."""
    diffs = []
    for i, op in enumerate(ops):
        if not op["traced"]:
            continue
        near = [ops[j]["seconds"] for j in (i - 1, i + 1)
                if 0 <= j < len(ops) and not ops[j]["traced"]
                and ops[j]["instance"] == op["instance"]]
        diffs.append(op["seconds"] - statistics.fmean(near))
    return statistics.median(diffs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if SRC not in Path(noisesift.__file__).resolve().parents:
        print(f"noisesift must be imported from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in W.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}")
    workload = W.WORKLOADS[args.workload]
    trace = bool(args.trace)

    with tempfile.TemporaryDirectory(prefix=".bench-", dir=Path.cwd()) as tmp:
        raw = measure(workload, args.seed, args.seconds, trace, Path(tmp))
    metrics, facts = summarize(raw, trace)

    units = {n: layer_unit(n) for n in metrics} if trace else END_TO_END_UNITS
    attempted, failed = facts["attempted"], facts["failed"]
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print(f"env {json.dumps(environment(), sort_keys=True)}")
    print(f"hashes {json.dumps(raw['hashes'], sort_keys=True)}")
    if trace:
        print(f"ops: {facts['ops_traced']} traced, {facts['ops_untraced']} untraced")
    else:
        print(f"run_rel is over {facts['ops_untraced']} operations on "
              f"{workload.pool} pool instance(s); "
              f"setup_s the median of {workload.setup_reps} set-ups")
    print(f"run_s {facts['run_s']:.4f} s (pool mean of median operation)  "
          f"ref_s {facts['ref_s']:.4f} s (median reference)")
    print("op seconds " + " ".join(
        f"{op['instance']}:{op['seconds']:.3f}{'t' if op['traced'] else ''}"
        f"{'' if op['ok'] else '!'}"
        for op in raw["ops"]))
    print("ref seconds " + " ".join(f"{t:.3f}" for t in raw["refs"]))
    print("setup seconds " + " ".join(f"{t:.3f}" for t in raw["setup_times"]))
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6f} {units[name]}")
    print(f"  {'fail_ratio':40s} {failed / attempted:14.6f} ratio ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
