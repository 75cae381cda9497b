"""Independent items of work split into shares, one per usable CPU.

`run_shares` orders the items costliest first, deals them round-robin
into shares, runs the first share in the calling process and each other
share in an `os.fork`ed child, which sends its results back over a pipe,
and returns the results in item order.  A child starts from a copy of
the caller's memory, so a share function reads its inputs without
copying them, and only the results cross the pipe.  The children are
always reaped: when the caller raises or is interrupted, every child
still running is killed first.
"""

from __future__ import annotations

import os
import pickle
import signal
from typing import Any, BinaryIO, Callable, Sequence, TypeVar

R = TypeVar("R")


def usable_cpus() -> int:
    """The CPUs this process may run on; one where the OS cannot say."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _fork(fn: Callable, share) -> tuple[int, BinaryIO]:
    """Call `fn(share)` in a forked child: (its pid, the read end of a
    pipe, as a binary file, on which it sends the pickled pair (True,
    result) or (False, the exception raised)).  The child leaves only
    through `os._exit`, with status 0 once the pair is written, so it never
    unwinds into its caller's frames and never runs `atexit` handlers."""
    r, w = os.pipe()
    pid = os.fork()
    if pid:
        os.close(w)
        return pid, os.fdopen(r, "rb")
    status = 1
    try:
        os.close(r)
        try:
            outcome = (True, fn(share))
        except BaseException as exc:
            outcome = (False, exc)
        try:
            payload = pickle.dumps(outcome)
        except Exception:  # a result or an exception that does not pickle
            payload = pickle.dumps((False, RuntimeError(repr(outcome[1]))))
        with os.fdopen(w, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _no_result(share: int, pid: int, status: int) -> ChildProcessError:
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        how = f"was killed by signal {-code} ({signal.strsignal(-code)})"
    else:
        how = f"exited with status {code}"
    return ChildProcessError(f"share {share}: process {pid} ended without a result: it {how}")


def run_shares(fn: Callable[[list[int]], list[R]], costs: Sequence[Any]) -> list[R]:
    """One result per item i in range(len(costs)), in item order.

    The items, sorted by `costs[i]` costliest first (a stable sort), are
    dealt round-robin into n shares, one per usable CPU and at most one
    per item: share k holds order[k], order[k + n], ... of that order, so
    share 0 gets the costliest item of every round and each share is
    itself costliest first.  `fn(share)` takes a share's item indices and
    returns one result per index, in that order.  This process runs share
    0 and a forked child each other share, at the same time.

    An exception that `fn` raises is raised here: share 0's at once, a
    child's when that child is reaped, children in share order.  A child
    that does not exit with status 0 raises ChildProcessError naming it
    and its signal or exit status, before its output is read as a result.
    No child outlives the call.  One share starts no process."""
    if not costs:
        return []
    order = sorted(range(len(costs)), key=lambda i: costs[i], reverse=True)
    n = min(len(costs), usable_cpus())
    shares = [order[k::n] for k in range(n)]
    children = []  # (pid, pipe) of each child not yet reaped
    try:
        for share in shares[1:]:
            children.append(_fork(fn, share))
        outcomes = [fn(shares[0])]
        while children:
            pid, pipe = children[0]
            with pipe:
                payload = pipe.read()  # before waiting: a full pipe blocks the child
            _, status = os.waitpid(pid, 0)
            del children[0]
            if status != 0:
                raise _no_result(len(outcomes), pid, status)
            ok, outcome = pickle.loads(payload)
            if not ok:
                raise outcome
            outcomes.append(outcome)
    finally:
        for pid, pipe in children:  # this process failed or was interrupted
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
    results = [None] * len(costs)
    for share, outcome in zip(shares, outcomes):
        for i, result in zip(share, outcome, strict=True):
            results[i] = result
    return results
