"""Shared fixtures: a tiny grid for fast unit tests and one fully trained
default-grid imbalance run reused by the partition/evaluation tests."""

import os
import time

import numpy as np
import pytest

from noisesift import GridSpec, compute_metric_table, generate_base
from noisesift.pipeline import experiment, make_datasets


@pytest.fixture
def small_spec():
    return GridSpec(
        levels=3,
        classes_per_cell=1,
        per_class_count=16,
        input_dim=4,
        seed=0,
    )


@pytest.fixture
def small_train(small_spec):
    train, _ = generate_base(small_spec)
    return train


@pytest.fixture(scope="session")
def imbalance_run():
    """Seed-0 run of the default config (imbalance hardness): train and test
    sets, traces, metric table and the seconds it took to build.
    Session-scoped because training dominates the suite's runtime."""
    t0 = time.perf_counter()
    exp = experiment({"seed": 0})
    train, test, _oracle, _provenance = make_datasets(exp)
    _model, traces = exp.train_model(train)
    table = compute_metric_table(traces)
    return {
        "train": train,
        "test": test,
        "traces": traces,
        "table": table,
        "seconds": time.perf_counter() - t0,
    }


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def use_cpus(monkeypatch):
    """A function that makes `os.sched_getaffinity` report n usable CPUs
    (never more than 3 in these tests), until the test ends."""

    def use(n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    return use


@pytest.fixture
def assert_no_child_left():
    """A check that this process has no child process left, reaped or not."""

    def check() -> None:
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    return check


@pytest.fixture
def forked(monkeypatch):
    """The pids of the children that `os.fork` starts from now on, until
    the test ends or calls `refuse_fork`."""
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


@pytest.fixture
def refuse_fork(monkeypatch):
    """A function that makes every later `os.fork` fail the test."""

    def refused_fork():
        raise AssertionError("a process was started")

    return lambda: monkeypatch.setattr(os, "fork", refused_fork)
