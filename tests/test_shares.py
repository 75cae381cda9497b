"""The fork helper: dealing items into shares, running them in forked
children, and reaping every child whatever happens."""

import ast
import os
import signal
from pathlib import Path

import numpy as np
import pytest

import noisesift
from noisesift.shares import run_shares, usable_cpus


def test_run_shares_deals_the_items_costliest_first_round_robin(use_cpus, assert_no_child_left):
    use_cpus(3)
    costs = [1, 5, 5, 0, 9, 2, 5]
    # Each item's result: the process that ran it and that process's share.
    results = run_shares(lambda share: [(os.getpid(), share)] * len(share), costs)
    assert all(i in share for i, (_, share) in enumerate(results))
    shares = dict(results)
    assert shares.pop(os.getpid()) == [4, 6, 3]  # share 0 runs in this process
    assert sorted(shares.values()) == [[1, 5], [2, 0]]
    assert run_shares(lambda share: share, []) == []
    assert_no_child_left()


def test_usable_cpus_follows_the_affinity_mask(use_cpus, monkeypatch):
    use_cpus(3)
    assert usable_cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert usable_cpus() == 1


def test_run_shares_returns_each_result_in_item_order(use_cpus, assert_no_child_left):
    use_cpus(3)
    # Each share's results are larger than a pipe's buffer, so a child
    # blocks on its write until this process reads it.
    results = run_shares(lambda share: [np.repeat(i, 100_000) for i in share], [0] * 7)
    assert [r.tolist() for r in results] == [np.repeat(i, 100_000).tolist() for i in range(7)]
    assert_no_child_left()


def test_a_child_killed_by_a_signal_raises_before_its_output_is_read(
    use_cpus, assert_no_child_left
):
    parent = os.getpid()

    def killed_in_a_child(share):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return share

    use_cpus(2)
    with pytest.raises(ChildProcessError, match=r"share 1: process \d+ .* signal 9"):
        run_shares(killed_in_a_child, [0] * 4)
    assert_no_child_left()


def test_only_the_shares_module_starts_or_ends_processes():
    process_calls = {"fork", "waitpid", "kill", "_exit"}
    users = {name: set() for name in process_calls}
    for path in Path(noisesift.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
                and node.attr in process_calls
            ):
                users[node.attr].add(path.name)
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                for alias in node.names:
                    if alias.name in process_calls:
                        users[alias.name].add(path.name)
    assert users == {name: {"shares.py"} for name in process_calls}
