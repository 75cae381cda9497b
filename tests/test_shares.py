"""The fork helper: dealing shares, running them in forked children, and
reaping every child whatever happens."""

import os
import signal

import numpy as np
import pytest

from noisesift.shares import deal, run_shares, usable_cpus


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_deal_is_round_robin():
    assert deal(range(7), 3) == [[0, 3, 6], [1, 4], [2, 5]]
    assert deal(["a", "b"], 1) == [["a", "b"]]


def test_usable_cpus_follows_the_affinity_mask(use_cpus, monkeypatch):
    use_cpus(3)
    assert usable_cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert usable_cpus() == 1


def test_run_shares_returns_each_result_in_share_order(use_cpus):
    use_cpus(3)
    shares = deal(range(7), usable_cpus())
    # Each result is larger than a pipe's buffer, so a child blocks on its
    # write until this process reads it.
    results = run_shares(lambda share: np.repeat(share, 100_000), shares)
    assert [r.tolist() for r in results] == [np.repeat(s, 100_000).tolist() for s in shares]
    _assert_no_child_left()


def test_a_child_killed_by_a_signal_raises_before_its_output_is_read(use_cpus):
    parent = os.getpid()

    def killed_in_a_child(share):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return share

    use_cpus(2)
    shares = deal(range(4), usable_cpus())
    with pytest.raises(ChildProcessError, match=r"share 1: process \d+ .* signal 9"):
        run_shares(killed_in_a_child, shares)
    _assert_no_child_left()
