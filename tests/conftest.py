"""Fixtures shared by the scan tests."""

import os

import pytest

from tmwitness import oracle, scanner


class ForkCounter:
    """os.fork, counting the worker processes that scans fork from this process."""

    def __init__(self, fork):
        self.fork = fork
        self.pids = []
        self.seen = 0

    def __call__(self):
        pid = self.fork()
        if pid:
            self.pids.append(pid)
        return pid

    def taken(self):
        """The workers forked since the last call."""
        count, self.seen = len(self.pids) - self.seen, len(self.pids)
        return count


@pytest.fixture
def forks(monkeypatch):
    if not hasattr(os, "fork"):
        pytest.skip("the scan forks its workers only where os.fork exists")
    counter = ForkCounter(os.fork)
    monkeypatch.setattr(os, "fork", counter)
    return counter


@pytest.fixture
def small_tasks(monkeypatch, forks):
    """Eight odd cores a task, so a range of a few hundred k splits into several
    tasks and jobs > 1 forks real workers; gives the fork counter."""
    monkeypatch.setattr(scanner, "_CORE_CHUNK", 8)
    return forks


@pytest.fixture
def plant(monkeypatch):
    """plant(fs={k: f}, zeros={k: zero_min}) makes the scan's oracle answer those
    for their odd cores and the true walk for every other, and returns the list
    of the cores it is asked about in this process. Forked workers inherit the
    plant."""
    walk = oracle.f_and_zero_mins

    def planted(fs=None, zeros=None):
        fs, zeros, asked = fs or {}, zeros or {}, []

        def answers(ks):
            asked.extend(ks)
            true_fs, true_zeros = walk(ks)
            return [fs.get(k, f) for k, f in zip(ks, true_fs)], [zeros.get(k, z) for k, z in zip(ks, true_zeros)]

        monkeypatch.setattr(oracle, "f_and_zero_mins", answers)
        return asked

    return planted
