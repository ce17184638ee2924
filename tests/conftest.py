"""Fixtures shared by the scan tests."""

import concurrent.futures

import pytest

from tmwitness import scanner


@pytest.fixture
def real_pools(monkeypatch):
    """Eight odd cores a task, so a range of a few hundred k splits into several
    tasks and jobs > 1 starts a real process pool; yields each pool's size. The
    scan looks the pool class up in concurrent.futures when it starts one, so
    that is where the recording class goes."""
    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(scanner, "_CORE_CHUNK", 8)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes
