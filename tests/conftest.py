"""Fixtures shared by the scan tests."""

import pytest

from tmwitness import scanner


@pytest.fixture
def real_pools(monkeypatch):
    """Eight odd cores a task, so a range of a few hundred k splits into several
    tasks and jobs > 1 starts a real process pool; yields each pool's size."""
    sizes = []

    class RecordingPool(scanner.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(scanner, "_CORE_CHUNK", 8)
    monkeypatch.setattr(scanner, "ProcessPoolExecutor", RecordingPool)
    return sizes
