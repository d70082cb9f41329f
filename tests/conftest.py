import concurrent.futures
import os

import pytest

from neumaier.classify import LabeledSweepResult, sweep_labeled


@pytest.fixture(scope="session")
def sweep_results() -> dict[int, LabeledSweepResult]:
    """One exhaustive labeled sweep per n in 1..6, shared session-wide."""
    return {n: sweep_labeled(n, workers=8) for n in range(1, 7)}


@pytest.fixture(scope="session")
def sweep7() -> LabeledSweepResult:
    """The full n=7 sweep (2^21 graphs); computed once per session."""
    return sweep_labeled(7, workers=8)


@pytest.fixture
def serial_pool(monkeypatch) -> list[tuple[int, int]]:
    """A stand-in process pool on 2 CPUs: it records (processes, tasks) of
    each pool made and maps in this process, so no process starts however
    many workers are asked for."""
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            items = list(items)
            pools.append((self.max_workers, -(-len(items) // chunksize)))
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    return pools
