import pytest

from neumaier.classify import LabeledSweepResult, default_sweep_workers, sweep_labeled


def _workers() -> int:
    return default_sweep_workers()


@pytest.fixture(scope="session")
def sweep_results() -> dict[int, LabeledSweepResult]:
    """One exhaustive labeled sweep per n in 1..6, shared session-wide."""
    return {n: sweep_labeled(n, workers=_workers()) for n in range(1, 7)}


@pytest.fixture(scope="session")
def sweep7() -> LabeledSweepResult:
    """The full n=7 sweep (2^21 graphs); computed once per session."""
    return sweep_labeled(7, workers=_workers())
