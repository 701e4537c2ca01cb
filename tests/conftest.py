"""Shared test setup.

Monte Carlo results depend on (seed, samples, stream count).  The stream
count defaults to 4 on every machine; pinning OPLIMITS_WORKERS to that value
keeps the suite independent of an override set in the caller's environment.
"""

import os

import pytest

os.environ["OPLIMITS_WORKERS"] = "4"


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(count)`` makes the process look as if it may run on ``count`` CPUs."""

    def set_count(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)

    return set_count
