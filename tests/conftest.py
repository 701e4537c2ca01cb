"""Shared test setup."""

import os

import pytest

import oplimits.operators


@pytest.fixture(autouse=True)
def fresh_poisson_window():
    """Start every test without a memoised Poisson window.

    A memo hit skips the log k! table, so without this a test that swaps
    the table could be served a window built from another test's table.
    """
    oplimits.operators._poisson_weights.cache_clear()


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(count)`` makes the process look as if it may run on ``count`` CPUs."""

    def set_count(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)

    return set_count
