"""Shared test setup."""

import os

import pytest


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(count)`` makes the process look as if it may run on ``count`` CPUs."""

    def set_count(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)

    return set_count
