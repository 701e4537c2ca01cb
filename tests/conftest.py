"""Shared test setup."""

import faulthandler
import os
import threading

import pytest


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(count)`` makes the process look as if it may run on ``count`` CPUs."""

    def set_count(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)

    return set_count


@pytest.fixture
def watchdog():
    """Ends the test process with every thread's traceback after 60 s, so
    threads stuck at a barrier fail the run instead of hanging it."""
    faulthandler.dump_traceback_later(60, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def started_threads(monkeypatch):
    """The list of every ``threading.Thread`` started while the test runs."""
    started = []
    start = threading.Thread.start

    def record(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", record)
    return started
