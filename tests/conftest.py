import threading

import pytest

from loralab import _rng


@pytest.fixture()
def force_cpus(monkeypatch):
    """``force_cpus(n)`` makes the process look as if it may run on n CPUs
    (``_rng.usable_cpus``), until the test ends."""
    def force(cpus):
        monkeypatch.setattr(_rng.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
    return force


@pytest.fixture()
def no_threads(monkeypatch):
    """Starting a thread raises ``AssertionError("a thread was started")``,
    until the test ends."""
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading, "Thread", no_thread)
