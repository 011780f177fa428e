"""Fixtures shared by the tests, one of them run around every test."""

import threading

import pytest

# Longest wait for a thread a test left running; a noise prefetch takes
# milliseconds.
THREAD_JOIN_TIMEOUT_S = 2.0


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """After each test, wait a short while for every thread but the main one,
    and fail the test if one is still running: a worker that nobody joins
    (a noise prefetch, say) would otherwise outlive the test that made it."""
    yield
    alive = []
    for thread in threading.enumerate():
        if thread is not threading.main_thread():
            thread.join(THREAD_JOIN_TIMEOUT_S)
            if thread.is_alive():
                alive.append(thread.name)
    assert not alive, f"threads still running after the test: {alive}"


@pytest.fixture
def started_threads(monkeypatch):
    """The threads started during the test, in order."""
    started, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: (started.append(thread), start(thread))[1])
    return started
