"""Shared fixtures of the test suite."""

import gc
import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves a thread running it did not find: every
    worker that simulate starts is joined before simulate returns."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert not left, f"threads left running: {left}"


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail a test that leaves the cyclic garbage collector disabled: the
    engines pause it only for the length of a call."""
    yield
    enabled = gc.isenabled()
    gc.enable()
    assert enabled, "the cyclic garbage collector was left disabled"
