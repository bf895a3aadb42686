"""Fixtures every test module shares."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process, running or not reaped: the
    forked parts of the writer and the sampler are reaped on every path."""
    yield
    try:
        pid = os.waitpid(-1, os.WNOHANG)[0]
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process ({f'pid {pid}' if pid else 'still running'})")


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) lets the part rule see n available CPUs; it returns the list
    that gets one entry per `os.fork` from then on."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())

    def see(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        forks.clear()
        return forks
    return see
