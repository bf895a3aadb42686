"""Fixtures every test module shares."""

import contextlib
import os
import signal

import pytest


@pytest.fixture(autouse=True)
def no_child_left(monkeypatch):
    """The pids of the children each `os.fork` of the test made; the forked
    parts of the writer and the sampler are reaped on every path, and
    `pytest_runtest_call` fails a test that leaves one."""
    pids, fork = [], os.fork

    def recorded_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded_fork)
    return pids


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Run the test, then kill and reap each child it left running and reap
    each one it left unreaped; a test that passed fails, naming them.  A
    leaking test fails alone: the child is gone before the next test."""
    left = []
    try:
        result = yield
    finally:
        for pid in item.funcargs.get("no_child_left", ()):
            with contextlib.suppress(ChildProcessError):     # reaped by the test
                if os.waitpid(pid, os.WNOHANG)[0] == 0:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    left.append(f"pid {pid}, still running")
                else:
                    left.append(f"pid {pid}")
        with contextlib.suppress(ChildProcessError):     # a child not made by os.fork
            pid = os.waitpid(-1, os.WNOHANG)[0]
            left.append(f"pid {pid}" if pid else "still running")
    if left:
        pytest.fail(f"the test left a child process ({'; '.join(left)})")
    return result


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
