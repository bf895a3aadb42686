"""The test run's own configuration: a failing test is reported, not fatal."""

import re
import subprocess
import sys
import time
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_GIVEN = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_after():
    pass
'''


def test_failing_given_test_is_reported_and_the_run_goes_on(tmp_path):
    # warnings are errors in this suite; hypothesis's failure report emits a
    # DeprecationWarning inside a pytest hook, which must not abort the run
    # with INTERNALERROR before the next test
    (tmp_path / "test_given.py").write_text(FAILING_GIVEN)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path / "test_given.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout[-2000:]
    assert run.returncode == 1


LEAKING_FORK = '''
import os
import time


def test_leaks_a_running_child():
    if os.fork() == 0:
        try:
            time.sleep(60.0)
        finally:
            os._exit(0)


def test_after():
    pass
'''


def test_a_leaked_child_fails_only_its_own_test(tmp_path):
    # the shared conftest names the child still running, kills and reaps it,
    # and the next test, which forks nothing, passes
    (tmp_path / "conftest.py").write_text((Path(__file__).parent / "conftest.py").read_text())
    (tmp_path / "test_leak.py").write_text(LEAKING_FORK)
    t0 = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path / "test_leak.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "1 failed, 1 passed" in run.stdout, run.stdout[-2000:]
    assert re.search(r"the test left a child process \(pid \d+, still running\)", run.stdout)
    assert time.perf_counter() - t0 < 30.0      # the child was killed, not waited for
