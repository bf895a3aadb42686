"""The test run's own configuration: a failing test is reported, not fatal."""

import subprocess
import sys
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
