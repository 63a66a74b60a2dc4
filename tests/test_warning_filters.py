"""The suite's warning filters (`pyproject.toml`) let a failing hypothesis
test report its example: hypothesis imports libcst to write it, and libcst
raises a DeprecationWarning that the filters would otherwise turn into an
error of the whole run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SUITE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_is_reported(tmp_path):
    (tmp_path / "test_drawn.py").write_text(SUITE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_drawn.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "FAILED test_drawn.py::test_fails" in out
    assert "PASSED test_drawn.py::test_passes" in out
    assert "1 failed, 1 passed" in out
