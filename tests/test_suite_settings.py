"""The suite's own pytest settings: a failing Hypothesis test is reported
as a failure and the session goes on to the tests after it."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

_PAIR = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_drawn(n):
    assert n < 5


def test_plain():
    assert 1 == 2
'''


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_pair.py").write_text(_PAIR, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(CONFIG),
         "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "FAILED test_pair.py::test_drawn" in result.stdout
    assert "FAILED test_pair.py::test_plain" in result.stdout
    assert "2 failed" in result.stdout
    assert result.returncode == 1
