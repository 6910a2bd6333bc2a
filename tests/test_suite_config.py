"""The suite's own pytest configuration, run on a test file made up here."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

MADE_UP = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 10


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_is_reported_and_the_session_goes_on(tmp_path):
    # Hypothesis's failure report imports libcst, which warns with a
    # DeprecationWarning; the warning filter made that an INTERNALERROR that
    # ended the session before test_passes ran
    (tmp_path / "test_made_up.py").write_text(MADE_UP)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_made_up.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert "Falsifying example" in done.stdout
    assert "1 failed, 1 passed" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr
