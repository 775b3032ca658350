"""The repo's pytest settings report a failing test instead of aborting the session.

``pyproject.toml`` turns deprecation warnings into errors. When a hypothesis
test fails, hypothesis imports libcst to explain the failing example, and that
import warns; raised as an error it ended the session with ``INTERNALERROR``
and hid every later result.
"""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_HYPOTHESIS_TEST = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def test_failing_hypothesis_test_leaves_the_session_running(tmp_path):
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_probe.py").write_text(FAILING_HYPOTHESIS_TEST)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.returncode == 1
    assert done.stdout.splitlines()[-1].startswith("1 failed, 1 passed in ")
