"""A failing hypothesis test is reported in full under this repo's pytest
settings, whose filterwarnings turn every DeprecationWarning into an error."""

import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(n):
    assert n < 10
"""


def test_failing_given_test_prints_its_example(tmp_path):
    # on failure hypothesis imports its patching helpers, whose dependencies may
    # warn at import; the report must still show the example and, under CI, its blob
    (tmp_path / "test_failing.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "test_failing.py"],
        cwd=tmp_path, env=dict(os.environ, CI="true"), capture_output=True, text=True,
        timeout=300)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out and "@reproduce_failure" in out
    assert "INTERNALERROR" not in out
