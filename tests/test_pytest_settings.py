"""The pytest settings in ``pyproject.toml`` keep a failing run going."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY_AND_PASSING_TEST = '''
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(database=None)
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    """A failing ``@given`` test makes hypothesis import libcst to write
    its patch file, and libcst's deprecation warning must not become an
    internal error under ``filterwarnings = error``: the run reports the
    failure, goes on to the next test, and exits 1, not 3."""
    (tmp_path / "test_pair.py").write_text(FAILING_PROPERTY_AND_PASSING_TEST)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
