"""Run the suite under several Python interpreters, one line each.

    python tests/pythons.py PYTHON [PYTHON ...]

Each argument is the path of an interpreter. One that can import pytest
and hypothesis runs tier-1, ``python -m pytest -q
--continue-on-collection-errors`` from the repository root, with ``src``
put before the caller's ``PYTHONPATH`` (which may be where pytest is).
One that cannot runs the golden corpus alone, ``python tests/golden.py``,
which needs the standard library only. The script needs nothing beyond
the standard library itself and installs nothing. It prints one line per
interpreter, ``ok`` or ``FAIL``, its version, what ran and that run's
summary, and exits 1 if any run failed or an interpreter did not start.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER_1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")
GOLDEN = ("tests/golden.py",)
VERSION = ("-c", "import platform; print(platform.python_version())")
TIMEOUT_S = 1800


def _run(python: str, args: tuple[str, ...], env: dict[str, str]) -> tuple[int, str]:
    """The exit code and output of ``python args`` run from the root."""
    proc = subprocess.run(
        [python, *args], cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=TIMEOUT_S,
    )
    return proc.returncode, proc.stdout


def check(python: str) -> tuple[bool, str]:
    """Whether ``python`` passes what it can run, and its report line."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    try:
        code, version = _run(python, VERSION, env)
    except OSError:  # no such file, or not executable
        code = 1
    if code != 0:
        return False, f"FAIL {'?':<8} {'-':<7} does not start  ({python})"
    has_pytest = _run(python, ("-c", "import pytest, hypothesis"), env)[0] == 0
    mode, args = ("tier-1", TIER_1) if has_pytest else ("golden", GOLDEN)
    try:
        code, out = _run(python, args, env)
    except subprocess.TimeoutExpired:
        code, out = 1, f"no result within {TIMEOUT_S} s"
    lines = [line for line in out.splitlines() if line.strip()]
    summary = lines[-1].strip("= ") if lines else f"exit {code}, no output"
    status = "ok" if code == 0 else "FAIL"
    return code == 0, f"{status:<4} {version.strip():<8} {mode:<7} {summary}  ({python})"


def main(pythons: list[str]) -> int:
    if not pythons:
        print("usage: python tests/pythons.py PYTHON [PYTHON ...]", file=sys.stderr)
        return 2
    passed = True
    for python in pythons:
        ok, line = check(python)
        print(line, flush=True)
        passed &= ok
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
