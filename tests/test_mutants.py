"""The mutation catalogue of ``tests/mutants.py`` still applies to the
code: each entry's text occurs once in its file under ``src/``, and each
test it names exists. Running the mutants is ``python tests/mutants.py``."""

import os
import subprocess
import sys

from mutants import MUTANTS, ROOT


def test_each_mutant_applies_once_and_names_tests_that_exist():
    for m in MUTANTS:
        assert m.path.startswith("src/") and m.text != m.replacement, m.name
        assert (ROOT / m.path).read_text(encoding="utf-8").count(m.text) == 1, m.name
    ids = sorted({k for m in MUTANTS for k in m.kills})
    # src/ goes first; the caller's path stays, as it may be where pytest is
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *ids],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    collected = run.stdout.splitlines()
    assert [i for i in ids if not any(c == i or c.startswith(f"{i}[") for c in collected)] == []
