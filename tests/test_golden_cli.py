"""Byte-for-byte golden corpus of CLI outputs.

Every subcommand runs on the small fixed inputs in ``golden/inputs``; its
exit code, standard output, standard error and every file it writes must
equal the recording in ``golden/<case>/``. The corpus pins the CLI's
observable behaviour, so internal code paths can be replaced or deleted
without changing a byte of output.

To re-record after a deliberate output change, run from the repository
root:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from hypersig.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"

# case name -> argv; "{in}" is the inputs directory, "{out}" a fresh
# directory whose files after the run belong to the recording
CASES = {
    "signals-U": "signals --in {in}/fan5.json --map U --out {out}/basis.json",
    "signals-C": "signals --in {in}/fan5.json --map C --out {out}/basis.json",
    "signals-skew": "signals --in {in}/triangle.json --map {in}/skew.json --out {out}/basis.json",
    "signals-ell4": "signals --in {in}/ell4_repeat.json --out {out}/basis.json",
    "frame-fan": "frame --in {in}/fan5.json --out {out}/frame.json",
    "frame-ell4": "frame --in {in}/ell4_repeat.json --out {out}/frame.json",
    "frame-random": "frame --in {in}/random12.json --out {out}/frame.json --classes {out}/classes.json",
    "frame-stdout": "frame --in {in}/random12.json",
    "frame-disconnected": "frame --in {in}/two_triangles.json",
    "components-fan": "components --in {in}/fan5.json",
    "components-two": "components --in {in}/two_triangles.json",
    "components-ell4": "components --in {in}/ell4_repeat.json",
    "generate-random": "generate random --n 12 --m 9 --seed 4",
    "generate-random-ell4": "generate random --n 9 --m 5 --ell 4 --seed 1",
    "generate-fan": "generate fan --n 4",
    "generate-mountain": "generate mountain --n 3 --out {out}/mountain.json",
    "sweep": "sweep --sizes 8,10 --densities 1,1.5 --runs 2 --seed 3",
    "sweep-avg-degree": "sweep --sizes 12 --densities 2.5,3 --runs 2 --seed 1 "
    "--density-mode avg-degree --out {out}/sweep.csv",
    "verify-pass": "verify --in {in}/triangle.json --signal {in}/sig_pass.json --map {in}/skew.json",
    "verify-fail": "verify --in {in}/triangle.json --signal {in}/sig_fail.json --map {in}/skew.json",
    "export-dot-ell4": "export-dot --in {in}/ell4_repeat.json",
    "export-dot-fan": "export-dot --in {in}/fan5.json --out {out}/fan.dot",
}


def run_case(case: str, out_dir: Path) -> dict[str, bytes]:
    """Run one case; return its recording as file name -> bytes."""
    argv = CASES[case].format(**{"in": INPUTS, "out": out_dir}).split()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    record = {
        "exit": f"{code}\n".encode(),
        "stdout": stdout.getvalue().encode(),
        "stderr": stderr.getvalue().encode(),
    }
    for path in sorted(out_dir.iterdir()):
        record["out." + path.name] = path.read_bytes()
    return record


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path):
    expected = {p.name: p.read_bytes() for p in (GOLDEN / case).iterdir()}
    assert run_case(case, tmp_path) == expected


def record() -> None:
    for case in CASES:
        target = GOLDEN / case
        target.mkdir(exist_ok=True)
        for stale in target.iterdir():
            stale.unlink()
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in run_case(case, Path(tmp)).items():
                (target / name).write_bytes(data)


if __name__ == "__main__":
    record()
    sys.exit(0)
