"""The golden corpus of CLI outputs: its cases, and a stdlib runner.

Every subcommand runs on the small fixed inputs in ``golden/inputs``; its
exit code, standard output, standard error and every file it writes must
equal the recording in ``golden/<case>/``. The corpus pins the CLI's
observable behaviour, so internal code paths can be replaced or deleted
without changing a byte of output. ``tests/test_golden_cli.py`` checks
each case under pytest.

Run ``python tests/golden.py`` from anywhere to check every case with
the standard library alone: it names each case whose recording differs,
and the files that differ, and exits 1 if any does. After a deliberate
output change, ``python tests/golden.py record`` re-records the corpus.
Either way the package is imported from the ``src`` directory beside
``tests``.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hypersig.cli import main  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"

# case name -> argv; "{in}" is the inputs directory, "{out}" a fresh
# directory whose files after the run belong to the recording
CASES = {
    "signals-U": "signals --in {in}/fan5.json --map U --out {out}/basis.json",
    "signals-C": "signals --in {in}/fan5.json --map C --out {out}/basis.json",
    "signals-skew": "signals --in {in}/triangle.json --map {in}/skew.json --out {out}/basis.json",
    "signals-ell4": "signals --in {in}/ell4_repeat.json --out {out}/basis.json",
    "signals-ell6": "signals --in {in}/ell6_repeat.json --map C --out {out}/basis.json",
    "signals-zero-column": "signals --in {in}/ell5_repeat.json --map {in}/two_row_ell5.json "
    "--out {out}/basis.json",
    "signals-disconnected": "signals --in {in}/two_triangles.json --map U --out {out}/basis.json",
    "signals-rank2": "signals --in {in}/split_ell4.json --map {in}/two_row_ell4.json "
    "--out {out}/basis.json",
    "signals-full-rank": "signals --in {in}/triangle.json --map {in}/identity3.json "
    "--out {out}/basis.json",
    "signals-hostile-labels": "signals --in {in}/hostile.json --map U --out {out}/basis.json",
    "frame-fan": "frame --in {in}/fan5.json --out {out}/frame.json",
    "frame-ell4": "frame --in {in}/ell4_repeat.json --out {out}/frame.json",
    "frame-random": "frame --in {in}/random12.json --out {out}/frame.json --classes {out}/classes.json",
    "frame-stdout": "frame --in {in}/random12.json",
    "frame-disconnected": "frame --in {in}/two_triangles.json",
    "frame-hostile-labels": "frame --in {in}/hostile.json --out {out}/frame.json",
    "frame-random60-collapsing": "frame --in {in}/random60_m60.json --out {out}/frame.json "
    "--classes {out}/classes.json",
    "frame-random60-near-discrete": "frame --in {in}/random60_m52.json --out {out}/frame.json "
    "--classes {out}/classes.json",
    "frame-random50-too-coarse": "frame --in {in}/random50_m50.json --out {out}/frame.json "
    "--classes {out}/classes.json",
    "components-fan": "components --in {in}/fan5.json",
    "components-two": "components --in {in}/two_triangles.json",
    "components-ell4": "components --in {in}/ell4_repeat.json",
    "generate-random": "generate random --n 12 --m 9 --seed 4",
    "generate-random60": "generate random --n 60 --m 52 --seed 5",
    "generate-random-ell4": "generate random --n 9 --m 5 --ell 4 --seed 1",
    "generate-fan": "generate fan --n 4",
    "generate-mountain": "generate mountain --n 3 --out {out}/mountain.json",
    "sweep": "sweep --sizes 8,10 --densities 1,1.5 --runs 2 --seed 3",
    "sweep-avg-degree": "sweep --sizes 12 --densities 2.5,3 --runs 2 --seed 1 "
    "--density-mode avg-degree --out {out}/sweep.csv",
    "sweep-n50": "sweep --sizes 50 --densities 2.3,3 --runs 3 --seed 0 --density-mode avg-degree",
    "verify-pass": "verify --in {in}/triangle.json --signal {in}/sig_pass.json --map {in}/skew.json",
    "verify-fail": "verify --in {in}/triangle.json --signal {in}/sig_fail.json --map {in}/skew.json",
    "verify-fail-ell5": "verify --in {in}/ell5_repeat.json --signal {in}/sig_fail_ell5.json "
    "--map {in}/two_row_ell5.json",
    "verify-mixed-rationals": "verify --in {in}/fan5.json --signal {in}/sig_mixed.json --map U",
    "verify-bool-value": "verify --in {in}/triangle.json --signal {in}/sig_bool.json --map U",
    "verify-misaligned-values": "verify --in {in}/triangle.json --signal {in}/sig_misaligned.json "
    "--map U",
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


def recorded(case: str) -> dict[str, bytes]:
    """The recording of one case, as :func:`run_case` returns it."""
    return {p.name: p.read_bytes() for p in (GOLDEN / case).iterdir()}


def check() -> int:
    """Run every case against its recording; print each mismatch, naming
    the files that differ, and a summary. 1 if any case differs."""
    failed = 0
    for case in sorted(CASES):
        expected = recorded(case)
        with tempfile.TemporaryDirectory() as tmp:
            got = run_case(case, Path(tmp))
        differ = sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))
        if differ:
            failed += 1
            print(f"mismatch  {case}: {', '.join(differ)}")
    print(f"{len(CASES) - failed} of {len(CASES)} cases match")
    return 1 if failed else 0


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
    if sys.argv[1:] == ["record"]:
        record()
        sys.exit(0)
    if sys.argv[1:]:
        sys.exit("usage: python tests/golden.py [record]")
    sys.exit(check())
