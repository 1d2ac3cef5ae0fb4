"""Record golden output digests for the benchmark's workloads.

    python3 perfbench/record_golden.py --workload sweep --seeds 0-15

Runs one pass of each seed's items on the program in ``src/``, requires
every exact self-check to pass, and merges a 64-bit SHA-256 fingerprint
of every item's outputs (and of the sweep's CSV) into
``perfbench/golden/<workload>.json``. Run it only on a commit whose
outputs are the reference; the benchmark then counts any later
difference as a failed item.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys

from run import GOLDEN_DIR, OUT_DIR, ROOT, Runner, digest, import_program
from workloads import WORKLOADS


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hypersig").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", required=True, type=seed_range, help="e.g. 0-15")
    args = parser.parse_args()
    hs = import_program()
    path = GOLDEN_DIR / f"{args.workload}.json"
    doc = json.loads(path.read_text()) if path.exists() else {"seeds": {}}
    doc["source_sha256"] = source_digest()
    for seed in args.seeds:
        workdir = OUT_DIR / f"golden-{args.workload}-{seed}"
        try:
            workload = WORKLOADS[args.workload](hs, seed, workdir)
            workload.setup()
            runner = Runner(workload)
            runner.one_pass()
            attempted, failed = runner.verify(None)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if failed:
            print("\n".join(runner.errors), file=sys.stderr)
            print(f"seed {seed}: {failed} of {attempted} items failed; nothing recorded", file=sys.stderr)
            return 1
        entry = {"items": {key: digest(rec) for (key, _), rec in zip(workload.items, runner.first)}}
        record = workload.pass_record(runner.first)
        if record is not None:
            entry["pass"] = digest(record)
        doc["seeds"][str(seed)] = entry
        print(f"seed {seed}: recorded {attempted} items", file=sys.stderr)
    doc["seeds"] = dict(sorted(doc["seeds"].items(), key=lambda kv: int(kv[0])))
    GOLDEN_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
