"""hypersig benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout and driven
in-process, in one thread. A run sets up ``SETUP_REPEATS`` times, then:

* ``--trace 0`` runs whole passes over the workload's items until at
  least ``--seconds`` (wall) have passed and reports the end-to-end
  metrics, timed in reference seconds (see ``refclock.py``);
* ``--trace 1`` runs one untraced pass and one traced pass (fixed work,
  so counters repeat exactly), reports the per-layer metrics and the
  tracing overhead, and writes the spans to ``.perfbench_out/``.

Every item's output is checked after the timed passes: by exact
self-checks always, and against the digests recorded at the seed commit
(``perfbench/golden/``) when the seed has them. Any other seed runs in
fresh-seed mode, with the self-checks only. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; a readable summary goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from refclock import CAL_REF, RefClock
from spans import Tracer, aggregate
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
GOLDEN_DIR = BENCH_DIR / "golden"
SETUP_REPEATS = 3

END_TO_END = {
    "items_per_s": "1/s",
    "item_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# metric, unit, better, span, statistic of that span (see spans.aggregate)
PER_LAYER = (
    ("cli.frame.s", "s", "lower", "cli.frame", "s"),
    ("cli.signals.s", "s", "lower", "cli.signals", "s"),
    ("cli.verify.s", "s", "lower", "cli.verify", "s"),
    ("hypergraph.load_hypergraph.s", "s", "lower", "hypergraph.load_hypergraph", "s"),
    ("hypergraph.load_hypergraph.bytes", "bytes", "lower", "hypergraph.load_hypergraph", "bytes"),
    ("hypergraph.dumps_hypergraph.s", "s", "lower", "hypergraph.dumps_hypergraph", "s"),
    ("hypergraph.quotient.s", "s", "lower", "hypergraph.quotient", "s"),
    ("signals.assemble_constraints.s", "s", "lower", "signals.assemble_constraints", "s"),
    ("signals.assemble_constraints.rows", "count", "lower", "signals.assemble_constraints", "rows"),
    ("signals.assemble_constraints.nnz", "count", "lower", "signals.assemble_constraints", "nnz"),
    ("linalg.dedupe_rows.s", "s", "lower", "linalg.dedupe_rows", "s"),
    ("linalg.dedupe_rows.kept_ratio", "ratio", "higher", "linalg.dedupe_rows", "kept_ratio"),
    ("linalg.nullspace.self_s", "s", "lower", "linalg.nullspace", "self_s"),
    ("linalg.nullspace.rank", "count", "lower", "linalg.nullspace", "rank"),
    ("linalg.nullspace.kernel_dim", "count", "lower", "linalg.nullspace", "kernel_dim"),
    ("linalg.nullspace.kernel_nnz", "count", "lower", "linalg.nullspace", "kernel_nnz"),
    ("linalg.nullspace.max_bits", "bits", "lower", "linalg.nullspace", "max_bits"),
    ("signals.find_violation.s", "s", "lower", "signals.find_violation", "s"),
    ("signals.find_violation.calls", "count", "lower", "signals.find_violation", "calls"),
    ("signals.signal_space.self_s", "s", "lower", "signals.signal_space", "self_s"),
    ("signals.generating_signal.self_s", "s", "lower", "signals.generating_signal", "self_s"),
    ("signals.signal_to_json.s", "s", "lower", "signals.signal_to_json", "s"),
    ("frames.frame.self_s", "s", "lower", "frames.frame", "self_s"),
    ("frames.fusion.self_s", "s", "lower", "frames.fusion", "self_s"),
    ("frames.classes", "count", "lower", "frames.frame", "classes"),
    ("frames.frame_edges", "count", "lower", "frames.frame", "frame_edges"),
    ("experiments.random_hypergraph.s", "s", "lower", "experiments.random_hypergraph", "s"),
    ("experiments.reduction_proportion.s", "s", "lower", "experiments.reduction_proportion", "s"),
    ("trace.items_s", "s", "lower", None, None),
    ("trace.overhead_s", "s", "lower", None, None),
    ("trace.spans", "count", "lower", None, None),
)


def import_program():
    """Import ``hypersig`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hypersig
    import hypersig.cli  # noqa: F401  (the package does not import it)

    if Path(hypersig.__file__).resolve().parent != src / "hypersig":
        raise ImportError(f"hypersig was imported from {hypersig.__file__}, not {src}")
    return hypersig


def digest(record: dict[str, bytes]) -> str:
    """64-bit fingerprint of a record: field names, lengths and bytes."""
    h = hashlib.sha256()
    for name in sorted(record):
        h.update(f"{name}:{len(record[name])}:".encode())
        h.update(record[name])
    return h.hexdigest()[:16]


def load_golden(workload: str, seed: int) -> dict | None:
    path = GOLDEN_DIR / f"{workload}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))["seeds"].get(str(seed))


class Runner:
    """Runs passes over a workload's items and checks what they output.

    Records of the first execution of each item are kept; later
    executions must reproduce them byte for byte. ``verify`` then checks
    the first records, so every check runs outside the timed passes.
    """

    def __init__(self, workload, clock=perf_counter):
        self.w = workload
        self.clock = clock
        self.first: list[dict[str, bytes] | None] = [None] * len(workload.items)
        self.latencies: list[float] = []
        self.outcomes: list[tuple[int, bool]] = []  # (item index, execution ok)
        self.errors: list[str] = []

    def one_pass(self, tracer=None) -> float:
        t0 = self.clock()
        for i, (key, spec) in enumerate(self.w.items):
            if tracer is not None:
                tracer.begin_item(key)
            try:
                seconds, record = self.w.run_item(spec)
            except Exception:
                self.outcomes.append((i, False))
                self.errors.append(f"{key}: raised\n{traceback.format_exc()}")
                continue
            finally:
                if tracer is not None:
                    tracer.end_item()
            self.latencies.append(seconds)
            if self.first[i] is None:
                self.first[i] = record
            elif record != self.first[i]:
                self.outcomes.append((i, False))
                self.errors.append(f"{key}: output differs between passes")
                continue
            self.outcomes.append((i, True))
        return self.clock() - t0

    def verify(self, golden: dict | None) -> tuple[int, int]:
        """Return (attempted, failed); an execution fails when it raised,
        differs from the first execution, or the item's output fails a
        self-check or differs from the seed commit."""
        bad = set()
        want_items = golden.get("items", {}) if golden is not None else None
        for i, (key, spec) in enumerate(self.w.items):
            record = self.first[i]
            if record is None:
                continue
            try:
                problems = self.w.check_item(spec, record)
            except Exception:  # malformed output can break a check's parsing
                problems = [f"self-check raised\n{traceback.format_exc()}"]
            if want_items is not None:
                problems += _golden_problems(want_items.get(key), record)
            if problems:
                bad.add(i)
                self.errors.append(f"{key}: " + "; ".join(problems))
        failed = sum(1 for i, ok in self.outcomes if not ok or i in bad)
        if all(r is not None for r in self.first):
            try:
                record = self.w.pass_record(self.first)
                problems = [] if record is None else self.w.check_pass(record, self.first)
            except Exception:
                record, problems = None, [f"raised\n{traceback.format_exc()}"]
            if record is not None and golden is not None:
                problems += _golden_problems(golden.get("pass"), record)
            if problems:
                failed += 1
                self.errors.append("pass output: " + "; ".join(problems))
        return len(self.outcomes), failed


def _golden_problems(want: str | None, record: dict[str, bytes]) -> list[str]:
    if want is None:
        return ["no golden record for this item"]
    return [] if digest(record) == want else ["output differs from the seed commit"]


def layer_metrics(spans: list[dict], items_s: float, overhead_s: float) -> dict[str, float]:
    agg = aggregate(spans)
    values = {}
    for metric, _, _, span, stat in PER_LAYER:
        if stat == "kept_ratio":
            a = agg.get(span, {})
            values[metric] = a["rows_kept"] / a["rows_in"] if a.get("rows_in") else 0.0
        elif span is not None:
            values[metric] = agg[span][stat] if span in agg else 0
    values["trace.items_s"] = items_s
    values["trace.overhead_s"] = overhead_s
    values["trace.spans"] = len(spans)
    return values


def measure(
    workload, seconds: float, trace: bool, golden: dict | None,
    import_s: float = 0.0, clock=perf_counter,
) -> dict:
    """Set up, run and check one workload; return the result object.
    Times are read from ``clock``; ``seconds`` is wall time."""
    workload.clock = clock
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        workload.setup()
        setups.append(clock() - t0)
    runner = Runner(workload, clock)
    info: dict = {"setup_runs_s": setups}
    if trace:
        untraced = runner.one_pass()
        done = len(runner.latencies)
        tracer = Tracer(workload.hs)
        tracer.install()
        try:
            traced = runner.one_pass(tracer)
        finally:
            tracer.uninstall()
        metrics = layer_metrics(tracer.spans, sum(runner.latencies[done:]), traced - untraced)
        units = {m: u for m, u, *_ in PER_LAYER}
        info.update(untraced_wall_s=untraced, traced_wall_s=traced, spans=tracer.spans)
    else:
        passes, wall, t0 = 0, 0.0, perf_counter()
        while True:
            wall += runner.one_pass()
            passes += 1
            if perf_counter() - t0 >= seconds:
                break
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        lat = runner.latencies
        metrics = {
            "items_per_s": len(lat) / wall if lat else 0.0,
            "item_p50_s": statistics.median(lat) if lat else 0.0,
            "setup_s": import_s + statistics.median(setups),
            "peak_rss_mb": peak_mb,
        }
        units = END_TO_END
        info.update(passes=passes, passes_s=wall, passes_wall_s=perf_counter() - t0)
        if len(lat) >= 2:
            p90 = statistics.quantiles(lat, n=10)[-1]
            if sum(1 for x in lat if x > p90) >= 10:
                info["item_p90_s"] = p90
    attempted, failed = runner.verify(golden)
    info.update(errors=runner.errors, samples=len(runner.latencies))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "info": info,
    }


def write_spans(path: Path, result: dict) -> None:
    info = result["info"]
    spans = info["spans"]
    origin = spans[0]["start"] if spans else 0.0
    doc = {
        "untraced_wall_s": info["untraced_wall_s"],
        "traced_wall_s": info["traced_wall_s"],
        "spans": [
            {**s, "start": s["start"] - origin, "end": s["end"] - origin} for s in spans
        ],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def summarize(args, result: dict, golden: dict | None) -> str:
    info = result["info"]
    lines = [
        f"workload {args.workload}, seed {args.seed}, "
        + ("golden mode" if golden is not None else "fresh-seed mode (self-checks only)"),
        f"setup runs (s): {', '.join(f'{s:.4f}' for s in info['setup_runs_s'])}",
    ]
    if "passes" in info:
        lines.append(
            f"{info['passes']} passes, {info['samples']} item samples, "
            f"{info['passes_s']:.3f} s ({info['passes_wall_s']:.3f} wall s)"
        )
        lines.append(
            f"item_p90_s: {info['item_p90_s']:.6f} s" if "item_p90_s" in info
            else "item_p90_s: not reported (fewer than 10 samples beyond p90)"
        )
    if info.get("calibrations"):
        lines.append(
            f"machine speed: calibration loop median {statistics.median(info['calibrations']) * 1e3:.3f} ms "
            f"over {len(info['calibrations'])} samples (reference {CAL_REF * 1e3:.3f} ms)"
        )
    lines.append(f"error_rate: {result['failed']}/{result['attempted']}")
    for name, m in result["metrics"].items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    lines.extend(f"error: {e}" for e in info["errors"][:20])
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    # End-to-end times are in reference seconds (see refclock.py); the
    # traced run reports wall seconds, as its spans do.
    refclock = None if args.trace else RefClock()
    with refclock or contextlib.nullcontext():
        clock = refclock.now if refclock else perf_counter
        t0 = clock()
        try:
            hs = import_program()
        except ImportError as exc:
            print(f"error: cannot import hypersig from {ROOT / 'src'}: {exc}", file=sys.stderr)
            return 2
        import_s = clock() - t0

        golden = load_golden(args.workload, args.seed)
        workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
        try:
            workload = WORKLOADS[args.workload](hs, args.seed, workdir)
            result = measure(workload, args.seconds, bool(args.trace), golden, import_s, clock)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    if refclock:
        result["info"]["calibrations"] = refclock.calibrations
    if args.trace:
        write_spans(OUT_DIR / f"trace-{args.workload}-{args.seed}.json", result)
    print(summarize(args, result, golden), file=sys.stderr)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
