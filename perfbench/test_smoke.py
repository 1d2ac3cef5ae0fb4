"""Tiny-size smoke test of the benchmark harness.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at a few-second size through the same ``measure``
the benchmark uses, and checks the output schema, that every metric in
BENCHMARK.json is reported with its unit, that traced counters repeat
exactly, that a golden mismatch counts as a failure, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import run
from refclock import RefClock
from workloads import WORKLOADS, FrameLarge, SignalsMaps, Sweep

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
HS = run.import_program()


def tiny(name, workdir, seed=3):
    if name == "sweep":
        return Sweep(HS, seed, workdir, n=12, runs=2, densities=(Fraction(23, 10), Fraction(3)))
    if name == "frame-large":
        classes = ((12, Fraction(13, 5), 1), (12, Fraction(3), 1))
        return FrameLarge(HS, seed, workdir, random_classes=classes, family_size=4)
    return SignalsMaps(HS, seed, workdir, sizes=((3, 8, 6), (4, 6, 4)), instances=1)


def test_benchmark_json_names_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        p[:3] for p in run.PER_LAYER
    ]


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_result_schema_and_metrics(name, trace, tmp_path):
    with RefClock() as clock:
        result = run.measure(tiny(name, tmp_path), 0, bool(trace), None, clock=clock.now)
    printed = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    assert json.loads(json.dumps(printed)) == printed
    assert result["correct"] is True, result["info"]["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in printed["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(m["value"], (int, float)) for m in printed["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in printed["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counters_repeat_exactly(name, tmp_path):
    def counters():
        result = run.measure(tiny(name, tmp_path), 0, True, None)
        return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] != "s"}

    first = counters()
    assert first["trace.spans"] > 0
    assert counters() == first


def test_golden_mismatch_fails_every_execution(tmp_path):
    workload = tiny("sweep", tmp_path)
    golden = {"items": {key: "0" * 16 for key, _ in workload.items}}
    result = run.measure(workload, 0, False, golden)
    assert result["correct"] is False
    assert result["failed"] >= result["attempted"] > 0


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_clock_advances():
    with RefClock() as clock:
        start = clock.now()
        while len(clock.calibrations) < 5:
            sum(range(1000))
        elapsed = clock.now() - start
    assert len(clock.calibrations) >= 5
    assert elapsed > 0
