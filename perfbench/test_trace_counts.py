"""Checks on the benchmark itself; run from the repository root with

    python3 -m pytest perfbench/test_trace_counts.py

Two traced runs of one seed, in separate processes, must give identical
per-layer counts, so a change can claim a count exactly.  Every metric
named in BENCHMARK.json must be printed, and the spans must cover all
eight layers.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
LAYERS = ("logic", "belief", "justify", "ledger", "guard", "plan", "engine", "cli")
COUNT_UNITS = ("count", "count/op", "B/op")


def run(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, done.stdout[-3000:]
    return result


def counts(result: dict) -> dict:
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] in COUNT_UNITS
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = run(workload, 7, trace=1)
    second = run(workload, 7, trace=1)
    assert counts(first) == counts(second)
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == units


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_prints_every_end_to_end_metric(workload):
    result = run(workload, 7, trace=0)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_spans_cover_every_layer():
    seen = set()
    for workload in WORKLOADS:
        run(workload, 7, trace=1)
        path = HERE / ".work" / f"trace-{workload}-seed7.jsonl"
        with open(path, encoding="utf-8") as handle:
            seen |= {json.loads(line)["name"].split(".")[0] for line in handle}
    assert seen >= set(LAYERS)


def test_missing_source_tree_is_refused():
    (HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
        bare = Path(tmp)
        (bare / "perfbench").mkdir()
        for name in ("run.py", "workloads.py", "tracer.py"):
            (bare / "perfbench" / name).write_bytes((HERE / name).read_bytes())
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    assert done.returncode != 0
    assert done.stdout == ""
