"""veritas benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ``src/``.
``--trace 0`` repeats the workload's episode until ``--seconds`` have
passed and prints the end-to-end metrics; ``--trace 1`` runs one episode
untraced and one traced, writes the spans to
``perfbench/.work/trace-<workload>-seed<seed>.jsonl`` and prints the
per-layer metrics.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit
status: 0 when every check passed, 1 when a check failed or an operation
raised (the JSON line is still printed), 2 without a JSON line when the
benchmark cannot run at all (for instance, no ``src/veritas`` next to it).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DOMAIN = ROOT / "tests" / "domains" / "drone.domain"
WORK = HERE / ".work"

# Set-up is repeated and its median reported, so work moved out of the
# timed loop into set-up shows as a worse setup_s.
SETUP_REPEATS = {"ingest": 15, "revise-churn": 9, "cold-read": 5}

CALLS_AND_SELF = (
    "logic.parse",
    "logic.is_consistent",
    "belief.update_belief_state",
    "belief.contract",
    "belief.remainders",
    "justify.record_inference",
    "justify.add_node",
    "ledger.append",
    "ledger.verify_chain",
    "ledger.fsync",
    "ledger.replay",
    "ledger.apply_block",
    "ledger.contains_digest",
    "guard.mscu_sweep",
    "guard.run_recovery",
    "plan.abduce_policy",
    "plan.seal_trace",
)
SELF_ONLY = (
    "justify.build_public_proof",
    "justify.verify_public_proof",
    "plan.simulate_trace",
    "plan.load_domain",
    "engine.observe",
    "engine.sweep_and_react",
    "engine.is_safe",
    "engine.query",
    "engine.prove",
)
CALLS_ONLY = ("logic.entails", "belief.revise")
TOTALS = {
    "ledger.open_s": "ledger.open",
    "engine.session_open_s": "engine.session_open",
    "cli.main.total_s": "cli.main",
}


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# The reference kernel: pure interpreter work that allocates no container,
# so it neither triggers nor absorbs a collection of the program's heap.
# Other tenants of a shared VM slow it down by the same factor as the
# workloads (about 1.5x on the 2-core VM this was built on), so a time
# measured next to it can be scaled to a fixed machine speed.
_TABLE = {i: (i * 7919) % 1009 for i in range(1009)}
_WORDS = tuple(f"S{i}" for i in range(64))
_FIRST = frozenset(_WORDS[:8])
# Kernel time at the reference speed: that VM when uncontended.
REFERENCE_S = 0.00035
SMOOTH = 5


def reference_kernel() -> float:
    start = perf_counter()
    x = 0
    for i in range(1500):
        x = _TABLE[(x + i) % 1009] ^ (x >> 1)
        if _WORDS[x % 64] in _FIRST:
            x += 1
    return perf_counter() - start


def at_reference_speed(seconds: list[float], kernels: list[float]) -> list[float]:
    """Scale each time by REFERENCE_S over the median kernel time of the
    ops around it, SMOOTH on either side."""
    return [
        t * REFERENCE_S / statistics.median(kernels[max(0, i - SMOOTH): i + SMOOTH + 1])
        for i, t in enumerate(seconds)
    ]


def typical_episode(samples: list[float], bounds: list[tuple[int, int]]) -> list[float]:
    """Each op position's median latency over the run's whole episodes.

    Every episode of a seed runs the same ops, so a position's latencies
    differ only by noise: a preemption or a collection lands on a few of
    them, and the median drops it.  The slow positions that remain are
    the workload's own slow ops."""
    size = bounds[0][1] - bounds[0][0]
    whole = [samples[a:b] for a, b in bounds if b - a == size]
    return [statistics.median(e[i] for e in whole) for i in range(size)]


def timed_set_up(workload, clock):
    """Run set-up once.  Its stream lines are scaled one by one like timed
    ops; the rest of its time, less the kernels', by their median."""
    from workloads import Clock

    lines = Clock(reference_kernel)
    start = perf_counter()
    try:
        state = workload.setup(lines)
    finally:
        clock.failed += lines.failed
    took = perf_counter() - start - sum(lines.kernels)
    rest = took - sum(lines.latencies)
    scaled = sum(at_reference_speed(lines.latencies, lines.kernels)) + (
        rest * REFERENCE_S / statistics.median(lines.kernels)
    )
    return state, took, scaled


def timed_run(workload, clock, seconds: float) -> tuple[dict, object]:
    """Time set-up, then repeat whole episodes until ``seconds`` have passed."""
    setups = [timed_set_up(workload, clock) for _ in range(SETUP_REPEATS[workload.name])]
    state = setups[-1][0]
    clock.reference = reference_kernel
    bounds = []
    start = perf_counter()
    while not clock.failed and (not bounds or perf_counter() - start < seconds):
        first = len(clock.latencies)
        workload.episode(state, clock)
        bounds.append((first, len(clock.latencies)))
    raw = clock.latencies
    samples = at_reference_speed(raw, clock.kernels)
    typical = typical_episode(samples, bounds)
    tail, beyond = percentile(typical, workload.tail_percentile)
    pooled, _ = percentile(samples, workload.tail_percentile)
    print(f"workload\t{workload.name}\tseed={workload.seed}\tepisodes={len(bounds)}")
    print(f"setup_s\traw={[round(s[1], 4) for s in setups]}")
    print(
        f"op_tail_ms\tp{workload.tail_percentile:g}\tpositions={len(typical)}"
        f"\tbeyond={beyond}\tpooled_ms={pooled * 1000:.3f}"
    )
    print(
        f"raw\tp50_ms={statistics.median(raw) * 1000:.3f}"
        f"\tops_per_s={len(raw) / sum(raw):.3f}"
        f"\tkernel_ms={statistics.median(clock.kernels) * 1000:.4f}"
    )
    for kind in sorted(set(clock.kinds)):
        chosen = [t for t, k in zip(samples, clock.kinds) if k == kind]
        print(
            f"kind\t{kind}\tn={len(chosen)}"
            f"\tp50_ms={statistics.median(chosen) * 1000:.3f}"
        )
    metrics = {
        "setup_s": metric(statistics.median(s[2] for s in setups), "s"),
        "ops_per_s": metric(len(typical) / sum(typical), "1/s"),
        "op_p50_ms": metric(statistics.median(samples) * 1000, "ms"),
        "op_tail_ms": metric(tail * 1000, "ms"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    return metrics, state


def layer_metrics(tracer, ops: int, written: int, overhead: float) -> dict:
    summary = tracer.summary()

    def get(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    metrics = {}
    for name in CALLS_AND_SELF:
        metrics[f"{name}.calls"] = metric(get(name, "calls"), "count")
        metrics[f"{name}.self_s"] = metric(get(name, "self_s"), "s")
    for name in SELF_ONLY:
        metrics[f"{name}.self_s"] = metric(get(name, "self_s"), "s")
    for name in CALLS_ONLY:
        metrics[f"{name}.calls"] = metric(get(name, "calls"), "count")
    for key, name in TOTALS.items():
        metrics[key] = metric(get(name, "total_s"), "s")
    tried = tracer.count_children("logic.entails", "belief.remainders")
    metrics.update(
        {
            "ledger.verify_chain.blocks_checked": metric(tracer.blocks_checked, "count"),
            "belief.remainders.subsets_tried": metric(tried, "count"),
            "belief.remainders.found_per_tried": metric(
                tracer.remainders_found / tried if tried else 0.0, "ratio"
            ),
            "logic.sat_calls_per_op": metric(get("logic.is_consistent", "calls") / ops, "count/op"),
            "ledger.fsync_per_op": metric(get("ledger.fsync", "calls") / ops, "count/op"),
            "ledger.bytes_per_op": metric(written / ops, "B/op"),
            "trace.overhead_ratio": metric(overhead, "ratio"),
        }
    )
    return metrics


def traced_run(workload, clock) -> tuple[dict, object]:
    from tracer import Tracer
    from workloads import Clock

    state = workload.setup(Clock())
    plain = Clock()
    start = perf_counter()
    workload.episode(state, plain)
    untraced_s = perf_counter() - start

    tracer = Tracer()

    def next_op() -> None:
        tracer.op += 1

    clock.on_op = next_op
    tracer.install()
    start = perf_counter()
    try:
        workload.episode(state, clock)
    finally:
        traced_s = perf_counter() - start
        tracer.uninstall()
    path = WORK / f"trace-{workload.name}-seed{workload.seed}.jsonl"
    tracer.write_jsonl(str(path))
    print(
        f"workload\t{workload.name}\tseed={workload.seed}\tops={clock.attempted}"
        f"\tspans={len(tracer.spans)}\t{path}"
    )
    print(f"traced_s\t{traced_s:.4f}\tuntraced_s\t{untraced_s:.4f}")
    ops = max(clock.attempted, 1)
    metrics = layer_metrics(
        tracer, ops, workload.bytes_written(state), traced_s / untraced_s
    )
    clock.failed += plain.failed
    clock.attempted += plain.attempted
    return metrics, state


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p) for p in (SRC / "veritas" / "__init__.py", DOMAIN) if not p.is_file()]
    if missing:
        print(f"error: benchmark inputs missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("VERITAS_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    import veritas
    from workloads import WORKLOADS, CheckFailed, Clock

    if Path(veritas.__file__).resolve().parent != SRC / "veritas":
        print(f"error: imported veritas from {veritas.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    clock = Clock()
    metrics: dict = {}
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{args.workload}-") as tmp:
        workload = WORKLOADS[args.workload](args.seed, Path(tmp), DOMAIN)
        try:
            if args.trace:
                metrics, state = traced_run(workload, clock)
            else:
                metrics, state = timed_run(workload, clock, args.seconds)
            workload.check(state)
            correct = clock.failed == 0
        except CheckFailed as err:
            print(f"check failed: {err}", flush=True)
            correct = False
        except Exception:
            clock.failed += 1
            print("failed op: benchmark step outside the timed operations", flush=True)
            traceback.print_exc()
            correct = False
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(clock.attempted, 1),
                "failed": clock.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
