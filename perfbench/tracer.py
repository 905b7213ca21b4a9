"""Span tracing around the public functions of each veritas module.

The tracer wraps functions from outside the package: it rebinds every
module attribute that holds a traced function (``engine`` and ``belief``
import ``is_consistent`` and ``entails`` by name, so wrapping only
``veritas.logic.sat`` would miss most calls) and every traced method on
its class.  Spans are kept in memory as (name, start, end, parent, op)
and written as JSONL when the run ends.  Self time is a span's duration
minus the time its direct children cover; calls are single-threaded, so
children never overlap.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

# (span name, module that defines it, attribute path) for every traced
# callable.  Free functions are rebound wherever a veritas module holds
# them; methods are rebound on their class.
FUNCTIONS = (
    ("logic.parse", "veritas.logic.parser", "parse"),
    ("logic.is_consistent", "veritas.logic.sat", "is_consistent"),
    ("logic.entails", "veritas.logic.sat", "entails"),
    ("belief.update_belief_state", "veritas.belief", "update_belief_state"),
    ("belief.revise", "veritas.belief", "revise"),
    ("belief.contract", "veritas.belief", "contract"),
    ("belief.remainders", "veritas.belief", "remainders"),
    ("justify.build_public_proof", "veritas.justify", "build_public_proof"),
    ("justify.verify_public_proof", "veritas.justify", "verify_public_proof"),
    ("ledger.replay", "veritas.ledger", "replay"),
    ("ledger.apply_block", "veritas.ledger", "apply_block"),
    ("guard.mscu_sweep", "veritas.guard", "mscu_sweep"),
    ("guard.run_recovery", "veritas.guard", "run_recovery"),
    ("plan.abduce_policy", "veritas.plan.search", "abduce_policy"),
    ("plan.simulate_trace", "veritas.plan.trace", "simulate_trace"),
    ("plan.seal_trace", "veritas.plan.trace", "seal_trace"),
    ("plan.load_domain", "veritas.plan.domain", "load_domain"),
    ("cli.main", "veritas.cli", "main"),
)
METHODS = (
    ("justify.record_inference", "veritas.justify", "JustificationGraph", "record_inference"),
    ("justify.add_node", "veritas.justify", "JustificationGraph", "add_node"),
    ("ledger.open", "veritas.ledger", "Ledger", "__init__"),
    ("ledger.append", "veritas.ledger", "Ledger", "append"),
    ("ledger.verify_chain", "veritas.ledger", "Ledger", "verify_chain"),
    ("ledger.contains_digest", "veritas.ledger", "Ledger", "contains_digest"),
    ("engine.session_open", "veritas.engine", "Session", "__init__"),
    ("engine.observe", "veritas.engine", "Session", "observe"),
    ("engine.sweep_and_react", "veritas.engine", "Session", "sweep_and_react"),
    ("engine.is_safe", "veritas.engine", "Session", "is_safe"),
    ("engine.query", "veritas.engine", "Session", "query"),
    ("engine.prove", "veritas.engine", "Session", "prove"),
)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int


class Tracer:
    """Collects spans for one traced run; install() and uninstall() wrap."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.op = -1
        self.blocks_checked = 0
        self.remainders_found = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, on_call=None) -> Callable:
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = Span(name, start, end, parent, self.op)
            if on_call is not None:
                on_call(args, result)
            return result

        return traced

    def _rebind(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced callable at each place that binds it."""
        modules = [
            module
            for key, module in sorted(sys.modules.items())
            if key == "veritas" or key.startswith("veritas.")
        ]
        hooks = {"belief.remainders": self._count_remainders}
        for name, module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original, hooks.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)
        hooks = {"ledger.verify_chain": self._count_blocks}
        for name, module_name, cls_name, attr in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            self._rebind(cls, attr, self._wrap(name, original, hooks.get(name)))
        self._rebind(os, "fsync", self._wrap("ledger.fsync", os.fsync))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _count_blocks(self, args, result) -> None:
        self.blocks_checked += len(args[0])

    def _count_remainders(self, args, result) -> None:
        self.remainders_found += len(result)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, and self seconds."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: dict[str, dict[str, float]] = {}
        for span, covered in zip(spans, child_time):
            row = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            duration = span.end - span.start
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - covered
        return out

    def count_children(self, child: str, parent: str) -> int:
        spans = self.spans
        return sum(
            1
            for span in spans
            if span.name == child and span.parent >= 0 and spans[span.parent].name == parent
        )

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "op": span.op,
                        }
                    )
                    + "\n"
                )
