"""Plan execution traces: simulation, serialization, and sealing.

A trace opens with a pseudo-step ``t0 init`` whose add set is the
initial state, followed by one step per executed action carrying the
state snapshot before the action and the ground add/delete sets.
Folding the deltas from the empty state therefore reproduces every
intermediate state.  A precondition failure truncates the trace with a
``PreconditionFailure(action,predicate)`` step and a TypeV failure
event for the guard.  Sealing serializes the trace, hashes it, and
appends a trace-seal block.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..guard import FailureEvent, FailureKind
from ..hashing import sha256
from ..logic import And, Atom, Formula, Not, render_canonical
from ..logic import parse_atom as _parse_atom
from .domain import (
    GroundAction,
    Literal,
    Ontology,
    OntologyError,
    WorldState,
    _split_top_level,
    missing_preconditions,
    preconditions_met,
    render_atom_set,
)


class TraceSyntaxError(ValueError):
    """A trace file line does not match the expected layout."""


class TraceIntegrityError(ValueError):
    """Replayed deltas disagree with a recorded snapshot."""


@dataclass(frozen=True)
class TraceStep:
    index: int
    label: str
    pre: frozenset[Atom]
    added: frozenset[Atom]
    deleted: frozenset[Atom]

    def render(self) -> str:
        return "\t".join(
            (
                f"t{self.index}",
                self.label,
                f"pre={render_atom_set(self.pre)}",
                f"add={render_atom_set(self.added)}",
                f"del={render_atom_set(self.deleted)}",
            )
        )


@dataclass
class PlanTrace:
    entries: tuple[TraceStep, ...] = ()
    goal: Formula | None = None
    seal: int | None = None

    def __post_init__(self) -> None:
        indexes = [step.index for step in self.entries]
        if indexes != sorted(set(indexes)):
            raise TraceIntegrityError(f"step indexes not increasing: {indexes}")


@dataclass
class SimulationResult:
    trace: PlanTrace
    final: WorldState
    failure: FailureEvent | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None


def goal_formula(literals: tuple[Literal, ...]) -> Formula | None:
    """The goal literals as one conjunction, None for an empty goal."""
    formulas = [
        lit.atom if lit.positive else Not(lit.atom) for lit in literals
    ]
    if not formulas:
        return None
    folded = formulas[0]
    for part in formulas[1:]:
        folded = And(folded, part)
    return folded


def simulate_trace(
    plan: list[GroundAction],
    s0: WorldState,
    goal: tuple[Literal, ...] = (),
) -> SimulationResult:
    """Execute the plan step by step, recording snapshots and deltas.

    The first unmet precondition stops execution: the trace is
    truncated at a failure step and the result carries a TypeV event.
    """
    steps = [
        TraceStep(
            index=0,
            label="init",
            pre=frozenset(),
            added=s0.atoms,
            deleted=frozenset(),
        )
    ]
    state = s0
    for position, action in enumerate(plan, start=1):
        if not preconditions_met(action, state):
            unmet = missing_preconditions(action, state)[0]
            label = (
                f"PreconditionFailure({action.render()},{unmet.atom.predicate})"
            )
            steps.append(
                TraceStep(
                    index=position,
                    label=label,
                    pre=state.atoms,
                    added=frozenset(),
                    deleted=frozenset(),
                )
            )
            trace = PlanTrace(entries=tuple(steps), goal=goal_formula(goal))
            event = FailureEvent(
                FailureKind.POLICY_MISPROJECTION, action.render(), label
            )
            return SimulationResult(trace=trace, final=state, failure=event)
        added = action.add_atoms()
        deleted = action.delete_atoms()
        steps.append(
            TraceStep(
                index=position,
                label=action.render(),
                pre=state.atoms,
                added=added,
                deleted=deleted,
            )
        )
        state = WorldState((state.atoms - deleted) | added)
    trace = PlanTrace(entries=tuple(steps), goal=goal_formula(goal))
    return SimulationResult(trace=trace, final=state)


def render_trace(trace: PlanTrace) -> str:
    return "".join(step.render() + "\n" for step in trace.entries)


_STEP_RE = re.compile(
    r"^t(\d+)\t([^\t]+)\tpre=\{([^}]*)\}\tadd=\{([^}]*)\}\tdel=\{([^}]*)\}$"
)


def _parse_atom_set(text: str) -> frozenset[Atom]:
    return frozenset(_parse_atom(part) for part in _split_top_level(text))


def parse_trace(text: str) -> PlanTrace:
    steps = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        match = _STEP_RE.match(line)
        if match is None:
            raise TraceSyntaxError(f"line {line_no}: malformed trace entry")
        steps.append(
            TraceStep(
                index=int(match.group(1)),
                label=match.group(2),
                pre=_parse_atom_set(match.group(3)),
                added=_parse_atom_set(match.group(4)),
                deleted=_parse_atom_set(match.group(5)),
            )
        )
    return PlanTrace(entries=tuple(steps))


def replay_trace(trace: PlanTrace) -> list[WorldState]:
    """Fold the deltas, checking every snapshot on the way.

    Returns the state after each entry; the last element is the final
    state the trace claims.
    """
    state: frozenset[Atom] = frozenset()
    states = []
    for step in trace.entries:
        if step.label != "init" and step.pre != state:
            raise TraceIntegrityError(
                f"t{step.index}: snapshot disagrees with replayed state"
            )
        state = (state - step.deleted) | step.added
        states.append(WorldState(state))
    return states


def trace_digest(trace: PlanTrace) -> bytes:
    return sha256(render_trace(trace).encode()).digest()


def seal_trace(trace: PlanTrace, ledger, timestamp: int = 0, digest=None) -> int:
    """Hash the serialized trace into a trace-seal block.

    Returns the block index, which is also stored on the trace.  The
    serialization is deterministic, so sealing the same trace twice
    yields two blocks with identical digests; a caller that kept its
    trace_digest may pass it as digest, and the trace is not rendered.
    """
    block = ledger.append(
        op="trace-seal",
        formula=render_canonical(trace.goal) if trace.goal is not None else "",
        justification_digest=digest or trace_digest(trace),
        timestamp=timestamp,
    )
    trace.seal = block.index
    return block.index


def repair_ontology(
    policy: str,
    goal_concept: str,
    ontology: Ontology,
    ledger=None,
    timestamp: int = 0,
) -> Ontology:
    """Declare the policy's concept to be below the goal concept.

    Adding an edge that already exists is a no-op and leaves the ledger
    untouched; an edge that would close a cycle is refused.  Successful
    additions are logged as a meta block.
    """
    child = ontology.concept_of(policy)
    if child is None:
        if policy in ontology.concepts:
            child = policy
        else:
            raise OntologyError(f"policy {policy!r} has no declared concept")
    if (child, goal_concept) in ontology.subsumption:
        return ontology
    if child != goal_concept and ontology.is_subtype(goal_concept, child):
        raise OntologyError(
            f"edge {child} below {goal_concept} would close a cycle"
        )
    repaired = ontology.with_edge(child, goal_concept)
    if ledger is not None:
        ledger.append(
            op="meta",
            formula=f"subsume({child},{goal_concept})",
            timestamp=timestamp,
        )
    return repaired
