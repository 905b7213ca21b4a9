"""Failure detection, recovery protocols, and epistemic gating.

Contradictions are located as minimal unsatisfiable cores and resolved
by provenance dominance, falling back to contraction on ties.  Failure
events carry exactly one of five kinds (belief inconsistency,
justification breakdown, approximation drift, grounding misalignment,
policy misprojection); anything else is an explicit Unknown, never a
silent default.  Recovery runs append their effects to the ledger so a
replay reproduces the post-recovery base.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field, replace
from typing import Callable

from .belief import (
    DEMOTED_PROBABILITY,
    BeliefBase,
    BeliefEntry,
    Provenance,
    StatusTag,
    amend_entry,
    contract,
    is_consistent_base,
    retract_entry,
    status_for,
)
from .config import EngineConfig
from .justify import JustificationGraph, dominance
from .logic import Formula, Not, is_consistent, parse, render_canonical

ZERO_DIGEST = b"\x00" * 32

MARKING_RULES = frozenset({"demotion", "regrounding"})


class FailureKind(enum.Enum):
    BELIEF_INCONSISTENCY = "TypeI"
    JUSTIFICATION_BREAKDOWN = "TypeII"
    APPROXIMATION_DRIFT = "TypeIII"
    GROUNDING_MISALIGNMENT = "TypeIV"
    POLICY_MISPROJECTION = "TypeV"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class FailureEvent:
    kind: FailureKind
    subject: str
    detail: str = ""


@dataclass(frozen=True)
class Diagnostic:
    """Signals observed around an anomaly, input to classification."""

    subject: str = ""
    inconsistency: bool = False
    missing_trace: bool = False
    epsilon: float | None = None
    epsilon_max: float | None = None
    grounding_mismatch: bool = False
    expected_utility: float | None = None
    actual_utility: float | None = None
    delta: float | None = None


@dataclass(frozen=True)
class RiskAssessment:
    risk: float
    admitted: bool
    threshold: float
    depth: int


@dataclass(frozen=True)
class MetaLogEntry:
    epoch: int
    formula: str
    score: float
    action: str


@dataclass
class RecoveryContext:
    """Everything a protocol may touch while repairing state."""

    base: BeliefBase
    graph: JustificationGraph
    config: EngineConfig
    ledger: object | None = None
    clock: Callable[[], int] = lambda: 0
    replan: Callable[[], str | None] | None = None


@dataclass
class RecoveryReport:
    protocol: str
    event: FailureEvent
    base: BeliefBase
    lines: list[str] = field(default_factory=list)
    directives: list[str] = field(default_factory=list)
    escalated: bool = False

    def render(self) -> str:
        return "\n".join(self.lines) + "\n" if self.lines else ""


def detect_contradiction(base: BeliefBase) -> list[frozenset[Formula]]:
    """Minimal unsatisfiable subsets of the active formulas.

    Complementary pairs f / !f are found by a syntactic scan first;
    purely semantic conflicts fall back to deletion-based shrinking,
    which returns a single irreducible core.
    """
    if is_consistent_base(base):
        return []
    active = base.formulas()
    keys = {render_canonical(f): f for f in active}
    pairs = []
    for formula in sorted(active, key=render_canonical):
        if isinstance(formula, Not):
            inner = render_canonical(formula.operand)
            if inner in keys:
                pairs.append(frozenset({keys[inner], formula}))
    if pairs:
        return pairs
    core = sorted(active, key=render_canonical)
    for formula in list(core):
        rest = [f for f in core if f is not formula]
        if not is_consistent(rest):
            core = rest
    return [frozenset(core)]


def resolve_contradiction(
    base: BeliefBase,
    core: frozenset[Formula],
    reliability: dict[str, float] | None = None,
) -> tuple[BeliefBase, list[tuple[str, str]]]:
    """Restore consistency, starting from the given core.

    Within a core the provenance-dominated member is dropped; if no
    member dominates another the lowest-confidence one is contracted.
    Returns the new base and (method, formula) pairs for each removal,
    where method is "retract" or "contract".
    """
    actions: list[tuple[str, str]] = []
    current = core
    guard_rail = len(base.entries) + 1
    while guard_rail > 0:
        guard_rail -= 1
        base, action = _shrink_core(base, current, reliability)
        if action is not None:
            actions.append(action)
        cores = detect_contradiction(base)
        if not cores:
            # detect_contradiction has just found the base satisfiable,
            # without keeping a model of it.
            return replace(base, known_consistent=True, witness=None), actions
        current = cores[0]
    return base, actions


def _shrink_core(
    base: BeliefBase,
    core: frozenset[Formula],
    reliability: dict[str, float] | None,
) -> tuple[BeliefBase, tuple[str, str] | None]:
    entries = [e for e in base.entries if e.formula in core]
    if not entries:
        return base, None
    losers: set[str] = set()
    for i, a in enumerate(entries):
        for b in entries[i + 1:]:
            verdict = dominance(a.provenance, b.provenance, reliability)
            if verdict > 0:
                losers.add(b.key)
            elif verdict < 0:
                losers.add(a.key)
    dominated = sorted(k for k in losers)
    if dominated:
        victim = next(e for e in entries if e.key == dominated[0])
        return (
            retract_entry(base, victim.formula, "recovery(dominated)"),
            ("retract", victim.key),
        )
    weakest = min(entries, key=lambda e: (e.provenance.confidence, e.key))
    return (
        contract(base, weakest.formula),
        ("contract", weakest.key),
    )


def classify_failure(diagnostic: Diagnostic) -> FailureEvent:
    """Assign exactly one failure kind to an observed anomaly.

    Checks run in taxonomy order; signals that match nothing produce an
    explicit Unknown event rather than a silent default.
    """
    if diagnostic.inconsistency:
        return FailureEvent(FailureKind.BELIEF_INCONSISTENCY, diagnostic.subject)
    if diagnostic.missing_trace:
        return FailureEvent(FailureKind.JUSTIFICATION_BREAKDOWN, diagnostic.subject)
    if diagnostic.epsilon is not None and diagnostic.epsilon_max is not None:
        if diagnostic.epsilon > diagnostic.epsilon_max:
            return FailureEvent(
                FailureKind.APPROXIMATION_DRIFT,
                diagnostic.subject,
                f"epsilon={diagnostic.epsilon} exceeds {diagnostic.epsilon_max}",
            )
    if diagnostic.grounding_mismatch:
        return FailureEvent(FailureKind.GROUNDING_MISALIGNMENT, diagnostic.subject)
    if (
        diagnostic.expected_utility is not None
        and diagnostic.actual_utility is not None
        and diagnostic.delta is not None
    ):
        gap = abs(diagnostic.expected_utility - diagnostic.actual_utility)
        if gap > diagnostic.delta:
            return FailureEvent(
                FailureKind.POLICY_MISPROJECTION,
                diagnostic.subject,
                f"utility gap {gap:.6g} exceeds {diagnostic.delta}",
            )
    return FailureEvent(
        FailureKind.UNKNOWN,
        diagnostic.subject,
        "no taxonomy rule matched the observed signals",
    )


def epistemic_risk(
    entry: BeliefEntry | float,
    depth: int,
    decay: float = 0.98,
    tau_risk: float = 0.5,
) -> RiskAssessment:
    """Risk of admitting a belief: 1 - probability * decay ** depth."""
    probability = entry.probability if isinstance(entry, BeliefEntry) else entry
    risk = 1.0 - probability * decay**depth
    return RiskAssessment(
        risk=risk,
        admitted=risk <= tau_risk,
        threshold=tau_risk,
        depth=depth,
    )


def assertion_gate(
    probability: float,
    depth: int,
    config: EngineConfig,
) -> bool:
    """Both gates at once: the theta floor and the risk ceiling."""
    if probability < config.theta:
        return False
    return epistemic_risk(probability, depth, config.decay, config.tau_risk).admitted


def justification_health(
    graph: JustificationGraph, entry: BeliefEntry
) -> float:
    """1.0 for a resolvable trace, 0.5 for provisional tags, 0 if broken.

    A node in the graph always resolves: the graph admits a node only
    once all of its premises are present and never removes one.
    """
    if entry.justification is None or entry.justification not in graph:
        return 0.0
    if entry.status == StatusTag.APPROXIMATE:
        return 0.5
    return 1.0


def mscu_sweep(
    base: BeliefBase,
    graph: JustificationGraph,
    theta_meta: float = 0.6,
) -> list[MetaLogEntry]:
    """Score every assertable entry and flag the unhealthy ones.

    Score is probability times justification health.  Contradictory
    pairs are flagged for contraction, scores under theta_meta for
    re-evaluation; a healthy base yields all-none, so a second sweep
    right after reacting to the first is a no-op.
    """
    assertable = [e for e in base.entries if e.assertable]
    keys = {e.key for e in assertable}
    conflicted: set[str] = set()
    for entry in assertable:
        negation = f"(! {entry.key})"
        if negation in keys:
            conflicted.add(entry.key)
            conflicted.add(negation)
    log: list[MetaLogEntry] = []
    for entry in assertable:
        score = entry.probability * justification_health(graph, entry)
        if entry.key in conflicted:
            action = "contract"
        elif score < theta_meta:
            action = "reevaluate"
        else:
            action = "none"
        log.append(MetaLogEntry(base.epoch, entry.key, score, action))
    return log


def approximation_gate(
    exact: Formula,
    approximate: Formula,
    epsilon: float,
    epsilon_max: float = 0.05,
) -> tuple[bool, FailureEvent | None]:
    """Admit a surrogate formula only while its error bound holds."""
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    if epsilon <= epsilon_max:
        return True, None
    return False, FailureEvent(
        FailureKind.APPROXIMATION_DRIFT,
        render_canonical(approximate),
        f"epsilon={epsilon} exceeds {epsilon_max} for {render_canonical(exact)}",
    )


def run_recovery(event: FailureEvent, context: RecoveryContext) -> RecoveryReport:
    """Dispatch a failure event to its recovery protocol.

    Every run appends at least one ledger block (when a ledger is
    wired), so the post-recovery base is reproducible by replay.
    """
    protocol = {
        FailureKind.BELIEF_INCONSISTENCY: "I",
        FailureKind.JUSTIFICATION_BREAKDOWN: "II",
        FailureKind.APPROXIMATION_DRIFT: "III",
        FailureKind.GROUNDING_MISALIGNMENT: "IV",
        FailureKind.POLICY_MISPROJECTION: "V",
    }.get(event.kind, "none")
    report = RecoveryReport(protocol=protocol, event=event, base=context.base)
    if event.kind == FailureKind.BELIEF_INCONSISTENCY:
        _protocol_cascade(event, context, report)
    elif event.kind == FailureKind.JUSTIFICATION_BREAKDOWN:
        _protocol_repair(event, context, report)
    elif event.kind == FailureKind.APPROXIMATION_DRIFT:
        _protocol_reground(event, context, report)
    elif event.kind == FailureKind.GROUNDING_MISALIGNMENT:
        _protocol_reground(event, context, report)
        report.directives += ["human-review", "rollback"]
        _note(report, context, event, "flagged-for-human-review")
    elif event.kind == FailureKind.POLICY_MISPROJECTION:
        _protocol_reselect(event, context, report)
    else:
        report.escalated = True
        _note(report, context, event, "escalated(unclassified)")
    _append_summary_block(context, report)
    report.base = context.base
    return report


def _note(
    report: RecoveryReport,
    context: RecoveryContext,
    event: FailureEvent,
    outcome: str,
    subject: str | None = None,
) -> None:
    report.lines.append(
        "\t".join(
            (
                str(context.base.epoch),
                event.kind.value,
                report.protocol,
                subject if subject is not None else event.subject,
                outcome,
            )
        )
    )


def _append_block(
    context: RecoveryContext,
    op: str,
    formula: str,
    digest: bytes,
) -> None:
    if context.ledger is not None:
        context.ledger.append(
            op=op,
            formula=formula,
            justification_digest=digest,
            timestamp=context.clock(),
        )


def _append_summary_block(context: RecoveryContext, report: RecoveryReport) -> None:
    digest = hashlib.sha256(report.render().encode()).digest()
    _append_block(context, "recovery", "", digest)


def _protocol_cascade(
    event: FailureEvent, context: RecoveryContext, report: RecoveryReport
) -> None:
    """Protocol I: retract a minimal conflicting set, then re-support."""
    cores = detect_contradiction(context.base)
    if not cores:
        _note(report, context, event, "already-consistent")
        return
    context.base, actions = resolve_contradiction(
        context.base, cores[0], context.config.reliability
    )
    for method, key in actions:
        if method == "retract":
            _append_block(context, "recovery", key, ZERO_DIGEST)
            _note(report, context, event, "retracted", subject=key)
        else:
            _append_block(context, "contract", key, ZERO_DIGEST)
            _note(report, context, event, "contracted", subject=key)
    if not is_consistent_base(context.base):
        report.escalated = True
        _note(report, context, event, "escalated(unresolved)")
        return
    for entry in list(context.base.entries):
        if _support_broken(context, entry):
            _rejustify_or_demote(entry, event, context, report)


def _support_broken(context: RecoveryContext, entry: BeliefEntry) -> bool:
    if entry.justification is None:
        return False
    if entry.justification not in context.graph:
        return True
    active = {e.key for e in context.base.entries}
    try:
        chain = context.graph.trace(entry.justification)
    except LookupError:
        return True
    for node in chain:
        if node.premises:
            continue
        if node.node_id == entry.justification:
            continue
        if render_canonical(node.conclusion) not in active:
            return True
    return False


def _protocol_repair(
    event: FailureEvent, context: RecoveryContext, report: RecoveryReport
) -> None:
    """Protocol II: re-derive from alternate premises or demote."""
    try:
        formula = parse(event.subject)
    except ValueError:
        report.escalated = True
        _note(report, context, event, "escalated(bad-subject)")
        return
    entry = context.base.find(formula)
    if entry is None:
        _note(report, context, event, "no-entry")
        return
    _rejustify_or_demote(entry, event, context, report)


def _rejustify_or_demote(
    entry: BeliefEntry,
    event: FailureEvent,
    context: RecoveryContext,
    report: RecoveryReport,
) -> None:
    active = {e.key for e in context.base.entries}
    for candidate in context.graph.nodes_for(entry.formula):
        if candidate == entry.justification:
            continue
        if not _candidate_supported(context.graph, candidate, active):
            continue
        node = context.graph.node(candidate)
        context.base = amend_entry(
            context.base,
            entry.formula,
            probability=node.provenance.confidence,
            status=status_for(node.rule, node.provenance.confidence),
            justification=candidate,
            assertable=assertion_gate(
                node.provenance.confidence,
                context.graph.depth(candidate),
                context.config,
            ),
        )
        _append_block(context, "recovery", entry.key, bytes.fromhex(candidate))
        _note(report, context, event, "rejustified", subject=entry.key)
        return
    node_id = context.graph.record_inference(
        entry.formula,
        (),
        "demotion",
        Provenance("guard", context.clock(), DEMOTED_PROBABILITY),
    )
    context.base = amend_entry(
        context.base,
        entry.formula,
        probability=DEMOTED_PROBABILITY,
        status=StatusTag.APPROXIMATE,
        justification=node_id,
        assertable=False,
    )
    _append_block(context, "recovery", entry.key, bytes.fromhex(node_id))
    _note(report, context, event, "demoted", subject=entry.key)


def _candidate_supported(
    graph: JustificationGraph, node_id: str, active: set[str]
) -> bool:
    node = graph.node(node_id)
    if node.rule in MARKING_RULES:
        return False
    try:
        chain = graph.trace(node_id)
    except LookupError:
        return False
    for step in chain:
        if step.premises or step.node_id == node_id:
            continue
        if render_canonical(step.conclusion) not in active:
            return False
    return True


def _protocol_reground(
    event: FailureEvent, context: RecoveryContext, report: RecoveryReport
) -> None:
    """Protocols III/IV: mark the suspect formula for re-observation."""
    try:
        formula = parse(event.subject)
    except ValueError:
        report.escalated = True
        _note(report, context, event, "escalated(bad-subject)")
        return
    entry = context.base.find(formula)
    if entry is None:
        _note(report, context, event, "no-entry")
        return
    node_id = context.graph.record_inference(
        entry.formula,
        (),
        "regrounding",
        Provenance("guard", context.clock(), entry.probability),
    )
    context.base = amend_entry(
        context.base,
        entry.formula,
        status=StatusTag.APPROXIMATE,
        justification=node_id,
        assertable=False,
    )
    _append_block(context, "recovery", entry.key, bytes.fromhex(node_id))
    _note(report, context, event, "marked-for-reobservation", subject=entry.key)


def _protocol_reselect(
    event: FailureEvent, context: RecoveryContext, report: RecoveryReport
) -> None:
    """Protocol V: block the offending policy and pick an alternate."""
    _note(report, context, event, "blocked")
    if context.replan is None:
        report.escalated = True
        _note(report, context, event, "escalated(no-alternate)")
        return
    alternate = context.replan()
    if alternate is None:
        report.escalated = True
        _note(report, context, event, "escalated(no-alternate)")
    else:
        _note(report, context, event, f"reselected({alternate})")
