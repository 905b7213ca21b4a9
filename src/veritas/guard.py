"""Failure detection, recovery protocols, and epistemic gating.

Contradictions are located as minimal unsatisfiable cores and resolved
by provenance dominance, falling back to contraction on ties.  Failure
events carry exactly one of five kinds (belief inconsistency,
justification breakdown, approximation drift, grounding misalignment,
policy misprojection); anything else is an explicit Unknown, never a
silent default.  A protocol changes the base only by choosing block
specs (op, formula, digest) and committing each with ledger.commit,
which folds the block with apply_block and appends it only once the fold
has succeeded, so the recovered base is, by construction, the base a
replay of the ledger rebuilds.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field, replace
from typing import Callable

from .belief import (
    DEMOTED_PROBABILITY,
    MARKING_RULES,
    BeliefBase,
    BeliefEntry,
    Provenance,
    StatusTag,
    assertion_gate,
    is_consistent_base,
)
from .config import EngineConfig
from .hashing import sha256
from .justify import JustificationGraph, dominance
from .ledger import ZERO_HASH, Ledger, Op, commit
from .logic import Atom, Formula, Not, is_consistent, render_canonical
from .logic.sat import Witness, preferred_conflict


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
class MetaLogEntry:
    epoch: int
    formula: str
    score: float
    action: str


@dataclass
class RecoveryContext:
    """Everything a protocol may touch while repairing state; it
    changes the beliefs in base only through _commit."""

    base: BeliefBase
    graph: JustificationGraph
    config: EngineConfig
    ledger: Ledger
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

    Complementary pairs f / !f are found by a syntactic scan first.
    Purely semantic conflicts yield a single irreducible core: the
    preferred conflict of sat.preferred_conflict, which keeps what a
    deletion loop over the canonical order keeps (it drops the earliest
    formula first), with fewer SAT checks.
    """
    if is_consistent_base(base):
        return []
    return _cores(base)


def _cores(base: BeliefBase) -> list[frozenset[Formula]]:
    """detect_contradiction, for a base known to be inconsistent."""
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
    core = preferred_conflict(
        [],
        sorted(active, key=render_canonical, reverse=True),
        lambda formulas: not is_consistent(formulas),
    )
    return [frozenset(core)]


def resolve_contradiction(
    base: BeliefBase,
    core: frozenset[Formula],
    reliability: dict[str, float] | None = None,
    fold: Callable[[Op, str], BeliefBase] | None = None,
) -> tuple[BeliefBase, list[tuple[str, str]]]:
    """Restore consistency, starting from the given core.

    Within a core the provenance-dominated member is retracted (a
    recovery block); if no member dominates another the lowest-confidence
    one is contracted (a contract block).  fold(op, key) commits each
    such block and returns the base after it; by default the blocks go
    to a throwaway in-memory ledger.  Returns the new base and (method,
    formula) pairs for each removal, where method is "retract" or
    "contract".  A base returned consistent carries a witness: its own,
    or the model of the solve that found it consistent.
    """
    if fold is None:
        scratch = RecoveryContext(
            base, JustificationGraph(), EngineConfig(), Ledger()
        )
        fold = functools.partial(_commit, scratch)
    actions: list[tuple[str, str]] = []
    current = core
    guard_rail = len(base.entries) + 1
    while guard_rail > 0:
        guard_rail -= 1
        action = _shrink_core(base, current, reliability)
        if action is not None:
            method, key = action
            base = fold(Op.RECOVERY if method == "retract" else Op.CONTRACT, key)
            actions.append(action)
        if base.witness is not None:
            return base, actions
        found: list[Witness] = []
        if is_consistent(base.formulas(), witnesses=found):
            return replace(base, witness=found[0]), actions
        current = _cores(base)[0]
    return base, actions


def _shrink_core(
    base: BeliefBase,
    core: frozenset[Formula],
    reliability: dict[str, float] | None,
) -> tuple[str, str] | None:
    """The (method, key) of the core member to remove next."""
    entries = [e for e in base.entries if e.formula in core]
    if not entries:
        return None
    losers: set[str] = set()
    for i, a in enumerate(entries):
        for b in entries[i + 1:]:
            verdict = dominance(a.provenance, b.provenance, reliability)
            if verdict > 0:
                losers.add(b.key)
            elif verdict < 0:
                losers.add(a.key)
    if losers:
        return "retract", min(losers)
    weakest = min(entries, key=lambda e: (e.provenance.confidence, e.key))
    return "contract", weakest.key


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


def _sweep_item(
    base: BeliefBase, graph: JustificationGraph, theta_meta: float, entry: BeliefEntry
) -> MetaLogEntry:
    """The sweep's verdict on one assertable entry: contract when its
    negation, or the formula it negates, is assertable too; else
    reevaluate when probability times health is under theta_meta."""
    score = entry.probability * justification_health(graph, entry)
    held, key = base._by_key, entry.key
    if getattr(held.get(f"(! {key})"), "assertable", False) or (
        key.startswith("(! ") and getattr(held.get(key[3:-1]), "assertable", False)
    ):
        action = "contract"
    elif score < theta_meta:
        action = "reevaluate"
    else:
        action = "none"
    return MetaLogEntry(base.epoch, key, score, action)


def mscu_sweep(
    base: BeliefBase,
    graph: JustificationGraph,
    theta_meta: float = 0.6,
    index: SweepIndex | None = None,
) -> list[MetaLogEntry]:
    """Score every assertable entry and flag the unhealthy ones.

    Without an index the log holds every assertable entry in key order;
    a healthy base yields all-none, so a second sweep right after
    reacting to the first is a no-op.  With an index, kept by the caller
    across sweeps, only what changed since its last sweep is scored
    again and the log holds the flagged entries alone, in key order.
    """
    if index is None:
        held = [e for e in base.entries if e.assertable]
        return [_sweep_item(base, graph, theta_meta, e) for e in held]
    index.sync(base, graph, theta_meta)
    return [replace(index.flags[key], epoch=base.epoch) for key in sorted(index.flags)]


class SweepIndex:
    """The sweep's flags and the IsSafe gate's supports, kept from deltas.

    sync scores again only the keys that the base's trail put or dropped
    after the link it last saw: such a key k reaches k, (! k) and, when
    k is (! x), x.  An entry whose node is missing is scored again
    whenever the graph has grown, as a node can only appear.  A base
    whose trail does not extend that link, another graph or another
    theta_meta is scored in full; a base not made by an operation starts
    a trail of its own, so it is always scored in full.  By key, flags
    holds the flagged items, supports the assertable atom entries and
    failing the supports assertion_gate refuses at their node's depth,
    which never changes; atoms() is one frozenset object while the
    supports' keys stay the same.
    """

    def __init__(self, config: EngineConfig) -> None:
        self.config = config
        self._reset(None, None)

    def _reset(self, graph: JustificationGraph | None, theta_meta: float | None):
        self.flags: dict[str, MetaLogEntry] = {}
        self.supports: dict[str, BeliefEntry] = {}
        self.failing: set[str] = set()
        self._pending: set[str] = set()
        self._atoms: frozenset[Formula] | None = None
        self._graph, self._theta_meta = graph, theta_meta

    def sync(
        self, base: BeliefBase, graph: JustificationGraph, theta_meta: float
    ) -> None:
        deltas = None
        if graph is self._graph and theta_meta == self._theta_meta:
            deltas = base.history.since(self._trail)
        if deltas is None:
            self._reset(graph, theta_meta)
            keys = set(base._by_key)
        else:
            keys = set(self._pending) if len(graph) != self._nodes else set()
            for key in (k for put, dropped, _ in deltas for k in (*put, *dropped)):
                negated = key[3:-1] if key.startswith("(! ") else key
                keys.update((key, f"(! {key})", negated))
        self._trail, self._nodes = base.history, len(graph)
        for key in keys:
            self._score(base, key)

    def _score(self, base: BeliefBase, key: str) -> None:
        was_support = self.supports.pop(key, None) is not None
        self.flags.pop(key, None)
        self.failing.discard(key)
        self._pending.discard(key)
        entry = base._by_key.get(key)
        if entry is not None and entry.assertable:
            node = entry.justification
            held = node in self._graph
            if node is not None and not held:
                self._pending.add(key)
            item = _sweep_item(base, self._graph, self._theta_meta, entry)
            if item.action != "none":
                self.flags[key] = item
            if isinstance(entry.formula, Atom):
                self.supports[key] = entry
                depth = self._graph.depth(node) if held else 0
                if not assertion_gate(entry.probability, depth, self.config):
                    self.failing.add(key)
        if was_support != (key in self.supports):
            self._atoms = None

    def atoms(self) -> frozenset[Formula]:
        if self._atoms is None:
            self._atoms = frozenset(e.formula for e in self.supports.values())
        return self._atoms


def run_recovery(event: FailureEvent, context: RecoveryContext) -> RecoveryReport:
    """Dispatch a failure event to its recovery protocol.

    Every change a protocol makes to the base is a block folded through
    _commit, and every run closes with a summary recovery block whose
    digest binds the report lines, so a replay of the ledger rebuilds the
    post-recovery base.  The run's blocks and nodes are one ledger batch.
    """
    protocol, handler = _PROTOCOLS[event.kind]
    report = RecoveryReport(protocol=protocol, event=event, base=context.base)
    with context.ledger.batch():
        handler(event, context, report)
        digest = sha256(report.render().encode()).digest()
        report.base = _commit(context, Op.RECOVERY, "", digest)
    return report


def _commit(
    context: RecoveryContext, op: Op, formula: str, digest: bytes = ZERO_HASH
) -> BeliefBase:
    """Fold one block into context.base and append it; the new base."""
    context.base, _ = commit(
        context.ledger,
        context.base,
        context.config,
        context.graph,
        op,
        formula,
        digest,
        context.clock(),
    )
    return context.base


def _note(
    report: RecoveryReport,
    context: RecoveryContext,
    event: FailureEvent,
    outcome: str,
    subject: str | None = None,
) -> None:
    subject = subject if subject is not None else event.subject
    fields = (context.base.epoch, event.kind.value, report.protocol, subject, outcome)
    report.lines.append("\t".join(map(str, fields)))


def _protocol_cascade(
    event: FailureEvent, context: RecoveryContext, report: RecoveryReport
) -> None:
    """Protocol I: retract a minimal conflicting set, then re-support."""
    cores = detect_contradiction(context.base)
    if not cores:
        _note(report, context, event, "already-consistent")
        return
    context.base, actions = resolve_contradiction(
        context.base,
        cores[0],
        context.config.reliability,
        functools.partial(_commit, context),
    )
    for method, key in actions:
        outcome = "retracted" if method == "retract" else "contracted"
        _note(report, context, event, outcome, subject=key)
    if not is_consistent_base(context.base):
        report.escalated = True
        _note(report, context, event, "escalated(unresolved)")
        return
    for entry in list(context.base.entries):
        if entry.justification is not None and not _leaves_held(
            context, entry.justification
        ):
            _rejustify_or_demote(entry, event, context, report)


def _leaves_held(context: RecoveryContext, node_id: str) -> bool:
    """Whether the node resolves and every premise-free node under it,
    other than itself, concludes a formula the base holds."""
    try:
        chain = context.graph.trace(node_id)
    except LookupError:
        return False
    return all(
        step.premises
        or step.node_id == node_id
        or context.base.find(step.conclusion) is not None
        for step in chain
    )


def _subject_entry(
    event: FailureEvent, context: RecoveryContext, report: RecoveryReport
) -> BeliefEntry | None:
    """The held entry the event names, noting why when there is none."""
    try:
        formula = context.graph.formula(event.subject)
    except ValueError:
        report.escalated = True
        _note(report, context, event, "escalated(bad-subject)")
        return None
    entry = context.base.find(formula)
    if entry is None:
        _note(report, context, event, "no-entry")
    return entry


def _protocol_repair(
    event: FailureEvent, context: RecoveryContext, report: RecoveryReport
) -> None:
    """Protocol II: re-derive from alternate premises or demote."""
    entry = _subject_entry(event, context, report)
    if entry is not None:
        _rejustify_or_demote(entry, event, context, report)


def _rejustify_or_demote(
    entry: BeliefEntry,
    event: FailureEvent,
    context: RecoveryContext,
    report: RecoveryReport,
) -> None:
    """Adopt another supported node for the entry, or a demotion node.

    The recovery block names the node; apply_block amends the entry
    from it (probability, status, assertability).
    """
    for candidate in context.graph.nodes_for(entry.formula):
        if (
            candidate != entry.justification
            and context.graph.node(candidate).rule not in MARKING_RULES
            and _leaves_held(context, candidate)
        ):
            _commit(context, Op.RECOVERY, entry.key, bytes.fromhex(candidate))
            _note(report, context, event, "rejustified", subject=entry.key)
            return
    node_id = context.graph.record_inference(
        entry.formula,
        (),
        "demotion",
        Provenance("guard", context.clock(), DEMOTED_PROBABILITY),
    )
    _commit(context, Op.RECOVERY, entry.key, bytes.fromhex(node_id))
    _note(report, context, event, "demoted", subject=entry.key)


def _protocol_reground(
    event: FailureEvent, context: RecoveryContext, report: RecoveryReport
) -> None:
    """Protocols III/IV: mark the suspect formula for re-observation.

    A regrounding node keeps the entry's probability; apply_block marks
    the entry approximate and not assertable.
    """
    entry = _subject_entry(event, context, report)
    if entry is None:
        return
    node_id = context.graph.record_inference(
        entry.formula,
        (),
        "regrounding",
        Provenance("guard", context.clock(), entry.probability),
    )
    _commit(context, Op.RECOVERY, entry.key, bytes.fromhex(node_id))
    _note(report, context, event, "marked-for-reobservation", subject=entry.key)


def _protocol_flag(
    event: FailureEvent, context: RecoveryContext, report: RecoveryReport
) -> None:
    """Protocol IV: regrounding, as III, and a call for human review."""
    _protocol_reground(event, context, report)
    report.directives += ["human-review", "rollback"]
    _note(report, context, event, "flagged-for-human-review")


def _protocol_reselect(
    event: FailureEvent, context: RecoveryContext, report: RecoveryReport
) -> None:
    """Protocol V: block the offending policy and pick an alternate."""
    _note(report, context, event, "blocked")
    alternate = context.replan() if context.replan is not None else None
    if alternate is None:
        report.escalated = True
        _note(report, context, event, "escalated(no-alternate)")
    else:
        _note(report, context, event, f"reselected({alternate})")


def _protocol_escalate(
    event: FailureEvent, context: RecoveryContext, report: RecoveryReport
) -> None:
    """No protocol for an unclassified failure: escalate."""
    report.escalated = True
    _note(report, context, event, "escalated(unclassified)")


# Each failure kind's protocol: its report label and its handler.
_PROTOCOLS = {
    FailureKind.UNKNOWN: ("none", _protocol_escalate),
    FailureKind.BELIEF_INCONSISTENCY: ("I", _protocol_cascade),
    FailureKind.JUSTIFICATION_BREAKDOWN: ("II", _protocol_repair),
    FailureKind.APPROXIMATION_DRIFT: ("III", _protocol_reground),
    FailureKind.GROUNDING_MISALIGNMENT: ("IV", _protocol_flag),
    FailureKind.POLICY_MISPROJECTION: ("V", _protocol_reselect),
}
