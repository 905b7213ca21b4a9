"""Belief base with provenance, confidence tiers, and AGM-style change.

A BeliefBase is an immutable snapshot: every operation returns a new base
at the next epoch and appends one item to its trail, the keys it put,
the keys it dropped and why, so any two epochs can be diffed later and
every removal can be read back with its reason.  Contraction is partial
meet over relevance-restricted remainder sets: subsets are enumerated
only over the formulas atom-connected to the target, and the rest of
the base joins every remainder whole.  Revision follows the Levi
identity, and nothing is ever silently dropped: every removal lands in
the trail, which retraction_log reads as records.

Consistency verdicts are not cached, but a base known to be consistent
keeps a witness, a model of its formulas (see logic.sat.Witness), and
the witness is its only consistency record.  The next expansion first
tests only the incoming formula against it and solves the whole base
only when that test cannot decide.  Retraction and amendment keep the
witness, because a model of a set is a model of any subset.
Contraction keeps the part of the witness over the atoms it leaves
alone and picks literals for what it keeps of the target's component,
so a revision's closing expansion extends a witness instead of solving
its base.  A revision that update_belief_state routes asks no question
twice: its failed expansion has already shown that the base entails the
negation of the entry.  Every other producer drops the witness.

The admission policy lives here too: assertion_gate (the probability
floor theta and the epistemic-risk ceiling) decides whether an entry is
assertable, and MARKING_RULES names the node rules that mark an entry
for re-observation instead.
"""

from __future__ import annotations

import enum
import math
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Iterable, Iterator

from .config import EngineConfig
from .logic import (
    Formula,
    Not,
    entails,
    is_consistent,
    render_canonical,
)
from .logic.sat import (
    ResourceLimitError,
    Witness,
    _compiled,
    extend_witness,
    is_satisfiable,
)

DEFAULT_THETA = 0.95
REMAINDER_CAP = 16

DEMOTED_PROBABILITY = 0.005


class DomainError(ValueError):
    """Raised when a probability argument falls outside its domain."""


class ConsistencyError(RuntimeError):
    """Raised when an operation would break or requires consistency."""


class TautologyContractionWarning(UserWarning):
    """Contracting a tautology cannot succeed; the base is returned as is."""


class ConfidenceTier(enum.IntEnum):
    REJECTED = 0
    DISFAVOURED = 1
    EQUIVOCAL = 2
    SUPPORTED = 3
    ENDORSED = 4
    COMMITTED = 5


class FourState(enum.Enum):
    REJECTED = "Rejected"
    UNCERTAIN = "Uncertain"
    PROVISIONAL = "Provisional"
    COMMITTED = "Committed"


class StatusTag(enum.Enum):
    DERIVED = "derived"
    APPROXIMATE = "approximate"
    OPERATIONAL = "operationally-justified"
    RETRACTED = "retracted"


def classify_confidence(probability: float) -> ConfidenceTier:
    """Map a probability to its six-level confidence tier.

    Band edges: 0.01, 0.3, 0.7, 0.9 and 0.99, each closed on the left.
    """
    _check_probability(probability)
    if probability < 0.01:
        return ConfidenceTier.REJECTED
    if probability < 0.3:
        return ConfidenceTier.DISFAVOURED
    if probability < 0.7:
        return ConfidenceTier.EQUIVOCAL
    if probability < 0.9:
        return ConfidenceTier.SUPPORTED
    if probability < 0.99:
        return ConfidenceTier.ENDORSED
    return ConfidenceTier.COMMITTED


def project_four_state(probability: float) -> FourState:
    """Project a probability onto the coarse four-state scale.

    Thresholds 0.50 / 0.95 / 0.99 separate Rejected, Uncertain,
    Provisional and Committed.
    """
    _check_probability(probability)
    if probability < 0.50:
        return FourState.REJECTED
    if probability < 0.95:
        return FourState.UNCERTAIN
    if probability < 0.99:
        return FourState.PROVISIONAL
    return FourState.COMMITTED


def weakest_link(probabilities: Iterable[float]) -> float:
    """Probability carried by a deduction: the minimum over its premises."""
    values = list(probabilities)
    if not values:
        raise DomainError("a deduction needs at least one premise")
    for value in values:
        _check_probability(value)
    return min(values)


def _check_probability(value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise DomainError(f"probability out of range: {value}")


@dataclass(frozen=True)
class Provenance:
    """Where a belief came from: source label, timestamp, confidence."""

    source: str
    timestamp: int
    confidence: float

    def __post_init__(self) -> None:
        _check_probability(self.confidence)
        if self.timestamp < 0:
            raise ValueError(f"negative timestamp: {self.timestamp}")


@dataclass(frozen=True)
class BeliefEntry:
    """One held formula with its probability and bookkeeping.

    The tier is derived from the probability and never set directly;
    assertable is False for entries stored below the assertion gate.
    """

    formula: Formula
    probability: float
    provenance: Provenance
    status: StatusTag = StatusTag.DERIVED
    justification: str | None = None
    assertable: bool = True
    tier: ConfidenceTier = field(init=False)
    # The canonical rendering of the formula, computed once.
    key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tier", classify_confidence(self.probability))
        object.__setattr__(self, "key", render_canonical(self.formula))


@dataclass(frozen=True)
class RetractionRecord:
    epoch: int
    formula: str
    reason: str


class _Chain:
    """A persistent append-only sequence: a cons list with a cached length.

    _Chain(item, chain) is chain with item appended; it shares every link
    of chain, so appending costs O(1) however long the chain is.
    Iteration runs oldest first.  Iteration and comparison walk the
    links in a loop, so a long chain needs no deep recursion.
    """

    __slots__ = ("_last", "_rest", "_len")

    def __init__(self, last: object = None, rest: _Chain | None = None) -> None:
        self._last = last
        self._rest = rest
        self._len = 0 if rest is None else rest._len + 1

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator:
        items = []
        link = self
        while link._rest is not None:
            items.append(link._last)
            link = link._rest
        return reversed(items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Chain):
            return NotImplemented
        if self._len != other._len:
            return False
        mine, theirs = self, other
        # A shared link means the rest is shared too.
        while mine is not theirs and mine._rest is not None:
            if mine._last != theirs._last:
                return False
            mine, theirs = mine._rest, theirs._rest
        return True

    def __hash__(self) -> int:
        return self._len

    def since(self, earlier: _Chain) -> list | None:
        """Items appended after earlier, newest first; None if not after it."""
        items, link = [], self
        for _ in range(self._len - earlier._len):
            items.append(link._last)
            link = link._rest
        return items if link is earlier else None

    def __repr__(self) -> str:
        return f"_Chain({list(self)!r})"


_EMPTY = _Chain()
# The trail item of an epoch that put and dropped nothing.
_UNCHANGED: tuple[tuple[str, ...], tuple[str, ...], str] = ((), (), "")
_entry_key = attrgetter("key")


@dataclass(frozen=True)
class BeliefBase:
    """Immutable belief snapshot plus the trail that led to it.

    entries holds the beliefs in key order, and an index maps each key
    to its entry.  history, the trail, holds one (put keys, dropped
    keys, reason) item per epoch, from epoch 0 on: an expansion or an
    amendment puts a key, added or replaced; a contraction or a
    retraction drops keys, one per entry given up, for the reason it
    names.  epoch, retraction_log and epoch_diff are read from it, and
    a SweepIndex reads it for the keys to score again.  The trail is a
    persistent chain shared with the parent base: an operation appends
    to it in O(1) and places its entries by bisection, so it neither
    copies the past nor sorts the base again.  A base not made by an
    operation starts a trail of its own.  Equality compares the entries
    and the trail.

    witness, when set, is a model of the formulas and records that they
    are consistent; None means not known, so callers fall back to a SAT
    check (see is_consistent_base).
    """

    entries: tuple[BeliefEntry, ...] = ()
    _by_key: dict[str, BeliefEntry] = field(
        default_factory=dict, repr=False, compare=False
    )
    history: _Chain = field(default_factory=lambda: _Chain(_UNCHANGED, _EMPTY))
    witness: Witness | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_entries(cls, entries: Iterable[BeliefEntry]) -> BeliefBase:
        ordered = tuple(sorted(entries, key=_entry_key))
        by_key: dict[str, BeliefEntry] = {}
        for entry in ordered:
            by_key.setdefault(entry.key, entry)
        return cls(
            entries=ordered,
            _by_key=by_key,
            history=_Chain((tuple(by_key), (), ""), _EMPTY),
        )

    @property
    def epoch(self) -> int:
        return len(self.history) - 1

    @property
    def retraction_log(self) -> tuple[RetractionRecord, ...]:
        return tuple(
            RetractionRecord(epoch, key, reason)
            for epoch, (_, dropped, reason) in enumerate(self.history)
            for key in dropped
        )

    def formulas(self) -> list[Formula]:
        return [entry.formula for entry in self.entries]

    def assertable_formulas(self) -> list[Formula]:
        return [entry.formula for entry in self.entries if entry.assertable]

    def find(self, formula: Formula) -> BeliefEntry | None:
        return self._by_key.get(render_canonical(formula))

    def _advance(
        self,
        put: BeliefEntry | None = None,
        dropped: tuple[str, ...] = (),
        reason: str = "",
        witness: Witness | None = None,
    ) -> BeliefBase:
        """The base at the next epoch.

        put replaces every entry under its key, or joins in key order;
        dropped names held keys, in key order, whose entries leave, once
        each however often a key is named.  Each is placed by bisection
        and the index is copied, so no entry is sorted again and the
        trail is not copied.
        """
        entries = self.entries
        if put is None:
            by_key = self._by_key.copy()
        else:
            lo = hi = bisect_left(entries, put.key, key=_entry_key)
            if put.key in self._by_key:
                hi = bisect_right(entries, put.key, lo, key=_entry_key)
            entries = entries[:lo] + (put,) + entries[hi:]
            by_key = {**self._by_key, put.key: put}
        for key in dropped:
            if by_key.pop(key, None) is None:
                continue
            lo = bisect_left(entries, key, key=_entry_key)
            hi = bisect_right(entries, key, lo, key=_entry_key)
            entries = entries[:lo] + entries[hi:]
        item = (() if put is None else (put.key,), dropped, reason)
        return BeliefBase(entries, by_key, _Chain(item, self.history), witness)


def is_consistent_base(base: BeliefBase) -> bool:
    """Whether the base's formulas are jointly satisfiable.

    Reads the witness and runs the SAT check only when there is none.
    """
    return base.witness is not None or is_consistent(base.formulas())


def expand(base: BeliefBase, entry: BeliefEntry) -> BeliefBase:
    """Add an entry without giving anything up.

    Re-observing a formula already present replaces its entry.  Raises
    ConsistencyError when the result would be unsatisfiable.
    """
    consistent, witness = _check_expansion(base, entry)
    if not consistent:
        raise ConsistencyError(
            f"expansion by {entry.key} would make the base inconsistent"
        )
    return base._advance(entry, witness=witness)


def _check_expansion(
    base: BeliefBase, entry: BeliefEntry
) -> tuple[bool, Witness | None]:
    """Whether base plus entry is consistent, and a witness if one is known.

    Extends the base's witness when it can; otherwise runs the full SAT
    check, which also raises where a resource limit is reached.
    """
    if base.witness is not None:
        if entry.key in base._by_key:
            # Same key, same formula: the witnessed set does not change.
            return True, base.witness
        witness = extend_witness(base.witness, entry.formula)
        if witness is not None:
            return True, witness
    others = [e.formula for e in base.entries if e.key != entry.key]
    found: list[Witness] = []
    consistent = is_consistent(others + [entry.formula], witnesses=found)
    return consistent, found[0] if found else None


def remainders(
    formulas: Iterable[Formula],
    target: Formula,
    *,
    entailed: bool = False,
) -> frozenset[frozenset[Formula]]:
    """All maximal subsets that fail to entail the target.

    Enumerates subsets by decreasing size, skipping anything contained
    in a remainder already found, so only maximal sets survive.  A
    caller that knows the formulas entail the target and the target is
    no tautology passes entailed=True: the whole set then entails it and
    the empty set does not, so neither is asked, and k formulas take at
    most 2^k - 2 entailment checks, none when k is 1.
    """
    pool = sorted(set(formulas), key=render_canonical)
    if len(pool) > REMAINDER_CAP:
        raise ResourceLimitError(
            f"remainder enumeration over {len(pool)} formulas,"
            f" cap is {REMAINDER_CAP}"
        )
    full = (1 << len(pool)) - 1
    found: list[frozenset[Formula]] = []
    masks = sorted(range(full + 1), key=lambda m: -bin(m).count("1"))
    for mask in masks:
        subset = frozenset(f for i, f in enumerate(pool) if mask >> i & 1)
        if any(subset <= bigger for bigger in found):
            continue
        if entailed and mask == full:
            continue
        if (entailed and mask == 0) or not entails(subset, target):
            found.append(subset)
    return frozenset(found)


def contract(
    base: BeliefBase, target: Formula, *, reason: str | None = None
) -> BeliefBase:
    """Partial meet contraction: give up the target formula.

    The selection function keeps the remainders with the largest total
    provenance confidence and intersects them on ties.  Remainders are
    enumerated over the target's atom component only (see
    _contract_entailed), so REMAINDER_CAP bounds that component, not the
    whole base.  Contracting a tautology is impossible and returns the
    base unchanged after a warning; a target the base never entailed is
    a no-op.  Each entry given up is logged with the reason,
    contract(target) unless the caller names another.  A witness of the
    base survives as a witness of what is kept.
    """
    if entails([], target):
        warnings.warn(
            f"cannot contract tautology {render_canonical(target)}",
            TautologyContractionWarning,
        )
        return base
    if not entails(base.formulas(), target):
        return base
    return _contract_entailed(
        base,
        target,
        _compiled(target).atom_ids,
        reason or f"contract({render_canonical(target)})",
    )


def _contract_entailed(
    base: BeliefBase, target: Formula, atom_ids: frozenset[int], reason: str
) -> BeliefBase:
    """contract, for a caller that knows the base entails the target and
    the target is no tautology; atom_ids are the target's atoms.

    Remainders, selection and the entries dropped come from the target's
    part R alone (see _relevant_part); the unrelated part U joins every
    remainder whole.  R entails the target too, by the same splitting
    argument, so remainders asks neither R itself nor the empty set.
    The kept formulas no longer entail the target, so they are
    satisfiable; when a model of U is at hand, it is extended to the
    kept part of R and kept as the witness.
    """
    relevant, unrelated, shared = _relevant_part(base, atom_ids)
    kept = _select_remainder(
        base,
        remainders([e.formula for e in relevant], target, entailed=True),
        unrelated,
    )
    kept_keys = {render_canonical(f) for f in kept}
    dropped = sorted(e.key for e in relevant if e.key not in kept_keys)
    witness = None if shared is None else _witness_of_kept(shared, kept)
    return base._advance(None, tuple(dropped), reason, witness)


def _relevant_part(
    base: BeliefBase, atom_ids: frozenset[int]
) -> tuple[list[BeliefEntry], list[BeliefEntry], Witness | None]:
    """The entries R that contraction by a target over atom_ids works on,
    the unrelated rest U, and a model of U that leaves R's atoms free if
    one is at hand.

    U holds the entries sharing no atom with the target, even through
    other entries.  When U is consistent, a subset entails the target
    exactly when its part in R does (Parikh's splitting languages), so
    every remainder of the base is a remainder of R plus all of U.  A
    witnessed base has a consistent U, and its witness less the literals
    over R's atoms is a model of U.  Otherwise U is solved, and an
    inconsistent U makes R the whole base.
    """
    relevant, unrelated, reached = _split_by_relevance(base.entries, atom_ids)
    if base.witness is not None:
        return relevant, unrelated, _drop_atoms(base.witness, reached)
    found: list[Witness] = []
    if not is_consistent([e.formula for e in unrelated], witnesses=found):
        return list(base.entries), [], None
    return relevant, unrelated, found[0] if found else None


def _split_by_relevance(
    entries: Iterable[BeliefEntry], atom_ids: frozenset[int]
) -> tuple[list[BeliefEntry], list[BeliefEntry], frozenset[int]]:
    """Split off the entries atom-connected to atom_ids: those entries,
    the rest, and every atom the connected entries and atom_ids span."""
    reached = set(atom_ids)
    relevant: list[BeliefEntry] = []
    pending = [(e, _compiled(e.formula).atom_ids) for e in entries]
    grew = True
    while grew:
        grew = False
        rest = []
        for entry, atoms in pending:
            if reached.isdisjoint(atoms):
                rest.append((entry, atoms))
            else:
                relevant.append(entry)
                reached |= atoms
                grew = True
        pending = rest
    return relevant, [entry for entry, _ in pending], frozenset(reached)


def _drop_atoms(witness: Witness, atom_ids: frozenset[int]) -> Witness:
    """The witness of a set without the entries that span atom_ids and
    share no atom with the rest of the set: its literals and bound over
    those atoms go.  Literals over the variables naming the entries'
    subformulas may stay, as no other formula's clauses name them."""
    return Witness(
        frozenset(lit for lit in witness.literals if abs(lit) not in atom_ids),
        witness.atom_ids - atom_ids,
    )


def _witness_of_kept(shared: Witness, kept: Iterable[Formula]) -> Witness | None:
    """shared, a model that leaves the kept formulas' atoms free, extended
    to them by picking literals formula by formula; None if that gets
    stuck."""
    witness = shared
    for formula in sorted(kept, key=render_canonical):
        witness = extend_witness(witness, formula)
        if witness is None:
            return None
    return witness


def _select_remainder(
    base: BeliefBase,
    candidates: frozenset[frozenset[Formula]],
    unrelated: Iterable[BeliefEntry] = (),
) -> frozenset[Formula]:
    """The meet of the candidates with the largest total confidence.

    Each candidate's total also counts the unrelated entries, which join
    every candidate.  The result is a max and an intersection, so it
    does not depend on the order the candidates come in.
    """
    if len(candidates) <= 1:
        return next(iter(candidates), frozenset())
    weight_of = {e.key: e.provenance.confidence for e in base.entries}
    shared = [weight_of[key] for key in {e.key for e in unrelated}]

    def weight(remainder: frozenset[Formula]) -> float:
        # fsum is correctly rounded, so the total does not depend on the
        # set's iteration order, which varies with the hash seed.
        return math.fsum(
            [*(weight_of.get(render_canonical(f), 0.0) for f in remainder), *shared]
        )

    weighed = [(weight(r), r) for r in candidates]
    best = max(w for w, _ in weighed)
    return frozenset.intersection(*(r for w, r in weighed if w == best))


def revise(base: BeliefBase, entry: BeliefEntry) -> BeliefBase:
    """Levi identity: contract the negation, then expand by the entry.

    This is update_belief_state with the assertion gate off.  When the
    base plus the entry is consistent, the base does not entail the
    negation, so the contraction would change nothing and the route is
    the expansion.  Raises ConsistencyError for an unsatisfiable entry.
    """
    return update_belief_state(base, entry, theta=0.0)[0]


def update_belief_state(
    base: BeliefBase,
    entry: BeliefEntry,
    theta: float = DEFAULT_THETA,
) -> tuple[BeliefBase, str]:
    """Route an incoming entry through expansion or revision.

    Entries below the assertion gate theta are stored at their tier but
    marked non-assertable.  Returns the new base and which route ran.
    A revision contracts the entry's negation and expands by the entry,
    skipping contract's checks, which the failed expansion settled: it
    proved that the base entails the negation of a satisfiable entry,
    which is then no tautology.
    """
    if entry.assertable and entry.probability < theta:
        entry = replace(entry, assertable=False)
    consistent, witness = _check_expansion(base, entry)
    if consistent:
        return base._advance(entry, witness=witness), "expanded"
    if not is_satisfiable(entry.formula):
        raise ConsistencyError(f"cannot revise by unsatisfiable {entry.key}")
    contracted = _contract_entailed(
        base,
        Not(entry.formula),
        _compiled(entry.formula).atom_ids,
        f"revision({entry.key})",
    )
    return expand(contracted, entry), "revised"


def retract_entry(base: BeliefBase, formula: Formula, reason: str) -> BeliefBase:
    """Remove exactly one formula's entry, logging the reason.

    Unlike contract this takes no other entries with it.  Retracting a
    formula that is not held is a no-op, which keeps replays idempotent.
    """
    key = render_canonical(formula)
    if key not in base._by_key:
        return base
    return base._advance(None, (key,), reason, base.witness)


def amend_entry(
    base: BeliefBase,
    formula: Formula,
    *,
    probability: float | None = None,
    provenance: Provenance | None = None,
    status: StatusTag | None = None,
    justification: str | None = None,
    assertable: bool | None = None,
) -> BeliefBase:
    """Rewrite fields of one held entry in place, bumping the epoch."""
    current = base.find(formula)
    if current is None:
        return base
    updated = BeliefEntry(
        formula=current.formula,
        probability=probability if probability is not None else current.probability,
        provenance=provenance if provenance is not None else current.provenance,
        status=status if status is not None else current.status,
        justification=justification if justification is not None else current.justification,
        assertable=assertable if assertable is not None else current.assertable,
    )
    return base._advance(updated, witness=base.witness)


def status_for(rule: str, probability: float) -> StatusTag:
    """Status tag implied by how an entry was produced.

    Observation-like leaves are operationally justified; approximation
    entries, and anything demoted into the bottom band, are approximate;
    everything else counts as derived.
    """
    if probability < 0.01:
        return StatusTag.APPROXIMATE
    if rule in ("observation", "axiom"):
        return StatusTag.OPERATIONAL
    if rule == "approximation":
        return StatusTag.APPROXIMATE
    return StatusTag.DERIVED


MARKING_RULES = frozenset({"demotion", "regrounding"})


@dataclass(frozen=True)
class RiskAssessment:
    risk: float
    admitted: bool
    threshold: float
    depth: int


def epistemic_risk(
    entry: BeliefEntry | float,
    depth: int,
    decay: float = 0.98,
    tau_risk: float = 0.5,
) -> RiskAssessment:
    """Risk of admitting a belief: 1 - probability * decay ** depth."""
    probability = entry.probability if isinstance(entry, BeliefEntry) else entry
    risk = _risk(probability, depth, decay)
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
    """Both gates at once: the theta floor and the risk ceiling.

    The ceiling is epistemic_risk's admitted, without building its
    assessment.
    """
    if probability < config.theta:
        return False
    return _risk(probability, depth, config.decay) <= config.tau_risk


def _risk(probability: float, depth: int, decay: float) -> float:
    return 1.0 - probability * decay**depth


def epoch_diff(
    base: BeliefBase, earlier: int, later: int
) -> tuple[tuple[str, str], ...]:
    """Annotated symmetric difference between two recorded epochs.

    Each epoch's set of keys is rebuilt by folding the trail from epoch
    0; a put of a key already held changes nothing.
    """
    for epoch in (earlier, later):
        if not 0 <= epoch < len(base.history):
            raise IndexError(f"epoch {epoch} not recorded (have 0..{base.epoch})")
    held: set[str] = set()
    snapshots: dict[int, frozenset[str]] = {}
    last = max(earlier, later)
    for epoch, (put, dropped, _) in enumerate(base.history):
        held.difference_update(dropped)
        held.update(put)
        if epoch in (earlier, later):
            snapshots[epoch] = frozenset(held)
        if epoch == last:
            break
    before = snapshots[earlier]
    after = snapshots[later]
    added = [("added", key) for key in sorted(after - before)]
    retracted = [("retracted", key) for key in sorted(before - after)]
    return tuple(added + retracted)


def export_lines(base: BeliefBase) -> list[str]:
    """Render the base as tab-separated lines, one entry per line."""
    lines = []
    for entry in base.entries:
        lines.append(
            "\t".join(
                (
                    str(base.epoch),
                    entry.key,
                    repr(entry.probability),
                    str(entry.tier.value),
                    entry.provenance.source,
                    str(entry.provenance.timestamp),
                    entry.status.value,
                )
            )
        )
    return lines


def export(base: BeliefBase) -> str:
    lines = export_lines(base)
    return "\n".join(lines) + "\n" if lines else ""
