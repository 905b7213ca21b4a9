"""Brute-force reference implementations used as test oracles.

Everything here is written independently of the library's decision
procedures: entailment is truth-table enumeration over the atoms, and
the remainder and unsat-core oracles enumerate subsets directly;
deletion_core is the plain one-at-a-time deletion loop.
witness_valuations only reads the solver's atom numbering, to turn a
kept model into valuations that tt_eval can check.  ReferenceBase keeps
a belief base the plain way, re-sorting every entry and storing every
epoch's full set of keys, and its operations decide by truth tables.
unprojected_abduce runs the planner over the whole state, without its
relevance cut, and reference_run_loop is the run loop that plans that
way from scratch on every line.  reference_sweep scores every assertable
entry on every call, reference_sweep_and_react reacts to that full log,
and reference_world_state and reference_is_safe read the whole base.
reference_parse and reference_parse_atom are the recursive-descent
parser that the operator-precedence one replaced, a descent function
per grammar level over a token list with a separate whitespace token.
reference_compile is the one distributing walk that compiled every
formula before sat named subformulas, and reference_first_bad_block
checks a ledger file's bytes field by field with hashlib.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
import re
from itertools import combinations

from veritas.belief import BeliefEntry, RetractionRecord
from veritas.logic import And, Atom, Formula, Iff, Implies, Not, Or, ParseError, atoms_of
from veritas.logic import render_canonical, sat


def tt_eval(f: Formula, env: dict[Atom, bool]) -> bool:
    if isinstance(f, Atom):
        return env[f]
    if isinstance(f, Not):
        return not tt_eval(f.operand, env)
    if isinstance(f, And):
        return tt_eval(f.left, env) and tt_eval(f.right, env)
    if isinstance(f, Or):
        return tt_eval(f.left, env) or tt_eval(f.right, env)
    if isinstance(f, Implies):
        return (not tt_eval(f.left, env)) or tt_eval(f.right, env)
    if isinstance(f, Iff):
        return tt_eval(f.left, env) is tt_eval(f.right, env)
    raise TypeError(f)


def tt_models(formulas: list[Formula]) -> list[dict[Atom, bool]]:
    """Enumerate all satisfying assignments by brute force."""
    atoms = sorted(
        {a for f in formulas for a in atoms_of(f)},
        key=lambda a: (a.predicate, a.args),
    )
    models = []
    for bits in range(1 << len(atoms)):
        env = {atom: bool(bits >> i & 1) for i, atom in enumerate(atoms)}
        if all(tt_eval(f, env) for f in formulas):
            models.append(env)
    return models


def witness_valuations(witness: sat.Witness, formulas: list[Formula]):
    """The witness over the formulas' atoms, free atoms all false, then all true."""
    atoms = {atom for f in formulas for atom in atoms_of(f)}
    for free in (False, True):
        valuation = {}
        for atom in atoms:
            lit = sat._ATOM_IDS[atom]
            if lit in witness.literals or -lit in witness.literals:
                valuation[atom] = lit in witness.literals
            else:
                valuation[atom] = free
        yield valuation


def pair_disjunction(prefix: str) -> Formula:
    """(x0 & y0) | ... | (x10 & y10) over 22 atoms, whose plain
    distribution has 2^11 = 2048 clauses."""
    pairs = [And(Atom(f"{prefix}x{i}"), Atom(f"{prefix}y{i}")) for i in range(11)]
    formula = pairs[0]
    for pair in pairs[1:]:
        formula = Or(formula, pair)
    return formula


def tt_satisfiable(formulas: list[Formula]) -> bool:
    return bool(tt_models(formulas))


def tt_entails(base: list[Formula], goal: Formula) -> bool:
    return not tt_models(list(base) + [Not(goal)])


def subset_remainders(
    formulas: list[Formula], target: Formula
) -> frozenset[frozenset[Formula]]:
    """Maximal non-entailing subsets, by checking every subset."""
    pool = list(dict.fromkeys(formulas))
    non_entailing = []
    for size in range(len(pool) + 1):
        for combo in combinations(pool, size):
            if not tt_entails(list(combo), target):
                non_entailing.append(frozenset(combo))
    return frozenset(
        s
        for s in non_entailing
        if not any(s < other for other in non_entailing)
    )


def minimal_unsat_cores(formulas: list[Formula]) -> list[frozenset[Formula]]:
    """All minimal unsatisfiable subsets, by checking every subset."""
    pool = list(dict.fromkeys(formulas))
    cores = []
    for size in range(1, len(pool) + 1):
        for combo in combinations(pool, size):
            subset = frozenset(combo)
            if tt_satisfiable(list(combo)):
                continue
            if not any(core < subset for core in cores):
                cores.append(subset)
    return cores


def deletion_core(hard, formulas, conflict):
    """What a deletion loop keeps of formulas: each in list order is
    dropped while hard plus the rest still conflicts.

    The loop Session._minimal_support and detect_contradiction once ran
    over key order, kept as the reference for sat.preferred_conflict.
    """
    core = list(formulas)
    for formula in formulas:
        rest = [f for f in core if f is not formula]
        if conflict(list(hard) + rest):
            core = rest
    return core


def random_cnf(rng: random.Random, atoms: int, clauses: int, width: int):
    """Random clauses over integer literals 1..atoms, as the solver takes them."""
    return [
        frozenset(
            rng.choice((1, -1)) * atom
            for atom in rng.sample(range(1, atoms + 1), rng.randrange(1, width + 1))
        )
        for _ in range(clauses)
    ]


def cnf_satisfiable(clauses, atoms: int) -> bool:
    """Brute force over every assignment to atoms 1..atoms."""
    for bits in range(1 << atoms):
        true = {a if bits >> (a - 1) & 1 else -a for a in range(1, atoms + 1)}
        if all(not true.isdisjoint(clause) for clause in clauses):
            return True
    return False


def random_formula(rng: random.Random, atoms: list[Atom], depth: int) -> Formula:
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(atoms)
    kind = rng.randrange(5)
    if kind == 0:
        return Not(random_formula(rng, atoms, depth - 1))
    left = random_formula(rng, atoms, depth - 1)
    right = random_formula(rng, atoms, depth - 1)
    return [And, Or, Implies, Iff][kind - 1](left, right)


def two_pass_clausify(formula: Formula):
    """Plain distribution in two passes: build the negation normal form,
    then distribute it, less tautologies.  Its size is exponential in
    the worst case."""
    return tuple(
        clause
        for clause in _nnf_clauses(_nnf(formula, True))
        if not any(-lit in clause for lit in clause)
    )


def _nnf(formula: Formula, positive: bool) -> Formula:
    if isinstance(formula, Atom):
        return formula if positive else Not(formula)
    if isinstance(formula, Not):
        return _nnf(formula.operand, not positive)
    if isinstance(formula, (And, Or)):
        left = _nnf(formula.left, positive)
        right = _nnf(formula.right, positive)
        same = type(formula) if positive else {And: Or, Or: And}[type(formula)]
        return same(left, right)
    if isinstance(formula, Implies):
        return _nnf(Or(Not(formula.left), formula.right), positive)
    expanded = And(
        Or(Not(formula.left), formula.right),
        Or(Not(formula.right), formula.left),
    )
    return _nnf(expanded, positive)


def _nnf_clauses(formula: Formula) -> list[frozenset[int]]:
    if isinstance(formula, Atom):
        return [frozenset({sat._ATOM_IDS[formula]})]
    if isinstance(formula, Not):
        return [frozenset({-sat._ATOM_IDS[formula.operand]})]
    left = _nnf_clauses(formula.left)
    right = _nnf_clauses(formula.right)
    if isinstance(formula, And):
        return left + right
    return [a | b for a in left for b in right]


def reference_compile(formula: Formula) -> sat._Compiled:
    """What sat compiled every formula into before it named subformulas:
    the atoms' ids, handed out in sorted atom order, and the clauses of
    one distributing walk less tautologies, with no fresh variables.
    Ids come from sat._ATOM_IDS as it is at the call, so a test may swap
    in a fresh table."""
    atoms = sorted(atoms_of(formula), key=lambda a: (a.predicate, a.args))
    atom_ids = frozenset(sat._ATOM_IDS[atom] for atom in atoms)
    clauses = tuple(
        clause
        for clause in _reference_cnf(formula, True)
        if not any(-lit in clause for lit in clause)
    )
    return sat._Compiled(atom_ids, clauses, ())


def _reference_cnf(formula: Formula, positive: bool) -> list[frozenset[int]]:
    """Clauses of formula, or of its negation when positive is False,
    each subformula walked once per polarity."""
    if isinstance(formula, Atom):
        literal = sat._ATOM_IDS[formula]
        return [frozenset({literal if positive else -literal})]
    if isinstance(formula, Not):
        return _reference_cnf(formula.operand, not positive)
    if isinstance(formula, Iff):
        left, right = formula.left, formula.right
        if positive:
            first = _reference_or(_reference_cnf(left, False), _reference_cnf(right, True))
            return first + _reference_or(_reference_cnf(right, False), _reference_cnf(left, True))
        return _reference_or(
            _reference_cnf(left, True) + _reference_cnf(right, False),
            _reference_cnf(right, True) + _reference_cnf(left, False),
        )
    if isinstance(formula, Implies):
        left = _reference_cnf(formula.left, not positive)
        conjunction = not positive
    else:
        left = _reference_cnf(formula.left, positive)
        conjunction = isinstance(formula, And) == positive
    right = _reference_cnf(formula.right, positive)
    return left + right if conjunction else _reference_or(left, right)


def _reference_or(left, right):
    return [a | b for a in left for b in right]


def reference_first_bad_block(data: bytes) -> int | None:
    """The index ledger verify names for a .vlog file's bytes, or None.

    Each line must split on 0x1F into index, timestamp, op, formula,
    justification digest, previous hash and hash, each spelt exactly as
    a block line spells it; the hash must be the SHA-256 of the line up
    to its last separator, and each block must name its position and
    the previous block's hash.  Only the final newline may end an empty
    piece.  Hashing is hashlib's, not the ledger's.
    """
    ops = {"insert", "contract", "revise", "recovery", "trace-seal", "meta"}
    lines = data.split(b"\n")
    if not lines[-1]:
        lines.pop()
    previous = "0" * 64
    for position, raw in enumerate(lines):
        fields = raw.split(b"\x1f")
        try:
            text = [field.decode() for field in fields]
        except UnicodeDecodeError:
            return position
        if len(text) != 7:
            return position
        index, timestamp, op, _formula, digest, h_prev, h = text
        numbers_ok = all(
            n.isascii() and n.isdigit() and str(int(n)) == n for n in (index, timestamp)
        )
        hexes_ok = all(
            len(x) == 64 and all(c in "0123456789abcdef" for c in x)
            for x in (digest, h_prev, h)
        )
        if not (numbers_ok and hexes_ok and op in ops):
            return position
        if int(index) != position or h_prev != previous:
            return position
        if hashlib.sha256(raw[: raw.rindex(b"\x1f")]).hexdigest() != h:
            return position
        previous = h
    return None


def bfs_plan(domain, max_depth: int):
    """Shortest plan by queue-based search over reachable states.

    Independent of the planner: enumerates every type-correct ground
    action up front, substituting each schema's parameters itself, and
    walks the state graph breadth first.  Returns the action list, or
    None when the goal is out of reach within max_depth steps.
    """
    from collections import deque

    from veritas.plan import GroundAction, type_check
    from itertools import product

    def ground(atom, binding):
        return Atom(atom.predicate, tuple(binding.get(a, a) for a in atom.args))

    def holds(literals, atoms):
        return all((atom in atoms) == positive for atom, positive in literals)

    schema_names = {s.name for s in domain.schemas}
    entities = sorted(
        name for name, _ in domain.ontology.typing if name not in schema_names
    )
    actions = []
    for schema in domain.schemas:
        pools = []
        for _, concept in schema.params:
            pools.append(
                [
                    e
                    for e in entities
                    if domain.ontology.is_subtype(
                        domain.ontology.concept_of(e) or "", concept
                    )
                ]
            )
        for combo in product(*pools):
            action = GroundAction(schema, tuple(combo))
            if type_check(action, domain.ontology) is not None:
                continue
            binding = {name: arg for (name, _), arg in zip(schema.params, combo)}
            pre = [(ground(lit.atom, binding), lit.positive) for lit in schema.pre]
            add = frozenset(ground(atom, binding) for atom in schema.add)
            delete = frozenset(ground(atom, binding) for atom in schema.delete)
            actions.append((action, pre, add, delete))
    goal = [(lit.atom, lit.positive) for lit in domain.goal]
    start = domain.init.atoms
    queue = deque([(start, [])])
    seen = {start}
    while queue:
        atoms, path = queue.popleft()
        if holds(goal, atoms):
            return path
        if len(path) >= max_depth:
            continue
        for action, pre, add, delete in actions:
            if not holds(pre, atoms):
                continue
            nxt = (atoms - delete) | add
            if nxt in seen:
                continue
            seen.add(nxt)
            queue.append((nxt, path + [action]))
    return None


def random_domain(rng: random.Random):
    """A small random typed domain with reachable and unreachable goals.

    Concepts form a two-level tree and entities get random leaf
    concepts.  Predicates are unary, which keeps the ground-atom
    universe under ten atoms so bfs_plan stays exhaustive and fast.  The
    goal is sampled freely, so it may or may not be reachable; callers
    decide both cases against bfs_plan.
    """
    from veritas.plan import (
        ActionSchema,
        Domain,
        Literal,
        Ontology,
        WorldState,
    )

    top = "Thing"
    leaf_concepts = [f"Kind{i}" for i in range(rng.randrange(1, 3))]
    concepts = frozenset([top, *leaf_concepts])
    edges = frozenset((leaf, top) for leaf in leaf_concepts)
    entities = [
        (f"E{i}", rng.choice(leaf_concepts))
        for i in range(rng.randrange(2, 4))
    ]
    predicates = [f"P{i}" for i in range(rng.randrange(2, 4))]
    schemas = []
    for i in range(rng.randrange(1, 5)):
        arity = rng.randrange(1, 3)
        params = tuple(
            (f"x{j}", rng.choice([top, *leaf_concepts])) for j in range(arity)
        )
        names = [name for name, _ in params]

        def random_atom():
            return Atom(rng.choice(predicates), (rng.choice(names),))

        pre = tuple(
            Literal(random_atom(), positive=rng.random() < 0.7)
            for _ in range(rng.randrange(0, 3))
        )
        add = {random_atom() for _ in range(rng.randrange(0, 3))}
        delete = {random_atom() for _ in range(rng.randrange(0, 3))} - add
        schemas.append(
            ActionSchema(
                f"Act{i}", params, pre, tuple(sorted(add, key=repr)),
                tuple(sorted(delete, key=repr)),
            )
        )
    entity_names = [name for name, _ in entities]

    def ground_atom():
        return Atom(rng.choice(predicates), (rng.choice(entity_names),))

    init = frozenset(ground_atom() for _ in range(rng.randrange(0, 5)))
    goal = tuple(
        Literal(ground_atom(), positive=rng.random() < 0.8)
        for _ in range(rng.randrange(1, 3))
    )
    ontology = Ontology(concepts, edges, tuple(entities))
    return Domain(
        ontology=ontology,
        schemas=tuple(schemas),
        init=WorldState(init),
        goal=goal,
    )


@dataclasses.dataclass(frozen=True)
class ReferenceBase:
    """A belief base kept by sorting and snapshotting.

    Every operation sorts the whole entry list again, copies the
    retraction log, and appends the full set of held keys to history.
    Equality compares the same four parts that BeliefBase equality does.
    """

    epoch: int = 0
    entries: tuple[BeliefEntry, ...] = ()
    retraction_log: tuple[RetractionRecord, ...] = ()
    history: tuple[frozenset[str], ...] = (frozenset(),)

    @classmethod
    def from_entries(cls, entries) -> ReferenceBase:
        ordered = tuple(sorted(entries, key=lambda e: e.key))
        return cls(entries=ordered, history=(frozenset(e.key for e in ordered),))

    def advance(self, entries, records=()) -> ReferenceBase:
        ordered = tuple(sorted(entries, key=lambda e: e.key))
        return ReferenceBase(
            self.epoch + 1,
            ordered,
            self.retraction_log + tuple(records),
            self.history + (frozenset(e.key for e in ordered),),
        )

    def formulas(self) -> list[Formula]:
        return [e.formula for e in self.entries]

    def find(self, formula: Formula) -> BeliefEntry | None:
        key = render_canonical(formula)
        for entry in self.entries:
            if entry.key == key:
                return entry
        return None


def reference_update(base: ReferenceBase, entry: BeliefEntry, theta: float = 0.95):
    """update_belief_state: expand when consistent, else revise."""
    if entry.assertable and entry.probability < theta:
        entry = dataclasses.replace(entry, assertable=False)
    others = [e.formula for e in base.entries if e.key != entry.key]
    if tt_satisfiable(others + [entry.formula]):
        return _reference_put(base, entry), "expanded"
    return reference_revise(base, entry), "revised"


def _reference_put(base: ReferenceBase, entry: BeliefEntry) -> ReferenceBase:
    return base.advance([e for e in base.entries if e.key != entry.key] + [entry])


def reference_contract(
    base: ReferenceBase, target: Formula, reason: str | None = None
) -> ReferenceBase:
    """Partial meet over brute-force remainders, heaviest kept, ties met."""
    if not tt_satisfiable([Not(target)]):
        return base
    formulas = base.formulas()
    if not tt_entails(formulas, target):
        return base
    weight_of = {e.key: e.provenance.confidence for e in base.entries}

    def weight(remainder):
        return math.fsum(weight_of[render_canonical(f)] for f in remainder)

    candidates = sorted(
        subset_remainders(formulas, target),
        key=lambda r: tuple(sorted(render_canonical(f) for f in r)),
    )
    best = max(weight(r) for r in candidates)
    tied = [r for r in candidates if weight(r) == best]
    kept = frozenset.intersection(*tied)
    kept_keys = {render_canonical(f) for f in kept}
    reason = reason or f"contract({render_canonical(target)})"
    return base.advance(
        [e for e in base.entries if e.key in kept_keys],
        [
            RetractionRecord(base.epoch + 1, e.key, reason)
            for e in base.entries
            if e.key not in kept_keys
        ],
    )


def reference_revise(base: ReferenceBase, entry: BeliefEntry) -> ReferenceBase:
    contracted = reference_contract(
        base, Not(entry.formula), f"revision({entry.key})"
    )
    return _reference_put(contracted, entry)


def reference_retract(
    base: ReferenceBase, formula: Formula, reason: str
) -> ReferenceBase:
    key = render_canonical(formula)
    if base.find(formula) is None:
        return base
    return base.advance(
        [e for e in base.entries if e.key != key],
        [RetractionRecord(base.epoch + 1, key, reason)],
    )


def reference_amend(
    base: ReferenceBase, formula: Formula, probability: float
) -> ReferenceBase:
    current = base.find(formula)
    if current is None:
        return base
    updated = BeliefEntry(
        current.formula,
        probability,
        current.provenance,
        current.status,
        current.justification,
        current.assertable,
    )
    return _reference_put(base, updated)


def reference_epoch_diff(base: ReferenceBase, earlier: int, later: int):
    before, after = base.history[earlier], base.history[later]
    return tuple(
        [("added", key) for key in sorted(after - before)]
        + [("retracted", key) for key in sorted(before - after)]
    )


def _whole_state(goal, state, schemas):
    return state


def unprojected_abduce(goal, state, schemas, ontology):
    """abduce_policy searching the whole state, without its relevance cut."""
    from unittest import mock

    from veritas.plan import search

    with mock.patch.object(search, "relevant_state", _whole_state):
        return search.abduce_policy(goal, state, schemas, ontology)


def reference_sweep(base, graph, theta_meta: float = 0.6):
    """mscu_sweep as one full pass over the base, on every call.

    Every assertable entry is scored: probability times health (0 for a
    missing node, 0.5 for an approximate entry, else 1).  An entry whose
    negation is held assertable, and that negation, are flagged for
    contraction; any other score under theta_meta for re-evaluation.
    """
    from veritas.belief import StatusTag
    from veritas.guard import MetaLogEntry

    assertable = [e for e in base.entries if e.assertable]
    keys = {e.key for e in assertable}
    conflicted: set[str] = set()
    for entry in assertable:
        negation = f"(! {entry.key})"
        if negation in keys:
            conflicted.add(entry.key)
            conflicted.add(negation)
    log = []
    for entry in assertable:
        if entry.justification is None or entry.justification not in graph:
            health = 0.0
        elif entry.status == StatusTag.APPROXIMATE:
            health = 0.5
        else:
            health = 1.0
        score = entry.probability * health
        if entry.key in conflicted:
            action = "contract"
        elif score < theta_meta:
            action = "reevaluate"
        else:
            action = "none"
        log.append(MetaLogEntry(base.epoch, entry.key, score, action))
    return log


def reference_sweep_and_react(session) -> list:
    """Session.sweep_and_react reacting to reference_sweep's full log:
    one META block per flagged item, protocol I for the first conflict
    and protocol II for each weak entry, in key order."""
    from veritas.guard import FailureEvent, FailureKind
    from veritas.ledger import Op

    log = reference_sweep(session.base, session.graph, session.config.theta_meta)
    reports = []
    contradiction_handled = False
    for item in log:
        if item.action == "none":
            continue
        session.ledger.append(
            Op.META,
            formula=f"sweep:{item.action}:{item.formula}",
            timestamp=session._block_ts(),
        )
        if item.action == "contract" and not contradiction_handled:
            contradiction_handled = True
            kind = FailureKind.BELIEF_INCONSISTENCY
        elif item.action == "reevaluate":
            kind = FailureKind.JUSTIFICATION_BREAKDOWN
        else:
            continue
        reports.append(session.recover(FailureEvent(kind, item.formula)))
    return reports


def reference_world_state(domain, base):
    """The domain's initial atoms plus every assertable ground belief."""
    from veritas.plan import WorldState

    held = [e.formula for e in base.entries if e.assertable]
    return WorldState(
        frozenset(domain.init.atoms) | {f for f in held if isinstance(f, Atom)}
    )


def reference_is_safe(session, state) -> str:
    """The IsSafe verdict by a scan of the base: "" when safe, else the
    reason, naming the first assertable entry in the state, in key
    order, that the assertion gate refuses at its node's depth."""
    from veritas.belief import assertion_gate, is_consistent_base

    if not is_consistent_base(session.base):
        return "belief base inconsistent"
    graph = session.graph
    for entry in session.base.entries:
        if not entry.assertable or entry.formula not in state.atoms:
            continue
        depth = graph.depth(entry.justification) if entry.justification in graph else 0
        if not assertion_gate(entry.probability, depth, session.config):
            return f"support below gate: {entry.key}"
    return ""


def reference_run_loop(session, lines, out, diag) -> int:
    """Session.run_loop planning from scratch on the full state per line.

    Every line reacts to reference_sweep's full log, rebuilds the world
    state from the domain's initial atoms and the assertable ground
    beliefs, plans on all of it with unprojected_abduce, and gates the
    plan on each assertable entry that the state holds.  The goal and
    domain must be valid.
    """
    from veritas.engine import parse_goal_literals, parse_observation_line
    from veritas.ledger import Op
    from veritas.logic import parse
    from veritas.plan import PlanningError, load_domain, seal_trace, simulate_trace

    config = session.config
    domain = load_domain(config.domain_path)
    session.ledger.append(
        Op.META, formula="session-start", timestamp=session._block_ts()
    )
    for raw in lines:
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        text, probability, source = parse_observation_line(raw)
        formula = parse(text)
        verdict = session.observe(formula, probability, source)
        out.write(f"{verdict}\t{render_canonical(formula)}\n")
        reports = reference_sweep_and_react(session)
        if any(r.escalated for r in reports):
            diag.write("EpistemicWarning\tsweep\tescalated\n")
            return 6
        goal = parse_goal_literals(config.goal)
        state = reference_world_state(domain, session.base)
        try:
            plan = unprojected_abduce(
                goal, state, domain.schemas, domain.ontology
            )
        except PlanningError as err:
            diag.write(f"plan-failure\t{config.goal}\t{err}\n")
            continue
        reason = reference_is_safe(session, state)
        if reason:
            diag.write(f"EpistemicWarning\t{config.goal}\t{reason}\n")
            continue
        result = simulate_trace(plan, state, goal=goal)
        seal = seal_trace(
            result.trace, session.ledger, timestamp=session._block_ts()
        )
        for action in plan:
            out.write(f"executed\t{action.render()}\n")
        out.write(f"sealed\t{seal}\n")
    return 0


# The recursive-descent parser that preceded the operator-precedence one,
# kept verbatim but for its names, as an oracle for trees and errors.

_REFERENCE_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<IDENT>[A-Za-z][A-Za-z0-9_]*)
  | (?P<IFF><->)
  | (?P<ARROW>->)
  | (?P<NOT>!)
  | (?P<AND>&)
  | (?P<OR>\|)
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<COMMA>,)
    """,
    re.VERBOSE,
)


# A token is (kind, text, offset); the last one is ("EOF", "", len(text)).
_ReferenceToken = tuple[str, str, int]


def _reference_tokenize(text: str) -> list[_ReferenceToken]:
    tokens: list[_ReferenceToken] = []
    pos = 0
    while pos < len(text):
        match = _REFERENCE_TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", pos, frozenset({"token"})
            )
        kind = match.lastgroup
        if kind != "WS":
            tokens.append((kind, match.group(), pos))
        pos = match.end()
    tokens.append(("EOF", "", len(text)))
    return tokens


def _reference_unexpected(token: _ReferenceToken, what: str, expected: frozenset[str]) -> ParseError:
    return ParseError(
        f"expected {what}, found {token[1] or 'end of input'!r}", token[2], expected
    )


class _ReferenceParser:
    def __init__(self, tokens: list[_ReferenceToken]):
        self.tokens = tokens
        self.index = 0

    def _expect(self, kind: str) -> str:
        """The text of the next token, which must be of kind."""
        token = self.tokens[self.index]
        if token[0] != kind:
            raise _reference_unexpected(token, kind, frozenset({kind}))
        self.index += 1
        return token[1]

    def _accept(self, kind: str) -> bool:
        if self.tokens[self.index][0] == kind:
            self.index += 1
            return True
        return False

    def expect_end(self) -> None:
        kind, text, offset = self.tokens[self.index]
        if kind != "EOF":
            raise ParseError(f"trailing input {text!r}", offset, frozenset({"EOF"}))

    def parse_iff(self) -> Formula:
        node = self.parse_impl()
        while self._accept("IFF"):
            node = Iff(node, self.parse_impl())
        return node

    def parse_impl(self) -> Formula:
        parts = [self.parse_or()]
        while self._accept("ARROW"):
            parts.append(self.parse_or())
        node = parts[-1]
        for part in reversed(parts[:-1]):
            node = Implies(part, node)
        return node

    def parse_or(self) -> Formula:
        node = self.parse_and()
        while self._accept("OR"):
            node = Or(node, self.parse_and())
        return node

    def parse_and(self) -> Formula:
        node = self.parse_unary()
        while self._accept("AND"):
            node = And(node, self.parse_unary())
        return node

    def parse_unary(self) -> Formula:
        kind = self.tokens[self.index][0]
        if kind == "IDENT":
            return self.parse_atom()
        if kind == "NOT":
            self.index += 1
            return Not(self.parse_unary())
        if kind == "LPAREN":
            self.index += 1
            node = self.parse_iff()
            self._expect("RPAREN")
            return node
        raise _reference_unexpected(
            self.tokens[self.index], "formula", frozenset({"NOT", "LPAREN", "IDENT"})
        )

    def parse_atom(self) -> Atom:
        name = self._expect("IDENT")
        if not self._accept("LPAREN"):
            return Atom(name)
        args = [self._expect("IDENT")]
        while self._accept("COMMA"):
            args.append(self._expect("IDENT"))
        self._expect("RPAREN")
        return Atom(name, tuple(args))


def reference_parse(text: str) -> Formula:
    """Parse surface syntax into a formula tree.

    Raises ParseError with the byte offset of the first offending token
    and the set of token kinds that would have been accepted there.
    """
    parser = _ReferenceParser(_reference_tokenize(text))
    formula = parser.parse_iff()
    parser.expect_end()
    return formula


def reference_parse_atom(text: str) -> Atom:
    """Parse a bare atom such as ``At(Agent1,LocationA)``."""
    parser = _ReferenceParser(_reference_tokenize(text))
    atom = parser.parse_atom()
    parser.expect_end()
    return atom
