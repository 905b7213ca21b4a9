"""Satisfiability and entailment over sets of ground formulas.

Each formula instance is compiled once, on its first check, into its
atom ids and its clauses, and the result is kept on that instance.  A
check joins the compiled clauses of its formulas and runs an iterative
DPLL solver over them: unit propagation over two watched literals per
clause, a trail that backtracking undoes, and branching on the smallest
unassigned variable id, true first.

A formula is compiled by one recursive walk.  It distributes a
disjunction as negation normal form would while one side is a single
clause; past that, it names the larger side with a fresh variable x
and adds the definition clauses c | {! x} for each clause c of that
side.  It names each <-> operand that is not a literal with a variable
defined both ways (Tseitin 1968; Plaisted & Greenbaum 1986).  Within
one compile each subformula is walked at most once per polarity, so
the clauses grow linearly with the formula.  A formula whose walk
names nothing gets the clauses of plain distribution in the same
order, less those that hold a literal and its negation.  Clause
literals are integers.  Atom ids come from one process-wide table, and
new atoms get theirs in sorted order per formula.  Fresh variables
take ids from a process-wide counter that starts above any atom id;
they never count toward an atom limit, and DPLL branches on them after
every atom.

An atom, a negated atom, and a binary connective over two such
literals, nearly every formula a store holds, skip the walk.  The walk
names nothing in them and gives each a fixed list of clauses over its
literals: a literal its unit clause, & the two units, | and -> one
two-literal clause and <-> two, none where the formula always holds
(p | ! p, p -> p, p <-> p).  _compile builds that list directly
(_PAIR_CLAUSES), numbering new atoms in the same sorted order, so the
result has the walk's atom ids, its clauses in its order and no fresh
ids.

The negation that entails tests is compiled once per goal instance
too.  A re-parsed formula is a new instance and compiles afresh: the
parser shares atom instances between formulas, but hands out every
bare atom it returns as a fresh one.  A session shares more: its
justification graph's formula table hands out one instance per
distinct text, so there each distinct formula compiles once.

Verdicts are not cached, but a satisfiable check can hand a model back
as a Witness: one true literal picked from each clause, with the
query's atom ids.  Variables no pick names stay free.  extend_witness
tests one more formula against a witness by checking its clauses and
setting free variables, true where it can; when that cannot decide, or
the atom limit may be reached, it returns None and the caller runs the
full check, which raises where the limit is reached.

preferred_conflict finds the minimal subset that a deletion loop over
a preference order keeps, asking its caller's test (built from entails
or is_consistent) about O(k log(n/k)) subsets rather than n.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, Iterable, NamedTuple, Sequence

from .syntax import (
    And,
    Atom,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    atoms_of,
    render_canonical,
)

DEFAULT_MAX_ATOMS = 64


class ResourceLimitError(RuntimeError):
    """Raised when a query exceeds the configured atom budget."""


class _AtomIds(dict):
    """Atom -> positive integer literal, shared by the whole process.

    An id never changes once given; the lock keeps two threads from
    handing one id to two atoms.
    """

    _lock = threading.Lock()

    def __missing__(self, atom: Atom) -> int:
        with self._lock:
            return self.setdefault(atom, len(self) + 1)


_ATOM_IDS = _AtomIds()

# Ids of the variables that name subformulas, each handed out once.  An
# atom table would need 2**32 entries to reach them.
_FRESH_IDS = itertools.count(1 << 32)


class _Compiled(NamedTuple):
    # Atom ids rather than atoms: an atom's own compiled form would
    # otherwise refer back to it, a cycle only the collector frees.
    atom_ids: frozenset[int]
    clauses: tuple[frozenset[int], ...]
    # The variables the walk introduced, in the order it named them.
    fresh_ids: tuple[int, ...]


class Witness(NamedTuple):
    """A model of a satisfiable set, and an upper bound on its atoms.

    Every clause of the set holds a literal of literals; variables no
    literal names are free.  atom_ids covers the set's atoms, so a limit
    check need not recompute them; for a subset it still bounds them
    from above.
    """

    literals: frozenset[int]
    atom_ids: frozenset[int]


# The witness of no formulas: extending it tests one formula alone.
EMPTY_WITNESS = Witness(frozenset(), frozenset())


def is_consistent(
    formulas: Iterable[Formula],
    max_atoms: int = DEFAULT_MAX_ATOMS,
    *,
    witnesses: list[Witness] | None = None,
) -> bool:
    """Decide whether the formulas are jointly satisfiable.

    When witnesses is a list and the formulas are satisfiable, the
    Witness of the model found is appended to it.
    """
    formulas = list(formulas)
    compiled = [_compiled(formula) for formula in formulas]
    atom_ids: set[int] = set()
    for item in compiled:
        atom_ids |= item.atom_ids
    if len(atom_ids) > max_atoms:
        raise ResourceLimitError(
            f"query spans {len(atom_ids)} atoms, limit is {max_atoms}"
        )
    if _has_complementary_pair(formulas):
        return False
    clauses: list[frozenset[int]] = []
    variables = list(atom_ids)
    for item in compiled:
        clauses.extend(item.clauses)
        variables.extend(item.fresh_ids)
    model = _dpll(clauses, variables)
    if model is None:
        return False
    if witnesses is not None:
        witnesses.append(Witness(_picks(clauses, model), frozenset(atom_ids)))
    return True


def is_satisfiable(formula: Formula) -> bool:
    """Decide whether the formula alone is satisfiable.

    Extending the empty witness finds a model of most formulas without
    a solve; is_consistent decides the rest, and raises where the atom
    limit is reached.
    """
    return extend_witness(EMPTY_WITNESS, formula) is not None or is_consistent(
        [formula]
    )


def extend_witness(witness: Witness, formula: Formula) -> Witness | None:
    """A witness for the witnessed set plus formula, or None if undecided.

    Each clause of the formula that the witness leaves unsatisfied gets
    one of its free literals set true: its smallest positive one, if it
    has any, else the one of smallest variable id.  Observations are
    mostly atoms and rules over them, so setting atoms true leaves the
    later ones room to extend the witness too.  None means no such
    literal was left, or the joined query might reach is_consistent's
    default atom limit; is_consistent then decides, and raises where it
    must.
    """
    compiled = _compiled(formula)
    atom_ids = witness.atom_ids | compiled.atom_ids
    if len(atom_ids) > DEFAULT_MAX_ATOMS:
        return None
    literals = witness.literals
    for clause in compiled.clauses:
        if literals.isdisjoint(clause):
            free = [lit for lit in clause if -lit not in literals]
            if not free:
                return None
            positive = [lit for lit in free if lit > 0]
            literals = literals | {min(positive) if positive else max(free)}
    return Witness(literals, atom_ids)


def entails(base: Iterable[Formula], formula: Formula) -> bool:
    """Decide whether the base logically entails the formula."""
    return not is_consistent([*base, _negation(formula)])


def is_tautology(formula: Formula) -> bool:
    return entails([], formula)


def preferred_conflict(
    hard: Sequence[Formula],
    preferred: Sequence[Formula],
    conflict: Callable[[list[Formula]], bool],
) -> list[Formula]:
    """The preferred minimal subset of preferred that conflicts with hard.

    conflict(hard + subset) tells whether a subset conflicts; it must
    be monotone (a superset of a conflicting set conflicts), as
    entails(subset, goal) and not is_consistent(subset) are, and it
    must hold for the whole of preferred.  preferred lists the formulas
    most preferred first.  The result is what a deletion loop keeps
    when it drops each formula in turn, least preferred first, while
    the rest still conflicts.  QuickXplain (Junker, AAAI 2004) finds
    that set with O(k log(n/k)) checks for k kept out of n, where the
    loop needs n.  It comes back in the order of preferred.
    """
    hard = list(hard)
    if conflict(hard):
        return []
    return _quickxplain(hard, False, list(preferred), conflict)


def _quickxplain(
    background: list[Formula],
    grown: bool,
    candidates: list[Formula],
    conflict: Callable[[list[Formula]], bool],
) -> list[Formula]:
    """The preferred conflict within candidates, given background.

    grown says whether the caller added formulas to a background known
    not to conflict; only then can the background conflict on its own.
    """
    if grown and conflict(background):
        return []
    if len(candidates) <= 1:
        return candidates
    half = len(candidates) // 2
    first, second = candidates[:half], candidates[half:]
    kept_second = _quickxplain(background + first, True, second, conflict)
    kept_first = _quickxplain(
        background + kept_second, bool(kept_second), first, conflict
    )
    return kept_first + kept_second


def _atom_key(atom: Atom) -> tuple[str, tuple[str, ...]]:
    return (atom.predicate, atom.args)


def _has_complementary_pair(formulas: list[Formula]) -> bool:
    """Cheap pre-filter: look for some f together with (! f), by
    comparing canonical texts."""
    negated = [
        render_canonical(formula.operand)
        for formula in formulas
        if isinstance(formula, Not)
    ]
    if not negated:
        return False
    return not set(map(render_canonical, formulas)).isdisjoint(negated)


def _compiled(formula: Formula) -> _Compiled:
    """The formula's compiled form, compiled on first use and kept on it."""
    compiled = formula._sat
    if compiled is None:
        compiled = _compile(formula)
        object.__setattr__(formula, "_sat", compiled)
    return compiled


def _compile(formula: Formula) -> _Compiled:
    """The formula's atom ids, clauses and fresh variables.

    A literal, or a binary connective over two literals, is compiled by
    its shape (_PAIR_CLAUSES) into what _walk_compile gives it; any
    other formula is walked.
    """
    literal = _side(formula)
    if literal:
        a = _ATOM_IDS[literal[0]]
        return _Compiled(frozenset((a,)), (frozenset((literal[1] * a,)),), ())
    pair = _PAIR_CLAUSES.get(type(formula))
    if pair is not None:
        left, right = _side(formula.left), _side(formula.right)  # type: ignore[attr-defined]
        if left and right:
            a, b = _pair_ids(left[0], right[0])
            return _Compiled(frozenset((a, b)), pair(left[1] * a, right[1] * b), ())
    return _walk_compile(formula)


def _walk_compile(formula: Formula) -> _Compiled:
    """The formula's atom ids, clauses and fresh variables, from one _Walk.

    A walk that meets an atom without an id stops; the formula's new
    atoms then get ids in sorted atom order, not walk or set order, so
    ids and the models DPLL finds repeat under every hash seed, and the
    walk starts again.
    """
    try:
        walk = _Walk(formula)
    except _NewAtom:
        for atom in sorted(atoms_of(formula), key=_atom_key):
            _ATOM_IDS[atom]
        walk = _Walk(formula)
    return _Compiled(frozenset(walk.atom_ids), tuple(walk.result), tuple(walk.fresh))


def _side(f: Formula) -> tuple[Atom, int] | None:
    """(atom, 1) for an atom, (atom, -1) for a negated atom, else None."""
    if type(f) is Atom:
        return f, 1  # type: ignore[return-value]
    if type(f) is Not and type(f.operand) is Atom:  # type: ignore[attr-defined]
        return f.operand, -1  # type: ignore[attr-defined]
    return None


def _pair_ids(x: Atom, y: Atom) -> tuple[int, int]:
    """The ids of two atoms; new ones get theirs in sorted atom order,
    as they would before a walk."""
    a, b = _ATOM_IDS.get(x), _ATOM_IDS.get(y)
    if a is None or b is None:
        for atom in sorted({x, y}, key=_atom_key):
            _ATOM_IDS[atom]
        a, b = _ATOM_IDS[x], _ATOM_IDS[y]
    return a, b


# Connective -> the clauses _Walk gives it over the literals a and b,
# in its order: a conjunction joins two units, a disjunction or an
# implication that always holds gives none, and <-> two implications.
_PAIR_CLAUSES: dict[type, Callable[[int, int], tuple[frozenset[int], ...]]] = {
    And: lambda a, b: (frozenset((a,)), frozenset((b,))),
    Or: lambda a, b: () if a == -b else (frozenset((a, b)),),
    Implies: lambda a, b: () if a == b else (frozenset((-a, b)),),
    Iff: lambda a, b: (frozenset((-a, b)), frozenset((-b, a))) if a != b else (),
}


class _NewAtom(Exception):
    """The walk met an atom that has no id yet."""


class _Walk:
    """One compile's clausifying walk, and what it has named.

    clauses(f, positive) gives the clauses of f, or of its negation when
    positive is False: -> and <-> expand as (! a | b) and
    ((! a | b) & (! b | a)), and a negation flips the polarity of its
    operand.  A conjunction joins its sides' clauses.  A disjunction
    distributes while one side is a single clause, and past that names
    the larger side.  Every clause list the walk returns holds in each
    model of the result, so a variable x naming one needs only the
    clauses c | {! x}.  A <-> operand that is not a literal is named by
    a variable defined both ways, so each <-> gives two clauses over two
    literals.  A clause that would hold a literal and its negation is
    never made, and each compound subformula is walked at most once per
    polarity.  result holds the formula's clauses, then the definitions.
    """

    __slots__ = ("atom_ids", "fresh", "definitions", "walked", "named", "result")

    def __init__(self, formula: Formula) -> None:
        self.atom_ids: set[int] = set()
        self.fresh: list[int] = []
        self.definitions: list[frozenset[int]] = []
        # (id of a compound subformula, polarity) -> its clauses.
        self.walked: dict[tuple[int, bool], list[frozenset[int]]] = {}
        # id of a <-> operand -> the variable naming it.
        self.named: dict[int, int] = {}
        self.result = self.clauses(formula, True) + self.definitions

    def clauses(self, f: Formula, positive: bool) -> list[frozenset[int]]:
        kind = type(f)
        if kind is Atom:
            literal = _ATOM_IDS.get(f)
            if literal is None:
                raise _NewAtom
            self.atom_ids.add(literal)
            return [frozenset((literal if positive else -literal,))]
        if kind is Not:
            return self.clauses(f.operand, not positive)  # type: ignore[attr-defined]
        key = (id(f), positive)
        clauses = self.walked.get(key)
        if clauses is not None:
            return clauses
        if kind is Iff:
            a = self._end(f.left)  # type: ignore[attr-defined]
            b = self._end(f.right)  # type: ignore[attr-defined]
            if positive:
                clauses = [frozenset((-a, b)), frozenset((-b, a))] if a != b else []
            else:
                clauses = [frozenset((a, b)), frozenset((-b, -a))] if a != -b else []
        else:
            if kind is Implies:
                left = self.clauses(f.left, not positive)  # type: ignore[attr-defined]
                conjunction = not positive
            elif kind is And or kind is Or:
                left = self.clauses(f.left, positive)  # type: ignore[attr-defined]
                conjunction = (kind is And) == positive
            else:
                raise TypeError(f"not a formula: {f!r}")
            right = self.clauses(f.right, positive)  # type: ignore[attr-defined]
            if conjunction:
                clauses = left + right
            elif not left or not right:
                clauses = []  # a side that always holds
            else:
                if len(left) > 1 and len(right) > 1:
                    if len(left) >= len(right):
                        left = [frozenset((self._variable(left),))]
                    else:
                        right = [frozenset((self._variable(right),))]
                (one,), many = (left, right) if len(left) == 1 else (right, left)
                not_one = [-lit for lit in one]
                clauses = [one | c for c in many if c.isdisjoint(not_one)]
        self.walked[key] = clauses
        return clauses

    def _end(self, side: Formula) -> int:
        """The literal side is, or the variable naming it both ways."""
        core, sign = side, 1
        while type(core) is Not:
            core, sign = core.operand, -sign  # type: ignore[attr-defined]
        if type(core) is Atom:
            (literal,) = self.clauses(core, sign > 0)[0]
            return literal
        x = self.named.get(id(side))
        if x is None:
            x = self.named[id(side)] = self._variable(self.clauses(side, True))
            self._imply(-x, self.clauses(side, False))
        return x

    def _variable(self, clauses: list[frozenset[int]]) -> int:
        """A fresh variable x, with x -> each of the clauses."""
        x = next(_FRESH_IDS)
        self.fresh.append(x)
        self._imply(x, clauses)
        return x

    def _imply(self, literal: int, clauses: list[frozenset[int]]) -> None:
        unless = frozenset((-literal,))
        self.definitions.extend(clause | unless for clause in clauses)


def _negation(formula: Formula) -> Not:
    """A fresh Not(formula) whose compiled form is kept on formula.

    The formula keeps the compiled negation, not the Not itself, which
    would refer back to it.
    """
    negation = Not(formula)
    compiled = formula._sat_negation
    if compiled is None:
        object.__setattr__(formula, "_sat_negation", _compiled(negation))
    else:
        object.__setattr__(negation, "_sat", compiled)
    return negation


def _dpll(
    clauses: list[frozenset[int]], atom_ids: Iterable[int]
) -> set[int] | None:
    """The literals true in a model of the clauses, or None if none exists.

    Iterative DPLL over two watched literals per clause.  Unit clauses
    are assigned up front.  A binary clause watches both its literals
    for good, so it is kept as two implications, each forcing one
    literal once the other is false.  A longer clause keeps its watches
    in positions 0 and 1 and moves a watch when that literal turns
    false.  Assignments go on a trail; a conflict undoes the trail back
    to the newest decision still untried the other way, and watches
    need no undoing.  Decisions branch on the smallest unassigned atom
    id, true first.  Clauses are never empty: compiled clauses are not.
    """
    true: set[int] = set()
    trail: list[int] = []
    implied: dict[int, list[int]] = {}
    watches: dict[int, list[list[int]]] = {}
    for clause in clauses:
        if len(clause) == 1:
            (lit,) = clause
            if -lit in true:
                return None
            if lit not in true:
                true.add(lit)
                trail.append(lit)
        elif len(clause) == 2:
            first, second = clause
            implied.setdefault(-first, []).append(second)
            implied.setdefault(-second, []).append(first)
        else:
            watched = list(clause)
            watches.setdefault(watched[0], []).append(watched)
            watches.setdefault(watched[1], []).append(watched)
    order = sorted(atom_ids)
    # (trail length before, index in order, literal) per open decision;
    # a negative literal is a decision already tried both ways.
    decisions: list[tuple[int, int, int]] = []
    head = 0
    start = 0
    while True:
        conflict = False
        while head < len(trail) and not conflict:
            assigned = trail[head]
            head += 1
            for lit in implied.get(assigned, ()):
                if lit not in true:
                    if -lit in true:
                        conflict = True
                        break
                    true.add(lit)
                    trail.append(lit)
            if not conflict:
                conflict = _move_watches(watches, -assigned, true, trail)
        if conflict:
            while decisions:
                mark, index, lit = decisions.pop()
                true.difference_update(trail[mark:])
                del trail[mark:]
                if lit > 0:
                    decisions.append((mark, index, -lit))
                    true.add(-lit)
                    trail.append(-lit)
                    head = mark
                    start = index + 1
                    break
            else:
                return None
            continue
        # Atoms before start were assigned before the newest decision.
        while start < len(order) and (order[start] in true or -order[start] in true):
            start += 1
        if start == len(order):
            return true
        atom = order[start]
        decisions.append((len(trail), start, atom))
        true.add(atom)
        trail.append(atom)
        start += 1


def _move_watches(
    watches: dict[int, list[list[int]]],
    false: int,
    true: set[int],
    trail: list[int],
) -> bool:
    """Visit the long clauses watching a literal that just turned false.

    Each one moves that watch to a literal not yet false, or else
    assigns its other watch, or reports the conflict (True) when that
    is false too.  Clauses that still watch the literal stay on its
    list, which is compacted in place.
    """
    watching = watches.get(false)
    if not watching:
        return False
    kept = 0
    for i, clause in enumerate(watching):
        if clause[0] == false:
            clause[0], clause[1] = clause[1], false
        other = clause[0]
        if other not in true:
            for k in range(2, len(clause)):
                lit = clause[k]
                if -lit not in true:
                    clause[1], clause[k] = lit, false
                    watches.setdefault(lit, []).append(clause)
                    break
            else:
                if -other in true:
                    # Keep this clause and every one not yet visited.
                    watching[kept:] = watching[i:]
                    return True
                true.add(other)
                trail.append(other)
            if clause[1] != false:
                continue
        watching[kept] = clause
        kept += 1
    del watching[kept:]
    return False


def _picks(clauses: list[frozenset[int]], model: set[int]) -> frozenset[int]:
    """One true literal of each clause, reusing a literal already picked.

    The smallest atom id wins among a clause's true literals.  Atoms no
    pick names stay free in the witness, for extend_witness to set.
    """
    picked: set[int] = set()
    for clause in clauses:
        if picked.isdisjoint(clause):
            picked.add(min(clause.intersection(model), key=abs))
    return frozenset(picked)
