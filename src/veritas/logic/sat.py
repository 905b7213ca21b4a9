"""Satisfiability and entailment over sets of ground formulas.

The main path clausifies each formula by direct distribution (no
auxiliary variables, so models stay over the original atoms) and runs
an iterative DPLL solver over the joined clauses: unit propagation
over two watched literals per clause, a trail that backtracking undoes,
and branching on the smallest unassigned atom id, true first.  If
distribution blows past a clause budget the check falls back to truth
table enumeration, which is only viable for small atom counts.

Each formula instance is compiled once, on its first check, into its
atom set, its non-tautological clauses (or an over-budget marker) and
its canonical rendering, and the result is kept on that instance; a
check joins the compiled clauses of its formulas.  The negation that
entails tests is compiled once per goal instance too.  Clause literals
are integers from one process-wide atom table.  A re-parsed compound
formula is a new instance and compiles afresh; the parser shares atom
instances between formulas, but hands out every bare atom it returns
as a fresh one, so that compiles afresh too.

Verdicts are not cached, but a satisfiable DPLL check can hand a model
back as a Witness: one true literal picked from each clause, with the
query's atom ids and clause count.  Atoms no pick names stay free.
extend_witness tests one more formula against a witness by checking
its clauses and setting free atoms; when that cannot decide, or a
limit may be reached, it returns None and the caller runs the full
check, which raises where a limit is reached.  A truth-table verdict
yields no witness.

preferred_conflict finds the minimal subset that a deletion loop over
a preference order keeps, asking its caller's test (built from entails
or is_consistent) about O(k log(n/k)) subsets rather than n.
"""

from __future__ import annotations

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
    evaluate,
    render_canonical,
)

DEFAULT_MAX_ATOMS = 64

_CLAUSE_BUDGET = 4096
_TRUTH_TABLE_MAX_ATOMS = 20


class ResourceLimitError(RuntimeError):
    """Raised when a query exceeds the configured atom budget."""


class _ClauseBudgetExceeded(Exception):
    pass


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


class _Compiled(NamedTuple):
    # Atom ids rather than atoms: an atom's own compiled form would
    # otherwise refer back to it, a cycle only the collector frees.
    atom_ids: frozenset[int]
    # None when clausifying this formula alone exceeds the clause budget.
    clauses: tuple[frozenset[int], ...] | None
    # render_canonical of the formula: injective, so equal keys mean
    # structurally equal formulas, and hashing a string is not a walk.
    key: str


class Witness(NamedTuple):
    """A model of a satisfiable set, and upper bounds on its size.

    Every clause of the set holds a literal of literals; atoms no
    literal names are free.  atom_ids and clause_count cover the set, so
    a limit check need not recompute them; for a subset they still bound
    it from above.
    """

    literals: frozenset[int]
    atom_ids: frozenset[int]
    clause_count: int


# The witness of no formulas: extending it tests one formula alone.
EMPTY_WITNESS = Witness(frozenset(), frozenset(), 0)


def is_consistent(
    formulas: Iterable[Formula],
    max_atoms: int = DEFAULT_MAX_ATOMS,
    *,
    witnesses: list[Witness] | None = None,
) -> bool:
    """Decide whether the formulas are jointly satisfiable.

    When witnesses is a list and DPLL finds the formulas satisfiable,
    the Witness of its model is appended to it.
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
    if _has_complementary_pair(formulas, compiled):
        return False
    clauses = _join(compiled)
    if clauses is None:
        if len(atom_ids) > _TRUTH_TABLE_MAX_ATOMS:
            raise ResourceLimitError(
                f"clause budget exceeded and {len(atom_ids)} atoms is too many "
                "for truth-table fallback"
            )
        atoms = set().union(*(atoms_of(formula) for formula in formulas))
        return _truth_table_satisfiable(formulas, sorted(atoms, key=_atom_key))
    model = _dpll(clauses, atom_ids)
    if model is None:
        return False
    if witnesses is not None:
        witnesses.append(
            Witness(_picks(clauses, model), frozenset(atom_ids), len(clauses))
        )
    return True


def extend_witness(witness: Witness, formula: Formula) -> Witness | None:
    """A witness for the witnessed set plus formula, or None if undecided.

    Each clause of the formula that the witness leaves unsatisfied gets
    one of its free literals set true.  None means no such literal was
    left, or the joined query might reach is_consistent's default limits
    or need the truth table; is_consistent then decides, and raises
    where it must.
    """
    compiled = _compiled(formula)
    if compiled.clauses is None:
        return None
    atom_ids = witness.atom_ids | compiled.atom_ids
    clause_count = witness.clause_count + len(compiled.clauses)
    if len(atom_ids) > DEFAULT_MAX_ATOMS or clause_count > _CLAUSE_BUDGET:
        return None
    literals = witness.literals
    for clause in compiled.clauses:
        if literals.isdisjoint(clause):
            free = [lit for lit in clause if -lit not in literals]
            if not free:
                return None
            literals = literals | {min(free, key=abs)}
    return Witness(literals, atom_ids, clause_count)


def entails(base: Iterable[Formula], formula: Formula,
            max_atoms: int = DEFAULT_MAX_ATOMS) -> bool:
    """Decide whether the base logically entails the formula."""
    return not is_consistent([*base, _negation(formula)], max_atoms=max_atoms)


def is_tautology(formula: Formula, max_atoms: int = DEFAULT_MAX_ATOMS) -> bool:
    return entails([], formula, max_atoms=max_atoms)


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


def _has_complementary_pair(
    formulas: list[Formula], compiled: list[_Compiled]
) -> bool:
    """Cheap pre-filter: look for some f together with (! f).

    Compares canonical keys: (! f) renders as "(! " + key(f) + ")".
    """
    seen = {item.key for item in compiled}
    for formula, item in zip(formulas, compiled):
        if isinstance(formula, Not) and item.key[3:-1] in seen:
            return True
    return False


def _compiled(formula: Formula) -> _Compiled:
    """The formula's atoms, clauses and key, compiled on first use and kept on it."""
    compiled = formula.__dict__.get("_sat")
    if compiled is None:
        atoms = atoms_of(formula)
        known = [_ATOM_IDS.get(atom) for atom in atoms]
        if None in known:
            # Ids are handed out in sorted atom order, not set order, so
            # they and the models DPLL finds repeat under every hash seed.
            known = [_ATOM_IDS[atom] for atom in sorted(atoms, key=_atom_key)]
        atom_ids = frozenset(known)
        compiled = _Compiled(
            atom_ids, _clausify(formula), render_canonical(formula)
        )
        object.__setattr__(formula, "_sat", compiled)
    return compiled


def _negation(formula: Formula) -> Not:
    """A fresh Not(formula) whose compiled form is kept on formula.

    The formula keeps the compiled negation, not the Not itself, which
    would refer back to it.
    """
    negation = Not(formula)
    compiled = formula.__dict__.get("_sat_negation")
    if compiled is None:
        object.__setattr__(formula, "_sat_negation", _compiled(negation))
    else:
        object.__setattr__(negation, "_sat", compiled)
    return negation


def _clausify(formula: Formula) -> tuple[frozenset[int], ...] | None:
    try:
        clauses = tuple(
            clause
            for clause in _cnf(formula, True)
            if not _is_tautological_clause(clause)
        )
    except _ClauseBudgetExceeded:
        return None
    return clauses if len(clauses) <= _CLAUSE_BUDGET else None


def _join(compiled: list[_Compiled]) -> list[frozenset[int]] | None:
    """All clauses of a query, or None past the clause budget."""
    clauses: list[frozenset[int]] = []
    for item in compiled:
        if item.clauses is None:
            return None
        clauses.extend(item.clauses)
        if len(clauses) > _CLAUSE_BUDGET:
            return None
    return clauses


def _cnf(formula: Formula, positive: bool) -> list[frozenset[int]]:
    """Clauses over integer literals of formula, or of its negation when
    positive is False, distributing as negation normal form would.

    -> and <-> expand as (! a | b) and ((! a | b) & (! b | a)), and a
    negation flips the polarity of its operand, so each subformula is
    walked once per polarity without building the normal form.
    """
    if isinstance(formula, Atom):
        literal = _ATOM_IDS[formula]
        return [frozenset({literal if positive else -literal})]
    if isinstance(formula, Not):
        return _cnf(formula.operand, not positive)
    if isinstance(formula, Iff):
        left, right = formula.left, formula.right
        if positive:
            first = _distribute(_cnf(left, False), _cnf(right, True))
            return first + _distribute(_cnf(right, False), _cnf(left, True))
        return _distribute(
            _cnf(left, True) + _cnf(right, False),
            _cnf(right, True) + _cnf(left, False),
        )
    if isinstance(formula, Implies):
        left = _cnf(formula.left, not positive)
        conjunction = not positive
    elif isinstance(formula, (And, Or)):
        left = _cnf(formula.left, positive)
        conjunction = isinstance(formula, And) == positive
    else:
        raise TypeError(f"not a formula: {formula!r}")
    right = _cnf(formula.right, positive)
    return left + right if conjunction else _distribute(left, right)


def _distribute(
    left: list[frozenset[int]], right: list[frozenset[int]]
) -> list[frozenset[int]]:
    """The clauses of the disjunction of two clause lists."""
    if len(left) * len(right) > _CLAUSE_BUDGET:
        raise _ClauseBudgetExceeded
    return [a | b for a in left for b in right]


def _is_tautological_clause(clause: frozenset[int]) -> bool:
    return any(-lit in clause for lit in clause)


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


def _truth_table_satisfiable(formulas: list[Formula], atoms: list[Atom]) -> bool:
    for bits in range(1 << len(atoms)):
        valuation = {atom: bool(bits >> i & 1) for i, atom in enumerate(atoms)}
        if all(evaluate(formula, valuation) for formula in formulas):
            return True
    return False
