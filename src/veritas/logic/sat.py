"""Satisfiability and entailment over sets of ground formulas.

The main path clausifies each formula by direct distribution (no
auxiliary variables, so models stay over the original atoms) and runs
DPLL with unit propagation and pure-literal elimination over the joined
clauses.  If distribution blows past a clause budget the check falls
back to truth table enumeration, which is only viable for small atom
counts.

Each formula instance is compiled once, on its first check, into its
atom set, its non-tautological clauses (or an over-budget marker) and
its canonical rendering, and the result is kept on that instance; a
check joins the compiled clauses of its formulas.  The negation that
entails tests is compiled once per goal instance too.  Clause literals
are integers from one process-wide atom table.  A re-parsed formula is
a new instance and compiles afresh.

Verdicts are not cached, but a satisfiable DPLL check can hand its
model back as a Witness: the literals DPLL set true, with the query's
atom ids and clause count.  extend_witness tests one more formula
against a witness by checking its clauses and setting free atoms; when
that cannot decide, or a limit may be reached, it returns None and the
caller runs the full check, which raises where a limit is reached.  A
truth-table verdict yields no witness.
"""

from __future__ import annotations

import threading
from typing import Iterable, NamedTuple

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
    model = _dpll(clauses)
    if model is None:
        return False
    if witnesses is not None:
        witnesses.append(
            Witness(frozenset(model), frozenset(atom_ids), len(clauses))
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
        # Ids are handed out in sorted atom order, not set order, so they
        # and the models DPLL finds repeat under every hash seed.
        atom_ids = frozenset(
            _ATOM_IDS[atom] for atom in sorted(atoms_of(formula), key=_atom_key)
        )
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
            for clause in _cnf(_nnf(formula, positive=True), _ATOM_IDS)
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


def _nnf(formula: Formula, positive: bool) -> Formula:
    """Push negations to the atoms, eliminating -> and <-> on the way."""
    if isinstance(formula, Atom):
        return formula if positive else Not(formula)
    if isinstance(formula, Not):
        return _nnf(formula.operand, not positive)
    if isinstance(formula, And):
        left = _nnf(formula.left, positive)
        right = _nnf(formula.right, positive)
        return And(left, right) if positive else Or(left, right)
    if isinstance(formula, Or):
        left = _nnf(formula.left, positive)
        right = _nnf(formula.right, positive)
        return Or(left, right) if positive else And(left, right)
    if isinstance(formula, Implies):
        return _nnf(Or(Not(formula.left), formula.right), positive)
    if isinstance(formula, Iff):
        expanded = And(
            Or(Not(formula.left), formula.right),
            Or(Not(formula.right), formula.left),
        )
        return _nnf(expanded, positive)
    raise TypeError(f"not a formula: {formula!r}")


def _cnf(formula: Formula, index: dict[Atom, int]) -> list[frozenset[int]]:
    """Distribute an NNF formula into clauses over integer literals."""
    if isinstance(formula, Atom):
        return [frozenset({index[formula]})]
    if isinstance(formula, Not):
        operand = formula.operand
        if not isinstance(operand, Atom):
            raise TypeError("negation not at atom level after NNF")
        return [frozenset({-index[operand]})]
    if isinstance(formula, And):
        return _cnf(formula.left, index) + _cnf(formula.right, index)
    if isinstance(formula, Or):
        left = _cnf(formula.left, index)
        right = _cnf(formula.right, index)
        if len(left) * len(right) > _CLAUSE_BUDGET:
            raise _ClauseBudgetExceeded
        return [a | b for a in left for b in right]
    raise TypeError(f"unexpected connective after NNF: {formula!r}")


def _is_tautological_clause(clause: frozenset[int]) -> bool:
    return any(-lit in clause for lit in clause)


def _dpll(clauses: list[frozenset[int]]) -> list[int] | None:
    """The literals chosen to satisfy every clause, or None if none can.

    Clauses are never empty: compiled clauses are not, and _assign
    reports a clause it would empty as a conflict instead.
    """
    chosen: list[int] = []
    while True:
        if not clauses:
            return chosen
        unit = next((clause for clause in clauses if len(clause) == 1), None)
        if unit is not None:
            lit = next(iter(unit))
            reduced = _assign(clauses, lit)
            if reduced is None:
                return None
            chosen.append(lit)
            clauses = reduced
            continue
        literals = {lit for clause in clauses for lit in clause}
        pure = sorted((lit for lit in literals if -lit not in literals), key=abs)
        if pure:
            for lit in pure:
                # A pure literal's complement is in no clause: no conflict.
                clauses = _assign(clauses, lit)
            chosen.extend(pure)
            continue
        branch = min(abs(lit) for clause in clauses for lit in clause)
        for lit in (branch, -branch):
            reduced = _assign(clauses, lit)
            rest = None if reduced is None else _dpll(reduced)
            if rest is not None:
                return chosen + [lit] + rest
        return None


def _assign(clauses: list[frozenset[int]], lit: int) -> list[frozenset[int]] | None:
    """Apply a literal assignment; None signals an immediate conflict."""
    result: list[frozenset[int]] = []
    for clause in clauses:
        if lit in clause:
            continue
        if -lit in clause:
            clause = clause - {-lit}
            if not clause:
                return None
        result.append(clause)
    return result


def _truth_table_satisfiable(formulas: list[Formula], atoms: list[Atom]) -> bool:
    for bits in range(1 << len(atoms)):
        valuation = {atom: bool(bits >> i & 1) for i, atom in enumerate(atoms)}
        if all(evaluate(formula, valuation) for formula in formulas):
            return True
    return False
