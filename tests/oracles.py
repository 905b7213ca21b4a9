"""Brute-force reference implementations used as test oracles.

Everything here is written independently of the library's decision
procedures: entailment is truth-table enumeration over the atoms, and
the remainder and unsat-core oracles enumerate subsets directly;
deletion_core is the plain one-at-a-time deletion loop.
witness_valuations only reads the solver's atom numbering, to turn a
kept model into valuations that tt_eval can check.
"""

from __future__ import annotations

import random
from itertools import combinations

from veritas.logic import And, Atom, Formula, Iff, Implies, Not, Or, atoms_of
from veritas.logic import sat


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
    """(x0 & y0) | ... | (x10 & y10): 2^11 = 2048 clauses over 22 atoms."""
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


def bfs_plan(domain, max_depth: int):
    """Shortest plan by queue-based search over reachable states.

    Independent of the planner: enumerates every type-correct ground
    action up front and walks the state graph breadth first.  Returns
    the action list, or None when the goal is out of reach within
    max_depth steps.
    """
    from collections import deque

    from veritas.plan import (
        GroundAction,
        WorldState,
        preconditions_met,
        type_check,
    )
    from itertools import product

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
            if type_check(action, domain.ontology) is None:
                actions.append(action)
    start = domain.init.atoms
    queue = deque([(start, [])])
    seen = {start}
    while queue:
        atoms, path = queue.popleft()
        if WorldState(atoms).satisfies_all(domain.goal):
            return path
        if len(path) >= max_depth:
            continue
        for action in actions:
            if not preconditions_met(action, WorldState(atoms)):
                continue
            nxt = (atoms - action.delete_atoms()) | action.add_atoms()
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
