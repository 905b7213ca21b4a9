"""Abductive policy construction over ground STRIPS actions.

The primary strategy is goal regression: pick an unsatisfied goal
literal, pick an action that adds it (or deletes it, for a negative
literal), recursively plan for that action's missing preconditions,
apply it, and re-attack the full goal set.  Choices are explored
deterministically: schemas in declaration order, bindings in
lexicographic constant order, with failed (goals, state) pairs memoized
per budget.  A goal literal's achievers are grounded on the search's
first ask for them; every later step gets the same actions, which keep
their ground atoms.  When regression fails inside the budget, a
depth-bounded forward search over the same ground actions takes over,
so any goal reachable in at most budget steps is still found.

Both searches run over the relevant part of the state only: the atoms
whose predicate the goal or some schema mentions (Nebel, Dimopoulos and
Koehler, "Ignoring Irrelevant Facts and Operators in Plan Generation",
ECP 1997).  Search tests only grounded goal and schema atoms and changes
only atoms on add and delete predicates, so the other atoms would stay
constant through it: dropping them changes neither the plan nor the
error, and the memos hit exactly as they would on the full state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .domain import (
    ActionSchema,
    GroundAction,
    Literal,
    Ontology,
    WorldState,
    apply_effects,
    missing_preconditions,
    preconditions_met,
    type_check,
)

DEFAULT_DEPTH_BUDGET = 32


class PlanningError(Exception):
    """No plan was found; carries the subgoal that could not be met."""

    def __init__(self, message: str, subgoal: tuple[Literal, ...] = ()):
        super().__init__(message)
        self.subgoal = subgoal


@dataclass(frozen=True)
class _Problem:
    """One search's inputs, with the achievers it has grounded so far
    for each goal literal."""

    schemas: tuple[ActionSchema, ...]
    ontology: Ontology
    entities: tuple[str, ...]
    achievers: dict[Literal, tuple[GroundAction, ...]] = field(
        default_factory=dict, compare=False, repr=False
    )


def relevant_state(
    goal: tuple[Literal, ...],
    state: WorldState,
    schemas: tuple[ActionSchema, ...],
) -> WorldState:
    """The atoms of state whose predicate the goal or a schema mentions."""
    predicates = {lit.atom.predicate for lit in goal}
    for schema in schemas:
        predicates.update(lit.atom.predicate for lit in schema.pre)
        predicates.update(atom.predicate for atom in schema.add)
        predicates.update(atom.predicate for atom in schema.delete)
    return WorldState(
        frozenset(atom for atom in state.atoms if atom.predicate in predicates)
    )


def _typed_entities(problem: _Problem, concept: str) -> list[str]:
    return [
        name
        for name in problem.entities
        if problem.ontology.is_subtype(
            problem.ontology.concept_of(name) or "", concept
        )
    ]


def _goal_key(goals: tuple[Literal, ...]) -> tuple[str, ...]:
    return tuple(sorted(lit.render() for lit in goals))


def _achievers(problem: _Problem, goal: Literal) -> tuple[GroundAction, ...]:
    """The literal's achievers, built on the search's first ask."""
    found = problem.achievers.get(goal)
    if found is None:
        found = problem.achievers[goal] = _ground_achievers(problem, goal)
    return found


def _ground_achievers(
    problem: _Problem, goal: Literal
) -> tuple[GroundAction, ...]:
    """Ground actions whose effects satisfy the literal, in order.

    A positive literal is achieved by an add effect, a negative one by a
    delete effect.  Parameters forced by the effect atom are bound
    first; free parameters range over type-compatible entities in
    lexicographic order.  Only type-correct actions are returned.
    """
    found: list[GroundAction] = []
    for schema in problem.schemas:
        effects = schema.add if goal.positive else schema.delete
        for template in effects:
            if template.predicate != goal.atom.predicate:
                continue
            if len(template.args) != len(goal.atom.args):
                continue
            binding: dict[str, str] = {}
            ok = True
            params = set(schema.param_names)
            for slot, target in zip(template.args, goal.atom.args):
                if slot in params:
                    if binding.get(slot, target) != target:
                        ok = False
                        break
                    binding[slot] = target
                elif slot != target:
                    ok = False
                    break
            if not ok:
                continue
            free = [name for name in schema.param_names if name not in binding]
            pools = [
                _typed_entities(problem, dict(schema.params)[name])
                for name in free
            ]
            for combo in itertools.product(*pools):
                full = dict(binding)
                full.update(zip(free, combo))
                action = GroundAction(
                    schema, tuple(full[name] for name in schema.param_names)
                )
                if type_check(action, problem.ontology) is None:
                    found.append(action)
    unique: list[GroundAction] = []
    seen: set[str] = set()
    for action in found:
        text = action.render()
        if text not in seen:
            seen.add(text)
            unique.append(action)
    return tuple(unique)


def _regress(
    goals: tuple[Literal, ...],
    state: WorldState,
    budget: int,
    problem: _Problem,
    failed: dict[tuple[tuple[str, ...], frozenset], int],
    missing_log: list[tuple[Literal, ...]],
) -> list[GroundAction] | None:
    if state.satisfies_all(goals):
        return []
    if budget <= 0:
        return None
    key = (_goal_key(goals), state.atoms)
    if failed.get(key, -1) >= budget:
        return None
    unsatisfied = sorted(
        (lit for lit in goals if not state.satisfies(lit)),
        key=lambda lit: lit.render(),
    )
    missing_log.append(tuple(unsatisfied))
    for target in unsatisfied:
        for action in _achievers(problem, target):
            prefix: list[GroundAction] = []
            here = state
            if not preconditions_met(action, here):
                subgoal = missing_preconditions(action, here)
                sub = _regress(
                    subgoal, here, budget - 1, problem, failed, missing_log
                )
                if sub is None:
                    continue
                prefix = sub
                for step in sub:
                    here = apply_effects(step, here)
                if not preconditions_met(action, here):
                    continue
            after = apply_effects(action, here)
            rest = _regress(
                goals, after, budget - 1, problem, failed, missing_log
            )
            if rest is not None:
                return prefix + [action] + rest
    failed[key] = max(failed.get(key, 0), budget)
    return None


def _all_ground_actions(problem: _Problem) -> list[GroundAction]:
    actions: list[GroundAction] = []
    for schema in problem.schemas:
        pools = [_typed_entities(problem, concept) for _, concept in schema.params]
        for combo in itertools.product(*pools):
            action = GroundAction(schema, tuple(combo))
            if type_check(action, problem.ontology) is None:
                actions.append(action)
    return actions


def _forward(
    goals: tuple[Literal, ...],
    state: WorldState,
    depth: int,
    actions: list[GroundAction],
    explored: dict[frozenset, int],
) -> list[GroundAction] | None:
    if state.satisfies_all(goals):
        return []
    if depth == 0:
        return None
    if explored.get(state.atoms, -1) >= depth:
        return None
    explored[state.atoms] = depth
    for action in actions:
        if not preconditions_met(action, state):
            continue
        rest = _forward(
            goals, apply_effects(action, state), depth - 1, actions, explored
        )
        if rest is not None:
            return [action] + rest
    return None


def abduce_policy(
    goal: tuple[Literal, ...],
    state: WorldState,
    schemas: tuple[ActionSchema, ...],
    ontology: Ontology,
    depth_budget: int = DEFAULT_DEPTH_BUDGET,
) -> list[GroundAction]:
    """Find a type-safe action sequence from state to the goal literals.

    Regression runs first; a bounded forward search backs it up so that
    any plan of length at most depth_budget is within reach.  Both search
    the relevant state, so atoms on predicates no schema or goal literal
    mentions never affect the result.  The returned plan is re-simulated
    before being handed back.  On failure the raised error carries the
    last subgoal that could not be met.
    """
    if depth_budget < 1:
        raise ValueError(f"depth budget must be >= 1, got {depth_budget}")
    state = relevant_state(goal, state, schemas)
    schema_names = {schema.name for schema in schemas}
    entities = tuple(
        name
        for name, _ in sorted(ontology.typing)
        if name not in schema_names
    )
    problem = _Problem(schemas=schemas, ontology=ontology, entities=entities)
    missing_log: list[tuple[Literal, ...]] = []
    plan = _regress(goal, state, depth_budget, problem, {}, missing_log)
    if plan is None:
        plan = _forward(
            goal, state, depth_budget, _all_ground_actions(problem), {}
        )
    if plan is None:
        blocked = missing_log[-1] if missing_log else goal
        raise PlanningError(
            "no plan within depth budget "
            f"{depth_budget} for {', '.join(l.render() for l in blocked)}",
            subgoal=blocked,
        )
    here = state
    for action in plan:
        if type_check(action, ontology) is not None:
            raise PlanningError(
                f"planner produced ill-typed step {action.render()}",
                subgoal=goal,
            )
        here = apply_effects(action, here)
    if not here.satisfies_all(goal):
        raise PlanningError("planner produced a non-goal plan", subgoal=goal)
    return plan
