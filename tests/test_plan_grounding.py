"""A ground action grounds its atoms once, and a search its achievers once.

The kept grounding must be invisible: plans, traces, equality, hashing,
repr and pickling are what an action that grounds on every call gives.
"""

from __future__ import annotations

import collections
import dataclasses
import io
import pathlib
import pickle
import random

import pytest
from oracles import random_domain

from veritas.config import load_config
from veritas.engine import Session
from veritas.logic import Atom
from veritas.plan import (
    GroundAction,
    Literal,
    PlanningError,
    abduce_policy,
    load_domain,
    parse_literal_list,
    render_trace,
    simulate_trace,
)
from veritas.plan import search

DOMAINS = pathlib.Path(__file__).parent / "domains"
STOCK = {
    name: load_domain(str(DOMAINS / f"{name}.domain"))
    for name in ("drone", "navigation", "room")
}
UNREACHABLE_DRONE = (
    "At(Drone1,Nowhere)",
    "At(Drone1,SiteAlpha),!FullBattery(Drone1)",
)


class EagerGroundAction(GroundAction):
    """A ground action that substitutes its parameters on every call."""

    def _fresh(self, atom: Atom) -> Atom:
        binding = dict(zip(self.schema.param_names, self.args))
        return Atom(atom.predicate, tuple(binding.get(a, a) for a in atom.args))

    def preconditions(self) -> tuple[Literal, ...]:
        return tuple(
            Literal(self._fresh(lit.atom), lit.positive) for lit in self.schema.pre
        )

    def add_atoms(self) -> frozenset[Atom]:
        return frozenset(self._fresh(a) for a in self.schema.add)

    def delete_atoms(self) -> frozenset[Atom]:
        return frozenset(self._fresh(a) for a in self.schema.delete)


def count_grounding(monkeypatch) -> list[Atom]:
    """Every schema atom GroundAction grounds from now on."""
    grounded: list[Atom] = []
    original = GroundAction._ground

    def counting(self, atom, binding):
        grounded.append(atom)
        return original(self, atom, binding)

    monkeypatch.setattr(GroundAction, "_ground", counting)
    return grounded


def schema_atoms(plan) -> int:
    return sum(
        len(a.schema.pre) + len(a.schema.add) + len(a.schema.delete) for a in plan
    )


def fresh(plan) -> list[GroundAction]:
    return [GroundAction(a.schema, a.args) for a in plan]


def outcome(goal, state, dom) -> tuple[list[str], str] | str:
    """The plan as text with its simulated trace, or the PlanningError
    message and subgoal."""
    try:
        plan = abduce_policy(goal, state, dom.schemas, dom.ontology, depth_budget=8)
    except PlanningError as err:
        return f"{err} / {[lit.render() for lit in err.subgoal]}"
    trace = simulate_trace(plan, state, goal=goal).trace
    return [a.render() for a in plan], render_trace(trace)


def eager_outcome(goal, state, dom, monkeypatch):
    """outcome with every action the search builds grounding on each call."""
    with monkeypatch.context() as patch:
        patch.setattr(search, "GroundAction", EagerGroundAction)
        return outcome(goal, state, dom)


def stock_problems():
    for name, dom in sorted(STOCK.items()):
        yield dom, dom.goal
    for text in UNREACHABLE_DRONE:
        yield STOCK["drone"], parse_literal_list(text)


class TestKeptGrounding:
    def test_a_kept_plan_grounds_once(self, monkeypatch):
        drone = STOCK["drone"]
        plan = fresh(abduce_policy(drone.goal, drone.init, drone.schemas, drone.ontology))
        grounded = count_grounding(monkeypatch)
        first = simulate_trace(plan, drone.init, goal=drone.goal)
        assert len(grounded) == schema_atoms(plan) > 0
        grounded.clear()
        second = simulate_trace(plan, drone.init, goal=drone.goal)
        assert grounded == []
        assert render_trace(second.trace) == render_trace(first.trace)

    def test_a_line_that_resimulates_the_kept_plan_grounds_nothing(
        self, tmp_path, monkeypatch
    ):
        config = load_config(
            fixed_clock=True,
            ledger_path=str(tmp_path / "agent.vlog"),
            domain_path=str(DOMAINS / "drone.domain"),
            goal="At(Drone1,SiteAlpha)",
        )
        with Session(config) as session:
            out, diag = io.StringIO(), io.StringIO()
            assert session.run_loop(["S1\t0.99\tsensor\n"], out, diag) == 0
            grounded = count_grounding(monkeypatch)
            state = session.world_state()
            assert session.run_loop(["S2\t0.99\tsensor\n"], out, diag) == 0
            # S2 changed the world state, so the line simulated again.
            assert session.world_state() is not state
            assert out.getvalue().count("sealed\t") == 2
            assert grounded == []

    def test_grounding_leaves_equality_hash_and_repr_alone(self):
        drone = STOCK["drone"]
        fly = drone.schema("Fly")
        grounded = GroundAction(fly, ("Drone1", "Base", "SiteAlpha"))
        grounded.preconditions()
        bare = GroundAction(fly, ("Drone1", "Base", "SiteAlpha"))
        assert grounded == bare
        assert hash(grounded) == hash(bare)
        assert repr(grounded) == repr(bare)
        assert {grounded: 1}[bare] == 1

    def test_replace_grounds_afresh(self, monkeypatch):
        fly = GroundAction(STOCK["drone"].schema("Fly"), ("Drone1", "Base", "SiteAlpha"))
        fly.add_atoms()
        moved = dataclasses.replace(fly, args=("Drone1", "SiteAlpha", "Base"))
        grounded = count_grounding(monkeypatch)
        assert moved.add_atoms() == {Atom("At", ("Drone1", "Base"))}
        assert moved.delete_atoms() == {Atom("At", ("Drone1", "SiteAlpha"))}
        assert len(grounded) == schema_atoms([moved])
        assert fly.add_atoms() == {Atom("At", ("Drone1", "SiteAlpha"))}

    @pytest.mark.parametrize("name", sorted(STOCK))
    def test_a_pickled_plan_plans_the_same(self, name):
        dom = STOCK[name]
        plan = abduce_policy(dom.goal, dom.init, dom.schemas, dom.ontology)
        copied = pickle.loads(pickle.dumps(plan))
        assert copied == plan
        assert render_trace(simulate_trace(copied, dom.init, dom.goal).trace) == (
            render_trace(simulate_trace(plan, dom.init, dom.goal).trace)
        )
        bare = pickle.loads(pickle.dumps(fresh(plan)))
        assert render_trace(simulate_trace(bare, dom.init, dom.goal).trace) == (
            render_trace(simulate_trace(plan, dom.init, dom.goal).trace)
        )
        dom_copy = pickle.loads(pickle.dumps(dom))
        again = abduce_policy(
            dom_copy.goal, dom_copy.init, dom_copy.schemas, dom_copy.ontology
        )
        assert [a.render() for a in again] == [a.render() for a in plan]


class TestAchieverMemo:
    def test_each_goal_literal_is_grounded_once_per_search(self, monkeypatch):
        built: collections.Counter = collections.Counter()
        handed: dict[Literal, list[tuple[int, ...]]] = collections.defaultdict(list)
        build, ask = search._ground_achievers, search._achievers

        def counting_build(problem, goal):
            built[goal] += 1
            return build(problem, goal)

        def recording_ask(problem, goal):
            actions = ask(problem, goal)
            handed[goal].append(tuple(map(id, actions)))
            return actions

        monkeypatch.setattr(search, "_ground_achievers", counting_build)
        monkeypatch.setattr(search, "_achievers", recording_ask)
        for dom, goal in stock_problems():
            for _ in range(2):
                built.clear()
                handed.clear()
                outcome(goal, dom.init, dom)
                assert set(built) == set(handed)
                assert set(built.values()) == {1}
                # Every ask for a literal gets the same instances.
                assert all(len(set(ids)) == 1 for ids in handed.values())
        # The unreachable goal asks again for literals it already grounded.
        assert any(len(ids) > 1 for ids in handed.values())


class TestParityWithEagerGrounding:
    def test_the_eager_reference_never_keeps_a_grounding(self, monkeypatch):
        drone = STOCK["drone"]
        with monkeypatch.context() as patch:
            patch.setattr(search, "GroundAction", EagerGroundAction)
            plan = abduce_policy(drone.goal, drone.init, drone.schemas, drone.ontology)
        assert plan and all(type(a) is EagerGroundAction for a in plan)
        simulate_trace(plan, drone.init, goal=drone.goal)
        assert not any("_kept" in vars(a) for a in plan)

    def test_stock_domains_plan_and_trace_the_same(self, monkeypatch):
        for dom, goal in stock_problems():
            expected = eager_outcome(goal, dom.init, dom, monkeypatch)
            assert outcome(goal, dom.init, dom) == expected

    def test_random_domains_plan_and_trace_the_same(self, monkeypatch):
        solved = failed = 0
        for seed in range(100):
            dom = random_domain(random.Random(seed))
            expected = eager_outcome(dom.goal, dom.init, dom, monkeypatch)
            assert outcome(dom.goal, dom.init, dom) == expected, seed
            if isinstance(expected, str):
                failed += 1
            else:
                solved += 1
        assert solved >= 10
        assert failed >= 10
