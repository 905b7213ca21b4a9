"""Typed STRIPS domains, abduction, trace simulation, and sealing."""

from __future__ import annotations

import hashlib
import itertools
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import bfs_plan, random_domain, unprojected_abduce

from veritas.guard import FailureKind
from veritas.ledger import Ledger, Op
from veritas.logic import Atom, render_canonical
from veritas.plan import (
    ActionSchema,
    DomainSyntaxError,
    GroundAction,
    Literal,
    Ontology,
    OntologyError,
    PlanningError,
    TraceIntegrityError,
    TraceSyntaxError,
    WorldState,
    abduce_policy,
    apply_effects,
    load_domain,
    missing_preconditions,
    parse_domain,
    parse_literal,
    parse_literal_list,
    parse_trace,
    preconditions_met,
    relevant_state,
    render_trace,
    repair_ontology,
    replay_trace,
    seal_trace,
    simulate_trace,
    trace_digest,
    type_check,
)

DOMAINS = pathlib.Path(__file__).parent / "domains"
GOLDEN = pathlib.Path(__file__).parent / "golden"


def domain(name: str):
    return load_domain(str(DOMAINS / f"{name}.domain"))


def golden(name: str) -> str:
    return (GOLDEN / f"{name}.trace").read_text()


def plan_texts(plan) -> list[str]:
    return [action.render() for action in plan]


class TestOntology:
    def build(self) -> Ontology:
        return Ontology(
            concepts=frozenset({"Entity", "Organism", "Structure", "Person"}),
            subsumption=frozenset(
                {("Organism", "Entity"), ("Structure", "Entity"),
                 ("Person", "Organism")}
            ),
            typing=(("Alice", "Person"), ("Clinic", "Structure")),
        )

    def test_subsumption_is_reflexive(self):
        assert self.build().is_subtype("Organism", "Organism")

    def test_subsumption_is_transitive(self):
        assert self.build().is_subtype("Person", "Entity")

    def test_unrelated_concepts_are_not_subtypes(self):
        ont = self.build()
        assert not ont.is_subtype("Structure", "Organism")
        assert not ont.is_subtype("Entity", "Person")

    def test_cycle_is_rejected_at_construction(self):
        with pytest.raises(OntologyError):
            Ontology(
                concepts=frozenset({"A", "B"}),
                subsumption=frozenset({("A", "B"), ("B", "A")}),
            )

    def test_typing_must_use_declared_concepts(self):
        with pytest.raises(OntologyError):
            Ontology(
                concepts=frozenset({"A"}),
                typing=(("x", "Ghost"),),
            )

    def test_adding_a_present_edge_returns_the_same_ontology(self):
        ont = self.build()
        assert ont.with_edge("Person", "Organism") is ont


class TestTypeCheck:
    def clinic(self) -> tuple[ActionSchema, Ontology]:
        ontology = Ontology(
            concepts=frozenset(
                {"Entity", "Organism", "Structure", "Substance"}
            ),
            subsumption=frozenset(
                {("Organism", "Entity"), ("Structure", "Entity"),
                 ("Substance", "Entity")}
            ),
            typing=(
                ("Vaccine", "Substance"),
                ("Building", "Structure"),
                ("Patient", "Organism"),
            ),
        )
        administer = ActionSchema(
            "Administer",
            params=(("s", "Substance"), ("target", "Organism")),
            add=(Atom("Vaccinated", ("target",)),),
        )
        return administer, ontology

    def test_structure_is_refused_where_an_organism_is_required(self):
        administer, ontology = self.clinic()
        violation = type_check(
            GroundAction(administer, ("Vaccine", "Building")), ontology
        )
        assert violation is not None
        assert violation.argument == "Building"
        assert violation.required == "Organism"
        assert violation.actual == "Structure"
        assert "Building" in violation.render()

    def test_matching_arguments_pass(self):
        administer, ontology = self.clinic()
        assert type_check(
            GroundAction(administer, ("Vaccine", "Patient")), ontology
        ) is None

    def test_exact_concept_match_passes_by_reflexivity(self):
        nav = domain("navigation")
        move = GroundAction(
            nav.schema("Move"), ("Agent1", "LocationA", "LocationB")
        )
        assert type_check(move, nav.ontology) is None

    def test_untyped_entity_is_an_explicit_violation(self):
        administer, ontology = self.clinic()
        violation = type_check(
            GroundAction(administer, ("Vaccine", "Ghost")), ontology
        )
        assert violation is not None
        assert violation.actual is None
        assert "no declared type" in violation.render()


class TestDomainParsing:
    def test_navigation_domain_round_trip(self):
        nav = domain("navigation")
        assert [s.name for s in nav.schemas] == ["Move"]
        assert nav.init.holds(Atom("At", ("Agent1", "LocationA")))
        assert nav.goal == (Literal(Atom("At", ("Agent1", "LocationB"))),)
        move = nav.schema("Move")
        assert move.params == (
            ("a", "Agent"), ("from", "Location"), ("to", "Location")
        )
        assert move.delete == (Atom("At", ("a", "from")),)

    def test_empty_effect_sections_parse_to_empty_tuples(self):
        room = domain("room")
        assert room.schema("Unlock").add == ()
        assert room.schema("Enter").delete == ()

    def test_negative_literal_syntax(self):
        lit = parse_literal("!Locked(Room101)")
        assert lit == Literal(Atom("Locked", ("Room101",)), positive=False)
        assert lit.render() == "!Locked(Room101)"

    def test_unknown_directive_is_rejected(self):
        with pytest.raises(DomainSyntaxError):
            parse_domain("frobnicate X\n")

    def test_entity_line_needs_a_concept(self):
        with pytest.raises(DomainSyntaxError):
            parse_domain("concept A\nentity Foo\n")

    def test_overlapping_add_and_del_are_rejected(self):
        with pytest.raises(DomainSyntaxError):
            parse_domain(
                "concept A\nentity X : A\n"
                "action Flip(x:A) pre: add: P(x) del: P(x)\n"
            )

    def test_comments_and_blanks_are_ignored(self):
        parsed = parse_domain("# nothing\n\nconcept A\n")
        assert parsed.ontology.concepts == frozenset({"A"})


class TestStateOps:
    def test_positive_and_negative_preconditions(self):
        room = domain("room")
        unlock = GroundAction(room.schema("Unlock"), ("Agent2", "Room101"))
        enter = GroundAction(room.schema("Enter"), ("Agent2", "Room101"))
        assert preconditions_met(unlock, room.init)
        assert not preconditions_met(enter, room.init)

    def test_apply_effects_removes_deleted_atoms(self):
        room = domain("room")
        unlock = GroundAction(room.schema("Unlock"), ("Agent2", "Room101"))
        after = apply_effects(unlock, room.init)
        assert not after.holds(Atom("Locked", ("Room101",)))
        assert after.holds(Atom("HasKey", ("Agent2", "Room101")))

    def test_empty_effects_leave_the_state_alone(self):
        noop = ActionSchema("Wait", params=())
        state = WorldState(frozenset({Atom("p")}))
        assert apply_effects(GroundAction(noop, ()), state) == state

    def test_apply_effects_refuses_unmet_preconditions(self):
        room = domain("room")
        enter = GroundAction(room.schema("Enter"), ("Agent2", "Room101"))
        with pytest.raises(ValueError, match="Locked"):
            apply_effects(enter, room.init)

    def test_missing_preconditions_follow_declaration_order(self):
        drone = domain("drone")
        fly = GroundAction(
            drone.schema("Fly"), ("Drone1", "Base", "SiteAlpha")
        )
        missing = missing_preconditions(fly, drone.init)
        assert [lit.render() for lit in missing] == [
            "FullBattery(Drone1)",
            "!LowBattery(Drone1)",
        ]


class TestAbduction:
    def solve(self, name: str):
        dom = domain(name)
        return dom, abduce_policy(
            dom.goal, dom.init, dom.schemas, dom.ontology
        )

    def test_navigation_needs_one_move(self):
        _, plan = self.solve("navigation")
        assert plan_texts(plan) == ["Move(Agent1,LocationA,LocationB)"]

    def test_locked_room_needs_unlock_then_enter(self):
        _, plan = self.solve("room")
        assert plan_texts(plan) == [
            "Unlock(Agent2,Room101)",
            "Enter(Agent2,Room101)",
        ]

    def test_low_battery_forces_recharge_before_fly(self):
        _, plan = self.solve("drone")
        assert plan_texts(plan) == [
            "Recharge(Drone1)",
            "Fly(Drone1,Base,SiteAlpha)",
        ]

    def test_satisfied_goal_needs_no_actions(self):
        nav = domain("navigation")
        done = WorldState(
            nav.init.atoms | {Atom("At", ("Agent1", "LocationB"))}
        )
        assert abduce_policy(nav.goal, done, nav.schemas, nav.ontology) == []

    def test_budget_below_one_is_rejected(self):
        nav = domain("navigation")
        with pytest.raises(ValueError):
            abduce_policy(
                nav.goal, nav.init, nav.schemas, nav.ontology, depth_budget=0
            )

    def test_failure_carries_the_blocked_subgoal(self):
        nav = domain("navigation")
        goal = (Literal(Atom("At", ("Agent1", "LocationA")), positive=False),)
        stuck = WorldState(frozenset({Atom("At", ("Agent1", "LocationA"))}))
        with pytest.raises(PlanningError) as err:
            abduce_policy(goal, stuck, (), nav.ontology)
        assert err.value.subgoal == goal

    def test_search_is_deterministic(self):
        first = plan_texts(self.solve("drone")[1])
        second = plan_texts(self.solve("drone")[1])
        assert first == second


class TestSimulateTrace:
    def test_navigation_reaches_location_b(self):
        nav = domain("navigation")
        plan = abduce_policy(nav.goal, nav.init, nav.schemas, nav.ontology)
        result = simulate_trace(plan, nav.init, goal=nav.goal)
        assert result.ok
        assert result.final.holds(Atom("At", ("Agent1", "LocationB")))

    @pytest.mark.parametrize(
        "name, trace_name",
        [
            ("navigation", "navigation"),
            ("room", "room"),
            ("drone", "drone_recovery"),
        ],
    )
    def test_planned_traces_match_the_golden_files(self, name, trace_name):
        dom = domain(name)
        plan = abduce_policy(dom.goal, dom.init, dom.schemas, dom.ontology)
        result = simulate_trace(plan, dom.init, goal=dom.goal)
        assert result.ok
        assert render_trace(result.trace) == golden(trace_name)

    def test_bare_fly_truncates_with_a_type_five_event(self):
        drone = domain("drone")
        fly = GroundAction(
            drone.schema("Fly"), ("Drone1", "Base", "SiteAlpha")
        )
        result = simulate_trace([fly], drone.init, goal=drone.goal)
        assert not result.ok
        assert result.failure.kind == FailureKind.POLICY_MISPROJECTION
        assert result.failure.subject == "Fly(Drone1,Base,SiteAlpha)"
        assert result.final == drone.init
        assert render_trace(result.trace) == golden("drone_failure")

    def test_empty_plan_keeps_the_initial_state(self):
        nav = domain("navigation")
        result = simulate_trace([], nav.init)
        assert result.ok
        assert result.final == nav.init
        assert [step.label for step in result.trace.entries] == ["init"]

    def test_replayed_deltas_reproduce_every_state(self):
        room = domain("room")
        plan = abduce_policy(room.goal, room.init, room.schemas, room.ontology)
        result = simulate_trace(plan, room.init, goal=room.goal)
        states = replay_trace(result.trace)
        assert states[0] == room.init
        assert states[-1] == result.final

    def test_tampered_snapshot_fails_replay(self):
        parsed = parse_trace(golden("room"))
        entries = list(parsed.entries)
        bad = entries[2]
        entries[2] = type(bad)(
            index=bad.index,
            label=bad.label,
            pre=bad.pre | {Atom("Ghost")},
            added=bad.added,
            deleted=bad.deleted,
        )
        parsed.entries = tuple(entries)
        with pytest.raises(TraceIntegrityError):
            replay_trace(parsed)

    def test_serialized_traces_parse_back_to_the_same_entries(self):
        drone = domain("drone")
        plan = abduce_policy(
            drone.goal, drone.init, drone.schemas, drone.ontology
        )
        result = simulate_trace(plan, drone.init, goal=drone.goal)
        parsed = parse_trace(render_trace(result.trace))
        assert parsed.entries == result.trace.entries
        replayed = [s.atoms for s in replay_trace(parsed)]
        direct = [s.atoms for s in replay_trace(result.trace)]
        assert replayed == direct

    def test_malformed_trace_lines_are_rejected(self):
        with pytest.raises(TraceSyntaxError):
            parse_trace("t0 init pre={} add={} del={}\n")


class TestSealTrace:
    def sealed(self) -> tuple:
        nav = domain("navigation")
        plan = abduce_policy(nav.goal, nav.init, nav.schemas, nav.ontology)
        result = simulate_trace(plan, nav.init, goal=nav.goal)
        ledger = Ledger()
        index = seal_trace(result.trace, ledger)
        return result.trace, ledger, index

    def test_seal_appends_a_trace_seal_block_with_the_digest(self):
        trace, ledger, index = self.sealed()
        block = ledger.blocks[index]
        assert block.op == Op.TRACE_SEAL
        assert block.justification_digest == hashlib.sha256(
            render_trace(trace).encode()
        ).digest()
        assert block.formula == "At(Agent1,LocationB)"
        assert trace.seal == index

    def test_sealing_twice_yields_identical_digests(self):
        trace, ledger, first = self.sealed()
        second = seal_trace(trace, ledger)
        assert second == first + 1
        assert (
            ledger.blocks[first].justification_digest
            == ledger.blocks[second].justification_digest
        )

    def test_altering_an_entry_changes_the_digest(self):
        trace, _, _ = self.sealed()
        before = trace_digest(trace)
        entries = list(trace.entries)
        step = entries[1]
        entries[1] = type(step)(
            index=step.index,
            label=step.label,
            pre=step.pre,
            added=step.added | {Atom("Ghost")},
            deleted=step.deleted,
        )
        trace.entries = tuple(entries)
        assert trace_digest(trace) != before


class TestRepairOntology:
    def transport(self) -> Ontology:
        return Ontology(
            concepts=frozenset({"Task", "Transport", "Delivery"}),
            subsumption=frozenset({("Transport", "Task")}),
            typing=(("ShipByDrone", "Delivery"),),
        )

    def test_missing_edge_is_added_and_logged(self):
        ledger = Ledger()
        repaired = repair_ontology(
            "ShipByDrone", "Transport", self.transport(), ledger
        )
        assert ("Delivery", "Transport") in repaired.subsumption
        assert repaired.is_subtype("Delivery", "Task")
        assert len(ledger) == 1
        assert ledger.blocks[0].op == Op.META
        assert ledger.blocks[0].formula == "subsume(Delivery,Transport)"

    def test_existing_edge_is_a_no_op(self):
        ledger = Ledger()
        ont = self.transport().with_edge("Delivery", "Transport")
        repaired = repair_ontology("ShipByDrone", "Transport", ont, ledger)
        assert repaired is ont
        assert len(ledger) == 0

    def test_inverse_edge_is_refused_as_a_cycle(self):
        ont = self.transport().with_edge("Delivery", "Transport")
        with pytest.raises(OntologyError, match="cycle"):
            repair_ontology("Transport", "Delivery", ont)

    def test_unknown_policy_is_refused(self):
        with pytest.raises(OntologyError):
            repair_ontology("Teleport", "Transport", self.transport())

    def test_concept_names_can_stand_for_policies(self):
        repaired = repair_ontology("Delivery", "Transport", self.transport())
        assert repaired.is_subtype("Delivery", "Transport")


class TestRandomDomains:
    """Search behavior against an independent breadth-first oracle."""

    def test_soundness_and_completeness_at_depth(self):
        rng = random.Random(4242)
        solved = 0
        failed = 0
        for _ in range(120):
            dom = random_domain(rng)
            oracle = bfs_plan(dom, max_depth=6)
            if oracle is not None:
                plan = abduce_policy(
                    dom.goal,
                    dom.init,
                    dom.schemas,
                    dom.ontology,
                    depth_budget=max(len(oracle), 1),
                )
                result = simulate_trace(plan, dom.init, goal=dom.goal)
                assert result.ok
                assert result.final.satisfies_all(dom.goal)
                assert all(
                    type_check(a, dom.ontology) is None for a in plan
                )
                solved += 1
            else:
                try:
                    plan = abduce_policy(
                        dom.goal, dom.init, dom.schemas, dom.ontology,
                        depth_budget=6,
                    )
                except PlanningError as err:
                    assert err.subgoal
                    failed += 1
                else:
                    result = simulate_trace(plan, dom.init, goal=dom.goal)
                    assert result.ok
                    assert result.final.satisfies_all(dom.goal)
        assert solved >= 20
        assert failed >= 20


STOCK = {name: domain(name) for name in ("drone", "navigation", "room")}
JUNK_PREDICATES = ("Noise", "Seen", "S7")
# A predicate that only goals use: no action changes it, but a goal on
# it still reads it from the state.
GOAL_ONLY = "Flag"


def mentioned_atoms(dom) -> list[Atom]:
    """Every ground atom, over the domain's entities, on a predicate and
    arity that a schema, the initial state or the goal uses, or on
    GOAL_ONLY."""
    shapes = {(a.predicate, len(a.args)) for a in dom.init.atoms}
    shapes.add((GOAL_ONLY, 1))
    shapes |= {(lit.atom.predicate, len(lit.atom.args)) for lit in dom.goal}
    for schema in dom.schemas:
        for atom in (*(lit.atom for lit in schema.pre), *schema.add, *schema.delete):
            shapes.add((atom.predicate, len(atom.args)))
    names = {schema.name for schema in dom.schemas}
    entities = [e for e in dom.ontology.entities() if e not in names]
    return sorted(
        (
            Atom(predicate, args)
            for predicate, arity in shapes
            for args in itertools.product(entities, repeat=arity)
        ),
        key=render_canonical,
    )


def junk_atoms(dom) -> list[Atom]:
    """Atoms on predicates that no schema or goal of the domain mentions."""
    return [
        Atom(predicate, args)
        for predicate in JUNK_PREDICATES
        for args in [(), *((e,) for e in dom.ontology.entities())]
    ]


def outcome(planner, goal, state, dom) -> list[str] | str:
    """The plan as text, or the PlanningError message and subgoal."""
    try:
        return plan_texts(planner(goal, state, dom.schemas, dom.ontology))
    except PlanningError as err:
        return f"{err} / {[lit.render() for lit in err.subgoal]}"


@st.composite
def stock_problems(draw):
    name = draw(st.sampled_from(sorted(STOCK)))
    dom = STOCK[name]
    atoms = mentioned_atoms(dom)
    state = draw(st.frozensets(st.sampled_from(atoms), max_size=6))
    goal = tuple(
        Literal(atom, positive)
        for atom, positive in draw(
            st.lists(
                st.tuples(st.sampled_from(atoms), st.booleans()),
                min_size=1,
                max_size=3,
            )
        )
    )
    junk = draw(st.frozensets(st.sampled_from(junk_atoms(dom)), min_size=1))
    return dom, goal, WorldState(state), junk


class TestRelevantState:
    """Planning over the relevant state gives the plan, or the error,
    that planning over the whole state gives."""

    def test_projection_keeps_mentioned_predicates_only(self):
        drone = STOCK["drone"]
        junk = frozenset(junk_atoms(drone))
        state = WorldState(drone.init.atoms | junk)
        assert relevant_state(drone.goal, state, drone.schemas) == drone.init
        goal = (parse_literal("Seen(Drone1)"),)
        kept = relevant_state(goal, state, drone.schemas).atoms
        assert kept == drone.init.atoms | {a for a in junk if a.predicate == "Seen"}

    @settings(max_examples=200, deadline=None)
    @given(stock_problems())
    def test_junk_atoms_change_nothing_on_stock_domains(self, problem):
        dom, goal, state, junk = problem
        padded = WorldState(state.atoms | junk)
        expected = outcome(abduce_policy, goal, state, dom)
        assert outcome(abduce_policy, goal, padded, dom) == expected
        assert outcome(unprojected_abduce, goal, padded, dom) == expected

    @pytest.mark.parametrize(
        "name, goal",
        [
            ("drone", "Inside(Drone1,Base)"),
            ("drone", "At(Drone1,SiteAlpha),LowBattery(Drone1)"),
            ("navigation", "Connected(LocationB,LocationA)"),
            ("room", "Locked(Room101),Inside(Agent2,Room101)"),
        ],
    )
    def test_unreachable_goals_fail_with_the_same_text(self, name, goal):
        dom = STOCK[name]
        literals = parse_literal_list(goal)
        padded = WorldState(dom.init.atoms | frozenset(junk_atoms(dom)))
        expected = outcome(unprojected_abduce, literals, padded, dom)
        assert expected.startswith("no plan within depth budget")
        assert outcome(abduce_policy, literals, dom.init, dom) == expected
        assert outcome(abduce_policy, literals, padded, dom) == expected

    def test_random_domains_agree_with_the_whole_state_search(self):
        rng = random.Random(9090)
        failed = 0
        for _ in range(100):
            dom = random_domain(rng)
            junk = frozenset(
                Atom(rng.choice(JUNK_PREDICATES), (f"E{rng.randrange(3)}",))
                for _ in range(rng.randrange(1, 4))
            )
            padded = WorldState(dom.init.atoms | junk)
            expected = outcome(unprojected_abduce, dom.goal, padded, dom)
            assert outcome(abduce_policy, dom.goal, padded, dom) == expected
            failed += isinstance(expected, str)
        assert failed >= 15
