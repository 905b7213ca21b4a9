"""Contradiction handling, failure taxonomy, recovery, and gating."""

from __future__ import annotations

import random

import pytest
from oracles import minimal_unsat_cores, random_formula, tt_satisfiable

from veritas.belief import (
    BeliefBase,
    BeliefEntry,
    Provenance,
    StatusTag,
    amend_entry,
    export,
)
from veritas.config import EngineConfig
from veritas.guard import (
    Diagnostic,
    FailureEvent,
    FailureKind,
    RecoveryContext,
    approximation_gate,
    assertion_gate,
    classify_failure,
    detect_contradiction,
    epistemic_risk,
    justification_health,
    mscu_sweep,
    resolve_contradiction,
    run_recovery,
)
from veritas.justify import JustificationGraph
from veritas.ledger import Ledger, Op, apply_block, replay
from veritas.logic import Atom, is_consistent, parse, render_canonical


def entry(text: str, confidence: float, ts: int = 0, source: str = "sensor",
          **kwargs) -> BeliefEntry:
    return BeliefEntry(
        formula=parse(text),
        probability=kwargs.pop("probability", 0.99),
        provenance=Provenance(source, ts, confidence),
        **kwargs,
    )


class TestDetectContradiction:
    def test_consistent_base_has_no_cores(self):
        base = BeliefBase.from_entries([entry("p", 0.9), entry("q", 0.9)])
        assert detect_contradiction(base) == []

    def test_syntactic_pair_is_found_without_touching_bystanders(self):
        base = BeliefBase.from_entries(
            [entry("p", 0.9), entry("!p", 0.8), entry("q", 0.7)]
        )
        cores = detect_contradiction(base)
        assert cores == [frozenset({parse("p"), parse("!p")})]

    def test_semantic_core_is_minimal(self):
        """{p, p->q, !q} has no syntactic pair but is jointly unsat."""
        base = BeliefBase.from_entries(
            [entry("p", 0.9), entry("p -> q", 0.95), entry("!q", 0.8)]
        )
        cores = detect_contradiction(base)
        assert len(cores) == 1
        core = cores[0]
        assert core == frozenset({parse("p"), parse("p -> q"), parse("!q")})
        for member in core:
            assert tt_satisfiable([f for f in core if f != member])

    def test_random_cores_pass_the_minimality_oracle(self):
        rng = random.Random(90210)
        atoms = [Atom("p"), Atom("q"), Atom("r")]
        checked = 0
        for _ in range(120):
            pool = [random_formula(rng, atoms, 3) for _ in range(rng.randrange(2, 6))]
            base = BeliefBase.from_entries(
                entry(render_canonical(f), 0.9, ts=i)
                for i, f in enumerate(dict.fromkeys(pool))
            )
            cores = detect_contradiction(base)
            if not tt_satisfiable(base.formulas()):
                assert cores, base.formulas()
            else:
                assert cores == []
                continue
            oracle = minimal_unsat_cores(base.formulas())
            for core in cores:
                assert core in oracle
                checked += 1
        assert checked > 10


class TestResolveContradiction:
    def test_higher_confidence_wins(self):
        base = BeliefBase.from_entries(
            [entry("p", 0.9, ts=0), entry("!p", 0.6, ts=1)]
        )
        core = detect_contradiction(base)[0]
        resolved, actions = resolve_contradiction(base, core)
        assert [e.key for e in resolved.entries] == ["p"]
        assert actions == [("retract", "(! p)")]
        assert resolved.retraction_log[-1].reason == "recovery(dominated)"

    def test_newer_timestamp_breaks_confidence_tie(self):
        base = BeliefBase.from_entries(
            [entry("p", 0.9, ts=0), entry("!p", 0.9, ts=5)]
        )
        core = detect_contradiction(base)[0]
        resolved, actions = resolve_contradiction(base, core)
        assert [e.key for e in resolved.entries] == ["(! p)"]

    def test_full_tie_falls_back_to_contraction(self):
        base = BeliefBase.from_entries(
            [entry("p", 0.9, ts=0, source="a"), entry("!p", 0.9, ts=0, source="b")]
        )
        core = detect_contradiction(base)[0]
        resolved, actions = resolve_contradiction(base, core)
        assert actions == [("contract", "(! p)")]
        assert is_consistent(resolved.formulas())

    def test_reliability_settles_otherwise_tied_sources(self):
        base = BeliefBase.from_entries(
            [entry("p", 0.9, ts=0, source="alice"),
             entry("!p", 0.9, ts=0, source="bob")]
        )
        core = detect_contradiction(base)[0]
        resolved, _ = resolve_contradiction(
            base, core, reliability={"alice": 0.9, "bob": 0.2}
        )
        assert [e.key for e in resolved.entries] == ["p"]

    def test_bystanders_survive(self):
        base = BeliefBase.from_entries(
            [entry("p", 0.9, ts=0), entry("!p", 0.6, ts=1), entry("q", 0.95, ts=2)]
        )
        core = detect_contradiction(base)[0]
        resolved, _ = resolve_contradiction(base, core)
        assert {e.key for e in resolved.entries} == {"p", "q"}


class TestClassifyFailure:
    def test_each_kind(self):
        cases = [
            (Diagnostic(inconsistency=True), FailureKind.BELIEF_INCONSISTENCY),
            (Diagnostic(missing_trace=True), FailureKind.JUSTIFICATION_BREAKDOWN),
            (
                Diagnostic(epsilon=0.12, epsilon_max=0.05),
                FailureKind.APPROXIMATION_DRIFT,
            ),
            (Diagnostic(grounding_mismatch=True), FailureKind.GROUNDING_MISALIGNMENT),
            (
                Diagnostic(expected_utility=0.9, actual_utility=0.5, delta=0.1),
                FailureKind.POLICY_MISPROJECTION,
            ),
        ]
        for diagnostic, kind in cases:
            assert classify_failure(diagnostic).kind == kind

    def test_unmatched_signals_are_an_explicit_unknown(self):
        event = classify_failure(Diagnostic(subject="p"))
        assert event.kind == FailureKind.UNKNOWN
        assert event.detail

    def test_within_bound_signals_do_not_fire(self):
        assert (
            classify_failure(Diagnostic(epsilon=0.03, epsilon_max=0.05)).kind
            == FailureKind.UNKNOWN
        )
        assert (
            classify_failure(
                Diagnostic(expected_utility=0.6, actual_utility=0.5, delta=0.1)
            ).kind
            == FailureKind.UNKNOWN
        )

    def test_taxonomy_order_breaks_multi_signal_events(self):
        event = classify_failure(
            Diagnostic(inconsistency=True, missing_trace=True)
        )
        assert event.kind == FailureKind.BELIEF_INCONSISTENCY


class TestRiskGate:
    def test_depth_zero_risk_is_one_minus_probability(self):
        assessment = epistemic_risk(0.96, 0)
        assert assessment.risk == pytest.approx(0.04)
        assert assessment.admitted

    def test_depth_decays_confidence(self):
        assessment = epistemic_risk(0.9, 3)
        assert assessment.risk == pytest.approx(1 - 0.9 * 0.98**3)
        assert assessment.admitted

    def test_low_probability_is_refused(self):
        assert not epistemic_risk(0.4, 0).admitted

    def test_risk_grows_with_depth(self):
        risks = [epistemic_risk(0.99, d).risk for d in range(0, 40, 5)]
        assert risks == sorted(risks)

    def test_raising_tau_never_unadmits(self):
        for p in (0.2, 0.5, 0.9, 0.99):
            for depth in (0, 2, 8):
                admitted = [
                    epistemic_risk(p, depth, tau_risk=tau).admitted
                    for tau in (0.1, 0.3, 0.5, 0.7, 0.9)
                ]
                assert admitted == sorted(admitted)

    def test_assertion_gate_needs_both_theta_and_risk(self):
        config = EngineConfig()
        assert assertion_gate(0.99, 0, config)
        assert not assertion_gate(0.9, 0, config)
        deep = EngineConfig(tau_risk=0.01)
        assert not assertion_gate(0.99, 5, deep)


class TestSweep:
    def build_graph(self, *texts: str) -> tuple[JustificationGraph, dict[str, str]]:
        graph = JustificationGraph()
        ids = {}
        for ts, text in enumerate(texts):
            ids[text] = graph.record_inference(
                parse(text), (), "observation", Provenance("sensor", ts, 0.99)
            )
        return graph, ids

    def test_healthy_entries_score_their_probability(self):
        graph, ids = self.build_graph("p")
        base = BeliefBase.from_entries(
            [entry("p", 0.99, justification=ids["p"])]
        )
        log = mscu_sweep(base, graph)
        assert [(m.formula, m.score, m.action) for m in log] == [("p", 0.99, "none")]

    def test_missing_trace_scores_zero_and_reevaluates(self):
        graph, _ = self.build_graph("p")
        base = BeliefBase.from_entries([entry("p", 0.99, justification="0" * 64)])
        log = mscu_sweep(base, graph)
        assert log[0].score == 0.0
        assert log[0].action == "reevaluate"

    def test_provisional_tag_halves_the_score(self):
        graph, ids = self.build_graph("p")
        base = BeliefBase.from_entries(
            [entry("p", 0.99, justification=ids["p"], status=StatusTag.APPROXIMATE)]
        )
        log = mscu_sweep(base, graph)
        assert log[0].score == pytest.approx(0.495)
        assert log[0].action == "reevaluate"

    def test_health_needs_no_walk_of_the_dag(self, monkeypatch):
        """A node in the graph always resolves, so scoring never traces."""
        graph, ids = self.build_graph("p", "p -> q")
        derived = graph.record_inference(
            parse("q"), (ids["p"], ids["p -> q"]), "modus-ponens",
            Provenance("deriver", 2, 0.97),
        )

        def refuse(*args):
            raise AssertionError("trace called")

        monkeypatch.setattr(JustificationGraph, "trace", refuse)
        scored = [
            entry("q", 0.97, justification=derived),
            entry("q", 0.97, justification=derived, status=StatusTag.APPROXIMATE),
            entry("q", 0.97, justification="0" * 64),
            entry("q", 0.97, justification=None),
        ]
        assert [justification_health(graph, e) for e in scored] == [1.0, 0.5, 0.0, 0.0]

    def test_contradictory_pair_flags_contract(self):
        graph, ids = self.build_graph("p", "!p")
        base = BeliefBase.from_entries(
            [
                entry("p", 0.99, justification=ids["p"]),
                entry("!p", 0.99, ts=1, justification=ids["!p"]),
            ]
        )
        actions = {m.formula: m.action for m in mscu_sweep(base, graph)}
        assert actions == {"p": "contract", "(! p)": "contract"}

    def test_non_assertable_entries_are_skipped(self):
        graph, _ = self.build_graph("p")
        base = BeliefBase.from_entries(
            [entry("p", 0.99, justification=None, assertable=False)]
        )
        assert mscu_sweep(base, graph) == []

    def test_sweep_is_idempotent_on_a_healthy_base(self):
        graph, ids = self.build_graph("p", "q")
        base = BeliefBase.from_entries(
            [
                entry("p", 0.99, justification=ids["p"]),
                entry("q", 0.97, ts=1, justification=ids["q"]),
            ]
        )
        first = mscu_sweep(base, graph)
        second = mscu_sweep(base, graph)
        assert all(m.action == "none" for m in first)
        assert [(m.formula, m.action) for m in first] == [
            (m.formula, m.action) for m in second
        ]


class TestApproximationGate:
    def test_bound_is_closed(self):
        accepted, event = approximation_gate(parse("p"), parse("q"), 0.05)
        assert accepted and event is None

    def test_over_bound_yields_type_three(self):
        accepted, event = approximation_gate(parse("p"), parse("q"), 0.0501)
        assert not accepted
        assert event.kind == FailureKind.APPROXIMATION_DRIFT
        assert event.subject == "q"

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            approximation_gate(parse("p"), parse("q"), -0.01)


def seeded_context(*entries_: BeliefEntry) -> RecoveryContext:
    graph = JustificationGraph()
    base = BeliefBase()
    config = EngineConfig()
    ledger = Ledger()
    for e in entries_:
        node = graph.record_inference(
            e.formula, (), "observation", e.provenance
        )
        ledger.append(
            Op.INSERT,
            formula=e.key,
            justification_digest=bytes.fromhex(node),
            timestamp=e.provenance.timestamp,
        )
        base = apply_block(base, ledger.blocks[-1], config, graph)
    return RecoveryContext(base=base, graph=graph, config=config, ledger=ledger)


class TestRecoveryProtocols:
    def test_protocol_one_restores_consistency_and_replays(self):
        """A scripted clash resolves by dominance and lands in the ledger."""
        context = seeded_context(entry("q", 0.95, ts=0))
        clash = BeliefBase.from_entries(
            [entry("p", 0.9, ts=1), entry("!p", 0.6, ts=2)]
        )
        start = BeliefBase.from_entries(context.base.entries + clash.entries)
        context.base = start
        marker = len(context.ledger)
        event = FailureEvent(FailureKind.BELIEF_INCONSISTENCY, "p")
        report = run_recovery(event, context)
        assert report.protocol == "I"
        assert is_consistent(report.base.formulas())
        assert {e.key for e in report.base.entries} == {"p", "q"}
        assert len(context.ledger) > marker
        assert context.ledger.verify_chain() is None
        recovered_only = Ledger()
        for block in context.ledger.blocks[marker:]:
            recovered_only.append(
                block.op, block.formula, block.justification_digest, block.timestamp
            )
        assert export(
            replay(recovered_only, context.config, context.graph, initial=start)
        ) == export(report.base)

    def test_protocol_one_demotes_orphaned_derivations(self):
        """Dropping a premise demotes the conclusions that leaned on it."""
        graph = JustificationGraph()
        config = EngineConfig()
        ledger = Ledger()
        base = BeliefBase()
        p_id = graph.record_inference(
            parse("p"), (), "observation", Provenance("sensor", 0, 0.99)
        )
        pq_id = graph.record_inference(
            parse("p -> q"), (), "observation", Provenance("sensor", 1, 0.99)
        )
        q_id = graph.record_inference(
            parse("q"), (p_id, pq_id), "modus-ponens", Provenance("deriver", 2, 0.99)
        )
        for ts, (text, node) in enumerate(
            [("p", p_id), ("p -> q", pq_id), ("q", q_id)]
        ):
            ledger.append(
                Op.INSERT,
                formula=render_canonical(parse(text)),
                justification_digest=bytes.fromhex(node),
                timestamp=ts,
            )
            base = apply_block(base, ledger.blocks[-1], config, graph)
        clash = entry("!p", 0.999, ts=3)
        base = BeliefBase.from_entries(base.entries + (clash,))
        graph.record_inference(clash.formula, (), "observation", clash.provenance)
        context = RecoveryContext(
            base=base, graph=graph, config=config, ledger=ledger
        )
        event = FailureEvent(FailureKind.BELIEF_INCONSISTENCY, "p")
        report = run_recovery(event, context)
        assert is_consistent(report.base.formulas())
        held = {e.key for e in report.base.entries}
        assert "p" not in held
        assert "(! p)" in held
        q_entry = report.base.find(parse("q"))
        assert q_entry is not None
        assert q_entry.probability == 0.005
        assert q_entry.status == StatusTag.APPROXIMATE
        assert not q_entry.assertable
        assert any("demoted" in line for line in report.lines)

    def test_protocol_two_rejustifies_from_an_alternate_node(self):
        context = seeded_context(
            entry("p", 0.99, ts=0), entry("p -> q", 0.99, ts=1)
        )
        q_node = context.graph.record_inference(
            parse("q"),
            (
                context.graph.latest_for(parse("p")),
                context.graph.latest_for(parse("p -> q")),
            ),
            "modus-ponens",
            Provenance("deriver", 2, 0.97),
        )
        context.ledger.append(
            Op.INSERT,
            formula="q",
            justification_digest=bytes.fromhex(q_node),
            timestamp=2,
        )
        context.base = apply_block(
            context.base, context.ledger.blocks[-1], context.config, context.graph
        )
        context.base = amend_entry(
            context.base, parse("q"), justification="0" * 64
        )
        event = FailureEvent(FailureKind.JUSTIFICATION_BREAKDOWN, "q")
        report = run_recovery(event, context)
        assert report.protocol == "II"
        repaired = report.base.find(parse("q"))
        assert repaired.justification == q_node
        assert repaired.probability == 0.97
        assert repaired.assertable
        assert any("rejustified" in line for line in report.lines)

    def test_protocol_two_demotes_when_no_alternate_exists(self):
        """No surviving node concludes q, so q drops to the floor value."""
        context = seeded_context(entry("p", 0.99, ts=0))
        orphan = entry("q", 0.9, ts=1, justification="0" * 64)
        context.base = BeliefBase.from_entries(context.base.entries + (orphan,))
        event = FailureEvent(FailureKind.JUSTIFICATION_BREAKDOWN, "q")
        report = run_recovery(event, context)
        demoted = report.base.find(parse("q"))
        assert demoted.probability == 0.005
        assert demoted.status == StatusTag.APPROXIMATE
        assert not demoted.assertable
        assert any("demoted" in line for line in report.lines)
        assert all(
            m.action == "none"
            for m in mscu_sweep(report.base, context.graph)
        )

    def test_protocol_three_marks_for_reobservation(self):
        context = seeded_context(entry("Temp(Room1)", 0.99, ts=0))
        event = FailureEvent(
            FailureKind.APPROXIMATION_DRIFT, "Temp(Room1)", "epsilon=0.2"
        )
        report = run_recovery(event, context)
        marked = report.base.find(parse("Temp(Room1)"))
        assert marked.status == StatusTag.APPROXIMATE
        assert not marked.assertable
        assert any("marked-for-reobservation" in line for line in report.lines)

    def test_protocol_four_adds_human_flag_and_rollback_directive(self):
        context = seeded_context(entry("At(Robot1,Dock)", 0.99, ts=0))
        event = FailureEvent(
            FailureKind.GROUNDING_MISALIGNMENT, "At(Robot1,Dock)"
        )
        report = run_recovery(event, context)
        assert report.protocol == "IV"
        assert "human-review" in report.directives
        assert "rollback" in report.directives
        assert any("flagged-for-human-review" in line for line in report.lines)

    def test_protocol_five_blocks_and_reselects(self):
        context = seeded_context(entry("p", 0.99, ts=0))
        context.replan = lambda: "Recharge(Drone1);Fly(Drone1,Base,SiteAlpha)"
        event = FailureEvent(
            FailureKind.POLICY_MISPROJECTION,
            "Fly(Drone1,Base,SiteAlpha)",
            "utility gap 0.4 exceeds 0.1",
        )
        report = run_recovery(event, context)
        assert any("blocked" in line for line in report.lines)
        assert any("reselected(Recharge" in line for line in report.lines)
        assert not report.escalated

    def test_protocol_five_escalates_without_an_alternate(self):
        context = seeded_context(entry("p", 0.99, ts=0))
        event = FailureEvent(FailureKind.POLICY_MISPROJECTION, "Fly(D,A,B)")
        report = run_recovery(event, context)
        assert report.escalated

    def test_unknown_kind_escalates_explicitly(self):
        context = seeded_context(entry("p", 0.99, ts=0))
        marker = len(context.ledger)
        report = run_recovery(FailureEvent(FailureKind.UNKNOWN, "p"), context)
        assert report.protocol == "none"
        assert report.escalated
        assert len(context.ledger) == marker + 1

    def test_every_recovery_appends_at_least_one_block(self):
        for kind in FailureKind:
            context = seeded_context(entry("p", 0.99, ts=0))
            before = len(context.ledger)
            run_recovery(FailureEvent(kind, "p"), context)
            assert len(context.ledger) > before, kind

    def test_report_lines_have_five_tab_fields(self):
        context = seeded_context(entry("p", 0.99, ts=0))
        report = run_recovery(
            FailureEvent(FailureKind.JUSTIFICATION_BREAKDOWN, "p"), context
        )
        for line in report.lines:
            assert len(line.split("\t")) == 5
