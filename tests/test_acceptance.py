"""End-to-end guarantees, one test per shipped criterion.

Each test is self-contained and checks one headline property of the
system against an independent oracle or a frozen fixture: SAT-level
logic, revision postulates, the confidence lattice, ledger integrity,
public proofs, golden traces, planner soundness and completeness,
recovery protocols, and the admission gates.  Run with ``pytest -v``
to get one pass/fail line per criterion.
"""

from __future__ import annotations

import dataclasses
import json
import random
import time
from itertools import combinations
from pathlib import Path

import pytest
from oracles import bfs_plan, random_domain, subset_remainders, tt_entails, tt_satisfiable

from veritas.belief import (
    BeliefBase,
    BeliefEntry,
    Provenance,
    classify_confidence,
    contract,
    export,
    project_four_state,
    revise,
)
from veritas.config import EngineConfig, load_config
from veritas.engine import Session
from veritas.guard import (
    FailureEvent,
    FailureKind,
    RecoveryContext,
    mscu_sweep,
    run_recovery,
)
from veritas.justify import (
    JustificationGraph,
    JustificationNode,
    PublicProof,
    hash_chain,
    node_digest,
    proof_from_json,
    proof_to_json,
)
from veritas.ledger import (
    Ledger,
    Op,
    apply_block,
    inclusion_proof,
    merkle_root,
    replay,
    verify_inclusion,
)
from veritas.logic import entails, is_consistent, parse, render_canonical
from veritas.plan import (
    GroundAction,
    abduce_policy,
    load_domain,
    render_trace,
    simulate_trace,
    type_check,
)

DOMAINS = Path(__file__).parent / "domains"
GOLDEN = Path(__file__).parent / "golden"

FORMULA_POOL = [
    "p",
    "!p",
    "q",
    "p -> q",
    "q -> r",
    "(p & q) -> r",
    "p | r",
    "!q | !r",
    "p <-> r",
    "(p | q) & !r",
]


def test_criterion_1_sat_oracle_agreement():
    """Consistency and entailment match truth tables on 385 formula sets."""
    started = time.monotonic()
    pool = [parse(text) for text in FORMULA_POOL]
    sets_checked = 0
    for size in range(1, 5):
        for combo in combinations(pool, size):
            chosen = list(combo)
            assert is_consistent(chosen) == tt_satisfiable(chosen)
            sets_checked += 1
    assert sets_checked == 385
    for size in range(1, 3):
        for combo in combinations(pool, size):
            for goal in pool:
                assert entails(list(combo), goal) == tt_entails(list(combo), goal)
    assert time.monotonic() - started < 10.0


def _enumerated_bases(pool: list[str], max_size: int = 3) -> list[BeliefBase]:
    formulas = [parse(text) for text in pool]
    bases = []
    for size in range(max_size + 1):
        for combo in combinations(range(len(formulas)), size):
            chosen = [formulas[i] for i in combo]
            if not tt_satisfiable(chosen):
                continue
            bases.append(
                BeliefBase.from_entries(
                    BeliefEntry(f, 0.9, Provenance(f"s{i}", i, 0.5 + i / 20))
                    for i, f in zip(combo, chosen)
                )
            )
    return bases


def test_criterion_2_agm_postulates_hold():
    """Success, inclusion, vacuity, consistency, extensionality: no violations."""
    pool = ["p", "q", "p -> q", "!p", "q -> p", "!q", "p | q"]
    inputs = [parse(text) for text in pool]
    violations = 0
    for base in _enumerated_bases(pool):
        held = {e.key for e in base.entries}
        for phi in inputs:
            incoming = BeliefEntry(phi, 0.99, Provenance("new", 99, 0.99))
            revised = revise(base, incoming)
            after = {e.key for e in revised.entries}
            if render_canonical(phi) not in after:
                violations += 1
            if not after <= held | {render_canonical(phi)}:
                violations += 1
            if not is_consistent(revised.formulas()):
                violations += 1
            if is_consistent(base.formulas() + [phi]):
                if after != held | {render_canonical(phi)}:
                    violations += 1
            contracted = contract(base, phi)
            kept = {e.key for e in contracted.entries}
            if not kept <= held:
                violations += 1
            if entails(contracted.formulas(), phi):
                violations += 1
            if not entails(base.formulas(), phi) and kept != held:
                violations += 1
            remainder_oracle = subset_remainders(base.formulas(), phi)
            if remainder_oracle and not any(
                {render_canonical(f) for f in rem} >= kept
                for rem in remainder_oracle
            ):
                violations += 1
    equivalent = [("p", "!!p"), ("p -> q", "!p | q"), ("p & q", "q & p")]
    for base in _enumerated_bases(pool, max_size=2):
        for left_text, right_text in equivalent:
            left = contract(base, parse(left_text))
            right = contract(base, parse(right_text))
            if {e.key for e in left.entries} != {e.key for e in right.entries}:
                violations += 1
    assert violations == 0


def test_criterion_3_confidence_lattice_boundaries_are_exact():
    """Six-tier thresholds and the four-state projection, no tolerance."""
    tier_cases = [
        (0.0, 0), (0.0099, 0),
        (0.01, 1), (0.299, 1),
        (0.3, 2), (0.699, 2),
        (0.7, 3), (0.899, 3),
        (0.9, 4), (0.9899, 4),
        (0.99, 5), (1.0, 5),
    ]
    for probability, expected in tier_cases:
        assert classify_confidence(probability).value == expected, probability
    state_cases = [
        (0.0, "Rejected"), (0.4999, "Rejected"),
        (0.5, "Uncertain"), (0.9499, "Uncertain"),
        (0.95, "Provisional"), (0.9899, "Provisional"),
        (0.99, "Committed"), (1.0, "Committed"),
    ]
    for probability, expected in state_cases:
        assert project_four_state(probability).value == expected, probability


def test_criterion_4_ledger_replay_tamper_and_merkle(tmp_path):
    """Replay parity on 200 random runs; every tampered byte is caught."""
    rng = random.Random(20240817)
    pool = ["p", "q", "r", "p -> q", "q -> r", "!p", "p | r", "!q"]
    chances = [0.3, 0.5, 0.9, 0.96, 0.99, 0.999]
    for index in range(200):
        config = load_config(
            fixed_clock=True,
            ledger_path=str(tmp_path / f"seq{index}.vlog"),
        )
        with Session(config) as session:
            for _ in range(rng.randrange(4, 9)):
                roll = rng.random()
                if roll < 0.7:
                    session.observe(
                        rng.choice(pool), rng.choice(chances), "sensor"
                    )
                elif roll < 0.9:
                    session.contract_formula(rng.choice(pool))
                else:
                    session.rollback(rng.randint(0, len(session.ledger)))
            live = export(session.base)
            replayed = export(
                replay(session.ledger, session.config, session.graph)
            )
            assert live == replayed, f"sequence {index} diverged"

    with Ledger(tmp_path / "fixture.vlog") as fixture:
        for index in range(50):
            fixture.append(
                Op.INSERT if index % 3 else Op.META,
                formula=f"s{index}",
                justification_digest=bytes([index]) * 32,
                timestamp=index,
            )
    assert fixture.verify_chain() is None
    original = (tmp_path / "fixture.vlog").read_bytes()
    tampered_path = tmp_path / "tampered.vlog"
    for position in range(len(original)):
        mutated = bytearray(original)
        mutated[position] ^= 0x01
        tampered_path.write_bytes(bytes(mutated))
        expected_index = original[:position].count(b"\n")
        assert Ledger(tampered_path).verify_chain() == expected_index, position

    root = merkle_root(fixture)
    for index in range(len(fixture)):
        proof = inclusion_proof(fixture, index)
        assert verify_inclusion(proof, root)
        forged = dataclasses.replace(
            proof, leaf=bytes(b ^ 0xFF for b in proof.leaf)
        )
        assert not verify_inclusion(forged, root)


def test_criterion_5_public_proofs_accept_and_reject_correctly(tmp_path):
    """Fifty build-verify round trips; each mutation names its reason."""
    config = load_config(
        fixed_clock=True, ledger_path=str(tmp_path / "proofs.vlog")
    )
    with Session(config) as session:
        session.observe("p", 0.99, "sensor")
        proofs = []
        for index in range(50):
            session.observe(f"p -> q{index}", 0.97, "kb")
            proofs.append(session.prove(f"q{index}"))
        for proof in proofs:
            assert session.verify_proof(proof).ok

        sample = proofs[0]
        swapped_conclusion = dataclasses.replace(
            sample,
            chain=sample.chain[:-1]
            + (
                dataclasses.replace(sample.chain[-1], conclusion=parse("r")),
            ),
        )
        result = session.verify_proof(swapped_conclusion)
        assert (result.ok, result.reason) == (False, "digest mismatch")

        reordered = dataclasses.replace(
            sample, chain=tuple(reversed(sample.chain))
        )
        result = session.verify_proof(reordered)
        assert (result.ok, result.reason) == (False, "digest mismatch")

        rehashed = dataclasses.replace(
            reordered, digest=hash_chain(reordered.chain)
        )
        result = session.verify_proof(rehashed)
        assert (result.ok, result.reason) == (False, "not anchored")

        zeroed = dataclasses.replace(sample, digest=b"\x00" * 32)
        result = session.verify_proof(zeroed)
        assert (result.ok, result.reason) == (False, "digest mismatch")

        mismatched = dataclasses.replace(sample, conclusion=parse("r"))
        result = session.verify_proof(mismatched)
        assert (result.ok, result.reason) == (False, "bad step")
        assert result.step == len(sample.chain) - 1

        empty = PublicProof(parse("p"), (), hash_chain(()))
        result = session.verify_proof(empty)
        assert (result.ok, result.reason) == (False, "bad step")

        leaf_prov = Provenance("fake", 0, 0.9)
        leaf = JustificationNode(
            node_digest(parse("p"), "observation", (), leaf_prov),
            parse("p"),
            "observation",
            (),
            leaf_prov,
        )
        bogus_prov = Provenance("fake", 1, 0.9)
        bogus = JustificationNode(
            node_digest(parse("r"), "entailment", (leaf.node_id,), bogus_prov),
            parse("r"),
            "entailment",
            (leaf.node_id,),
            bogus_prov,
        )
        digest = hash_chain((leaf, bogus))
        session.ledger.append(Op.META, formula="r", justification_digest=digest)
        unsound = PublicProof(parse("r"), (leaf, bogus), digest)
        result = session.verify_proof(unsound)
        assert (result.ok, result.reason, result.step) == (False, "bad step", 1)

        # Every field of every store line of a multi-step proof, set to
        # another value of its type: a conclusion edit breaks the digest,
        # any other edit is the bad step it was made in.
        session.observe("q0 -> r", 0.95, "kb")
        pristine = json.loads(proof_to_json(session.prove("r")))
        chain = pristine["chain"]
        assert sorted(step["conclusion"] for step in chain) == [
            "(p -> q0)", "(q0 -> r)", "p", "r"
        ]
        verdicts, expected = {}, {}
        for index, step in enumerate(chain):
            neighbour = chain[index - 1 if index else 1]["id"]
            others = {
                "id": [neighbour, step["id"][::-1]],
                "conclusion": ["s", chain[index - 1]["conclusion"]],
                "rule": [step["rule"] + "-forged"],
                "premises": [step["premises"][1:], [step["id"]]]
                if step["premises"]
                else [[neighbour]],
                "source": ["forged"],
                "timestamp": [step["timestamp"] + 1],
                "confidence": [step["confidence"] / 2],
            }
            for field, values in others.items():
                for value in values:
                    assert value != step[field]
                    mutated = json.loads(json.dumps(pristine))
                    mutated["chain"][index][field] = value
                    proof = proof_from_json(json.dumps(mutated))
                    result = session.verify_proof(proof)
                    key = (index, field, repr(value))
                    verdicts[key] = (result.ok, result.reason, result.step)
                    expected[key] = (
                        (False, "digest mismatch", None)
                        if field == "conclusion"
                        else (False, "bad step", index)
                    )
        assert verdicts == expected


def test_criterion_6_golden_traces_are_byte_identical():
    """The three stock domains reproduce their frozen traces exactly."""
    for name, trace_name in (
        ("navigation", "navigation"),
        ("room", "room"),
        ("drone", "drone_recovery"),
    ):
        dom = load_domain(str(DOMAINS / f"{name}.domain"))
        plan = abduce_policy(dom.goal, dom.init, dom.schemas, dom.ontology)
        result = simulate_trace(plan, dom.init, goal=dom.goal)
        assert result.ok, name
        assert render_trace(result.trace) == (
            (GOLDEN / f"{trace_name}.trace").read_text()
        ), name

    drone = load_domain(str(DOMAINS / "drone.domain"))
    bare_fly = GroundAction(drone.schema("Fly"), ("Drone1", "Base", "SiteAlpha"))
    failed = simulate_trace([bare_fly], drone.init, goal=drone.goal)
    assert not failed.ok
    assert render_trace(failed.trace) == (
        (GOLDEN / "drone_failure.trace").read_text()
    )


def test_criterion_7_planner_soundness_and_completeness():
    """Plans always validate; search succeeds whenever depth-8 BFS does."""
    solved = failed = 0
    for seed in range(100):
        rng = random.Random(seed)
        dom = random_domain(rng)
        oracle = bfs_plan(dom, 8)
        if oracle is not None:
            plan = abduce_policy(
                dom.goal, dom.init, dom.schemas, dom.ontology, depth_budget=8
            )
            solved += 1
        else:
            try:
                plan = abduce_policy(
                    dom.goal, dom.init, dom.schemas, dom.ontology, depth_budget=8
                )
            except Exception:
                failed += 1
                continue
        result = simulate_trace(plan, dom.init, goal=dom.goal)
        assert result.ok, seed
        assert result.final.satisfies_all(dom.goal), seed
        for action in plan:
            assert type_check(action, dom.ontology) is None, seed
    assert solved >= 10
    assert failed >= 10


def _ledgered_context(*entries: BeliefEntry) -> RecoveryContext:
    graph = JustificationGraph()
    base = BeliefBase()
    config = EngineConfig()
    ledger = Ledger()
    for item in entries:
        node = graph.record_inference(
            item.formula, (), "observation", item.provenance
        )
        ledger.append(
            Op.INSERT,
            formula=item.key,
            justification_digest=bytes.fromhex(node),
            timestamp=item.provenance.timestamp,
        )
        base = apply_block(base, ledger.blocks[-1], config, graph)
    return RecoveryContext(base=base, graph=graph, config=config, ledger=ledger)


def _graft(context: RecoveryContext, *entries: BeliefEntry) -> None:
    grafted = []
    for item in entries:
        node = context.graph.record_inference(
            item.formula, (), "observation", item.provenance
        )
        grafted.append(dataclasses.replace(item, justification=node))
    context.base = BeliefBase.from_entries(
        list(context.base.entries) + grafted
    )


def _belief(text: str, probability: float, ts: int = 0) -> BeliefEntry:
    return BeliefEntry(
        parse(text), probability, Provenance("sensor", ts, probability)
    )


def _recovered_replay(context: RecoveryContext, marker: int, start: BeliefBase):
    recovered_only = Ledger()
    for block in context.ledger.blocks[marker:]:
        recovered_only.append(
            block.op, block.formula, block.justification_digest, block.timestamp
        )
    return replay(
        recovered_only, context.config, context.graph, initial=start
    )


def test_criterion_8_recovery_protocols_repair_and_stay_healthy():
    """Types I-V map to protocols I-V, end consistent, replay, and settle.

    Replay must rebuild the recovered base in full, retraction log and
    history included, not just its export.
    """
    # Type I: a live contradiction resolves by dominance.
    context = _ledgered_context(_belief("q", 0.95, ts=0))
    _graft(context, _belief("p", 0.9, ts=1), _belief("!p", 0.6, ts=2))
    start = context.base
    marker = len(context.ledger)
    report = run_recovery(
        FailureEvent(FailureKind.BELIEF_INCONSISTENCY, "p"), context
    )
    assert report.protocol == "I"
    assert is_consistent(report.base.formulas())
    assert {e.key for e in report.base.entries} == {"p", "q"}
    assert len(context.ledger) > marker
    assert context.ledger.verify_chain() is None
    assert _recovered_replay(context, marker, start) == report.base
    follow_up = mscu_sweep(report.base, context.graph, 0.6)
    assert all(item.action == "none" for item in follow_up)

    # Type II: an orphaned justification demotes its belief.
    context = _ledgered_context(_belief("p", 0.99, ts=0))
    context.base = BeliefBase.from_entries(
        list(context.base.entries)
        + [
            BeliefEntry(
                parse("q"),
                0.97,
                Provenance("sensor", 1, 0.97),
                justification="0" * 64,
            )
        ]
    )
    start = context.base
    marker = len(context.ledger)
    report = run_recovery(
        FailureEvent(FailureKind.JUSTIFICATION_BREAKDOWN, "q"), context
    )
    assert report.protocol == "II"
    demoted = report.base.find(parse("q"))
    assert demoted.probability == pytest.approx(0.005)
    assert not demoted.assertable
    assert is_consistent(report.base.formulas())
    assert _recovered_replay(context, marker, start) == report.base
    follow_up = mscu_sweep(report.base, context.graph, 0.6)
    assert all(item.action == "none" for item in follow_up)

    # Type III: approximation drift marks the entry for re-observation.
    context = _ledgered_context(_belief("Temp(Room1)", 0.99))
    report = run_recovery(
        FailureEvent(FailureKind.APPROXIMATION_DRIFT, "Temp(Room1)"), context
    )
    assert report.protocol == "III"
    marked = report.base.find(parse("Temp(Room1)"))
    assert marked.status.value == "approximate"
    assert not marked.assertable
    assert replay(context.ledger, context.config, context.graph) == report.base
    follow_up = mscu_sweep(report.base, context.graph, 0.6)
    assert all(item.action == "none" for item in follow_up)

    # Type IV: grounding misalignment adds the human-review directives.
    context = _ledgered_context(_belief("Pos(Rover)", 0.99))
    report = run_recovery(
        FailureEvent(FailureKind.GROUNDING_MISALIGNMENT, "Pos(Rover)"), context
    )
    assert report.protocol == "IV"
    assert report.directives == ["human-review", "rollback"]
    assert is_consistent(report.base.formulas())
    assert any(
        block.op is Op.RECOVERY for block in context.ledger.blocks
    )

    # Type V: a misprojected policy is reselected through replan.
    context = _ledgered_context()
    context.replan = lambda: "Recharge(Drone1);Fly(Drone1,Base,SiteAlpha)"
    marker = len(context.ledger)
    report = run_recovery(
        FailureEvent(
            FailureKind.POLICY_MISPROJECTION, "Fly(Drone1,Base,SiteAlpha)"
        ),
        context,
    )
    assert report.protocol == "V"
    assert not report.escalated
    assert any("reselected(Recharge(Drone1)" in line for line in report.lines)
    assert len(context.ledger) > marker
    follow_up = mscu_sweep(report.base, context.graph, 0.6)
    assert all(item.action == "none" for item in follow_up)


def test_criterion_9_admission_gates_hold_under_randomization(tmp_path):
    """No assertable entry ever sits below theta or above the risk cap."""
    rng = random.Random(5150)
    pool = ["p", "q", "r", "Temp(Room1)", "p -> q", "!r"]
    for index in range(30):
        theta = rng.choice([0.95, 0.97, 0.99])
        tau_risk = rng.choice([0.05, 0.3, 0.5])
        config = load_config(
            fixed_clock=True,
            ledger_path=str(tmp_path / f"gate{index}.vlog"),
            theta=theta,
            tau_risk=tau_risk,
        )
        with Session(config) as session:
            for _ in range(rng.randrange(3, 9)):
                session.observe(
                    rng.choice(pool), round(rng.random(), 3), "sensor"
                )
            for entry in session.base.entries:
                if not entry.assertable:
                    continue
                depth = session.graph.depth(entry.justification)
                risk = 1.0 - entry.probability * config.decay**depth
                assert entry.probability >= theta
                assert risk <= tau_risk

    from veritas.belief import assertion_gate

    for _ in range(500):
        probability = rng.random()
        depth = rng.randrange(0, 7)
        low_theta, high_theta = sorted((rng.uniform(0.95, 0.999), rng.uniform(0.95, 0.999)))
        low_tau, high_tau = sorted((rng.random(), rng.random()))
        decay = rng.uniform(0.9, 1.0)
        strict_theta = EngineConfig(theta=high_theta, tau_risk=low_tau, decay=decay)
        lax_theta = EngineConfig(theta=low_theta, tau_risk=low_tau, decay=decay)
        if assertion_gate(probability, depth, strict_theta):
            assert assertion_gate(probability, depth, lax_theta)
        strict_tau = EngineConfig(theta=low_theta, tau_risk=low_tau, decay=decay)
        lax_tau = EngineConfig(theta=low_theta, tau_risk=high_tau, decay=decay)
        if assertion_gate(probability, depth, strict_tau):
            assert assertion_gate(probability, depth, lax_tau)
