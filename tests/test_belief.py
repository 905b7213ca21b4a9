"""Belief base operations: tiers, Bayes, expansion, contraction, revision.

Remainder sets are checked against a subset-enumeration oracle and the
revision operators against the classic postulates (success, inclusion,
vacuity, consistency, extensionality) over small enumerated bases.
"""

from __future__ import annotations

import dataclasses
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    ReferenceBase,
    pair_disjunction,
    random_formula,
    reference_amend,
    reference_contract,
    reference_epoch_diff,
    reference_retract,
    reference_revise,
    reference_update,
    subset_remainders,
    tt_eval,
    tt_satisfiable,
    witness_valuations,
)

import veritas
from veritas import belief
from veritas.belief import (
    BeliefBase,
    BeliefEntry,
    ConfidenceTier,
    ConsistencyError,
    DomainError,
    FourState,
    Provenance,
    RetractionRecord,
    StatusTag,
    TautologyContractionWarning,
    classify_confidence,
    contract,
    epoch_diff,
    expand,
    export,
    export_lines,
    project_four_state,
    remainders,
    revise,
    update_belief_state,
    weakest_link,
)
from veritas.logic import (
    And,
    Atom,
    Formula,
    Not,
    Or,
    entails,
    is_consistent,
    parse,
    render_canonical,
)
from veritas.logic import sat
from veritas.logic.sat import ResourceLimitError


def entry(
    text: str,
    probability: float = 0.99,
    source: str = "sensor",
    timestamp: int = 0,
    **kwargs,
) -> BeliefEntry:
    return BeliefEntry(
        formula=parse(text),
        probability=probability,
        provenance=Provenance(source, timestamp, probability),
        **kwargs,
    )


def base_of(*entries: BeliefEntry) -> BeliefBase:
    return BeliefBase.from_entries(entries)


class TestConfidenceTiers:
    def test_band_edges_are_closed_on_the_left(self):
        """0.01, 0.3, 0.7, 0.9 and 0.99 each start the next tier."""
        cases = [
            (0.0, 0), (0.009, 0),
            (0.01, 1), (0.29, 1),
            (0.3, 2), (0.69, 2),
            (0.7, 3), (0.89, 3),
            (0.9, 4), (0.989, 4),
            (0.99, 5), (1.0, 5),
        ]
        for probability, tier in cases:
            assert classify_confidence(probability) == ConfidenceTier(tier), probability

    def test_out_of_range_probability_rejected(self):
        with pytest.raises(DomainError):
            classify_confidence(-0.001)
        with pytest.raises(DomainError):
            classify_confidence(1.001)

    def test_four_state_projection(self):
        """0.50 / 0.95 / 0.99 split Rejected, Uncertain, Provisional, Committed."""
        cases = [
            (0.0, FourState.REJECTED),
            (0.40, FourState.REJECTED),
            (0.499, FourState.REJECTED),
            (0.5, FourState.UNCERTAIN),
            (0.94, FourState.UNCERTAIN),
            (0.95, FourState.PROVISIONAL),
            (0.96, FourState.PROVISIONAL),
            (0.989, FourState.PROVISIONAL),
            (0.99, FourState.COMMITTED),
            (1.0, FourState.COMMITTED),
        ]
        for probability, state in cases:
            assert project_four_state(probability) == state, probability

    def test_entry_tier_follows_probability(self):
        assert entry("p", 0.96).tier == ConfidenceTier.ENDORSED
        assert entry("p", 0.2).tier == ConfidenceTier.DISFAVOURED


class TestBayesUpdate:
    def test_weakest_link_takes_the_minimum(self):
        assert weakest_link([0.99, 0.95, 0.97]) == 0.95
        with pytest.raises(DomainError):
            weakest_link([])


class TestExpansion:
    def test_adds_consistent_entry(self):
        base = expand(base_of(entry("p")), entry("q"))
        assert {render_canonical(f) for f in base.formulas()} == {"p", "q"}
        assert base.epoch == 1

    def test_rejects_inconsistent_entry(self):
        with pytest.raises(ConsistencyError):
            expand(base_of(entry("p")), entry("!p"))

    def test_semantic_inconsistency_detected(self):
        """{p -> q, p} + !q is unsatisfiable despite no syntactic clash."""
        base = base_of(entry("p -> q"), entry("p"))
        with pytest.raises(ConsistencyError):
            expand(base, entry("!q"))

    def test_reobservation_replaces_entry(self):
        base = expand(base_of(entry("p", 0.95)), entry("p", 0.99))
        assert len(base.entries) == 1
        assert base.entries[0].probability == 0.99


class TestRemainders:
    def test_worked_example(self):
        """remainders({p, p->q, q}, q) keeps {p} and {p->q}."""
        pool = [parse("p"), parse("p -> q"), parse("q")]
        result = remainders(pool, parse("q"))
        expected = {
            frozenset({parse("p")}),
            frozenset({parse("p -> q")}),
        }
        assert result == frozenset(expected)

    def test_tautology_has_no_remainders(self):
        assert remainders([parse("p")], parse("p | !p")) == frozenset()

    def test_unentailed_target_leaves_base_whole(self):
        pool = [parse("p")]
        assert remainders(pool, parse("q")) == frozenset({frozenset(pool)})

    def test_matches_subset_enumeration_oracle(self):
        rng = random.Random(4242)
        texts = ["p", "q", "r", "!p", "p -> q", "q -> r", "p | r", "!q"]
        for _ in range(40):
            pool = [parse(t) for t in rng.sample(texts, rng.randrange(1, 5))]
            target = parse(rng.choice(texts))
            assert remainders(pool, target) == subset_remainders(pool, target)

    def test_cap_is_enforced(self):
        pool = [parse(f"a{i}") for i in range(17)]
        with pytest.raises(ResourceLimitError):
            remainders(pool, parse("a0"))


class TestContraction:
    def test_selection_keeps_heaviest_remainder(self):
        """Contracting q from {p@.9, p->q@.8, q@.7} keeps only p."""
        base = base_of(
            BeliefEntry(parse("p"), 0.99, Provenance("a", 0, 0.9)),
            BeliefEntry(parse("p -> q"), 0.99, Provenance("b", 1, 0.8)),
            BeliefEntry(parse("q"), 0.99, Provenance("c", 2, 0.7)),
        )
        result = contract(base, parse("q"))
        assert [e.key for e in result.entries] == ["p"]
        assert not entails(result.formulas(), parse("q"))
        retracted = {rec.formula for rec in result.retraction_log}
        assert retracted == {"(p -> q)", "q"}
        assert all(rec.reason == "contract(q)" for rec in result.retraction_log)

    def test_tied_remainders_are_intersected(self):
        base = base_of(
            BeliefEntry(parse("p"), 0.99, Provenance("a", 0, 0.8)),
            BeliefEntry(parse("p -> q"), 0.99, Provenance("b", 1, 0.8)),
        )
        result = contract(base, parse("q"))
        assert result.entries == ()
        assert not entails(result.formulas(), parse("q"))

    def test_tied_weights_tie_under_every_hash_seed(self):
        """Equal totals tie whatever order the set iterates in.

        {a..d} and {e..h} carry the same four weights in opposite
        orders, so they tie exactly and the meet is empty.  A plain
        left-to-right sum rounds differently per iteration order, which
        changes with PYTHONHASHSEED.
        """
        script = (
            "from veritas.belief import BeliefBase, BeliefEntry, Provenance, "
            "_select_remainder\n"
            "from veritas.logic import parse\n"
            "weights = dict(zip('abcdefgh', "
            "(.96, .97, .98, .99, .99, .98, .97, .96)))\n"
            "base = BeliefBase.from_entries(BeliefEntry(parse(k), 0.99, "
            "Provenance('s', 0, w)) for k, w in weights.items())\n"
            "left = frozenset(parse(k) for k in 'abcd')\n"
            "right = frozenset(parse(k) for k in 'efgh')\n"
            "kept = _select_remainder(base, frozenset({left, right}))\n"
            "print(sorted(str(f) for f in kept))\n"
        )
        src = str(Path(veritas.__file__).resolve().parents[1])
        for seed in range(8):
            env = dict(
                os.environ,
                PYTHONHASHSEED=str(seed),
                PYTHONPATH=os.pathsep.join(
                    filter(None, [src, os.environ.get("PYTHONPATH")])
                ),
            )
            run = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            assert run.stdout.strip() == "[]", f"PYTHONHASHSEED={seed}"

    def test_vacuous_contraction_is_identity(self):
        base = base_of(entry("p"))
        assert contract(base, parse("q")) is base

    def test_tautology_contraction_warns_and_keeps_base(self):
        base = base_of(entry("p"))
        with pytest.warns(TautologyContractionWarning):
            result = contract(base, parse("p | !p"))
        assert result is base

    def test_inclusion_postulate(self):
        base = base_of(entry("p"), entry("q"), entry("p -> r"))
        result = contract(base, parse("r"))
        assert {e.key for e in result.entries} <= {e.key for e in base.entries}


class TestRevision:
    def test_incoming_formula_always_wins(self):
        base = base_of(BeliefEntry(parse("p"), 0.9, Provenance("a", 0, 0.9)))
        result = revise(base, entry("!p", 0.99, timestamp=5))
        assert [e.key for e in result.entries] == ["(! p)"]
        reasons = {rec.reason for rec in result.retraction_log}
        assert reasons == {"revision((! p))"}

    def test_unsatisfiable_input_is_refused(self):
        with pytest.raises(ConsistencyError):
            revise(base_of(entry("p")), entry("q & !q"))

    def test_consistent_input_reduces_to_expansion(self):
        base = base_of(entry("p"))
        result = revise(base, entry("q"))
        assert {e.key for e in result.entries} == {"p", "q"}
        assert result.retraction_log == ()

    def test_chained_support_is_dropped(self):
        """Revising by !q from {p, p->q} must break the derivation of q."""
        base = base_of(
            BeliefEntry(parse("p"), 0.99, Provenance("a", 0, 0.6)),
            BeliefEntry(parse("p -> q"), 0.99, Provenance("b", 1, 0.9)),
        )
        result = revise(base, entry("!q", 0.99))
        assert is_consistent(result.formulas())
        assert not entails(result.formulas(), parse("q"))
        assert {e.key for e in result.entries} == {"(p -> q)", "(! q)"}


class TestUpdateRouting:
    def test_consistent_entry_expands(self):
        base, outcome = update_belief_state(base_of(entry("p")), entry("q", 0.99))
        assert outcome == "expanded"
        assert base.find(parse("q")).assertable

    def test_conflicting_entry_revises(self):
        base, outcome = update_belief_state(base_of(entry("p")), entry("!p", 0.99))
        assert outcome == "revised"
        assert [e.key for e in base.entries] == ["(! p)"]

    def test_below_theta_is_stored_non_assertable(self):
        """q at 0.80 lands in tier 3 but stays out of the assertable set."""
        base, outcome = update_belief_state(base_of(entry("p")), entry("q", 0.80))
        assert outcome == "expanded"
        stored = base.find(parse("q"))
        assert stored.tier == ConfidenceTier.SUPPORTED
        assert not stored.assertable
        assert parse("q") not in base.assertable_formulas()

    def test_theta_boundary_is_closed(self):
        base, _ = update_belief_state(BeliefBase(), entry("p", 0.95))
        assert base.find(parse("p")).assertable

    def test_gate_that_changes_nothing_keeps_the_entry(self):
        """Only an assertable entry below theta is rebuilt, as non-assertable."""
        kept = [entry("p", 0.99), entry("q", 0.80, assertable=False)]
        for incoming in kept:
            base, _ = update_belief_state(BeliefBase(), incoming)
            assert base.find(incoming.formula) is incoming
        low = entry("r", 0.80)
        base, _ = update_belief_state(BeliefBase(), low)
        stored = base.find(low.formula)
        assert stored is not low and not stored.assertable
        assert stored == dataclasses.replace(low, assertable=False)


class TestEpochDiff:
    def test_insert_shows_as_added(self):
        base, _ = update_belief_state(BeliefBase(), entry("p"))
        assert epoch_diff(base, 0, 1) == (("added", "p"),)

    def test_revision_shows_retraction(self):
        base, _ = update_belief_state(BeliefBase(), entry("p"))
        base, _ = update_belief_state(base, entry("!p"))
        diff = epoch_diff(base, 1, base.epoch)
        assert ("retracted", "p") in diff
        assert ("added", "(! p)") in diff

    def test_unrecorded_epoch_rejected(self):
        with pytest.raises(IndexError):
            epoch_diff(BeliefBase(), 0, 3)

    def test_retractions_are_never_silent(self):
        """Anything present at i and gone at j is in the retraction log."""
        rng = random.Random(1531)
        texts = ["p", "q", "!p", "p -> q", "r", "!r", "q -> r"]
        base = BeliefBase()
        for step in range(30):
            base, _ = update_belief_state(
                base, entry(rng.choice(texts), 0.99, timestamp=step)
            )
        for i in range(len(base.history)):
            for j in range(i, len(base.history)):
                for kind, key in epoch_diff(base, i, j):
                    if kind != "retracted":
                        continue
                    assert any(
                        rec.formula == key and i < rec.epoch <= j
                        for rec in base.retraction_log
                    )


class TestExport:
    def test_line_shape(self):
        base, _ = update_belief_state(
            BeliefBase(),
            entry("p", 0.99, source="alice", timestamp=7,
                  status=StatusTag.OPERATIONAL),
        )
        lines = export_lines(base)
        assert lines == ["1\tp\t0.99\t5\talice\t7\toperationally-justified"]

    def test_empty_base_exports_nothing(self):
        assert export(BeliefBase()) == ""

    def test_identical_inputs_yield_identical_exports(self):
        def build() -> str:
            base = BeliefBase()
            for step, text in enumerate(["p", "p -> q", "!r", "!p"]):
                base, _ = update_belief_state(
                    base, entry(text, 0.99, timestamp=step)
                )
            return export(base)

        assert build() == build()


class TestStoredKey:
    """The canonical key is computed once and is not part of identity."""

    def test_key_is_the_canonical_rendering(self):
        held = entry("p -> (q | !r)")
        assert held.key == render_canonical(held.formula) == "(p -> (q | (! r)))"
        moved = dataclasses.replace(held, formula=parse("s & t"))
        assert moved.key == "(s & t)"

    def test_equality_hash_and_repr_ignore_the_key(self):
        first, second = entry("p -> q"), entry("p -> q")
        assert first.formula is not second.formula
        assert first == second and hash(first) == hash(second)
        assert first != entry("p -> q", 0.98)
        assert "key=" not in repr(first)
        compared = [f.name for f in dataclasses.fields(BeliefEntry) if f.compare]
        assert "key" not in compared

    def test_export_renders_the_key(self):
        base = BeliefBase()
        for step, text in enumerate(["p -> q", "!r"]):
            base, _ = update_belief_state(base, entry(text, timestamp=step))
        assert export(base) == (
            "2\t(! r)\t0.99\t5\tsensor\t1\tderived\n"
            "2\t(p -> q)\t0.99\t5\tsensor\t0\tderived\n"
        )


class TestConsistencyRecord:
    """Bases that expand, revise or contract produce carry a witness."""

    def test_changed_bases_record_consistency(self):
        base, route = update_belief_state(BeliefBase(), entry("p"))
        assert route == "expanded" and witness_holds(base)
        base, route = update_belief_state(base, entry("!p"))
        assert route == "revised" and witness_holds(base)
        assert witness_holds(expand(base, entry("q")))
        assert witness_holds(contract(expand(base, entry("q")), parse("q")))

    def test_record_is_not_part_of_identity(self):
        built = base_of(entry("p"), entry("q"))
        assert built.witness is None
        found = []
        assert is_consistent(built.formulas(), witnesses=found)
        witnessed = dataclasses.replace(built, witness=found[0])
        assert witnessed == built and hash(witnessed) == hash(built)

    def test_recorded_base_skips_the_sat_check(self, monkeypatch):
        base, _ = update_belief_state(BeliefBase(), entry("p"))

        def refuse(formulas):
            raise AssertionError("SAT check on a recorded base")

        monkeypatch.setattr(belief, "is_consistent", refuse)
        assert belief.is_consistent_base(base)

    def test_unrecorded_base_is_checked(self):
        clash = base_of(entry("p"), entry("p -> q"), entry("!q"))
        assert not belief.is_consistent_base(clash)
        assert belief.is_consistent_base(base_of(entry("p"), entry("!q")))


def grouped_base(rng: random.Random) -> tuple[BeliefBase, list[list[Atom]]]:
    """Up to 10 distinct formulas over 2-4 disjoint atom groups.

    About one base in three gets a formula and its negation in one
    group, so the base is inconsistent and contraction must fall back
    to enumerating every formula; the others are consistent.
    """
    groups = [
        [Atom(f"g{g}x{i}", ()) for i in range(rng.randrange(1, 3))]
        for g in range(rng.randrange(2, 5))
    ]
    formulas: dict[str, Formula] = {}
    for _ in range(rng.randrange(1, 16)):
        formula = random_formula(rng, rng.choice(groups), 2)
        if len(formulas) < 10 and tt_satisfiable([*formulas.values(), formula]):
            formulas.setdefault(render_canonical(formula), formula)
    if rng.random() < 0.35 and len(formulas) < 10:
        formula = next(iter(formulas.values()))
        formulas.setdefault(render_canonical(Not(formula)), Not(formula))
    base = BeliefBase.from_entries(
        BeliefEntry(f, 0.99, Provenance(f"s{i}", i, rng.choice([0.6, 0.8, 0.9])))
        for i, f in enumerate(formulas.values())
    )
    return base, groups


def random_incoming(
    rng: random.Random, base: BeliefBase, groups: list[list[Atom]]
) -> Formula:
    """A formula over one or two groups, often contradicting the base.

    Negating one held formula, or the conjunction of two, forces a real
    revision; the two-formula case joins their components.
    """
    held = base.formulas()
    kind = rng.randrange(3)
    if kind == 0 or not held:
        atoms = [a for g in rng.sample(groups, rng.randrange(1, 3)) for a in g]
        return random_formula(rng, atoms, 2)
    if kind == 1:
        return Not(rng.choice(held))
    return Or(Not(rng.choice(held)), Not(rng.choice(held)))


def atom_ids(formula: Formula) -> frozenset[int]:
    return sat._compiled(formula).atom_ids


def joined_remainders(relevant, unrelated, target):
    """The remainders of the relevant entries, each joined with all of
    the unrelated ones."""
    whole = frozenset(e.formula for e in unrelated)
    return frozenset(
        part | whole for part in remainders([e.formula for e in relevant], target)
    )


class TestRelevanceRestriction:
    """Restricted contraction against whole-base brute force."""

    def test_candidates_and_results_match_brute_force(self):
        """R's remainders joined with U are the oracle's remainders of the
        whole base; contract, revise and update_belief_state give the
        reference model's entries, log and epochs."""
        rng = random.Random(2506)
        inconsistent = entailing = 0
        for _ in range(40):
            base, groups = grouped_base(rng)
            active = base.formulas()
            incoming_formula = random_incoming(rng, base, groups)
            if not is_consistent([incoming_formula]):
                continue
            target = Not(incoming_formula)
            relevant, unrelated, _ = belief._relevant_part(base, atom_ids(target))
            oracle = subset_remainders(active, target)
            assert joined_remainders(relevant, unrelated, target) == oracle
            if not is_consistent(active):
                inconsistent += 1
            elif entails(active, target):
                entailing += 1
            incoming = BeliefEntry(
                incoming_formula, 0.99, Provenance("new", 99, 0.95)
            )
            model = ReferenceBase.from_entries(base.entries)
            shown = [target, incoming_formula, *active]
            assert_matches_reference(
                contract(base, target), reference_contract(model, target), shown
            )
            assert_matches_reference(
                revise(base, incoming), reference_revise(model, incoming), shown
            )
            real, route = update_belief_state(base, incoming)
            expected, expected_route = reference_update(model, incoming)
            assert route == expected_route
            assert_matches_reference(real, expected, shown)
        assert inconsistent >= 5 and entailing >= 5

    def test_component_follows_chains_of_shared_atoms(self):
        """b reaches p only through b -> c and c -> p, in any order."""
        texts = ("b -> c", "c -> p", "b", "d")
        pool = [parse(t) for t in texts]
        target = parse("p")
        expected = subset_remainders(pool, target)
        assert all(parse("d") in r for r in expected)
        entries = [entry(t) for t in texts]
        for order in (entries, entries[::-1]):
            relevant, unrelated, reached = belief._split_by_relevance(
                order, atom_ids(target)
            )
            assert [e.key for e in unrelated] == ["d"]
            assert reached == atom_ids(parse("b & c & p"))
            assert joined_remainders(relevant, unrelated, target) == expected

    def test_cap_bounds_the_target_component_only(self):
        """17 disjoint beliefs contract; 17 connected ones hit the cap."""
        disjoint = base_of(*(entry(f"P{i}") for i in range(17)))
        result = revise(disjoint, entry("!P3"))
        assert {e.key for e in result.entries} == (
            {f"P{i}" for i in range(17)} - {"P3"} | {"(! P3)"}
        )
        connected = base_of(
            entry("p"), *(entry(f"p -> q{i}") for i in range(16))
        )
        with pytest.raises(ResourceLimitError):
            contract(connected, parse("p"))


POOL = ["p", "q", "p -> q", "!p", "q -> p", "!q", "p | q"]


def consistent_bases(max_size: int = 3) -> list[BeliefBase]:
    bases = []
    formulas = [parse(t) for t in POOL]
    for size in range(max_size + 1):
        for combo in combinations(range(len(formulas)), size):
            chosen = [formulas[i] for i in combo]
            if not tt_satisfiable(chosen):
                continue
            bases.append(
                BeliefBase.from_entries(
                    BeliefEntry(f, 0.99, Provenance(f"s{i}", i, 0.5 + i / 20))
                    for i, f in zip(combo, chosen)
                )
            )
    return bases


class TestRevisionPostulates:
    """Success, inclusion, vacuity, consistency, extensionality."""

    def test_postulates_on_enumerated_bases(self):
        inputs = [parse(t) for t in POOL]
        for base in consistent_bases():
            before = {e.key for e in base.entries}
            for phi in inputs:
                incoming = BeliefEntry(phi, 0.99, Provenance("new", 99, 0.99))
                result = revise(base, incoming)
                after = {e.key for e in result.entries}
                assert render_canonical(phi) in after
                assert after <= before | {render_canonical(phi)}
                assert is_consistent(result.formulas())
                if is_consistent(base.formulas() + [phi]):
                    assert after == before | {render_canonical(phi)}

    def test_contraction_success_and_inclusion(self):
        inputs = [parse(t) for t in POOL]
        for base in consistent_bases():
            before = {e.key for e in base.entries}
            for phi in inputs:
                result = contract(base, phi)
                assert {e.key for e in result.entries} <= before
                assert not entails(result.formulas(), phi)

    def test_extensionality(self):
        """Logically equivalent inputs produce logically equivalent bases."""
        pairs = [("p", "!!p"), ("p -> q", "!p | q"), ("p & q", "q & p")]
        for base in consistent_bases(2):
            for left_text, right_text in pairs:
                left = revise(
                    base, BeliefEntry(parse(left_text), 0.99, Provenance("n", 9, 0.99))
                )
                right = revise(
                    base, BeliefEntry(parse(right_text), 0.99, Provenance("n", 9, 0.99))
                )
                assert all(
                    entails(right.formulas(), f) for f in left.formulas()
                )
                assert all(
                    entails(left.formulas(), f) for f in right.formulas()
                )


def witness_holds(base: BeliefBase) -> bool:
    """Whether the base's witness satisfies every formula, for both
    completions of its free atoms."""
    formulas = base.formulas()
    return all(
        all(tt_eval(f, valuation) for f in formulas)
        for valuation in witness_valuations(base.witness, formulas)
    )


WITNESS_ATOMS = [Atom(name) for name in "abcdef"]


def witness_steps(rng: random.Random) -> list[tuple]:
    """Eight random operations: update, negate (update by the negation of
    a held formula), contract, retract or amend."""
    steps = []
    for _ in range(8):
        kind = rng.choice(["update", "update", "negate", "contract", "retract", "amend"])
        formula = random_formula(rng, rng.sample(WITNESS_ATOMS, rng.randrange(1, 4)), 3)
        if kind in ("update", "negate") and not tt_satisfiable([formula]):
            formula = Not(formula)
        if kind == "contract" and not tt_satisfiable([Not(formula)]):
            formula = Not(formula)
        steps.append((kind, formula, rng.randrange(8), rng.choice([0.6, 0.8, 0.97])))
    return steps


def run_witness_steps(steps: list[tuple]) -> tuple[list[str], list[str]]:
    """Apply the steps from an empty base, checking each result.

    Returns the export after every step and the update routes.
    """
    base = BeliefBase()
    exports, routes = [], []
    for kind, formula, pick, probability in steps:
        held = base.entries[pick % len(base.entries)] if base.entries else None
        if kind == "negate" and held is not None and tt_satisfiable([Not(held.formula)]):
            kind, formula = "update", Not(held.formula)
        if kind in ("update", "negate"):
            others = [e.formula for e in base.entries if e.key != render_canonical(formula)]
            incoming = BeliefEntry(formula, probability, Provenance("s", len(exports), probability))
            base, route = update_belief_state(base, incoming)
            expected = "expanded" if tt_satisfiable(others + [formula]) else "revised"
            assert route == expected
            routes.append(route)
        elif kind == "contract":
            base = contract(base, formula)
        elif kind == "retract" and held is not None:
            base = belief.retract_entry(base, held.formula, "test")
        elif kind == "amend" and held is not None:
            base = belief.amend_entry(base, held.formula, probability=probability)
        if base.witness is not None:
            assert witness_holds(base)
        exports.append(export(base))
    return exports, routes


class TestWitness:
    """A consistent base keeps a model; expansion tests only the new formula."""

    def test_random_sequences_match_the_oracle_and_a_witnessless_run(self, monkeypatch):
        hits = []
        extend = belief.extend_witness

        def counted(witness, formula):
            result = extend(witness, formula)
            hits.append(result is not None)
            return result

        rng = random.Random(4470)
        plans = [witness_steps(rng) for _ in range(300)]
        with monkeypatch.context() as patched:
            patched.setattr(belief, "extend_witness", counted)
            runs = [run_witness_steps(steps) for steps in plans]
        routes = [route for _, taken in runs for route in taken]
        assert routes.count("revised") > 100 and routes.count("expanded") > 300
        assert sum(hits) > 200 and hits.count(False) > 50

        def no_witness(formulas, max_atoms=sat.DEFAULT_MAX_ATOMS, witnesses=None):
            return is_consistent(formulas, max_atoms)

        monkeypatch.setattr(belief, "is_consistent", no_witness)
        for steps, (exports, _) in zip(plans, runs):
            assert run_witness_steps(steps)[0] == exports

    def test_producers_keep_or_drop_the_witness(self):
        base, _ = update_belief_state(BeliefBase(), entry("p"))
        base, _ = update_belief_state(base, entry("q"))
        assert base.witness is not None
        assert belief.retract_entry(base, parse("q"), "r").witness == base.witness
        assert belief.amend_entry(base, parse("q"), probability=0.5).witness == base.witness
        contracted = contract(base, parse("q"))
        assert contracted.witness is not None and witness_holds(contracted)
        revised, route = update_belief_state(base, entry("!q"))
        assert route == "revised" and witness_holds(revised)
        unrecorded = base_of(entry("p"), entry("q"))
        assert unrecorded.witness is None
        assert dataclasses.replace(unrecorded, witness=base.witness) == unrecorded
        assert belief.is_consistent_base(
            dataclasses.replace(unrecorded, witness=base.witness)
        )

    def test_resolved_contradiction_keeps_a_witness(self):
        from veritas.guard import detect_contradiction, resolve_contradiction

        clash = base_of(entry("p"), entry("q"), entry("!p", 0.6))
        core = detect_contradiction(clash)[0]
        resolved, _ = resolve_contradiction(clash, core)
        assert resolved.witness is not None and witness_holds(resolved)

    def test_re_observation_keeps_the_witness_without_solving(self, monkeypatch):
        base, _ = update_belief_state(BeliefBase(), entry("p | q"))

        def refuse(*args, **kwargs):
            raise AssertionError("full SAT check on a witnessed base")

        monkeypatch.setattr(belief, "is_consistent", refuse)
        again, route = update_belief_state(base, entry("p | q", 0.8))
        assert route == "expanded" and again.witness == base.witness
        grown, route = update_belief_state(again, entry("r"))
        assert route == "expanded" and witness_holds(grown)

    def test_atom_limit_still_raises_on_a_witnessed_base(self):
        wide = [Atom(f"w{i}") for i in range(65)]
        conjunction = wide[0]
        for atom in wide[1:64]:
            conjunction = And(conjunction, atom)
        base, _ = update_belief_state(
            BeliefBase(), BeliefEntry(conjunction, 0.99, Provenance("s", 0, 0.99))
        )
        assert len(base.witness.atom_ids) == 64
        with pytest.raises(ResourceLimitError):
            update_belief_state(base, BeliefEntry(wide[64], 0.99, Provenance("s", 1, 0.99)))
        inside = BeliefEntry(Or(wide[0], wide[9]), 0.99, Provenance("s", 2, 0.99))
        assert update_belief_state(base, inside)[1] == "expanded"

    def test_wide_disjunctions_extend_a_witnessed_base(self):
        """Two disjunctions of eleven pairs, 4,096 clauses by plain
        distribution, then z: each expansion keeps a witness."""
        base = BeliefBase()
        for k, prefix in enumerate("uv"):
            incoming = BeliefEntry(pair_disjunction(prefix), 0.99, Provenance("s", k, 0.99))
            base, route = update_belief_state(base, incoming)
            assert route == "expanded"
        assert len(base.witness.atom_ids) == 44
        base, route = update_belief_state(base, entry("z"))
        assert route == "expanded" and len(base.witness.atom_ids) == 45
        assert witness_holds(base)


PERSISTENT_ATOMS = [Atom(name) for name in "pqrs"]


def persistent_start(rng: random.Random):
    """An empty base, or a grafted one that may repeat a key or clash."""
    if rng.random() < 0.5:
        return BeliefBase(), ReferenceBase()
    grafted = []
    for n in range(rng.randrange(1, 5)):
        formula = random_formula(rng, rng.sample(PERSISTENT_ATOMS, 2), 2)
        p = rng.choice([0.6, 0.8, 0.97])
        grafted.append(BeliefEntry(formula, p, Provenance("g", n, p)))
    if rng.random() < 0.5:
        twin = grafted[0]
        grafted.append(BeliefEntry(twin.formula, 0.7, Provenance("twin", 9, 0.7)))
    rng.shuffle(grafted)
    return BeliefBase.from_entries(grafted), ReferenceBase.from_entries(grafted)


def persistent_step(rng: random.Random, step: int, real: BeliefBase, model: ReferenceBase):
    """One random operation applied to both bases, with its formula."""
    kind = rng.choice(["update", "update", "contract", "revise", "retract", "amend"])
    formula = random_formula(rng, rng.sample(PERSISTENT_ATOMS, rng.randrange(1, 4)), 2)
    if real.entries and rng.random() < 0.5:
        formula = rng.choice(real.entries).formula
    p = rng.choice([0.6, 0.8, 0.97, 0.99])
    incoming = BeliefEntry(formula, p, Provenance("s", step, p))
    if kind in ("update", "revise") and not tt_satisfiable([formula]):
        return real, model, formula
    if kind == "update":
        real, route = update_belief_state(real, incoming)
        model, expected = reference_update(model, incoming)
        assert route == expected
    elif kind == "revise":
        real, model = revise(real, incoming), reference_revise(model, incoming)
    elif kind == "contract":
        if not tt_satisfiable([Not(formula)]):
            return real, model, formula
        real, model = contract(real, formula), reference_contract(model, formula)
    elif kind == "retract":
        real = belief.retract_entry(real, formula, "test")
        model = reference_retract(model, formula, "test")
    else:
        real = belief.amend_entry(real, formula, probability=p)
        model = reference_amend(model, formula, p)
    return real, model, formula


def assert_matches_reference(real: BeliefBase, model: ReferenceBase, formulas) -> None:
    assert real.epoch == model.epoch
    assert real.entries == model.entries
    assert real.retraction_log == model.retraction_log
    assert len(real.history) == len(model.history) == real.epoch + 1
    for i in range(len(model.history)):
        for j in range(len(model.history)):
            assert epoch_diff(real, i, j) == reference_epoch_diff(model, i, j)
    assert export(real) == export(model)
    for formula in formulas:
        found = real.find(formula)
        assert found == model.find(formula)
        if found is not None:
            first = next(e for e in real.entries if e.key == found.key)
            assert found is first


class TestPersistentBase:
    """Key-indexed entries and delta history read as sorted snapshots do."""

    def test_random_sequences_match_the_reference_model(self):
        rng = random.Random(8080)
        for _ in range(120):
            seed = rng.randrange(1 << 30)
            runs = []
            for _ in range(2):
                steps = random.Random(seed)
                real, model = persistent_start(steps)
                trail, formulas = [(real, model)], []
                assert_matches_reference(real, model, formulas)
                for step in range(10):
                    real, model, formula = persistent_step(steps, step, real, model)
                    formulas.append(formula)
                    assert_matches_reference(real, model, formulas)
                    trail.append((real, model))
                runs.append(trail)
            first, again = runs
            for (real, _), (twin, _) in zip(first, again):
                assert real == twin and hash(real) == hash(twin)
            for real_i, model_i in first:
                for real_j, model_j in first:
                    assert (real_i == real_j) == (model_i == model_j)

    def test_retraction_log_reads_as_a_tuple(self):
        base = base_of(entry("p"), entry("q"))
        assert base.retraction_log == ()
        dropped = belief.retract_entry(base, parse("q"), "gone")
        assert dropped.retraction_log == (RetractionRecord(1, "q", "gone"),)
        assert dropped.retraction_log[-1].reason == "gone"
        assert base.retraction_log == ()

    def test_revision_labels_its_contraction_without_relabelling(self, monkeypatch):
        base = base_of(entry("p", 0.8), entry("p -> q", 0.97))
        reasons = []
        original = belief._contract_entailed

        def spy(base, target, atom_ids, reason):
            reasons.append(reason)
            return original(base, target, atom_ids, reason)

        monkeypatch.setattr(belief, "_contract_entailed", spy)
        revised = revise(base, entry("!q"))
        assert reasons == ["revision((! q))"]
        assert [rec.reason for rec in revised.retraction_log] == ["revision((! q))"]
        assert [e.key for e in revised.entries] == ["(! q)", "(p -> q)"]

    def test_equality_compares_the_log_and_the_history(self):
        def build(first: str, second: str, reason: str) -> BeliefBase:
            base = BeliefBase()
            for text in (first, second):
                base, _ = update_belief_state(base, entry(text))
            return belief.retract_entry(base, parse("p"), reason)

        same = build("p", "q", "gone")
        assert same == build("p", "q", "gone")
        other_reason, other_order = build("p", "q", "lost"), build("q", "p", "gone")
        for other in (other_reason, other_order):
            assert other.epoch == same.epoch and other.entries == same.entries
            assert other != same
        assert other_order.retraction_log == same.retraction_log
        for i in range(same.epoch + 1):
            for j in range(same.epoch + 1):
                assert epoch_diff(other_reason, i, j) == epoch_diff(same, i, j)

    def test_a_fold_shares_its_parents_trails(self):
        base = BeliefBase()
        for step, text in enumerate(["p", "q", "r"]):
            base, _ = update_belief_state(base, entry(text, timestamp=step))
        grown = belief.retract_entry(base, parse("q"), "gone")
        assert grown.history._rest is base.history
        assert list(grown.history) == [
            ((), (), ""),
            (("p",), (), ""),
            (("q",), (), ""),
            (("r",), (), ""),
            ((), ("q",), "gone"),
        ]

    def test_each_base_not_made_by_an_operation_starts_its_own_trail(self):
        assert BeliefBase().history is not BeliefBase().history
        assert BeliefBase() == BeliefBase() and BeliefBase().epoch == 0

    def test_long_trails_compare_and_free_without_recursion(self):
        base, _ = update_belief_state(BeliefBase(), entry("p"))
        twin = base
        for _ in range(20000):
            base = belief.amend_entry(base, parse("p"), probability=0.9)
            twin = belief.amend_entry(twin, parse("p"), probability=0.9)
        assert base == twin and len(base.history) == 20002
        assert base != belief.amend_entry(twin, parse("p"), probability=0.9)
        del base, twin


COMPONENTS = [[Atom(f"k{g}x{i}") for i in range(2)] for g in range(3)]


class TestRevisionByKnownFacts:
    """The revise route skips the checks its failed expansion settled,
    touches only the target's component and keeps a model of what it
    keeps; its results are the reference model's."""

    def test_random_steps_match_the_reference_model(self, monkeypatch):
        """Bases of three components, weights drawn from two values so
        that remainders tie; entries, log, epochs and history match, and
        every witness kept satisfies every kept formula."""
        weighed = met = 0
        select = belief._select_remainder

        def spy(base, candidates, *rest):
            nonlocal weighed, met
            kept = select(base, candidates, *rest)
            if len(candidates) > 1:
                # A meet of tied remainders is none of them.
                met += kept not in candidates
                weighed += kept in candidates
            return kept

        monkeypatch.setattr(belief, "_select_remainder", spy)
        rng = random.Random(1717)
        revised = witnessed = 0
        for _ in range(80):
            real, model, seen = BeliefBase(), ReferenceBase(), []
            for step in range(10):
                kind = rng.choice(["update", "update", "negate", "revise", "contract"])
                atoms = [a for g in rng.sample(COMPONENTS, rng.choice([1, 1, 2])) for a in g]
                formula = random_formula(rng, atoms, 2)
                if kind == "negate" and real.entries:
                    # Not both of two held formulas: R then has a
                    # remainder without each, and equal weights tie.
                    first, second = (rng.choice(real.entries).formula for _ in "ab")
                    formula = Or(Not(first), Not(second))
                if not tt_satisfiable([Not(formula) if kind == "contract" else formula]):
                    continue
                p = rng.choice([0.8, 0.8, 0.9])
                incoming = BeliefEntry(formula, p, Provenance("s", step, p))
                if kind == "contract":
                    real, model = contract(real, formula), reference_contract(model, formula)
                elif kind == "revise":
                    real, model = revise(real, incoming), reference_revise(model, incoming)
                else:
                    real, route = update_belief_state(real, incoming)
                    model, expected = reference_update(model, incoming)
                    assert route == expected
                    if route == "revised":
                        revised += 1
                        witnessed += real.witness is not None
                seen.append(formula)
                assert_matches_reference(real, model, seen)
                if real.witness is not None:
                    assert witness_holds(real)
        assert revised > 100 and witnessed > 0.9 * revised
        assert met > 15 and weighed > 15

    def test_a_churn_revision_solves_once(self, monkeypatch):
        """Twelve independent literals, as revise-churn holds: a revision
        asks the failed expansion and no more; the target's one-formula
        component has its remainders settled by that failure, and the
        closing expansion extends the witness the contraction kept."""
        base = BeliefBase()
        for i in range(12):
            base, _ = update_belief_state(base, entry(f"C{i}" if i % 2 else f"!C{i}"))
        calls = []
        solve = sat.is_consistent

        def counted(*args, **kwargs):
            calls.append(args[0])
            return solve(*args, **kwargs)

        monkeypatch.setattr(sat, "is_consistent", counted)
        monkeypatch.setattr(belief, "is_consistent", counted)
        for text in ("!C3", "C3", "C4", "!C4"):
            calls.clear()
            base, route = update_belief_state(base, entry(text))
            assert route == "revised" and len(calls) == 1
            assert len(base.entries) == 12 and witness_holds(base)


def count_remainder_questions(monkeypatch) -> list[int]:
    """Count the entails and is_consistent calls made inside
    belief.remainders; the returned one-item list holds the count."""
    asked, depth = [0], [0]
    enumerate_remainders, ask, solve = belief.remainders, belief.entails, belief.is_consistent

    def enumerating(*args, **kwargs):
        depth[0] += 1
        try:
            return enumerate_remainders(*args, **kwargs)
        finally:
            depth[0] -= 1

    def counted(question):
        def call(*args, **kwargs):
            asked[0] += depth[0] > 0
            return question(*args, **kwargs)

        return call

    monkeypatch.setattr(belief, "remainders", enumerating)
    monkeypatch.setattr(belief, "entails", counted(ask))
    monkeypatch.setattr(belief, "is_consistent", counted(solve))
    return asked


def each_entails(k: int) -> list[str]:
    """k formulas that each entail p: every nonempty subset entails it."""
    return [f"p & x{i}" for i in range(k)]


def chain_to(k: int) -> list[str]:
    """x1, x1 -> x2, ..., x(k-1) -> p: only the whole chain entails p."""
    if k == 1:
        return ["p"]
    links = [f"x{i} -> x{i + 1}" for i in range(1, k - 1)]
    return ["x1", *links, f"x{k - 1} -> p"]


# Entailment checks inside remainders for a k-formula component of each
# shape: through the revise route and contract, and by a direct call,
# which still asks the whole set and, when no remainder is nonempty,
# the empty set.
SHAPES = {
    each_entails: (lambda k: 2**k - 2, lambda k: 2**k),
    chain_to: (lambda k: 0 if k == 1 else k, lambda k: 2 if k == 1 else k + 1),
}

# Pieces of a target component over p, a, b, c, d: literals,
# implications, disjunctions, and rules that share an atom.
COMPONENT_PIECES = [
    "a", "!b", "c", "d", "c -> p", "d -> c", "b -> c", "a | c", "p | d",
    "!c | !d", "a -> d", "c -> d", "a & b -> p", "b | d",
]

# Chains that entail p, so that most drawn bases have something to give up.
COMPONENT_CHAINS = [["p"], ["a", "a -> p"], ["b", "b -> a", "a -> p"]]


class TestRemainderQuestions:
    """Contraction asks remainders only what the caller's proof that the
    base entails the target left open; a direct call asks everything."""

    @pytest.mark.parametrize("shape", list(SHAPES), ids=lambda s: s.__name__)
    @pytest.mark.parametrize("k", range(1, 7))
    def test_component_of_k_formulas(self, monkeypatch, shape, k):
        routed, direct = (count(k) for count in SHAPES[shape])
        assert routed <= 2**k - 2
        texts = shape(k)
        asked = count_remainder_questions(monkeypatch)
        base = BeliefBase()
        for text in [*texts, "z"]:
            base, route = update_belief_state(base, entry(text))
            assert route == "expanded"
        asked[0] = 0
        revised, route = update_belief_state(base, entry("!p"))
        assert route == "revised" and asked[0] == routed
        assert {e.key for e in revised.entries} >= {"z", "(! p)"}
        asked[0] = 0
        contracted = contract(base, parse("p"))
        assert asked[0] == routed and not entails(contracted.formulas(), parse("p"))
        asked[0] = 0
        pool = [parse(t) for t in texts]
        found = belief.remainders(pool, parse("p"))
        assert found == subset_remainders(pool, parse("p")) and asked[0] == direct

    def test_a_component_past_the_cap_raises_before_any_question(self, monkeypatch):
        """17 connected formulas: both routes refuse before remainders
        asks the solver anything."""
        texts = ["p", *(f"p -> q{i}" for i in range(16))]
        base = BeliefBase()
        for text in texts:
            base, _ = update_belief_state(base, entry(text))
        asked = count_remainder_questions(monkeypatch)
        with pytest.raises(ResourceLimitError):
            update_belief_state(base, entry("!p"))
        with pytest.raises(ResourceLimitError):
            contract(base, parse("p"))
        with pytest.raises(ResourceLimitError):
            remainders([parse(t) for t in texts], parse("p"))
        assert asked[0] == 0

    @settings(max_examples=100, deadline=None)
    @given(
        chain=st.sampled_from(COMPONENT_CHAINS),
        pieces=st.lists(st.sampled_from(COMPONENT_PIECES), max_size=5, unique=True),
        weights=st.lists(st.sampled_from([0.6, 0.8, 0.9]), min_size=9, max_size=9),
        unrelated=st.booleans(),
        target_text=st.sampled_from(["p", "p | d", "a -> p", "c & p"]),
    )
    def test_contraction_matches_partial_meet_over_subset_remainders(
        self, chain, pieces, weights, unrelated, target_text
    ):
        """A component of 1-8 formulas, folded into a witnessed base and
        built witnessless by from_entries: contract and the revise route
        keep the entries and log the retractions that partial meet over
        tests/oracles.py's subset_remainders gives."""
        texts = list(dict.fromkeys([*chain, *pieces])) + ["u"] * unrelated
        entries = [
            BeliefEntry(parse(t), 0.99, Provenance(f"s{i}", i, weights[i]))
            for i, t in enumerate(texts)
        ]
        target = parse(target_text)
        incoming = BeliefEntry(Not(target), 0.99, Provenance("new", 99, 0.95))
        folded, folded_model = BeliefBase(), ReferenceBase()
        for item in entries:
            folded, _ = update_belief_state(folded, item)
            folded_model, _ = reference_update(folded_model, item)
        built = BeliefBase.from_entries(entries)
        built_model = ReferenceBase.from_entries(entries)
        assert built.witness is None
        shown = [target, Not(target), *(e.formula for e in entries)]
        for real, model in ((folded, folded_model), (built, built_model)):
            assert_matches_reference(real, model, shown)
            assert_matches_reference(
                contract(real, target), reference_contract(model, target), shown
            )
            revised, route = update_belief_state(real, incoming)
            expected, expected_route = reference_update(model, incoming)
            assert route == expected_route
            assert_matches_reference(revised, expected, shown)
