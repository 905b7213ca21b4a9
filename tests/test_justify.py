"""Justification graph, chain digests, public proofs, and dominance."""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veritas import justify
from veritas.belief import Provenance, export
from veritas.config import EngineConfig
from veritas.engine import Session
from veritas.justify import (
    CycleError,
    JustificationGraph,
    JustificationNode,
    NoJustificationError,
    PublicProof,
    UnknownPremiseError,
    UnsoundInferenceError,
    build_public_proof,
    dominance,
    hash_chain,
    load_graph,
    node_digest,
    node_from_json,
    node_to_json,
    verify_public_proof,
)
from veritas.ledger import NodeStore
from veritas.logic import Atom, ParseError, parse, render_canonical
from veritas.logic.parser import MAX_DEPTH, NestingLimitError


@pytest.fixture
def graph() -> JustificationGraph:
    return JustificationGraph()


def observe(graph: JustificationGraph, text: str, ts: int = 0,
            confidence: float = 0.99) -> str:
    return graph.record_inference(
        parse(text), (), "observation", Provenance("sensor", ts, confidence)
    )


class TestNodeDigest:
    def test_digest_matches_manual_serialization(self):
        """Field order: conclusion, rule, premises, source, ts, confidence."""
        prov = Provenance("alice", 7, 0.95)
        expected = hashlib.sha256(
            b"\x1f".join([b"(p -> q)", b"axiom", b"", b"alice", b"7", b"0.95"])
        ).hexdigest()
        assert node_digest(parse("p -> q"), "axiom", (), prov) == expected

    def test_premise_ids_joined_by_comma(self):
        prov = Provenance("s", 0, 0.9)
        digest = node_digest(parse("q"), "mp", ("aa", "bb"), prov)
        expected = hashlib.sha256(
            b"\x1f".join([b"q", b"mp", b"aa,bb", b"s", b"0", b"0.9"])
        ).hexdigest()
        assert digest == expected

    def test_non_ascii_fields_hash_as_their_encodings_joined(self, graph, tmp_path):
        """The id is the SHA-256 of the fields each encoded as UTF-8 and
        joined by 0x1F, for a non-ASCII source and rule too; the node
        store holding them reopens, and every id is checked again."""
        source, rule = "capteur-é", "règle"
        premises = (
            observe(graph, "p", ts=1),
            graph.record_inference(
                parse("p -> q"), (), "observation", Provenance(source, 2, 0.97)
            ),
        )
        prov = Provenance(source, 3, 0.96)
        node_id = graph.record_inference(parse("q"), premises, rule, prov)
        fields = ["q", rule, ",".join(premises), source, "3", "0.96"]
        expected = hashlib.sha256(
            b"\x1f".join(field.encode("utf-8") for field in fields)
        ).hexdigest()
        assert node_digest(parse("q"), rule, premises, prov) == node_id == expected
        path = tmp_path / "agent.nodes"
        path.write_bytes(
            "".join(node_to_json(n) + "\n" for n in graph.all_nodes()).encode()
        )
        reopened = NodeStore(str(path)).load()
        assert reopened.all_nodes() == graph.all_nodes()
        assert reopened.get(node_id).provenance.source == source

    def test_a_session_store_with_a_non_ascii_source_reopens(self, tmp_path):
        config = EngineConfig(ledger_path=str(tmp_path / "agent.vlog"), fixed_clock=True)
        with Session(config) as session:
            session.observe("p", 0.99, "capteur-é")
            session.observe("p -> q", 0.97, "capteur-é")
            session.prove("q")
            nodes, held = session.graph.all_nodes(), export(session.base)
        with Session(config) as session:
            assert session.graph.all_nodes() == nodes
            assert export(session.base) == held
        assert len(nodes) == 3
        for node in nodes:
            content = (node.conclusion, node.rule, node.premises, node.provenance)
            assert node_digest(*content) == node.node_id

    def test_identical_content_is_idempotent(self, graph):
        first = observe(graph, "p", ts=3)
        second = observe(graph, "p", ts=3)
        assert first == second
        assert len(graph) == 1

    def test_rule_label_changes_the_id(self, graph):
        prov = Provenance("s", 0, 0.9)
        a = graph.record_inference(parse("p"), (), "observation", prov)
        b = graph.record_inference(parse("p"), (), "axiom", prov)
        assert a != b


class TestRecordInference:
    def test_unknown_premise_rejected(self, graph):
        with pytest.raises(UnknownPremiseError):
            graph.record_inference(
                parse("q"), ("0" * 64,), "mp", Provenance("s", 0, 0.9)
            )

    def test_unsound_step_rejected(self, graph):
        p = observe(graph, "p")
        with pytest.raises(UnsoundInferenceError):
            graph.record_inference(parse("q"), (p,), "mp", Provenance("s", 1, 0.9))

    @pytest.mark.parametrize("step", ["unknown premise", "unsound step"])
    def test_recording_and_adding_refuse_alike(self, graph, step):
        """record_inference and add_node raise the same error for the
        same step, and neither leaves a node behind."""
        prov = Provenance("s", 1, 0.9)
        if step == "unknown premise":
            premises = ("0" * 64,)
        else:
            premises = (observe(graph, "p"),)
        q = parse("q")
        node_id = node_digest(q, "mp", premises, prov)
        node = JustificationNode(node_id, q, "mp", premises, prov)
        refusals = []
        for admit in (
            lambda: graph.record_inference(q, premises, "mp", prov),
            lambda: graph.add_node(node),
        ):
            before = len(graph)
            with pytest.raises((UnknownPremiseError, UnsoundInferenceError)) as err:
                admit()
            refusals.append((type(err.value), str(err.value)))
            assert len(graph) == before
        assert refusals[0] == refusals[1]

    def test_recording_hashes_the_node_once(self, graph, monkeypatch):
        """record_inference computes the id once and does not check it
        again; add_node hashes a node read back to check its id."""
        hashed, digest = [], justify.node_digest
        monkeypatch.setattr(
            justify, "node_digest", lambda *args: hashed.append(args) or digest(*args)
        )
        prov = Provenance("s", 0, 0.9)
        node_id = graph.record_inference(parse("p"), (), "observation", prov)
        assert len(hashed) == 1
        assert JustificationGraph().add_node(graph.node(node_id)) == node_id
        assert len(hashed) == 2

    def test_self_referencing_node_rejected(self, graph):
        """A node listing its own id as a premise is a cycle."""
        node = JustificationNode(
            node_id="f" * 64,
            conclusion=parse("p"),
            rule="mp",
            premises=("f" * 64,),
            provenance=Provenance("s", 0, 0.9),
        )
        with pytest.raises(CycleError):
            graph.add_node(node)

    def test_add_node_checks_content_digest(self, graph):
        good = observe(graph, "p")
        node = graph.node(good)
        tampered = replace(node, node_id="0" * 64)
        with pytest.raises(ValueError):
            JustificationGraph().add_node(tampered)

    def test_a_known_node_joins_again_without_a_solve(self, graph, monkeypatch):
        """A node whose id the graph holds was checked when it joined, so
        adding it again asks no entailment; one whose content does not
        match that id is still refused."""
        p = observe(graph, "p")
        rule = observe(graph, "p -> q", ts=1)
        prov = Provenance("engine", 2, 0.99)
        derived = graph.record_inference(parse("q"), (p, rule), "mp", prov)
        solves = []
        monkeypatch.setattr(
            justify, "entails", lambda *args: solves.append(args) or True
        )
        assert graph.record_inference(parse("q"), (p, rule), "mp", prov) == derived
        assert graph.add_node(graph.node(derived)) == derived
        assert solves == [] and len(graph) == 3
        forged = replace(graph.node(derived), conclusion=parse("r"))
        with pytest.raises(ValueError, match="does not match content digest"):
            graph.add_node(forged)
        assert graph.node(derived).conclusion == parse("q")


class TestFormulaTable:
    """A graph hands out one formula per formula text, parsed once."""

    def test_every_spelling_resolves_to_one_instance(self, graph):
        negated = graph.formula("!C3")
        assert graph.formula("(! C3)") is negated
        assert graph.formula("!C3") is negated
        assert graph.formula(" ! ( C3 ) ") is negated
        assert negated._text == "(! C3)" and negated == parse("!C3")
        assert graph.formula("C3") is not negated.operand

    def test_parse_still_returns_a_fresh_instance(self, graph):
        kept = graph.formula("p -> q")
        assert parse("p -> q") is not kept and parse("p -> q") == kept

    def test_a_failed_parse_stores_nothing(self, graph, monkeypatch):
        with pytest.raises(ParseError):
            graph.formula("p &")
        deep = "!" * (MAX_DEPTH + 1) + "p"
        with pytest.raises(NestingLimitError):
            graph.formula(deep)
        texts = []
        monkeypatch.setattr(
            justify, "parse", lambda text: texts.append(text) or parse(text)
        )
        with pytest.raises(ParseError):
            graph.formula("p &")
        with pytest.raises(NestingLimitError):
            graph.formula(deep)
        assert texts == ["p &", deep]

    def test_loaded_conclusions_are_the_table_formulas(self, graph):
        """load_graph keeps its table in the graph it returns: a node's
        conclusion is the instance a later request for the text gets,
        compiled form included."""
        observe(graph, "p -> q")
        observe(graph, "(p -> q)", ts=1)
        loaded = load_graph([node_to_json(n) for n in graph.all_nodes()])
        first, second = (node.conclusion for node in loaded.all_nodes())
        assert first is second
        assert loaded.formula("p -> q") is first
        assert loaded.formula("(p -> q)") is first

    def test_load_graph_extends_a_given_graph(self, graph):
        """A formula handed out before the load is the one the loaded
        nodes conclude."""
        observe(graph, "!p")
        lines = [node_to_json(n) for n in graph.all_nodes()]
        target = JustificationGraph()
        early = target.formula("!p")
        assert load_graph(lines, target) is target
        assert target.all_nodes()[0].conclusion is early


class TestTrace:
    def build_diamond(self, graph):
        """p and p->q support q; q and q->r support r."""
        ids = {}
        ids["p"] = observe(graph, "p", 0)
        ids["pq"] = observe(graph, "p -> q", 1)
        ids["q"] = graph.record_inference(
            parse("q"), (ids["p"], ids["pq"]), "modus-ponens",
            Provenance("deriver", 2, 0.95),
        )
        ids["qr"] = observe(graph, "q -> r", 3)
        ids["r"] = graph.record_inference(
            parse("r"), (ids["q"], ids["qr"]), "modus-ponens",
            Provenance("deriver", 4, 0.95),
        )
        return ids

    def test_leaves_come_first_conclusion_last(self, graph):
        ids = self.build_diamond(graph)
        chain = graph.trace(parse("r"))
        order = [render_canonical(n.conclusion) for n in chain]
        assert order == ["p", "(p -> q)", "q", "(q -> r)", "r"]

    def test_trace_is_minimal(self, graph):
        ids = self.build_diamond(graph)
        observe(graph, "unrelated", 9)
        chain = graph.trace(parse("q"))
        assert [render_canonical(n.conclusion) for n in chain] == [
            "p", "(p -> q)", "q"
        ]

    def test_unrecorded_formula_has_no_trace(self, graph):
        observe(graph, "p")
        with pytest.raises(NoJustificationError):
            graph.trace(parse("z"))

    def test_depth_counts_longest_premise_path(self, graph):
        ids = self.build_diamond(graph)
        assert graph.depth(ids["p"]) == 0
        assert graph.depth(ids["q"]) == 1
        assert graph.depth(ids["r"]) == 2

    def test_nodes_since_returns_the_newest_in_insertion_order(self, graph):
        self.build_diamond(graph)
        nodes = graph.all_nodes()
        for count in range(len(nodes) + 1):
            assert graph.nodes_since(count) == nodes[count:]
        observe(graph, "p")  # already recorded: the graph does not grow
        assert graph.nodes_since(len(nodes)) == []

    def test_nodes_for_and_latest_for_are_oldest_first_at_every_length(
        self, graph
    ):
        """Several nodes per conclusion, observed and derived: nodes_for
        lists them oldest first and latest_for names the newest, for any
        spelling of the formula, and still after truncate to each length."""
        ids = [observe(graph, "p", ts) for ts in range(3)]
        ids.append(observe(graph, "p -> q", 0))
        ids.append(
            graph.record_inference(
                parse("q"), (ids[1], ids[3]), "modus-ponens",
                Provenance("deriver", 4, 0.95),
            )
        )
        ids += [observe(graph, "q", 5), observe(graph, "p", 6)]
        concluded = ["p", "p", "p", "(p -> q)", "q", "q", "p"]
        for count in reversed(range(len(ids) + 1)):
            graph.truncate(count)
            assert len(graph) == count
            for text in ("p", "q", "p->q", "(p -> q)", "r"):
                key = render_canonical(parse(text))
                expected = [
                    node_id
                    for node_id, conclusion in zip(ids[:count], concluded)
                    if conclusion == key
                ]
                assert graph.nodes_for(parse(text)) == expected
                assert graph.latest_for(parse(text)) == (
                    expected[-1] if expected else None
                )


class TestHashChain:
    def test_single_node_digest_is_sha256_of_formula(self, graph):
        observe(graph, "p")
        chain = graph.trace(parse("p"))
        assert hash_chain(chain) == hashlib.sha256(b"p").digest()

    def test_chain_joins_with_record_separator(self, graph):
        ids = TestTrace().build_diamond(graph)
        chain = graph.trace(parse("q"))
        expected = hashlib.sha256(b"p\x1e(p -> q)\x1eq").digest()
        assert hash_chain(chain) == expected

    def test_rule_labels_do_not_affect_the_chain_digest(self):
        prov = Provenance("s", 0, 0.9)
        a = JustificationNode(
            node_digest(parse("p"), "observation", (), prov),
            parse("p"), "observation", (), prov,
        )
        b = JustificationNode(
            node_digest(parse("p"), "axiom", (), prov),
            parse("p"), "axiom", (), prov,
        )
        assert a.node_id != b.node_id
        assert hash_chain([a]) == hash_chain([b])


class TestPublicProof:
    def make_proof(self, graph):
        TestTrace().build_diamond(graph)
        return build_public_proof(graph, parse("r"))

    def test_built_proof_verifies(self, graph):
        proof = self.make_proof(graph)
        anchors = {proof.digest}
        result = verify_public_proof(proof, anchors.__contains__)
        assert result.ok

    def test_altered_formula_is_a_digest_mismatch(self, graph):
        proof = self.make_proof(graph)
        tampered_chain = list(proof.chain)
        tampered_chain[0] = replace(tampered_chain[0], conclusion=parse("!p"))
        tampered = replace(proof, chain=tuple(tampered_chain))
        result = verify_public_proof(tampered, lambda d: True)
        assert (result.ok, result.reason) == (False, "digest mismatch")

    def test_dropped_node_is_a_digest_mismatch(self, graph):
        proof = self.make_proof(graph)
        tampered = replace(proof, chain=proof.chain[1:])
        result = verify_public_proof(tampered, lambda d: True)
        assert (result.ok, result.reason) == (False, "digest mismatch")

    def test_reordered_chain_is_a_digest_mismatch(self, graph):
        proof = self.make_proof(graph)
        shuffled = (proof.chain[1], proof.chain[0]) + proof.chain[2:]
        tampered = replace(proof, chain=shuffled)
        result = verify_public_proof(tampered, lambda d: True)
        assert (result.ok, result.reason) == (False, "digest mismatch")

    def test_recomputed_but_unanchored_digest_is_rejected(self, graph):
        proof = self.make_proof(graph)
        shuffled = (proof.chain[1], proof.chain[0]) + proof.chain[2:]
        tampered = PublicProof(proof.conclusion, shuffled, hash_chain(shuffled))
        result = verify_public_proof(tampered, {proof.digest}.__contains__)
        assert (result.ok, result.reason) == (False, "not anchored")

    def test_unsound_step_is_a_bad_step(self):
        """A chain claiming q from {p} fails at the offending index."""
        prov = Provenance("s", 0, 0.9)
        p_node = JustificationNode(
            node_digest(parse("p"), "observation", (), prov),
            parse("p"), "observation", (), prov,
        )
        q_node = JustificationNode(
            node_digest(parse("q"), "mp", (p_node.node_id,), prov),
            parse("q"), "mp", (p_node.node_id,), prov,
        )
        chain = (p_node, q_node)
        proof = PublicProof(parse("q"), chain, hash_chain(chain))
        result = verify_public_proof(proof, lambda d: True)
        assert (result.ok, result.reason, result.step) == (False, "bad step", 1)

    def test_dangling_premise_is_a_bad_step(self, graph):
        proof = self.make_proof(graph)
        chain = proof.chain[2:]
        tampered = PublicProof(proof.conclusion, chain, hash_chain(chain))
        result = verify_public_proof(tampered, lambda d: True)
        assert (result.ok, result.reason) == (False, "bad step")

    def test_empty_chain_is_a_bad_step(self):
        proof = PublicProof(parse("p"), (), hash_chain([]))
        result = verify_public_proof(proof, lambda d: True)
        assert (result.ok, result.reason) == (False, "bad step")

    def test_mismatched_conclusion_field_is_a_bad_step(self, graph):
        proof = self.make_proof(graph)
        tampered = replace(proof, conclusion=parse("p"))
        result = verify_public_proof(tampered, lambda d: True)
        assert (result.ok, result.reason) == (False, "bad step")


class TestDominance:
    def test_confidence_decides_first(self):
        a = Provenance("a", 0, 0.9)
        b = Provenance("b", 9, 0.6)
        assert dominance(a, b) == 1
        assert dominance(b, a) == -1

    def test_newer_timestamp_breaks_confidence_ties(self):
        a = Provenance("a", 5, 0.9)
        b = Provenance("b", 9, 0.9)
        assert dominance(a, b) == -1

    def test_reliability_breaks_remaining_ties(self):
        a = Provenance("alice", 5, 0.9)
        b = Provenance("bob", 5, 0.9)
        table = {"alice": 0.8, "bob": 0.3}
        assert dominance(a, b, table) == 1
        assert dominance(a, b) == 0

    def test_unknown_sources_default_to_half(self):
        a = Provenance("alice", 5, 0.9)
        b = Provenance("bob", 5, 0.9)
        assert dominance(a, b, {"alice": 0.5}) == 0


class TestSerialization:
    def test_json_round_trip(self, graph):
        ids = TestTrace().build_diamond(graph)
        lines = [node_to_json(n) for n in graph.trace(parse("r"))]
        loaded = load_graph(lines)
        assert len(loaded) == 5
        assert loaded.trace(parse("r"))[-1].node_id == ids["r"]

    def test_tampered_line_is_rejected(self, graph):
        observe(graph, "p")
        line = node_to_json(graph.all_nodes()[0]).replace('"p"', '"q"')
        with pytest.raises(ValueError):
            load_graph([line])

    def test_a_repeated_line_adds_nothing_and_is_still_checked(self, graph):
        observe(graph, "p")
        line = node_to_json(graph.all_nodes()[0])
        assert load_graph([line, line]).all_nodes() == graph.all_nodes()
        tampered = line.replace('"p"', '"q"')
        with pytest.raises(ValueError, match="line 2: node id"):
            load_graph([line, tampered])


def decoded(line: str, fast: bool):
    """The node a line holds, or the error it raises, read by the regex
    where it matches (fast) or always by json."""
    saved = justify._NODE_LINE_RE
    if not fast:
        justify._NODE_LINE_RE = re.compile(r"(?!)")
    try:
        node = node_from_json(line)
    except ValueError as err:
        return type(err), str(err)
    finally:
        justify._NODE_LINE_RE = saved
    prov = node.provenance
    return (
        node.node_id,
        render_canonical(node.conclusion),
        node.rule,
        node.premises,
        prov.source,
        prov.timestamp,
        type(prov.confidence),
        repr(prov.confidence),
    )


# Mostly text json writes as it is, sometimes text it must escape.
_text = st.one_of(
    st.text(st.sampled_from("ab é/"), max_size=4),
    st.text(st.sampled_from('a"\\\x1f\n'), max_size=3),
)
_node_objects = st.fixed_dictionaries(
    {
        "id": _text,
        "conclusion": st.sampled_from(["p", "(p -> q)", "(! At(a,b))", "p &", ""]),
        "rule": _text,
        "premises": st.lists(_text, max_size=3),
        "source": _text,
        "timestamp": st.one_of(st.integers(-2, 2), st.integers(10**17, 10**20)),
        "confidence": st.one_of(
            st.integers(-1, 2), st.floats(-0.5, 1.5), st.sampled_from([1e-07, 0.5e-300])
        ),
    }
)
# Edits that leave a line readable by json, or not: spacing, a broken
# number, a dropped or repeated key, a stray character.
_EDITS = [
    ("", ""),
    (", ", ","),
    (": ", ":"),
    ("}", " }"),
    ("}", "}\r"),
    ("0.", "00."),
    ('"id"', '"ids"'),
    ('{"', '{"id": "x", "'),
    ("[", "[ "),
    ('"', "'"),
]


# Any text, often with what json must escape: quotes, backslashes,
# control characters, non-ASCII and lone surrogates.
_any_text = st.one_of(
    st.text(max_size=6),
    st.text(st.sampled_from('a"\\\x00\x1f\x7fé\u2028\ud800\U0001f600'), max_size=6),
)


class TestNodeLineEncode:
    """node_to_json spells a node as json.dumps(..., sort_keys=True)
    does, and node_from_json reads the same node back from it."""

    @settings(max_examples=400, deadline=None)
    @given(
        _any_text,
        _any_text,
        _any_text,
        st.lists(_any_text, max_size=3),
        _any_text,
        st.one_of(st.integers(0, 10**18), st.integers(10**18, 10**40)),
        st.one_of(st.booleans(), st.integers(0, 1), st.floats(0, 1)),
    )
    def test_json_dumps_parity_and_round_trip(
        self, node_id, text, rule, premises, source, timestamp, confidence
    ):
        # No formula renders with quotes or non-ASCII, so the text a
        # formula keeps for render_canonical stands in for any text.
        conclusion = Atom("p")
        object.__setattr__(conclusion, "_text", text)
        provenance = Provenance(source, timestamp, confidence)
        node = JustificationNode(node_id, conclusion, rule, tuple(premises), provenance)
        line = node_to_json(node)
        assert line == json.dumps(
            {
                "id": node_id,
                "conclusion": text,
                "rule": rule,
                "premises": premises,
                "source": source,
                "timestamp": timestamp,
                "confidence": confidence,
            },
            sort_keys=True,
        )
        read = node_from_json(line + "\n", {text: conclusion}.__getitem__)
        assert read == node
        assert type(read.provenance.confidence) is type(confidence)
        assert repr(read.provenance.confidence) == repr(confidence)


class TestNodeLineDecode:
    """One regex match decodes a line spelt as node_to_json writes it;
    any other line goes through json, and both give the same node or
    the same error."""

    @settings(max_examples=400, deadline=None)
    @given(_node_objects, st.booleans(), st.just(("", "")) | st.sampled_from(_EDITS))
    def test_regex_and_json_agree(self, obj, ascii_only, edit):
        text = json.dumps(obj, sort_keys=True, ensure_ascii=ascii_only)
        line = text.replace(*edit) + "\n"
        assert decoded(line, fast=True) == decoded(line, fast=False)

    def test_stored_lines_take_the_regex(self, graph):
        observe(graph, "p", confidence=1)
        observe(graph, "q", confidence=1e-07)
        for node in graph.all_nodes():
            line = node_to_json(node)
            assert justify._NODE_LINE_RE.fullmatch(line)
            assert node_from_json(line) == node
            assert repr(node_from_json(line).provenance.confidence) == repr(
                node.provenance.confidence
            )
