"""Hash-chained ledger: serialization, tampering, replay, Merkle, signing."""

from __future__ import annotations

import gc
import hashlib
import random
import tracemalloc
from dataclasses import replace

import pytest

from veritas.belief import BeliefBase, Provenance, StatusTag, export
from veritas.config import EngineConfig
from veritas import ledger as ledger_module
from veritas.justify import JustificationGraph
from veritas.ledger import (
    Ledger,
    LedgerCorruptionError,
    Op,
    ReplayError,
    ZERO_HASH,
    apply_block,
    block_hash,
    block_line,
    block_payload,
    generate_key,
    inclusion_proof,
    load_private_key,
    merkle_root,
    private_key_bytes,
    replay,
    sign_truth_record,
    verify_inclusion,
    verify_truth_record,
)
from veritas.logic import parse, render_canonical


def observation(
    graph: JustificationGraph, text: str, ts: int, confidence: float = 0.99
) -> str:
    return graph.record_inference(
        parse(text), (), "observation", Provenance("sensor", ts, confidence)
    )


def insert(
    ledger: Ledger,
    graph: JustificationGraph,
    text: str,
    ts: int,
    confidence: float = 0.99,
) -> None:
    node_id = observation(graph, text, ts, confidence)
    ledger.append(
        Op.INSERT,
        formula=render_canonical(parse(text)),
        justification_digest=bytes.fromhex(node_id),
        timestamp=ts,
    )


class TestBlockSerialization:
    def test_payload_layout(self):
        payload = block_payload(3, 17, Op.REVISE, "(! p)", b"\xab" * 32, b"\xcd" * 32)
        expected = b"\x1f".join(
            [b"3", b"17", b"revise", b"(! p)", b"ab" * 32, b"cd" * 32]
        )
        assert payload == expected

    def test_genesis_hash_vector(self):
        """Hash of a first block recomputed by hand from the field bytes."""
        h = block_hash(0, 0, Op.INSERT, "p", ZERO_HASH, ZERO_HASH)
        manual = hashlib.sha256(
            b"0\x1f0\x1finsert\x1fp\x1f" + b"00" * 32 + b"\x1f" + b"00" * 32
        ).digest()
        assert h == manual

    def test_line_ends_with_hash_hex_and_newline(self):
        ledger = Ledger()
        block = ledger.append(Op.META, timestamp=5)
        line = block_line(block)
        assert line.endswith(block.h.hex().encode() + b"\n")
        assert line.count(b"\x1f") == 6

    def test_hex_is_lowercase(self):
        ledger = Ledger()
        block = ledger.append(Op.META, justification_digest=b"\xab" * 32)
        line = block_line(block).decode()
        assert line == line.lower()


class TestChain:
    def test_genesis_links_to_zero_hash(self):
        ledger = Ledger()
        block = ledger.append(Op.META)
        assert block.h_prev == ZERO_HASH
        assert block.index == 0

    def test_blocks_link_forward(self):
        ledger = Ledger()
        first = ledger.append(Op.META, timestamp=1)
        second = ledger.append(Op.META, timestamp=2)
        assert second.h_prev == first.h
        assert ledger.verify_chain() is None

    def test_append_refuses_corrupt_chain(self):
        ledger = Ledger()
        ledger.append(Op.META, timestamp=1)
        ledger.append(Op.META, timestamp=2)
        ledger._blocks[0] = replace(ledger._blocks[0], timestamp=9)
        with pytest.raises(LedgerCorruptionError):
            ledger.append(Op.META, timestamp=3)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "chain.vlog"
        ledger = Ledger(path)
        for ts in range(5):
            ledger.append(Op.META, formula="p", timestamp=ts)
        reloaded = Ledger(path)
        assert reloaded.blocks == ledger.blocks
        assert reloaded.verify_chain() is None

    def test_reloaded_ledger_extends_the_same_chain(self, tmp_path):
        path = tmp_path / "chain.vlog"
        first = Ledger(path)
        first.append(Op.META, timestamp=0)
        second = Ledger(path)
        block = second.append(Op.META, timestamp=1)
        assert block.h_prev == first.blocks[0].h
        assert Ledger(path).verify_chain() is None

    def test_every_single_byte_flip_is_caught_at_the_right_block(self, tmp_path):
        """Flip each byte of a 10-block file; sample positions densely."""
        path = tmp_path / "chain.vlog"
        ledger = Ledger(path)
        for ts in range(10):
            ledger.append(Op.INSERT, formula=f"p{ts}", timestamp=ts)
        pristine = path.read_bytes()
        line_starts = [0]
        for i, byte in enumerate(pristine):
            if byte == 0x0A and i + 1 < len(pristine):
                line_starts.append(i + 1)
        for position in range(0, len(pristine), 7):
            tampered = bytearray(pristine)
            tampered[position] ^= 0x01
            path.write_bytes(bytes(tampered))
            expected_block = max(
                i for i, start in enumerate(line_starts) if start <= position
            )
            verdict = Ledger(path).verify_chain()
            assert verdict is not None
            assert verdict <= expected_block
            if tampered[position] != 0x0A and pristine[position] != 0x0A:
                assert verdict == expected_block
        path.write_bytes(pristine)
        assert Ledger(path).verify_chain() is None


@pytest.fixture()
def hashes(monkeypatch):
    """Count every block hash the ledger computes."""
    calls = []
    original = ledger_module.block_hash

    def spy(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(ledger_module, "block_hash", spy)
    return calls


def write_chain(path, count: int) -> bytes:
    ledger = Ledger(path)
    for index in range(count):
        ledger.append(
            Op.INSERT,
            formula=f"s{index}",
            justification_digest=bytes([index]) * 32,
            timestamp=index,
        )
    return path.read_bytes()


class TestVerifiedPrefix:
    """Each block is hashed once per ledger; appends extend the prefix."""

    def test_appends_hash_each_block_once(self, tmp_path, hashes):
        path = tmp_path / "chain.vlog"
        write_chain(path, 50)
        ledger = Ledger(path)
        hashes.clear()
        for ts in range(50, 100):
            ledger.append(Op.META, formula=f"m{ts}", timestamp=ts)
        # 50 to verify the loaded chain on the first append, then one
        # per new block; re-verifying on every append would be 3,775.
        assert len(hashes) == 100
        assert sorted(hashes) == sorted([*range(50), *range(50, 100)])
        assert Ledger(path).verify_chain() is None

    def test_verified_ledger_appends_without_rehashing(self, tmp_path, hashes):
        path = tmp_path / "chain.vlog"
        write_chain(path, 50)
        ledger = Ledger(path)
        assert ledger.verify_chain() is None
        hashes.clear()
        for ts in range(50, 60):
            ledger.append(Op.META, timestamp=ts)
        assert hashes == list(range(50, 60))

    def test_verify_chain_always_rehashes(self, tmp_path, hashes):
        path = tmp_path / "chain.vlog"
        write_chain(path, 20)
        ledger = Ledger(path)
        hashes.clear()
        assert ledger.verify_chain() is None
        assert ledger.verify_chain() is None
        assert len(hashes) == 40

    def test_tampered_file_refuses_the_first_append(self, tmp_path):
        path = tmp_path / "chain.vlog"
        pristine = write_chain(path, 50)
        lines = pristine.split(b"\n")
        for target in (0, 17, 49):
            tampered = bytearray(pristine)
            position = sum(len(line) + 1 for line in lines[:target]) + 2
            tampered[position] ^= 0x01
            path.write_bytes(bytes(tampered))
            ledger = Ledger(path)
            with pytest.raises(LedgerCorruptionError) as raised:
                ledger.append(Op.META, timestamp=50)
            assert raised.value.index == target
            assert path.read_bytes() == bytes(tampered)

    def test_unreadable_only_line_refuses_append(self, tmp_path):
        path = tmp_path / "chain.vlog"
        path.write_bytes(b"garbage\n")
        ledger = Ledger(path)
        assert len(ledger) == 0
        with pytest.raises(LedgerCorruptionError) as raised:
            ledger.append(Op.META)
        assert raised.value.index == 0

    def test_tamper_after_verification_is_still_refused(self):
        ledger = Ledger()
        for ts in range(5):
            ledger.append(Op.META, timestamp=ts)
        assert ledger.verify_chain() is None
        ledger._blocks[3] = replace(ledger._blocks[3], formula="x")
        with pytest.raises(LedgerCorruptionError) as raised:
            ledger.append(Op.META, timestamp=5)
        assert raised.value.index == 3

    def test_contains_digest_sees_loaded_and_appended_blocks(self, tmp_path):
        path = tmp_path / "chain.vlog"
        write_chain(path, 5)
        ledger = Ledger(path)
        assert all(ledger.contains_digest(bytes([i]) * 32) for i in range(5))
        assert not ledger.contains_digest(b"\x77" * 32)
        ledger.append(Op.META, justification_digest=b"\x77" * 32)
        assert ledger.contains_digest(b"\x77" * 32)

    @pytest.mark.parametrize(
        "field",
        [
            b"ab" * 31 + b"aB",
            b"AB" * 32,
            b"ab" * 31 + b"a",
            b"ab" * 32 + b"a",
            b"ab" * 31 + b"a ",
            b" " + b"ab" * 31 + b"a",
            b"ab" * 31 + b"a\n",
            b"ab" * 31 + b"ag",
            b"",
        ],
    )
    def test_strict_hex_rejects_near_misses(self, field):
        assert ledger_module._strict_hex(field) is None

    def test_strict_hex_decodes_lowercase(self):
        assert ledger_module._strict_hex(b"0f" * 32) == b"\x0f" * 32


@pytest.fixture
def engine_state():
    return Ledger(), JustificationGraph(), EngineConfig()


class TestReplay:
    def test_inserts_replay_to_the_same_export(self, engine_state):
        ledger, graph, config = engine_state
        live = BeliefBase()
        for ts, text in enumerate(["p", "p -> q", "!r"]):
            insert(ledger, graph, text, ts)
            live = apply_block(live, ledger.blocks[-1], config, graph)
        replayed = replay(ledger, config, graph)
        assert export(replayed) == export(live)
        assert replayed.epoch == 3

    def test_insert_blocks_reuse_the_node_formula(self, engine_state, monkeypatch):
        """Replay folds each node's parsed conclusion instead of re-parsing."""
        ledger, graph, config = engine_state
        for ts, text in enumerate(["p", "p -> q", "!q", "r | s"]):
            insert(ledger, graph, text, ts)
        expected = export(replay(ledger, config, graph))
        parsed = []
        monkeypatch.setattr(
            ledger_module, "parse", lambda text: parsed.append(text) or parse(text)
        )
        base = replay(ledger, config, graph)
        assert parsed == [] and export(base) == expected
        assert all(
            e.formula is graph.get(e.justification).conclusion
            for e in base.entries
        )

    def test_block_text_unlike_its_node_is_parsed(self, engine_state):
        ledger, graph, config = engine_state
        node_id = observation(graph, "p", 0)
        ledger.append(
            Op.INSERT,
            formula="q",
            justification_digest=bytes.fromhex(node_id),
            timestamp=0,
        )
        base = replay(ledger, config, graph)
        assert [e.key for e in base.entries] == ["q"]

    def test_replay_honours_upto(self, engine_state):
        ledger, graph, config = engine_state
        for ts, text in enumerate(["p", "q", "r"]):
            insert(ledger, graph, text, ts)
        partial = replay(ledger, config, graph, upto=1)
        assert [e.key for e in partial.entries] == ["p", "q"]

    def test_conflicting_insert_replays_as_revision(self, engine_state):
        ledger, graph, config = engine_state
        insert(ledger, graph, "p", 0)
        insert(ledger, graph, "!p", 1)
        base = replay(ledger, config, graph)
        assert [e.key for e in base.entries] == ["(! p)"]
        assert [rec.formula for rec in base.retraction_log] == ["p"]

    def test_contract_block_replays_partial_meet(self, engine_state):
        ledger, graph, config = engine_state
        insert(ledger, graph, "p", 0)
        insert(ledger, graph, "q", 1)
        ledger.append(Op.CONTRACT, formula="q", timestamp=2)
        base = replay(ledger, config, graph)
        assert [e.key for e in base.entries] == ["p"]

    def test_recovery_retraction_block(self, engine_state):
        ledger, graph, config = engine_state
        insert(ledger, graph, "p", 0)
        ledger.append(
            Op.RECOVERY, formula="p", justification_digest=ZERO_HASH, timestamp=1
        )
        base = replay(ledger, config, graph)
        assert base.entries == ()
        assert base.retraction_log[-1].reason == "recovery"

    def test_recovery_amendment_block_demotes(self, engine_state):
        ledger, graph, config = engine_state
        insert(ledger, graph, "p", 0)
        node_id = graph.record_inference(
            parse("p"), (), "demotion", Provenance("guard", 1, 0.005)
        )
        ledger.append(
            Op.RECOVERY,
            formula="p",
            justification_digest=bytes.fromhex(node_id),
            timestamp=1,
        )
        base = replay(ledger, config, graph)
        entry = base.entries[0]
        assert entry.probability == 0.005
        assert entry.status == StatusTag.APPROXIMATE
        assert not entry.assertable

    def test_informational_blocks_have_no_belief_effect(self, engine_state):
        ledger, graph, config = engine_state
        insert(ledger, graph, "p", 0)
        ledger.append(Op.META, timestamp=1)
        ledger.append(Op.TRACE_SEAL, formula="p", timestamp=2)
        ledger.append(Op.RECOVERY, formula="", timestamp=3)
        base = replay(ledger, config, graph)
        assert [e.key for e in base.entries] == ["p"]

    def test_missing_node_is_a_replay_error(self, engine_state):
        ledger, graph, config = engine_state
        ledger.append(
            Op.INSERT, formula="p", justification_digest=b"\x11" * 32, timestamp=0
        )
        with pytest.raises(ReplayError):
            replay(ledger, config, graph)

    def test_corrupt_ledger_refuses_replay(self, engine_state, tmp_path):
        path = tmp_path / "c.vlog"
        ledger = Ledger(path)
        graph = JustificationGraph()
        insert(ledger, graph, "p", 0)
        data = bytearray(path.read_bytes())
        data[0] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(LedgerCorruptionError):
            replay(Ledger(path), EngineConfig(), graph)

    def test_randomized_sequences_replay_byte_identically(self, engine_state):
        """Random insert/contract mixes: replay equals the live fold."""
        rng = random.Random(62023)
        texts = ["p", "q", "!p", "p -> q", "r", "!q", "q -> r", "!r"]
        for round_no in range(20):
            ledger, graph, config = Ledger(), JustificationGraph(), EngineConfig()
            live = BeliefBase()
            for step in range(rng.randrange(3, 12)):
                ts = step
                if rng.random() < 0.2 and live.entries:
                    target = rng.choice(live.entries).key
                    ledger.append(Op.CONTRACT, formula=target, timestamp=ts)
                else:
                    text = rng.choice(texts)
                    confidence = rng.choice([0.8, 0.95, 0.97, 0.99, 1.0])
                    insert(ledger, graph, text, ts, confidence)
                live = apply_block(live, ledger.blocks[-1], config, graph)
            assert export(replay(ledger, config, graph)) == export(live)


def ingest_ledger(count: int) -> tuple[Ledger, JustificationGraph]:
    """count insert blocks: 40 atoms, then implications between them,
    shuffled, with a quarter of them below the assertion gate."""
    rng = random.Random(2024)
    texts = [f"S{i}" for i in range(40)]
    pairs = [(i, j) for i in range(40) for j in range(40) if i != j]
    texts += [f"S{i} -> S{j}" for i, j in rng.sample(pairs, count - 40)]
    rng.shuffle(texts)
    ledger, graph = Ledger(), JustificationGraph()
    for ts, text in enumerate(texts):
        insert(ledger, graph, text, ts, 0.6 if ts % 4 == 0 else 0.97)
    return ledger, graph


def replayed_live_bytes(count: int) -> int:
    """Memory still allocated after replay, while the base is alive."""
    ledger, graph = ingest_ledger(count)
    gc.collect()
    tracemalloc.start()
    try:
        base = replay(ledger, EngineConfig(), graph)
        gc.collect()
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(base.entries) == count and len(base.history) == count + 1
    return live


class TestReplayScale:
    def test_replayed_base_memory_grows_linearly(self):
        """A fold shares its parent's trail, so the base's memory is
        linear in the blocks folded, not quadratic."""
        half, full = replayed_live_bytes(500), replayed_live_bytes(1000)
        assert full < 2.4 * half
        assert full < 3_000_000


class TestMerkle:
    def leaves(self, count: int) -> Ledger:
        ledger = Ledger()
        for ts in range(count):
            ledger.append(Op.META, formula=f"f{ts}", timestamp=ts)
        return ledger

    def manual_root(self, hashes: list[bytes]) -> bytes:
        """Reference fold: duplicate the odd node at every level."""
        level = list(hashes)
        while len(level) > 1:
            if len(level) % 2:
                level.append(level[-1])
            level = [
                hashlib.sha256(level[i] + level[i + 1]).digest()
                for i in range(0, len(level), 2)
            ]
        return level[0]

    def test_roots_match_reference_fold(self):
        for count in range(1, 10):
            ledger = self.leaves(count)
            expected = self.manual_root([b.h for b in ledger.blocks])
            assert merkle_root(ledger) == expected

    def test_single_leaf_root_is_the_leaf(self):
        ledger = self.leaves(1)
        assert merkle_root(ledger) == ledger.blocks[0].h

    def test_empty_ledger_root_is_zero(self):
        assert merkle_root(Ledger()) == ZERO_HASH

    def test_inclusion_proofs_verify_for_every_index(self):
        for count in (1, 2, 3, 5, 8):
            ledger = self.leaves(count)
            root = merkle_root(ledger)
            for index in range(count):
                proof = inclusion_proof(ledger, index)
                assert verify_inclusion(proof, root), (count, index)

    def test_mutated_leaf_fails(self):
        ledger = self.leaves(5)
        root = merkle_root(ledger)
        proof = inclusion_proof(ledger, 2)
        assert not verify_inclusion(replace(proof, leaf=b"\x01" * 32), root)

    def test_wrong_root_fails(self):
        ledger = self.leaves(5)
        proof = inclusion_proof(ledger, 2)
        assert not verify_inclusion(proof, b"\x02" * 32)

    def test_mutated_path_fails(self):
        ledger = self.leaves(5)
        root = merkle_root(ledger)
        proof = inclusion_proof(ledger, 2)
        bad_path = ((b"\x03" * 32, proof.path[0][1]),) + proof.path[1:]
        assert not verify_inclusion(replace(proof, path=bad_path), root)

    def test_forged_index_is_rejected(self):
        """A proof verifies under its own index and no other."""
        for count in range(1, 10):
            ledger = self.leaves(count)
            root = merkle_root(ledger)
            for index in range(count):
                proof = inclusion_proof(ledger, index)
                assert verify_inclusion(proof, root)
                for forged in range(-1, 2 * count + 3):
                    if forged != index:
                        assert not verify_inclusion(
                            replace(proof, index=forged), root
                        ), (count, index, forged)

    def test_path_sides_must_match_the_index(self):
        ledger = self.leaves(6)
        root = merkle_root(ledger)
        proof = inclusion_proof(ledger, 4)
        flip = {"left": "right", "right": "left"}
        for level in range(len(proof.path)):
            sibling, side = proof.path[level]
            path = list(proof.path)
            path[level] = (sibling, flip[side])
            assert not verify_inclusion(replace(proof, path=tuple(path)), root)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(IndexError):
            inclusion_proof(self.leaves(3), 3)


class TestTruthRecords:
    def test_sign_and_verify(self):
        ledger = Ledger()
        graph = JustificationGraph()
        insert(ledger, graph, "p", 0)
        key = generate_key()
        record = sign_truth_record(ledger, "p", 0, key)
        ok, reason = verify_truth_record(
            record, key.public_key(), merkle_root(ledger)
        )
        assert (ok, reason) == (True, None)

    def test_signature_covers_formula_and_timestamp(self):
        """The signed message is sha256(formula || 0x1F || timestamp)."""
        ledger = Ledger()
        graph = JustificationGraph()
        insert(ledger, graph, "p", 3)
        key = generate_key()
        record = sign_truth_record(ledger, "p", 3, key)
        message = hashlib.sha256(b"p\x1f3").digest()
        key.public_key().verify(record.signature, message)

    def test_wrong_key_names_the_signature_check(self):
        ledger = Ledger()
        graph = JustificationGraph()
        insert(ledger, graph, "p", 0)
        record = sign_truth_record(ledger, "p", 0, generate_key())
        ok, reason = verify_truth_record(
            record, generate_key().public_key(), merkle_root(ledger)
        )
        assert (ok, reason) == (False, "signature")

    def test_tampered_formula_breaks_the_signature(self):
        ledger = Ledger()
        graph = JustificationGraph()
        insert(ledger, graph, "p", 0)
        key = generate_key()
        record = sign_truth_record(ledger, "p", 0, key)
        forged = replace(record, formula="q")
        ok, reason = verify_truth_record(
            forged, key.public_key(), merkle_root(ledger)
        )
        assert (ok, reason) == (False, "signature")

    def test_stale_inclusion_names_the_inclusion_check(self):
        ledger = Ledger()
        graph = JustificationGraph()
        insert(ledger, graph, "p", 0)
        key = generate_key()
        record = sign_truth_record(ledger, "p", 0, key)
        insert(ledger, graph, "q", 1)
        ok, reason = verify_truth_record(
            record, key.public_key(), merkle_root(ledger)
        )
        assert (ok, reason) == (False, "inclusion")

    def test_unknown_formula_cannot_be_signed(self):
        with pytest.raises(ValueError):
            sign_truth_record(Ledger(), "p", 0, generate_key())

    def test_key_bytes_round_trip(self):
        key = generate_key()
        clone = load_private_key(private_key_bytes(key))
        message = hashlib.sha256(b"x").digest()
        key.public_key().verify(clone.sign(message), message)
