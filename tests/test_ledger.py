"""Hash-chained ledger: serialization, tampering, replay, Merkle, signing."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import os
import random
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_first_bad_block
from veritas.belief import BeliefBase, Provenance, StatusTag, export
from veritas.cli import main
from veritas.config import EngineConfig
from veritas import justify as justify_module
from veritas import ledger as ledger_module
from veritas.engine import Session
from veritas.justify import JustificationGraph
from veritas.ledger import (
    Ledger,
    LedgerCorruptionError,
    Op,
    ReplayError,
    ZERO_HASH,
    apply_block,
    block_line,
    block_payload,
    inclusion_proof,
    merkle_root,
    replay,
    verify_inclusion,
)
from veritas.logic import Atom, Or, parse, parser, render_canonical, sat, syntax


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
        h = Ledger().next_block(Op.INSERT, "p").h
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
        with Ledger(path) as ledger:
            for ts in range(5):
                ledger.append(Op.META, formula="p", timestamp=ts)
        reloaded = Ledger(path)
        assert reloaded.blocks == ledger.blocks
        assert reloaded.verify_chain() is None

    def test_blank_line_is_the_corrupt_block_at_its_index(self, tmp_path):
        path = tmp_path / "chain.vlog"
        with Ledger(path) as ledger:
            for ts in range(10):
                ledger.append(Op.META, formula="p", timestamp=ts)
        lines = path.read_bytes().splitlines(keepends=True)
        for index in range(len(lines) + 1):
            path.write_bytes(b"".join(lines[:index] + [b"\n"] + lines[index:]))
            assert Ledger(path).verify_chain() == index

    def test_garbage_after_a_blank_line_reports_the_blank_line(self, tmp_path):
        path = tmp_path / "chain.vlog"
        with Ledger(path) as ledger:
            for ts in range(3):
                ledger.append(Op.META, formula="p", timestamp=ts)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join([lines[0], b"\n", lines[1], b"garbage\n"]))
        assert Ledger(path).verify_chain() == 1
        path.write_bytes(b"".join([lines[0], lines[1], b"garbage\n", b"\n"]))
        assert Ledger(path).verify_chain() == 2

    def test_reloaded_ledger_extends_the_same_chain(self, tmp_path):
        path = tmp_path / "chain.vlog"
        with Ledger(path) as first:
            first.append(Op.META, timestamp=0)
        with Ledger(path) as second:
            block = second.append(Op.META, timestamp=1)
        assert block.h_prev == first.blocks[0].h
        assert Ledger(path).verify_chain() is None

    def test_every_single_byte_flip_is_caught_at_the_right_block(self, tmp_path):
        """Flip each byte of a 10-block file; sample positions densely."""
        path = tmp_path / "chain.vlog"
        with Ledger(path) as ledger:
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
    """Record the index of every block hash the ledger computes."""
    calls = []
    original = ledger_module.payload_hash

    def spy(payload):
        calls.append(int(payload.split(b"\x1f", 1)[0]))
        return original(payload)

    monkeypatch.setattr(ledger_module, "payload_hash", spy)
    return calls


def write_chain(path, count: int) -> bytes:
    with Ledger(path) as ledger:
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
        hashes.clear()
        with Ledger(path) as ledger:
            for ts in range(50, 100):
                ledger.append(Op.META, formula=f"m{ts}", timestamp=ts)
        # 50 to verify the chain as it is read, then one per new block;
        # re-verifying on every append would be 3,775.
        assert len(hashes) == 100
        assert sorted(hashes) == sorted([*range(50), *range(50, 100)])
        assert Ledger(path).verify_chain() is None

    def test_verified_ledger_appends_without_rehashing(self, tmp_path, hashes):
        path = tmp_path / "chain.vlog"
        write_chain(path, 50)
        with Ledger(path) as ledger:
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

    def test_a_commit_hashes_its_block_once(self, tmp_path, hashes):
        """A contraction and a rollback after three observations append
        three committed blocks and one META block: four hashes, where
        hashing each commit again in the append made seven.  An
        observation that revises learns its op from its fold before its
        block is hashed, so it too is hashed once."""
        config = EngineConfig(ledger_path=str(tmp_path / "s.vlog"), fixed_clock=True)
        with Session(config) as session:
            for text in ("p", "q", "r"):
                session.observe(text, 0.99, "sensor")
            hashes.clear()
            session.contract_formula("p")
            session.rollback(2)
            assert len(session.ledger) == 7
            assert hashes == [3, 4, 5, 6]
            assert session.observe("!q", 0.99, "sensor") == "revised"
            assert session.ledger.blocks[-1].op is Op.REVISE
        assert hashes == [3, 4, 5, 6, 7]
        assert Ledger(config.ledger_path).verify_chain() is None

    def test_append_block_refuses_a_block_that_does_not_extend_the_chain(self):
        ledger = Ledger()
        stale = ledger.next_block(Op.META, formula="a")
        ledger.append(Op.META, formula="b")
        with pytest.raises(ValueError, match="does not extend"):
            ledger.append_block(stale)
        assert [b.formula for b in ledger.blocks] == ["b"]
        assert ledger.verify_chain() is None

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
        with Ledger(path) as ledger:
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
        """A near miss of 64 lowercase hex digits, in any of a line's three
        hex fields, makes the line unreadable."""
        for position in range(3):
            fields = [b"0f" * 32] * 3
            fields[position] = field
            assert ledger_module._parse_line(hex_line(*fields)) is None

    @pytest.mark.parametrize(
        "field", [b"03", b"00", b"+3", b"-3", b" 3", b"3 ", b"3a", b"", "\u0663".encode()]
    )
    def test_strict_decimals_reject_near_misses(self, field):
        """An index or timestamp with a sign, a leading zero, a space or
        anything but ASCII digits makes the line unreadable."""
        for position in range(2):
            fields = hex_line(b"0f" * 32, b"1e" * 32, b"2d" * 32).split(b"\x1f")
            fields[position] = field
            assert ledger_module._parse_line(b"\x1f".join(fields)) is None

    def test_strict_hex_decodes_lowercase(self):
        block = ledger_module._parse_line(hex_line(b"0f" * 32, b"1e" * 32, b"2d" * 32))
        assert block.justification_digest == b"\x0f" * 32
        assert (block.h_prev, block.h) == (b"\x1e" * 32, b"\x2d" * 32)


def hex_line(digest: bytes, h_prev: bytes, h: bytes) -> bytes:
    """A META block line at index 0 with the given hex fields."""
    return b"\x1f".join((b"0", b"0", b"meta", b"", digest, h_prev, h))


def _swap_field(position: int, change):
    def mutate(line: bytes) -> bytes:
        fields = line.split(b"\x1f")
        fields[position] = change(fields[position])
        return b"\x1f".join(fields)

    return mutate


# Rewrites of one block line, each of which int(), fromhex() or a lenient
# split could read back as the same block; none is its serialization.
LINE_TAMPERS = {
    "zero-padded index": _swap_field(0, lambda f: b"0" + f),
    "zero-padded timestamp": _swap_field(1, lambda f: b"0" + f),
    "plus-signed index": _swap_field(0, lambda f: b"+" + f),
    "uppercase hex": _swap_field(6, bytes.upper),
    "63 hex digits": _swap_field(6, lambda f: f[:-1]),
    "65 hex digits": _swap_field(6, lambda f: f + b"0"),
    "op Insert": _swap_field(2, bytes.capitalize),
    "six fields": lambda line: line.rsplit(b"\x1f", 1)[0],
    "eight fields": lambda line: line + b"\x1f" + b"0" * 64,
    "non-UTF-8 formula": _swap_field(3, lambda f: f + b"\xff"),
    "trailing carriage return": lambda line: line + b"\r",
}


class TestLineIsItsSerialization:
    """A .vlog line is read only when its bytes are exactly what was
    hashed; every other spelling of a block is corruption at its index."""

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("store") / "chain.vlog"
        config = EngineConfig(ledger_path=str(path), fixed_clock=True)
        with Session(config) as session:
            for text in ("p", "q", "p -> r", "!s", "t"):
                session.observe(text, 0.99, "sensor")
        return path

    @pytest.mark.parametrize("tamper", sorted(LINE_TAMPERS))
    def test_a_respelled_line_is_corrupt(self, store, tmp_path, tamper, capsys):
        path = tmp_path / "chain.vlog"
        lines = store.read_bytes().split(b"\n")
        assert lines[3].startswith(b"3\x1f3\x1finsert\x1f")
        lines[3] = LINE_TAMPERS[tamper](lines[3])
        path.write_bytes(b"\n".join(lines))
        nodes = store.with_suffix(".nodes")
        (tmp_path / nodes.name).write_bytes(nodes.read_bytes())
        argv = ["--set", f"ledger_path={path}", "--set", "fixed_clock=true"]
        assert main([*argv, "ledger", "verify"]) == 4
        assert capsys.readouterr() == ("corrupt\t3\n", "")
        assert main([*argv, "query", "p"]) == 4
        out, err = capsys.readouterr()
        assert out == "" and err == "error\tledger\tledger corrupt at block 3\n"


# What an edit may put into a line: hex digits of both cases, the field
# separator, a newline, signs, a space, a NUL, a byte no UTF-8 text
# holds, and the two bytes of a UTF-8 character.
EDIT_BYTES = [bytes([c]) for c in b"0123456789abcdefABCDEF\x1f\n+- \x00\xff"]
EDIT_BYTES.append("é".encode())


def named_bad_block(path: Path) -> int | None:
    """The block ledger verify names in the file at path, or None."""
    try:
        Ledger(path).ensure_verified()
    except LedgerCorruptionError as err:
        return err.index
    return None


class TestDecoderAgainstTheReference:
    """Random edits of a real store's lines: opening the file names the
    first bad block that a field-by-field check with hashlib names, and
    an intact file's blocks, written back, are the file's bytes."""

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory) -> Path:
        """A store of inserts, a revision, a proof's META block and a
        contraction."""
        path = tmp_path_factory.mktemp("decoder") / "store.vlog"
        flags = ["--set", f"ledger_path={path}", "--set", "fixed_clock=true"]
        with contextlib.redirect_stdout(io.StringIO()):
            for text, p in (("p", "0.99"), ("p -> q", "0.97"), ("!p", "0.99"), ("r", "0.6")):
                assert main([*flags, "observe", text, "--p", p]) == 0
            proof = path.with_name("q.proof")
            assert main([*flags, "prove", "p -> q", "--out", str(proof)]) == 0
            assert main([*flags, "contract", "r"]) == 0
        return path

    def test_the_store_writes_back_to_its_bytes(self, store):
        data = store.read_bytes()
        assert reference_first_bad_block(data) is None
        assert b"".join(map(block_line, Ledger(store).blocks)) == data

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_an_edited_store_is_named_as_the_reference_names_it(self, store, data):
        lines = store.read_bytes().split(b"\n")[:-1]
        for _ in range(data.draw(st.integers(1, 3), "edits")):
            row = data.draw(st.integers(0, len(lines) - 1), "line")
            line = lines[row]
            # Field edges are where a lenient reader differs, so half
            # the edits land next to a separator or at an end.
            edges = [0, len(line)]
            for at, byte in enumerate(line):
                if byte == 0x1F:
                    edges += [max(at - 1, 0), at, at + 1]
            at = data.draw(
                st.sampled_from(edges) | st.integers(0, len(line)), "position"
            )
            byte = data.draw(st.sampled_from(EDIT_BYTES), "byte")
            kind = data.draw(st.sampled_from(["replace", "insert", "delete"]), "kind")
            if kind == "insert":
                lines[row] = line[:at] + byte + line[at:]
            else:
                lines[row] = line[:at] + (byte if kind == "replace" else b"") + line[at + 1:]
        edited = b"".join(line + b"\n" for line in lines)
        path = store.with_name("edited.vlog")
        path.write_bytes(edited)
        bad = reference_first_bad_block(edited)
        assert named_bad_block(path) == bad
        if bad is None:
            assert b"".join(map(block_line, Ledger(path).blocks)) == edited


@pytest.fixture
def engine_state():
    return Ledger(), JustificationGraph(), EngineConfig()


@pytest.fixture()
def fsyncs(monkeypatch):
    """Count every fsync; the ledger calls it through the os module."""
    calls = []
    original = os.fsync

    def spy(fd):
        calls.append(fd)
        return original(fd)

    monkeypatch.setattr(os, "fsync", spy)
    return calls


class TestBatch:
    """A batch writes the blocks appended inside it with one fsync."""

    def test_blocks_join_the_chain_at_once_and_the_file_on_exit(
        self, tmp_path, fsyncs
    ):
        path = tmp_path / "chain.vlog"
        with Ledger(path) as ledger:
            ledger.append(Op.META, formula="start")
            before = path.read_bytes()
            with ledger.batch():
                for ts in range(3):
                    ledger.append(Op.INSERT, formula=f"s{ts}", timestamp=ts)
                    assert ledger.contains_digest(ZERO_HASH)
                assert len(ledger) == 4
                assert path.read_bytes() == before
        assert len(fsyncs) == 2
        assert path.read_bytes() == b"".join(block_line(b) for b in ledger.blocks)
        assert Ledger(path).blocks == ledger.blocks

    def test_an_exception_still_writes_the_blocks_appended(self, tmp_path, fsyncs):
        path = tmp_path / "chain.vlog"
        with Ledger(path) as ledger, pytest.raises(RuntimeError):
            with ledger.batch():
                ledger.append(Op.META, formula="kept")
                raise RuntimeError("after the append")
        assert len(fsyncs) == 1
        assert [b.formula for b in Ledger(path).blocks] == ["kept"]

    def test_the_node_store_writes_at_the_exit_before_the_lines_are_written(
        self, tmp_path, fsyncs, monkeypatch
    ):
        """The store's write_new runs once per write of block lines,
        batched or not, before the file write; one that raises writes
        nothing, drops the batch's blocks from the chain and takes the
        store back to the mark it gave when the batch began."""
        path = tmp_path / "chain.vlog"
        events, marks = [], []
        append_all = ledger_module._append_all

        def spy_write(handle, data, end, sync=False):
            events.append(("write", data.count(b"\n")))
            return append_all(handle, data, end, sync)

        class Store:
            def mark(self):
                marks.append(("mark", len(ledger)))
                return len(ledger)

            def write_new(self):
                events.append(("hook", path.exists(), len(fsyncs)))
                if len(ledger) == 4:
                    raise OSError("node store full")

            def truncate(self, mark):
                marks.append(("truncate", mark))

        monkeypatch.setattr(ledger_module, "_append_all", spy_write)
        ledger = Ledger(path, Store())
        with ledger:
            with pytest.raises(RuntimeError):
                with ledger.batch():
                    ledger.append(Op.META, formula="kept")
                    ledger.append(Op.META, formula="also")
                    assert events == []
                    raise RuntimeError("after the append")
            assert events == [("hook", False, 0), ("write", 2)]
            ledger.append(Op.META, formula="alone")
            assert events[2:] == [("hook", True, 1), ("write", 1)]
            with pytest.raises(OSError, match="node store full"):
                ledger.append(Op.META, formula="refused")
        assert events[4:] == [("hook", True, 2)] and len(fsyncs) == 2
        assert marks == [("mark", 0), ("mark", 2), ("mark", 3), ("truncate", 3)]
        assert [b.formula for b in ledger.blocks] == ["kept", "also", "alone"]
        assert Ledger(path).blocks == ledger.blocks

    def test_an_empty_batch_opens_nothing(self, tmp_path, fsyncs):
        path = tmp_path / "chain.vlog"
        with Ledger(path).batch():
            pass
        assert fsyncs == [] and not path.exists()

    def test_a_nested_batch_joins_the_outer_one(self, tmp_path, fsyncs):
        path = tmp_path / "chain.vlog"
        with Ledger(path) as ledger, ledger.batch():
            ledger.append(Op.META, formula="outer")
            with ledger.batch():
                ledger.append(Op.META, formula="inner")
            assert not path.exists()
            ledger.append(Op.META, formula="last")
        assert len(fsyncs) == 1
        assert [b.formula for b in Ledger(path).blocks] == ["outer", "inner", "last"]

    def test_an_in_memory_batch_only_appends(self, fsyncs):
        ledger = Ledger()
        with ledger.batch():
            ledger.append(Op.META, formula="m")
        assert len(ledger) == 1 and fsyncs == []
        assert ledger.verify_chain() is None


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
        """Replay folds each node's parsed conclusion instead of re-parsing:
        the graph's formula table, which parses a block's text, parses
        nothing."""
        ledger, graph, config = engine_state
        for ts, text in enumerate(["p", "p -> q", "!q", "r | s"]):
            insert(ledger, graph, text, ts)
        expected = export(replay(ledger, config, graph))
        parsed = []
        monkeypatch.setattr(
            justify_module, "parse", lambda text: parsed.append(text) or parse(text)
        )
        base = replay(ledger, config, graph)
        assert parsed == [] and export(base) == expected
        assert all(
            e.formula is graph.get(e.justification).conclusion
            for e in base.entries
        )

    @pytest.mark.parametrize(
        "op", [Op.INSERT, Op.RECOVERY], ids=["insert", "recovery"]
    )
    def test_block_text_unlike_its_node_is_refused(self, engine_state, op):
        """A block folds its node's conclusion, so a block whose text
        is another formula's names the wrong node."""
        ledger, graph, config = engine_state
        node_id = observation(graph, "p", 0)
        ledger.append(
            op,
            formula="q",
            justification_digest=bytes.fromhex(node_id),
            timestamp=0,
        )
        with pytest.raises(ReplayError, match=f"block 0 names node {node_id}"):
            replay(ledger, config, graph)

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
        graph = JustificationGraph()
        with Ledger(path) as ledger:
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


class TestColdLoad:
    """Opening a store reads each node's conclusion once: one parse, at
    most one walk of the tree to render it, one compile.  An atom or a
    two-atom rule keeps the canonical text it was read from, so it is
    never walked."""

    def test_each_conclusion_renders_and_compiles_once(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "store.vlog"
        texts = [f"S{i}" for i in range(8)]
        texts += [f"S{i} -> S{(3 * i + 1) % 8}" for i in range(8)]
        texts += [f"(S{i} & S{i + 1}) | !T{i}" for i in range(6)]
        config = EngineConfig(ledger_path=str(path), fixed_clock=True)
        with Session(config) as session:
            for text in texts:
                session.observe(text, 0.97, "sensor")
            expected = export(session.base)

        walks, compiles = [], []
        render, compile_ = syntax._render, sat._compile

        def spy_render(formula):
            walks.append(formula)
            return render(formula)

        def spy_compile(formula):
            compiles.append(formula)
            return compile_(formula)

        monkeypatch.setattr(syntax, "_render", spy_render)
        monkeypatch.setattr(sat, "_compile", spy_compile)
        with Session(config) as session:
            assert export(session.base) == expected
            conclusions = [node.conclusion for node in session.graph.all_nodes()]
        assert len({render_canonical(c) for c in conclusions}) == len(texts)
        for conclusion in conclusions:
            assert sum(f is conclusion for f in compiles) == 1
            walked = sum(f is conclusion for f in walks)
            assert walked == (1 if isinstance(conclusion, Or) else 0)

    def test_a_cold_read_ledger_replays_without_the_general_routes(
        self, tmp_path, monkeypatch
    ):
        """A fresh session on an 80-line ledger built as the cold-read
        benchmark builds it (atoms and two-atom rules) parses every
        conclusion with one match and compiles it by its shape: the
        tokenizer's precedence loop never runs, and no walk is built."""
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        from workloads import COLD_LINES, ingest_stream

        lines, _ = ingest_stream(921, COLD_LINES)
        config = EngineConfig(ledger_path=str(tmp_path / "bench.vlog"), fixed_clock=True)
        with Session(config) as session:
            assert session.run_loop(lines, io.StringIO(), io.StringIO()) == 0
            expected = export(session.base)

        tokenized, walked = [], []
        formula, walk = parser._formula, sat._Walk

        def spy_formula(tokens):
            tokenized.append(tokens)
            return formula(tokens)

        def spy_walk(f):
            walked.append(f)
            return walk(f)

        monkeypatch.setattr(parser, "_formula", spy_formula)
        monkeypatch.setattr(sat, "_Walk", spy_walk)
        with Session(config) as session:
            assert export(session.base) == expected
            assert len(session.graph) == COLD_LINES
        assert tokenized == [] and walked == []


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
