"""Shell behavior: output lines, exit codes, and on-disk artifacts."""

from __future__ import annotations

import argparse
import builtins
import contextlib
import dataclasses
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import reference_first_bad_block
from test_engine import FullDisk

import veritas
import veritas.cli
import veritas.engine
import veritas.ledger
import veritas.logic.parser
from veritas.belief import export
from veritas.cli import main
from veritas.config import EngineConfig, ThetaRangeWarning, load_config
from veritas.belief import Provenance
from veritas.engine import Session
from veritas.justify import node_digest
from veritas.ledger import Ledger, LedgerCorruptionError, Op
from veritas.logic import parse
from veritas.logic.parser import MAX_DEPTH

DOMAINS = Path(__file__).parent / "domains"


@pytest.fixture()
def cli(tmp_path, monkeypatch, capsys):
    """Invoke the entry point inside a scratch working directory."""
    monkeypatch.chdir(tmp_path)

    def invoke(*argv: str):
        code = main(["--set", "fixed_clock=true", *argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


class TestObserveAndQuery:
    def test_entailment_after_two_observations(self, cli):
        code, out, _ = cli("observe", "p", "--p", "0.99", "--source", "sensor")
        assert code == 0
        assert out == "admitted\tp\n"
        code, out, _ = cli("observe", "p -> q", "--p", "0.99", "--source", "kb")
        assert code == 0
        code, out, _ = cli("query", "q")
        assert code == 0
        assert out == "entailed\tp=0.99\ttier=5\tstate=Committed\n"

    def test_malformed_formula_is_a_usage_error(self, cli):
        code, _, err = cli("observe", "p -> ", "--p", "0.9")
        assert code == 2
        assert err.startswith("error\tparse\t")

    def test_formula_nested_past_the_limit_is_a_parse_error(self, cli, tmp_path):
        """3,000 "!" before an atom: exit 2, one error line, no file
        written, whether or not a ledger exists."""
        deep = "!" * 3000 + "p"
        want = f"error\tparse\tformula nests deeper than {MAX_DEPTH} at offset 0\n"
        assert cli("observe", deep, "--p", "0.9") == (2, "", want)
        assert not (tmp_path / "veritas.vlog").exists()
        assert not (tmp_path / "veritas.nodes").exists()
        cli("observe", "p", "--p", "0.99")
        files = [(tmp_path / name).read_bytes() for name in ("veritas.vlog", "veritas.nodes")]
        assert cli("observe", deep, "--p", "0.9") == (2, "", want)
        assert cli("query", deep) == (2, "", want)
        assert [(tmp_path / name).read_bytes() for name in ("veritas.vlog", "veritas.nodes")] == files

    def test_stored_formula_past_the_limit_reaches_a_limit(
        self, cli, tmp_path, monkeypatch
    ):
        """A ledger written without the limit (as earlier versions did)
        that holds a formula nested deeper than MAX_DEPTH is intact, not
        damaged: ledger verify passes, and a command that reads the
        formula back exits 7 with one limit line, not 4."""
        deep = "!" * (MAX_DEPTH + 1) + "p"
        too_deep = f"formula nests deeper than {MAX_DEPTH} at offset 0"
        with monkeypatch.context() as unlimited:
            unlimited.setattr(veritas.logic.parser, "MAX_DEPTH", 10 * MAX_DEPTH)
            assert cli("observe", "q", "--p", "0.9")[0] == 0
            assert cli("contract", deep)[0] == 0
        assert cli("ledger", "verify") == (0, "ok\t2\n", "")
        assert cli("query", "q") == (7, "", f"error\tlimit\tblock 1: {too_deep}\n")
        with monkeypatch.context() as unlimited:
            unlimited.setattr(veritas.logic.parser, "MAX_DEPTH", 10 * MAX_DEPTH)
            assert cli("observe", deep, "--p", "0.9")[0] == 0
        assert cli("ledger", "verify") == (0, "ok\t3\n", "")
        want = (7, "", f"error\tlimit\tnode store line 2: {too_deep}\n")
        assert cli("query", "q") == want
        assert cli("ledger", "replay") == want

    def test_self_contradiction_is_refused(self, cli):
        code, out, err = cli("observe", "p & !p", "--p", "0.99")
        assert (code, out) == (3, "")
        assert err == "error\trefused\tobservation is self-contradictory: (p & (! p))\n"

    def test_resource_limit_has_its_own_exit_code(self, cli):
        """A revision over the remainder cap exits 7 and appends no block."""
        cli("observe", "p", "--p", "0.99")
        for i in range(16):
            cli("observe", f"p -> q{i}", "--p", "0.99")
        code, out, err = cli("observe", "!p", "--p", "0.99")
        assert code == 7
        assert out == ""
        assert err.startswith("error\tlimit\t")
        assert err.count("\n") == 1 and "Traceback" not in err
        code, out, _ = cli("ledger", "verify")
        assert (code, out) == (0, "ok\t17\n")
        code, out, _ = cli("query", "q15")
        assert code == 0 and out.startswith("entailed\t")

    def test_contracting_a_tautology_is_refused(self, cli):
        code, _, err = cli("contract", "p | !p")
        assert code == 3
        assert err.startswith("error\trefused\t")

    def test_missing_probability_flag_is_a_usage_error(self, cli):
        code, _, _ = cli("observe", "p")
        assert code == 2

    def test_unknown_config_key_is_a_usage_error(self, cli):
        code, _, err = cli("--set", "bogus=1", "query", "p")
        assert code == 2
        assert err.startswith("error\tusage\t")


class TestJustifyAndProve:
    def test_justify_prints_chain_and_digest(self, cli):
        cli("observe", "p", "--p", "0.99", "--source", "sensor")
        code, out, _ = cli("justify", "p")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "observation\tp"
        assert lines[-1].startswith("digest\t")

    def test_justify_without_support_fails(self, cli):
        code, _, err = cli("justify", "r")
        assert code == 1
        assert err.startswith("error\tjustify\t")

    def test_prove_then_verify_round_trips(self, cli, tmp_path):
        cli("observe", "p", "--p", "0.99")
        cli("observe", "p -> q", "--p", "0.97")
        code, out, _ = cli("prove", "q", "--out", "q.proof")
        assert code == 0
        assert (tmp_path / "q.proof").exists()
        code, out, _ = cli("verify-proof", "q.proof")
        assert code == 0
        assert out == "ok\n"

    def test_prove_refuses_what_query_does_not_entail(self, cli, tmp_path):
        """A formula held below the gate is no answer: prove exits 1 and
        writes no file, block or node, while justify still prints the
        held entry's record."""
        assert cli("observe", "q", "--p", "0.6") == (0, "stored-non-assertable\tq\n", "")
        assert cli("query", "q") == (
            0, "not-entailed\tp=0.6\ttier=2\tstate=Uncertain\n", ""
        )
        stores = [tmp_path / name for name in ("veritas.vlog", "veritas.nodes")]
        before = [path.read_bytes() for path in stores]
        assert cli("prove", "q", "--out", "q.proof") == (
            1, "", "error\tjustify\tnot entailed: q\n"
        )
        assert [path.read_bytes() for path in stores] == before
        assert not (tmp_path / "q.proof").exists()
        assert cli("ledger", "verify") == (0, "ok\t1\n", "")
        code, out, _ = cli("justify", "q")
        assert code == 0
        assert out.splitlines()[0] == "observation\tq"
        assert out.splitlines()[-1].startswith("digest\t")

    def test_tampered_proof_file_is_rejected(self, cli, tmp_path):
        cli("observe", "p", "--p", "0.99")
        cli("prove", "p", "--out", "p.proof")
        text = (tmp_path / "p.proof").read_text()
        (tmp_path / "p.proof").write_text(text.replace('"p"', '"q"'))
        code, out, _ = cli("verify-proof", "p.proof")
        assert code == 1
        assert out.startswith("reject\t")

    def test_foreign_proof_is_not_anchored(self, cli, tmp_path):
        cli("observe", "p", "--p", "0.99")
        cli("prove", "p", "--out", "p.proof")
        code, out, _ = cli(
            "--set", "ledger_path=other.vlog", "verify-proof", "p.proof"
        )
        assert code == 1
        assert out == "reject\tnot anchored\n"


def set_field(name: str, value):
    def edit(proof: dict):
        proof[name] = value
        return proof

    return edit


def drop_field(name: str):
    def edit(proof: dict):
        del proof[name]
        return proof

    return edit


class TestMalformedProofFile:
    """A proof file that is not a proof object exits 2 with one error line."""

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda proof: {"digest": "00"}, "proof lacks field 'conclusion'"),
            (lambda proof: [1], "proof is not a JSON object"),
            (set_field("chain", 5), "proof field 'chain' has the wrong type"),
            (set_field("conclusion", 3), "proof field 'conclusion' has the wrong type"),
            (lambda proof: "proof", "proof is not a JSON object"),
            (lambda proof: None, "proof is not a JSON object"),
            (drop_field("conclusion"), "proof lacks field 'conclusion'"),
            (drop_field("digest"), "proof lacks field 'digest'"),
            (drop_field("chain"), "proof lacks field 'chain'"),
            (set_field("digest", 7), "proof field 'digest' has the wrong type"),
            (set_field("chain", {}), "proof field 'chain' has the wrong type"),
        ],
        ids=[
            "missing-fields", "not-an-object", "chain-not-a-list",
            "conclusion-not-text", "a-string", "null", "no-conclusion",
            "no-digest", "no-chain", "digest-not-text", "chain-an-object",
        ],
    )
    def test_exits_two(self, cli, tmp_path, damage, message):
        cli("observe", "p", "--p", "0.99")
        cli("prove", "p", "--out", "p.proof")
        proof = json.loads((tmp_path / "p.proof").read_text())
        (tmp_path / "p.proof").write_text(json.dumps(damage(proof)))
        code, out, err = cli("verify-proof", "p.proof")
        assert (code, out) == (2, "")
        assert err == f"error\tusage\t{message}\n"


class TestLedgerCommands:
    def test_verify_reports_block_count(self, cli):
        cli("observe", "p", "--p", "0.99")
        cli("observe", "q", "--p", "0.99")
        code, out, _ = cli("ledger", "verify")
        assert code == 0
        assert out == "ok\t2\n"

    def test_tampering_is_caught_at_the_first_bad_block(self, cli, tmp_path):
        cli("observe", "p", "--p", "0.99")
        cli("observe", "q", "--p", "0.99")
        cli("observe", "r", "--p", "0.99")
        path = tmp_path / "veritas.vlog"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b"q", b"z", 1)
        path.write_bytes(b"".join(lines))
        code, out, _ = cli("ledger", "verify")
        assert code == 4
        assert out == "corrupt\t1\n"

    def test_corrupt_ledger_blocks_other_commands(self, cli, tmp_path):
        cli("observe", "p", "--p", "0.99")
        path = tmp_path / "veritas.vlog"
        raw = path.read_bytes()
        path.write_bytes(raw[:20] + b"!" + raw[21:])
        code, _, err = cli("query", "p")
        assert code == 4
        assert err.startswith("error\tledger\t")

    def test_replay_prefix_matches_history(self, cli):
        cli("observe", "p", "--p", "0.99")
        cli("observe", "q", "--p", "0.97")
        code, out, _ = cli("ledger", "replay", "--to", "1")
        assert code == 0
        assert "p" in out
        assert "q" not in out
        code, full, _ = cli("ledger", "replay")
        assert "q" in full

    def test_replay_output_matches_a_fresh_session(self, cli, tmp_path):
        cli("observe", "p", "--p", "0.99")
        cli("observe", "p -> q", "--p", "0.97")
        cli("contract", "p")
        code, out, _ = cli("ledger", "replay")
        assert code == 0
        config = load_config(
            fixed_clock=True, ledger_path=str(tmp_path / "veritas.vlog")
        )
        with Session(config) as session:
            assert out == export(session.base)


# (block, field, how) for every field of three blocks, then damages to
# the file's lines.  A field respelt is still a readable line whose hash
# no longer matches; one made unreadable fails the line's syntax.  A
# forged line hashes right but links to the wrong block or names the
# wrong index.
TAMPERS = [
    (block, field, how)
    for block in (0, 17, 49)
    for field in range(7)
    for how in ("respelt", "unreadable")
] + [
    (18, None, "blank line"),
    (50, None, "garbage tail"),
    (49, None, "cut last line"),
    (17, None, "dropped line"),
    (17, None, "swapped lines"),
    (17, None, "forged link"),
    (49, None, "forged index"),
    (17, 3, "respelt, then garbage tail"),
]


def tamper(pristine: bytes, block: int, field: int | None, how: str) -> bytes:
    lines = pristine.split(b"\n")
    if how == "blank line":
        return b"\n".join(lines[:block] + [b""] + lines[block:])
    if how == "garbage tail":
        return pristine + b"garbage"
    if how == "cut last line":
        return pristine[:-10]
    if how == "dropped line":
        return b"\n".join(lines[:block] + lines[block + 1:])
    if how == "swapped lines":
        lines[block], lines[block + 1] = lines[block + 1], lines[block]
        return b"\n".join(lines)
    if how.startswith("forged"):
        fields = lines[block].split(b"\x1f")
        if how == "forged link":
            fields[5] = lines[block - 2].split(b"\x1f")[6]
        else:
            fields[0] = str(block + 1).encode()
        payload = b"\x1f".join(fields[:6])
        lines[block] = payload + b"\x1f" + hashlib.sha256(payload).hexdigest().encode()
        return b"\n".join(lines)
    if how == "respelt, then garbage tail":
        return tamper(pristine, block, field, "respelt") + b"garbage"
    fields = lines[block].split(b"\x1f")
    value = fields[field]
    if how == "unreadable":
        # A letter in a number, an unknown op, bytes that are not UTF-8,
        # a 65th hex digit.
        value += {0: b"a", 1: b"a", 2: b"!", 3: b"\xff"}.get(field, b"0")
    elif field == 2:
        value = b"meta" if value != b"meta" else b"insert"
    elif field == 3:
        value = value[:-1] + (b"x" if value[-1:] != b"x" else b"y")
    else:
        digits = b"0123456789" if field < 2 else b"0123456789abcdef"
        value = value[:-1] + bytes([digits[(digits.index(value[-1]) + 1) % len(digits)]])
    fields[field] = value
    lines[block] = b"\x1f".join(fields)
    return b"\n".join(lines)


def flip_last_byte(value: bytes) -> bytes:
    return value[:-1] + bytes([value[-1] ^ 1])


# One edit of each Block field, as a function of the block held.
FIELD_EDITS = {
    "index": lambda b: b.index + 1,
    "timestamp": lambda b: b.timestamp + 1,
    "op": lambda b: Op.META if b.op is not Op.META else Op.INSERT,
    "formula": lambda b: b.formula + "\x1f\n",
    "justification_digest": lambda b: flip_last_byte(b.justification_digest),
    "h_prev": lambda b: flip_last_byte(b.h_prev),
    "h": lambda b: flip_last_byte(b.h),
}


@pytest.fixture(scope="module")
def fifty_blocks(tmp_path_factory):
    """A 50-block ledger, its node store and a proof of q it anchors."""
    work = tmp_path_factory.mktemp("fifty")
    flags = ["--set", "fixed_clock=true", "--set", f"ledger_path={work / 'veritas.vlog'}"]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        for text in ["p", "p -> q", *(f"s{i}" for i in range(47))]:
            assert main([*flags, "observe", text, "--p", "0.99"]) == 0
        assert main([*flags, "prove", "q", "--out", str(work / "q.proof")]) == 0
    return {name: (work / name).read_bytes() for name in ("veritas.vlog", "veritas.nodes", "q.proof")}


class TestLoadTimeHash:
    """Opening a ledger hashes each line over the bytes it was read
    from.  Every damage is still named at the index an independent
    field-by-field check with hashlib names, by ledger verify and by the
    commands that open a session."""

    def test_the_ledger_has_fifty_blocks(self, fifty_blocks):
        assert fifty_blocks["veritas.vlog"].count(b"\n") == 50
        assert reference_first_bad_block(fifty_blocks["veritas.vlog"]) is None

    @pytest.mark.parametrize("block, field, how", TAMPERS)
    def test_damage_is_named_at_the_same_index(
        self, cli, tmp_path, fifty_blocks, block, field, how
    ):
        for name, data in fifty_blocks.items():
            (tmp_path / name).write_bytes(data)
        damaged = tamper(fifty_blocks["veritas.vlog"], block, field, how)
        assert damaged != fifty_blocks["veritas.vlog"]
        (tmp_path / "veritas.vlog").write_bytes(damaged)
        index = reference_first_bad_block(damaged)
        assert index == block
        assert cli("ledger", "verify") == (4, f"corrupt\t{index}\n", "")
        error = f"error\tledger\tledger corrupt at block {index}\n"
        assert cli("query", "q") == (4, "", error)
        assert cli("verify-proof", "q.proof") == (4, "", error)
        assert (tmp_path / "veritas.vlog").read_bytes() == damaged

    def test_an_edit_in_memory_after_load_is_refused(self, tmp_path, fifty_blocks):
        path = tmp_path / "veritas.vlog"
        path.write_bytes(fifty_blocks["veritas.vlog"])
        ledger = Ledger(path)
        ledger._blocks[17] = dataclasses.replace(ledger._blocks[17], timestamp=99)
        with pytest.raises(LedgerCorruptionError) as err:
            ledger.append(Op.META)
        assert err.value.index == 17
        assert ledger.verify_chain() == 17
        assert path.read_bytes() == fifty_blocks["veritas.vlog"]

    @pytest.mark.parametrize("block", [0, 17, 49])
    @pytest.mark.parametrize("field", list(FIELD_EDITS))
    def test_each_field_edited_in_memory_is_named(
        self, tmp_path, fifty_blocks, block, field
    ):
        """An edit to any field of a loaded block, a formula with a unit
        separator and a newline too, is named at that block by
        verify_chain and by append, which writes nothing."""
        path = tmp_path / "veritas.vlog"
        path.write_bytes(fifty_blocks["veritas.vlog"])
        ledger = Ledger(path)
        held = ledger._blocks[block]
        assert set(FIELD_EDITS) == {f.name for f in dataclasses.fields(held)}
        edited = dataclasses.replace(held, **{field: FIELD_EDITS[field](held)})
        assert edited != held
        ledger._blocks[block] = edited
        assert ledger.verify_chain() == block
        with pytest.raises(LedgerCorruptionError) as err:
            ledger.append(Op.META)
        assert err.value.index == block
        assert path.read_bytes() == fifty_blocks["veritas.vlog"]


def count_calls(monkeypatch, calls: list, module, name: str) -> None:
    """Record every call of module.name in calls, by name."""
    original = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)


class TestLazyOpen:
    """Commands read the node store and replay only when they use them."""

    def test_missing_node_store_is_ledger_damage(self, cli, tmp_path):
        cli("observe", "p", "--p", "0.99")
        cli("prove", "p", "--out", "p.proof")
        (tmp_path / "veritas.nodes").unlink()
        code, out, err = cli("query", "p")
        assert (code, out) == (4, "")
        assert err.startswith("error\tledger\tblock 0 references unknown node ")
        assert err.count("\n") == 1 and "Traceback" not in err
        code, out, _ = cli("verify-proof", "p.proof")
        assert (code, out) == (0, "ok\n")

    def test_cold_verify_proof_replays_nothing(self, cli, monkeypatch):
        cli("observe", "p", "--p", "0.99")
        cli("observe", "p -> q", "--p", "0.97")
        cli("prove", "q", "--out", "q.proof")
        calls, opened = [], []
        count_calls(monkeypatch, calls, veritas.engine, "replay")
        count_calls(monkeypatch, calls, veritas.ledger, "apply_block")
        real_open = open

        def open_spy(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", open_spy)
        code, out, _ = cli("verify-proof", "q.proof")
        assert (code, out) == (0, "ok\n")
        assert calls == []
        assert not [name for name in opened if name.endswith(".nodes")]

    def test_ledger_replay_to_n_replays_once(self, cli, monkeypatch):
        for atom in ("p", "q", "r"):
            cli("observe", atom, "--p", "0.99")
        calls = []
        count_calls(monkeypatch, calls, veritas.engine, "replay")
        count_calls(monkeypatch, calls, veritas.cli, "replay")
        code, out, _ = cli("ledger", "replay", "--to", "2")
        assert (code, calls) == (0, ["replay"])
        assert [line.split("\t")[1] for line in out.splitlines()] == ["p", "q"]

    def test_cold_query_hashes_each_block_once(self, cli, monkeypatch):
        for atom in ("p", "q", "r", "s", "t"):
            cli("observe", atom, "--p", "0.99")
        hashed = []
        original = veritas.ledger.payload_hash

        def spy(payload):
            hashed.append(int(payload.split(b"\x1f", 1)[0]))
            return original(payload)

        monkeypatch.setattr(veritas.ledger, "payload_hash", spy)
        code, out, _ = cli("query", "p")
        assert code == 0 and out.startswith("entailed\t")
        assert hashed == [0, 1, 2, 3, 4]

    def test_corrupt_chain_still_exits_four_for_verify_proof(self, cli, tmp_path):
        cli("observe", "p", "--p", "0.99")
        cli("prove", "p", "--out", "p.proof")
        path = tmp_path / "veritas.vlog"
        raw = path.read_bytes()
        path.write_bytes(raw[:20] + b"!" + raw[21:])
        code, out, err = cli("verify-proof", "p.proof")
        assert (code, out) == (4, "")
        assert err == "error\tledger\tledger corrupt at block 0\n"


def drop_rule(lines: list[str]) -> list[str]:
    node = json.loads(lines[0])
    del node["rule"]
    return [json.dumps(node) + "\n", *lines[1:]]


def bad_json(lines: list[str]) -> list[str]:
    return [lines[0][:-5] + "\n", *lines[1:]]


def wrong_id(lines: list[str]) -> list[str]:
    node = json.loads(lines[0])
    node["source"] = "forged"
    return [json.dumps(node) + "\n", *lines[1:]]


def unknown_premise(lines: list[str]) -> list[str]:
    return lines[1:]


def blank_line(lines: list[str]) -> list[str]:
    return [*lines, "\n"]


def unsound_step(lines: list[str]) -> list[str]:
    """The entailment node concludes r instead of q, under a matching id."""
    node = json.loads(lines[2])
    node["conclusion"] = "r"
    provenance = Provenance(node["source"], node["timestamp"], node["confidence"])
    node["id"] = node_digest(parse("r"), node["rule"], node["premises"], provenance)
    return [*lines[:2], json.dumps(node) + "\n", *lines[3:]]


class TestNodeStoreDamage:
    """Every malformed node-store line is ledger damage: exit 4."""

    @pytest.mark.parametrize(
        "damage, reason",
        [
            (drop_rule, "node store line 1: node lacks field 'rule'"),
            (bad_json, "node store line 1: "),
            (wrong_id, "node store line 1: node id "),
            (unknown_premise, "node store line 2: unknown premise "),
            (unsound_step, "node store line 3: premises do not entail r"),
            (blank_line, "node store line 4: "),
        ],
    )
    def test_damaged_line_exits_four(self, cli, tmp_path, damage, reason):
        cli("observe", "p", "--p", "0.99")
        cli("observe", "p -> q", "--p", "0.97")
        assert cli("prove", "q", "--out", "q.proof")[0] == 0
        nodes = tmp_path / "veritas.nodes"
        lines = nodes.read_text().splitlines(keepends=True)
        assert len(lines) == 3
        nodes.write_text("".join(damage(lines)))
        code, out, err = cli("query", "q")
        assert (code, out) == (4, "")
        assert err.startswith("error\tledger\t" + reason)
        assert err.count("\n") == 1 and "Traceback" not in err
        # The store line is the only line named, json's own count too.
        assert err.count("line") == 1
        code, out, _ = cli("verify-proof", "q.proof")
        assert (code, out) == (0, "ok\n")

    def test_a_line_that_is_not_utf8_is_named_by_its_line_and_column(
        self, cli, tmp_path
    ):
        """A byte that is not UTF-8 is damage on the line it sits on,
        at its column there, not at its offset in the file."""
        cli("observe", "p", "--p", "0.99")
        cli("observe", "p -> q", "--p", "0.97")
        nodes = tmp_path / "veritas.nodes"
        first, second, end = nodes.read_bytes().split(b"\n")
        nodes.write_bytes(b"\n".join((first, second[:10] + b"\xff" + second[11:], end)))
        assert cli("query", "q") == (
            4,
            "",
            "error\tledger\tnode store line 2: invalid UTF-8 at column 11\n",
        )

    def test_a_run_of_an_empty_stream_reads_no_node_store(self, cli, tmp_path):
        """run on an empty stream writes only its session-start block, so
        a damaged store is never read, even by the hook that writes new
        nodes before block lines."""
        cli("observe", "p", "--p", "0.99")
        (tmp_path / "veritas.nodes").write_text("{not a node\n")
        stream = tmp_path / "empty.tsv"
        stream.write_text("")
        assert cli("run", "--stream", str(stream)) == (0, "", "")
        assert cli("ledger", "verify") == (0, "ok\t2\n", "")
        assert cli("query", "p")[0] == 4


class TestFailedWrite:
    """A command whose fsynced block write fails exits 8 and leaves both
    files byte for byte as they were, so the chain still verifies."""

    @pytest.mark.parametrize(
        "setup, command",
        [
            (["p"], ("observe", "p -> q", "--p", "0.97")),
            (["p", "p -> q"], ("prove", "q", "--out", "q.proof")),
        ],
        ids=["observe", "prove"],
    )
    def test_a_failed_write_changes_no_byte(
        self, cli, tmp_path, monkeypatch, setup, command
    ):
        for text in setup:
            assert cli("observe", text, "--p", "0.99")[0] == 0
        files = [tmp_path / "veritas.vlog", tmp_path / "veritas.nodes"]
        before = [path.read_bytes() for path in files]
        append_all, failed = veritas.ledger._append_all, []

        def full_once(handle, data, end, sync=False):
            if sync and not failed:
                failed.append(data)
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return append_all(handle, data, end, sync)

        monkeypatch.setattr(veritas.ledger, "_append_all", full_once)
        code, out, err = cli(*command)
        assert (code, out) == (8, "") and failed
        assert err == f"error\tio\tveritas.vlog: {os.strerror(errno.ENOSPC)}\n"
        assert [path.read_bytes() for path in files] == before
        assert cli("ledger", "verify") == (0, f"ok\t{len(setup)}\n", "")


def _full_disk(name):
    """Arrange that the first write through the append handle on the
    store file name stores half its bytes and fails (FullDisk)."""

    def arrange(patch):
        opener = builtins.open

        def flaky_open(file, mode="r", *args, **kwargs):
            handle = opener(file, mode, *args, **kwargs)
            if os.fspath(file) == name and "a" in mode:
                return FullDisk(handle, 1)
            return handle

        patch.setattr(builtins, "open", flaky_open)

    return arrange


def _failing_fsync(patch):
    def fsync(fd):
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    patch.setattr(os, "fsync", fsync)


def _directory(name):
    """Arrange that name, a file veritas opens, is a directory."""
    return lambda patch: os.mkdir(name)


_OBSERVE_RULE = ("observe", "p -> q", "--p", "0.97")


class TestStoreIO:
    """Where an I/O error starts decides its exit code.  Opening,
    reading, writing or fsyncing a store file (the ledger, its node
    store, its lock) exits 8 with one error line naming the file, and a
    failed write changes no byte of either file; a file the user names
    (a stream, a proof, a config, a domain, an output) is bad input,
    exit 2."""

    # origin, observations before, arrangement, command, file, errno
    STORE = [
        ("vlog-write", ["p"], _full_disk("veritas.vlog"), _OBSERVE_RULE,
         "veritas.vlog", errno.ENOSPC),
        ("nodes-write", ["p"], _full_disk("veritas.nodes"), _OBSERVE_RULE,
         "veritas.nodes", errno.ENOSPC),
        ("vlog-fsync", ["p"], _failing_fsync, _OBSERVE_RULE,
         "veritas.vlog", errno.EIO),
        ("prove-vlog-write", ["p", "p -> q"], _full_disk("veritas.vlog"),
         ("prove", "q", "--out", "q.proof"), "veritas.vlog", errno.ENOSPC),
        ("prove-nodes-write", ["p", "p -> q"], _full_disk("veritas.nodes"),
         ("prove", "q", "--out", "q.proof"), "veritas.nodes", errno.ENOSPC),
        ("vlog-read", [], _directory("veritas.vlog"), ("query", "p"),
         "veritas.vlog", errno.EISDIR),
        ("verify-vlog-read", [], _directory("veritas.vlog"), ("ledger", "verify"),
         "veritas.vlog", errno.EISDIR),
        ("nodes-read", [], _directory("veritas.nodes"), ("query", "p"),
         "veritas.nodes", errno.EISDIR),
        ("lock-open", [], _directory("veritas.vlog.lock"), ("query", "p"),
         "veritas.vlog.lock", errno.EISDIR),
    ]

    @pytest.mark.parametrize(
        "setup, arrange, command, name, number",
        [row[1:] for row in STORE],
        ids=[row[0] for row in STORE],
    )
    def test_a_store_file_error_exits_eight(
        self, cli, tmp_path, setup, arrange, command, name, number
    ):
        for text in setup:
            assert cli("observe", text, "--p", "0.99")[0] == 0
        files = [tmp_path / "veritas.vlog", tmp_path / "veritas.nodes"]

        def contents():
            return [path.read_bytes() if path.is_file() else None for path in files]

        before = contents()
        with pytest.MonkeyPatch.context() as patch:
            arrange(patch)
            code, out, err = cli(*command)
        assert (code, out) == (8, "")
        assert err == f"error\tio\t{name}: {os.strerror(number)}\n"
        assert contents() == before
        if setup:
            assert cli("ledger", "verify") == (0, f"ok\t{len(setup)}\n", "")

    USER = [
        ("stream", [], ("run", "--stream", "missing.tsv")),
        ("proof", [], ("verify-proof", "missing.proof")),
        ("config", [], ("--config", "missing.conf", "query", "p")),
        ("domain", [], ("plan", "--domain", "missing.domain")),
        ("out", ["p"], ("prove", "p", "--out", ".")),
    ]

    @pytest.mark.parametrize(
        "setup, command", [row[1:] for row in USER], ids=[row[0] for row in USER]
    )
    def test_a_file_the_user_names_is_bad_input(self, cli, setup, command):
        for text in setup:
            assert cli("observe", text, "--p", "0.99")[0] == 0
        code, out, err = cli(*command)
        assert (code, out) == (2, "")
        assert err.startswith("error\tusage\t") and err.count("\n") == 1


class TestRollbackCommand:
    def test_rollback_to_zero_is_append_only(self, cli, tmp_path):
        cli("observe", "p", "--p", "0.99")
        cli("observe", "q", "--p", "0.99")
        path = tmp_path / "veritas.vlog"
        size_before = path.stat().st_size
        code, out, _ = cli("rollback", "--to", "0")
        assert code == 0
        assert out.startswith("rolled-back\tto=0\t")
        assert path.stat().st_size > size_before
        code, out, _ = cli("ledger", "replay")
        assert out == ""

    def test_rollback_out_of_range_is_a_usage_error(self, cli):
        cli("observe", "p", "--p", "0.99")
        code, _, err = cli("rollback", "--to", "9")
        assert code == 2
        assert err.startswith("error\tusage\t")


class TestPlanCommand:
    def test_plan_prints_actions_trace_and_seal(self, cli):
        code, out, _ = cli(
            "plan",
            "--domain", str(DOMAINS / "navigation.domain"),
            "--goal", "At(Agent1,LocationB)",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "plan\tMove(Agent1,LocationA,LocationB)"
        assert lines[1].startswith("t0\tinit\t")
        assert lines[-1].startswith("sealed\t")

    def test_goal_defaults_to_the_domain_goal(self, cli):
        code, out, _ = cli(
            "plan", "--domain", str(DOMAINS / "drone.domain")
        )
        assert code == 0
        assert "plan\tRecharge(Drone1)" in out
        assert "plan\tFly(Drone1,Base,SiteAlpha)" in out

    def test_unreachable_goal_exits_five(self, cli):
        code, _, err = cli(
            "plan",
            "--domain", str(DOMAINS / "navigation.domain"),
            "--goal", "Connected(LocationB,LocationA)",
        )
        assert code == 5
        assert err.startswith("error\tplan\t")

    def test_plan_without_domain_exits_five(self, cli):
        code, _, err = cli("plan", "--goal", "At(Agent1,LocationB)")
        assert code == 5

    def test_seal_lands_in_the_ledger(self, cli, tmp_path):
        cli(
            "plan",
            "--domain", str(DOMAINS / "navigation.domain"),
            "--goal", "At(Agent1,LocationB)",
        )
        ledger = Ledger(tmp_path / "veritas.vlog")
        assert [b.op for b in ledger.blocks] == [Op.TRACE_SEAL]
        assert ledger.blocks[0].formula == "At(Agent1,LocationB)"

    @pytest.mark.parametrize("source", ["file", "env", "set"])
    def test_plan_follows_the_configured_goal(
        self, cli, source, monkeypatch, tmp_path
    ):
        options = setting(source, "goal", "FullBattery(Drone1)", monkeypatch, tmp_path)
        drone = ["plan", "--domain", str(DOMAINS / "drone.domain")]
        code, out, err = cli(*options, *drone)
        assert (code, err) == (0, "")
        assert [line for line in out.splitlines() if line.startswith("plan\t")] == [
            "plan\tRecharge(Drone1)"
        ]
        ledger = Ledger(tmp_path / "veritas.vlog")
        assert ledger.blocks[-1].formula == "FullBattery(Drone1)"
        code, out, _ = cli(*options, *drone, "--goal", "At(Drone1,SiteAlpha)")
        assert code == 0
        assert "plan\tFly(Drone1,Base,SiteAlpha)" in out


class TestInjectPolicyCommand:
    def test_failed_injection_recovers_with_a_new_plan(self, cli, tmp_path):
        policy = tmp_path / "policy.txt"
        policy.write_text("action Fly(Drone1,Base,SiteAlpha)\n")
        code, out, _ = cli(
            "inject-policy", str(policy),
            "--domain", str(DOMAINS / "drone.domain"),
        )
        assert code == 0
        assert "PreconditionFailure(Fly(Drone1,Base,SiteAlpha),FullBattery)" in out
        assert "reselected(Recharge(Drone1);Fly(Drone1,Base,SiteAlpha))" in out

    @pytest.mark.parametrize("source", ["file", "env", "set"])
    def test_recovery_replans_toward_the_configured_goal(
        self, cli, source, monkeypatch, tmp_path
    ):
        options = setting(source, "goal", "FullBattery(Drone1)", monkeypatch, tmp_path)
        policy = tmp_path / "policy.txt"
        policy.write_text("action Fly(Drone1,Base,SiteAlpha)\n")
        code, out, err = cli(
            *options, "inject-policy", str(policy),
            "--domain", str(DOMAINS / "drone.domain"),
        )
        assert (code, err) == (0, "")
        assert "reselected(Recharge(Drone1))" in out
        ledger = Ledger(tmp_path / "veritas.vlog")
        assert ledger.blocks[-1].formula == "FullBattery(Drone1)"

    def test_an_empty_alternate_plan_recovers(self, cli, tmp_path):
        """A goal the initial state holds replans to no actions, which
        run as an empty plan, as plan runs it."""
        policy = tmp_path / "policy.txt"
        policy.write_text("action Fly(Drone1,Base,SiteAlpha)\n")
        code, out, err = cli(
            "--set", "goal=At(Drone1,Base)", "inject-policy", str(policy),
            "--domain", str(DOMAINS / "drone.domain"),
        )
        assert (code, err) == (0, "")
        recovered = out.split("recovered\tsealed=2\n")[1].splitlines()
        assert [line.split("\t")[0] for line in recovered] == ["t0"]
        assert cli("ledger", "verify") == (0, "ok\t3\n", "")

    def test_utility_gap_reports_reselection(self, cli, tmp_path):
        policy = tmp_path / "policy.txt"
        policy.write_text(
            "action Fly(Drone1,Base,SiteAlpha)\n"
            "expected-utility 1.0\n"
            "actual-utility 0.2\n"
        )
        code, out, _ = cli(
            "inject-policy", str(policy),
            "--domain", str(DOMAINS / "drone.domain"),
        )
        assert code == 0
        assert any(line.startswith("reselected\t") for line in out.splitlines())

    def test_escalation_exits_six(self, cli, tmp_path):
        domain = tmp_path / "dead-end.domain"
        domain.write_text(
            "concept Thing\n"
            "entity A : Thing\n"
            "action Noop(x:Thing) pre: add: del:\n"
            "init: Ready(A)\n"
            "goal: Missing(A)\n"
        )
        policy = tmp_path / "policy.txt"
        policy.write_text(
            "action Noop(A)\nexpected-utility 1.0\nactual-utility 0.0\n"
        )
        code, _, err = cli("inject-policy", str(policy), "--domain", str(domain))
        assert code == 6
        assert err.startswith("error\tescalated\t")

    def test_type_violation_exits_five(self, cli, tmp_path):
        policy = tmp_path / "policy.txt"
        policy.write_text("action Fly(Base,Base,Base)\n")
        code, _, err = cli(
            "inject-policy", str(policy),
            "--domain", str(DOMAINS / "drone.domain"),
        )
        assert code == 5
        assert err.startswith("error\tplan\t")

    def test_empty_policy_file_is_a_usage_error(self, cli, tmp_path):
        policy = tmp_path / "policy.txt"
        policy.write_text("# nothing here\n")
        code, _, err = cli(
            "inject-policy", str(policy),
            "--domain", str(DOMAINS / "drone.domain"),
        )
        assert code == 2


class TestRunCommand:
    def test_navigation_stream_plans_and_seals(self, cli, tmp_path):
        stream = tmp_path / "stream.tsv"
        stream.write_text(
            "At(Agent1,LocationA)\t0.99\tsensor\n"
            "Connected(LocationA,LocationB)\t0.99\tmap\n"
        )
        code, out, _ = cli(
            "run", "--stream", str(stream),
            "--domain", str(DOMAINS / "navigation.domain"),
            "--goal", "At(Agent1,LocationB)",
        )
        assert code == 0
        assert "executed\tMove(Agent1,LocationA,LocationB)" in out
        ledger = Ledger(tmp_path / "veritas.vlog")
        assert len(ledger) >= 3
        assert ledger.blocks[0].formula == "session-start"

    def test_empty_stream_leaves_one_block(self, cli, tmp_path):
        stream = tmp_path / "empty.tsv"
        stream.write_text("")
        code, out, _ = cli("run", "--stream", str(stream))
        assert code == 0
        assert out == ""
        assert len(Ledger(tmp_path / "veritas.vlog")) == 1

    def test_contradictory_stream_stays_consistent(self, cli, tmp_path):
        stream = tmp_path / "stream.tsv"
        stream.write_text("p\t0.99\tsensor\n!p\t0.99\tsensor\n")
        code, out, _ = cli("run", "--stream", str(stream))
        assert code == 0
        assert "revised\t(! p)" in out
        code, out, _ = cli("query", "!p")
        assert out.startswith("entailed\t")

    def test_identical_runs_write_identical_ledgers(self, cli, tmp_path):
        stream = tmp_path / "stream.tsv"
        stream.write_text(
            "At(Agent1,LocationA)\t0.99\tsensor\n"
            "Connected(LocationA,LocationB)\t0.99\tmap\n"
        )
        blobs = []
        for stem in ("first", "second"):
            cli(
                "--set", f"ledger_path={stem}.vlog",
                "run", "--stream", str(stream),
                "--domain", str(DOMAINS / "navigation.domain"),
                "--goal", "At(Agent1,LocationB)",
            )
            blobs.append((tmp_path / f"{stem}.vlog").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize(
        "goal, domain, category",
        [
            ("At(Drone1,", str(DOMAINS / "drone.domain"), "parse"),
            ("At(Drone1,SiteAlpha)", "missing.domain", "usage"),
        ],
    )
    def test_a_bad_goal_or_domain_is_refused_before_writing(
        self, cli, tmp_path, goal, domain, category
    ):
        stream = tmp_path / "stream.tsv"
        stream.write_text("p\t0.99\tsensor\n")
        code, out, err = cli(
            "run", "--stream", str(stream), "--goal", goal, "--domain", domain
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error\t{category}\t")
        assert err.count("\n") == 1
        assert cli("ledger", "verify") == (0, "ok\t0\n", "")
        assert not (tmp_path / "veritas.nodes").exists()

    def test_malformed_stream_line_is_a_usage_error(self, cli, tmp_path):
        stream = tmp_path / "stream.tsv"
        stream.write_text("p;0.99;sensor\n")
        code, _, err = cli("run", "--stream", str(stream))
        assert code == 2
        assert err.startswith("error\tusage\t")


def count_parses(monkeypatch) -> list[str]:
    """Record the text of every parse call, wherever a veritas module
    binds parse."""
    texts: list[str] = []
    original = veritas.logic.parser.parse

    def spy(text):
        texts.append(text)
        return original(text)

    for name, module in list(sys.modules.items()):
        if name.startswith("veritas") and getattr(module, "parse", None) is original:
            monkeypatch.setattr(module, "parse", spy)
    return texts


class TestParseOnce:
    """Each observed or contracted text is parsed once, then printed canonically."""

    def test_run_parses_each_line_once(self, cli, tmp_path, monkeypatch):
        stream = tmp_path / "stream.tsv"
        stream.write_text("p\t0.99\tsensor\n(q)\t0.6\tscout\n!p\t0.99\tsensor\n")
        texts = count_parses(monkeypatch)
        code, out, _ = cli("run", "--stream", str(stream))
        assert code == 0
        assert out == "admitted\tp\nstored-non-assertable\tq\nrevised\t(! p)\n"
        assert texts == ["p", "(q)", "!p"]

    def test_observe_and_contract_parse_their_argument_once(self, cli, monkeypatch):
        texts = count_parses(monkeypatch)
        assert cli("observe", "(p)", "--p", "0.99") == (0, "admitted\tp\n", "")
        assert texts == ["(p)"]
        cli("observe", "p -> q", "--p", "0.99")
        texts.clear()
        assert cli("contract", "((q))") == (0, "contracted\tq\n", "")
        assert texts.count("((q))") == 1


def setting(source: str, key: str, value: str, monkeypatch, tmp_path) -> list[str]:
    """The global options that set key to value from source: a config
    file, a VERITAS_ variable or --set."""
    if source == "env":
        monkeypatch.setenv("VERITAS_" + key.replace(".", "_").upper(), value)
        return []
    if source == "set":
        return ["--set", f"{key}={value}"]
    conf = tmp_path / "agent.conf"
    conf.write_text(f"{key}={value}\n")
    return ["--config", str(conf)]


# Every field except reliability, which is set by its dotted keys.
KEY_NAMES = {f.name for f in dataclasses.fields(EngineConfig)} - {"reliability"}
# Per default type: a raw setting and the value it must coerce to.
GOOD_VALUE = {float: (" 0.97", 0.97), bool: ("Yes", True), str: (" x.y ", "x.y")}


# Environment names and the key each sets; None when it is ignored.  The
# reliability prefix is matched as spelt; the rest of a name is lowercased.
ENV_NAMES = [
    ("VERITAS_THETA", "theta"),
    ("VERITAS_theta", "theta"),
    ("VERITAS_TAU_RISK", "tau_risk"),
    ("VERITAS_RELIABILITY_ALICE", "reliability.alice"),
    ("VERITAS_RELIABILITY_Alice", "reliability.alice"),
    ("VERITAS_reliability_alice", None),
    ("VERITAS_Reliability_ALICE", None),
    ("VERITAS_RELIABILITY", None),
    ("VERITAS_RELIABILITY_", None),
    ("VERITAS_BOGUS", None),
    ("VERITAS_", None),
    ("THETA", None),
    ("veritas_theta", None),
    ("XVERITAS_THETA", None),
]


class TestConfigPlumbing:
    def test_environment_variables_configure_the_session(
        self, cli, monkeypatch
    ):
        monkeypatch.setenv("VERITAS_LEDGER_PATH", "env.vlog")
        code, _, _ = cli("observe", "p", "--p", "0.99")
        assert code == 0
        assert Path("env.vlog").exists()

    def test_set_flag_beats_the_environment(self, cli, monkeypatch):
        monkeypatch.setenv("VERITAS_LEDGER_PATH", "env.vlog")
        code, _, _ = cli(
            "--set", "ledger_path=flag.vlog", "observe", "p", "--p", "0.99"
        )
        assert code == 0
        assert Path("flag.vlog").exists()
        assert not Path("env.vlog").exists()

    def test_config_file_is_honored(self, cli, tmp_path):
        conf = tmp_path / "agent.conf"
        conf.write_text("ledger_path=file.vlog\nreliability.sensor=0.9\n")
        code, _, _ = cli("--config", str(conf), "observe", "p", "--p", "0.99")
        assert code == 0
        assert Path("file.vlog").exists()

    def test_reliability_override_parses(self, cli):
        code, _, _ = cli(
            "--set", "reliability.sensor=0.8", "observe", "p", "--p", "0.99"
        )
        assert code == 0

    @pytest.mark.parametrize("source", ["file", "env", "set"])
    @pytest.mark.parametrize("key", ["theta", "reliability.sensor"])
    def test_a_bad_number_names_its_key(
        self, cli, monkeypatch, tmp_path, source, key
    ):
        code, out, err = cli(
            *setting(source, key, "abc", monkeypatch, tmp_path), "ledger", "verify"
        )
        assert (code, out) == (2, "")
        assert err == f"error\tusage\t{key} expects a number, got 'abc'\n"

    @pytest.mark.parametrize("source", ["file", "env", "set"])
    @pytest.mark.parametrize("key", sorted(KEY_NAMES))
    def test_every_key_is_read_from_every_source(
        self, monkeypatch, tmp_path, source, key
    ):
        """Each field but reliability, coerced by the type of its default."""
        raw, value = GOOD_VALUE[type(getattr(EngineConfig(), key))]
        argv = setting(source, key, raw, monkeypatch, tmp_path)
        args = veritas.cli.build_parser().parse_args([*argv, "query", "p"])
        assert getattr(veritas.cli._build_config(args), key) == value

    @pytest.mark.parametrize("source", ["file", "env", "set"])
    @pytest.mark.parametrize(
        "key", sorted(k for k in KEY_NAMES if type(getattr(EngineConfig(), k)) is not str)
    )
    def test_every_key_names_itself_in_its_error(
        self, capsys, monkeypatch, tmp_path, source, key
    ):
        monkeypatch.chdir(tmp_path)
        kind = "boolean" if key == "fixed_clock" else "number"
        argv = setting(source, key, "abc", monkeypatch, tmp_path)
        assert main([*argv, "ledger", "verify"]) == 2
        assert capsys.readouterr() == (
            "", f"error\tusage\t{key} expects a {kind}, got 'abc'\n"
        )

    @pytest.mark.parametrize(
        "source, key",
        [
            ("set", "key_path"),
            ("set", "epsilon_max"),
            ("file", "epsilon_max"),
            ("set", "reliability."),
            ("file", "reliability."),
        ],
    )
    def test_removed_keys_are_unknown_keys(
        self, cli, monkeypatch, tmp_path, source, key
    ):
        code, out, err = cli(
            *setting(source, key, "0.1", monkeypatch, tmp_path), "ledger", "verify"
        )
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert err.startswith("error\tusage\t")
        assert "unknown config key" in err

    @pytest.mark.parametrize("source", ["file", "env", "set"])
    def test_a_low_theta_warns_in_one_line(self, cli, monkeypatch, tmp_path, source):
        """The warning is one tab-separated stderr line; the verdict and
        the exit status are those of theta 0.9."""
        code, out, err = cli(
            *setting(source, "theta", "0.9", monkeypatch, tmp_path),
            "observe", "q", "--p", "0.975",
        )
        assert (code, out) == (0, "admitted\tq\n")
        assert err == (
            "ThetaRangeWarning\tconfig\t"
            "theta=0.9 sits below the recommended [0.95, 1) band\n"
        )

    def test_a_low_theta_still_warns_library_callers(self):
        with pytest.warns(ThetaRangeWarning):
            load_config(theta=0.9)

    def test_removed_keys_in_the_environment_are_ignored(self, cli, monkeypatch):
        monkeypatch.setenv("VERITAS_EPSILON_MAX", "0.1")
        monkeypatch.setenv("VERITAS_KEY_PATH", "x")
        assert cli("ledger", "verify") == (0, "ok\t0\n", "")

    @pytest.mark.parametrize("name, key", ENV_NAMES)
    def test_environment_names_map_to_keys(self, monkeypatch, name, key):
        """A VERITAS_ name sets the key the table gives; any other is ignored."""
        args = veritas.cli.build_parser().parse_args(["query", "p"])
        before = dataclasses.asdict(veritas.cli._build_config(args))
        monkeypatch.setenv(name, "0.97")
        after = dataclasses.asdict(veritas.cli._build_config(args))
        if key is None:
            assert after == before
        elif key.startswith("reliability."):
            reliability = {**before["reliability"], key[len("reliability."):]: 0.97}
            assert after == {**before, "reliability": reliability}
        else:
            assert after == {**before, key: 0.97}

    @pytest.mark.parametrize("name, key", ENV_NAMES)
    def test_a_bad_environment_value_names_its_key(
        self, capsys, monkeypatch, tmp_path, name, key
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(name, "abc")
        code = main(["ledger", "verify"])
        if key is None:
            assert (code, capsys.readouterr()) == (0, ("ok\t0\n", ""))
        else:
            assert (code, capsys.readouterr()) == (
                2, ("", f"error\tusage\t{key} expects a number, got 'abc'\n")
            )

    def test_audit_on_a_healthy_base_prints_none_actions(self, cli):
        cli("observe", "p", "--p", "0.99")
        code, out, _ = cli("audit")
        assert code == 0
        assert out.endswith("\tnone\n")


def run_fresh(script: str, cwd: Path | None = None) -> str:
    """The stdout of script, run by a fresh interpreter that imports
    veritas from this checkout."""
    src = str(Path(veritas.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ),
    )
    run = subprocess.run(
        [sys.executable, "-c", script],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return run.stdout


def loaded_after_import(modules: str, name: str) -> bool:
    """Whether a fresh interpreter holds module name after importing modules."""
    script = f"import sys, {modules}; print({name!r} in sys.modules)"
    return run_fresh(script).strip() == "True"


# The README quick start; after each command's output, its exit status.
QUICK_START = """
import importlib, pkgutil, sys
sys.modules["cryptography"] = None
import veritas
for module in pkgutil.walk_packages(veritas.__path__, "veritas."):
    importlib.import_module(module.name)
from veritas.cli import main
for argv in (
    ["observe", "p", "--p", "0.99", "--source", "sensor"],
    ["observe", "p -> q", "--p", "0.97", "--source", "rulebook"],
    ["query", "q"],
    ["prove", "q", "--out", "q.proof"],
    ["verify-proof", "q.proof"],
    ["ledger", "verify"],
):
    print(main(argv), flush=True)
"""


class TestImportCost:
    def test_cli_import_leaves_cryptography_unloaded(self, tmp_path):
        """Every veritas module imports, and the README quick start runs,
        with cryptography unimportable."""
        lines = run_fresh(QUICK_START, cwd=tmp_path).splitlines()
        assert lines.pop(6).startswith("proof\tq.proof\tdigest\t")
        assert lines == [
            "admitted\tp",
            "0",
            "admitted\t(p -> q)",
            "0",
            "entailed\tp=0.97\ttier=4\tstate=Provisional",
            "0",
            "0",
            "ok",
            "0",
            "ok\t3",
            "0",
        ]

    def test_cli_and_engine_imports_leave_openssl_unloaded(self):
        """SHA-256 comes from the interpreter's own module, so hashlib's
        OpenSSL binding (about 3.6 MB resident) is never loaded."""
        assert not loaded_after_import("veritas.cli, veritas.engine", "_hashlib")


COMMAND_NAMES = (
    "observe", "contract", "query", "justify", "prove", "verify-proof",
    "plan", "inject-policy", "ledger", "rollback", "audit", "run",
)
# Help, usage errors and the global options around a command, each run in
# an empty working directory.
SURFACE_ARGV = [
    ["-h"],
    ["query", "-h"],
    [],
    ["bogus"],
    ["query"],
    ["query", "p", "--bogus"],
    ["--conf", "x.cfg", "query", "p"],
    ["--set=fixed_clock=true", "query", "p"],
    ["--set", "fixed_clock=true", "query", "p"],
    ["ledger", "verify"],
    ["ledger", "bogus"],
    *([name, "-h"] for name in COMMAND_NAMES if name != "query"),
]
SURFACE_TABLE = Path(__file__).parent / "golden" / "cli_surface.json"


def run_main(argv: list[str], capsys) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def bare_cli(tmp_path, monkeypatch):
    """An empty working directory, no VERITAS_* variables, 80 columns."""
    monkeypatch.chdir(tmp_path)
    for name in list(os.environ):
        if name.startswith("VERITAS_"):
            monkeypatch.delenv(name)
    monkeypatch.setenv("COLUMNS", "80")


class TestSurface:
    """What the shell prints for help and for malformed command lines."""

    @pytest.mark.parametrize(
        "argv", SURFACE_ARGV, ids=lambda argv: " ".join(argv) or "no arguments"
    )
    def test_output_matches_the_full_parser_and_the_table(
        self, argv, bare_cli, tmp_path, monkeypatch, capsys
    ):
        """argparse words its help and errors differently across Python
        releases, so the recorded table is checked on the release that
        recorded it; on every release the output must equal that of the
        parser with every subcommand built."""
        got = run_main(argv, capsys)
        table = json.loads(SURFACE_TABLE.read_text())
        if list(sys.version_info[:2]) == table["python"]:
            want = next(c for c in table["cases"] if c["argv"] == argv)
            assert got == (want["exit"], want["stdout"], want["stderr"])
        full_parser = veritas.cli.build_parser
        monkeypatch.setattr(
            veritas.cli, "build_parser", lambda *args: full_parser()
        )
        for leftover in tmp_path.iterdir():
            leftover.unlink()
        assert run_main(argv, capsys) == got

    @pytest.mark.parametrize(
        "argv, built",
        [(["query", "p"], 0), (["-h"], 1 + len(COMMAND_NAMES))],
        ids=["query p", "-h"],
    )
    def test_a_command_builds_only_its_own_subparser(
        self, argv, built, bare_cli, monkeypatch, capsys
    ):
        """A plain command line builds no parser; help builds them all."""
        inits = []
        original = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            inits.append(kwargs.get("prog"))
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        code, _, _ = run_main(argv, capsys)
        assert code == 0
        assert len(inits) == built


# Every flag of every command.
FLAGS = sorted(
    {
        flag
        for _, *arguments in veritas.cli._COMMANDS.values()
        for flag, _ in arguments
        if flag.startswith("-")
    }
)
VALUES = ["p", "p -> q", "0.9", "3", "-0.5", "-1", "-", "", "abc", "verify", "bogus"]
# Commands, flags spelt in full, abbreviated and joined to a value, the
# global options, help, the end of options, and values.
TOKENS = [
    *COMMAND_NAMES,
    *FLAGS,
    *(flag[:-1] for flag in FLAGS if len(flag) > 3),
    *(f"{flag}=1" for flag in FLAGS),
    "--set=fixed_clock=true",
    "--config", "--set", "--conf", "-h", "--",
    *VALUES,
]


@st.composite
def command_lines(draw) -> list[str]:
    """Global option pairs, a command, its positionals and each of its
    flags up to twice, in any order and each with a value, then up to
    two tokens inserted, replaced or deleted: often plain, often one
    token off."""
    value = st.sampled_from(VALUES)
    name = draw(st.sampled_from(COMMAND_NAMES))
    _, *arguments = veritas.cli._COMMANDS[name]
    argv = []
    for _ in range(draw(st.integers(0, 2))):
        argv += [draw(st.sampled_from(["--config", "--set"])), draw(value)]
    argv.append(name)
    for flag, _ in draw(st.permutations(arguments)):
        if flag.startswith("-"):
            for _ in range(draw(st.integers(0, 2))):
                argv += [flag, draw(value)]
        else:
            argv.append(draw(value))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        if edit == "insert":
            argv.insert(at, draw(st.sampled_from(TOKENS)))
        elif at < len(argv):
            argv[at:at + 1] = [draw(st.sampled_from(TOKENS))] if edit == "replace" else []
    return argv


# The cold-read benchmark's command lines: ledger verify, then query,
# prove and verify-proof of two held and two derived atoms.
COLD_FLAGS = ["--set", "ledger_path=cold-read/bench.vlog", "--set", "fixed_clock=true"]
COLD_READ_ARGV = [[*COLD_FLAGS, "ledger", "verify"]] + [
    argv
    for k, atom in enumerate(["S15", "S26", "S32", "S8"])
    for argv in (
        [*COLD_FLAGS, "query", atom],
        [*COLD_FLAGS, "prove", atom, "--out", f"cold-read/proof{k}.json"],
        [*COLD_FLAGS, "verify-proof", f"cold-read/proof{k}.json"],
    )
]
# Lines the table must read itself: the README's examples (its quick
# start first), the CI quick start's other lines, and cold-read's.
PLAIN_ARGV = [
    ["observe", "p", "--p", "0.99", "--source", "sensor"],
    ["observe", "p -> q", "--p", "0.97", "--source", "rulebook"],
    ["query", "q"],
    ["prove", "q", "--out", "q.proof"],
    ["verify-proof", "q.proof"],
    ["ledger", "verify"],
    ["plan", "--domain", "nav.domain", "--goal", "At(Agent1,LocationB)"],
    ["rollback", "--to", "0"],
    ["ledger", "replay", "--to", "5"],
    ["audit"],
    ["observe", "r", "--p", "0.6"],
    ["prove", "r", "--out", "r.proof"],
    *COLD_READ_ARGV,
]


class TestPlainCommandLine:
    """main reads a plain command line from the command table, and must
    read it as the full parser does."""

    @settings(max_examples=600, deadline=None)
    @given(command_lines())
    # A repeated flag whose first value fails, an option as a value, and
    # a value outside the choices: rare draws that the parser refuses.
    @example(["observe", "p", "--p", "abc", "--p", "0.9"])
    @example(["prove", "p", "--out", "-h"])
    @example(["ledger", "bogus"])
    def test_a_plain_line_reads_as_the_parser_reads_it(self, argv):
        plain = veritas.cli._plain(argv)
        if plain is None:
            return
        try:
            parsed = veritas.cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"the parser refuses {argv!r}, which read as plain")
        assert vars(plain) == vars(parsed)

    @pytest.mark.parametrize("argv", PLAIN_ARGV, ids=" ".join)
    def test_common_lines_are_plain(self, argv):
        plain = veritas.cli._plain(argv)
        assert plain is not None
        assert vars(plain) == vars(veritas.cli.build_parser().parse_args(argv))

    def test_a_plain_command_leaves_argparse_unloaded(self, tmp_path):
        script = (
            "import sys, veritas.cli; code = veritas.cli.main(['ledger', 'verify']); "
            "print(code, 'argparse' in sys.modules, 'gettext' in sys.modules)"
        )
        assert run_fresh(script, cwd=tmp_path) == "ok\t0\n0 False False\n"


class TestClosedStdout:
    def test_run_stops_at_its_first_failed_print_and_exits_141(
        self, cli, tmp_path
    ):
        # 8,000 re-observations print about 97 KB, more than a pipe and
        # stdout's buffer hold, so writes fail once the reader is gone.
        lines = 8000
        stream = tmp_path / "stream.tsv"
        stream.write_text(
            "".join(f"a{i % 12}\t0.99\tsensor\n" for i in range(lines))
        )
        src = str(Path(veritas.__file__).resolve().parents[1])
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])
            ),
        )
        with stream.open("rb") as stdin, subprocess.Popen(
            [sys.executable, "-m", "veritas.cli", "--set", "fixed_clock=1", "run"],
            cwd=tmp_path,
            env=env,
            stdin=stdin,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=120)
        assert first == b"admitted\ta0\n"
        assert (code, err) == (veritas.cli.EXIT_CLOSED_STDOUT, b"")
        # Each line's blocks are on disk before its output is written, so
        # the chain it stopped in verifies and replays.
        code, out, _ = cli("ledger", "verify")
        assert code == 0
        status, blocks = out.split()
        assert status == "ok" and 2 < int(blocks) < lines + 2
        assert cli("ledger", "replay")[0] == 0
