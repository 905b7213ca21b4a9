"""Shell behavior: output lines, exit codes, and on-disk artifacts."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import veritas
import veritas.cli
import veritas.engine
import veritas.ledger
import veritas.logic.parser
from veritas.belief import export
from veritas.cli import main
from veritas.config import load_config
from veritas.belief import Provenance
from veritas.engine import Session
from veritas.justify import node_digest
from veritas.ledger import Ledger, Op
from veritas.logic import parse

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


class TestMalformedProofFile:
    """A proof file that is not a proof object exits 2 with one error line."""

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda proof: {"digest": "00"}, "proof lacks field 'conclusion'"),
            (lambda proof: [1], "proof is not a JSON object"),
            (set_field("chain", 5), "proof field 'chain' has the wrong type"),
            (set_field("conclusion", 3), "proof field 'conclusion' has the wrong type"),
        ],
        ids=["missing-fields", "not-an-object", "chain-not-a-list", "conclusion-not-text"],
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
        original = veritas.ledger.block_hash

        def spy(*args):
            hashed.append(args[0])
            return original(*args)

        monkeypatch.setattr(veritas.ledger, "block_hash", spy)
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
        code, out, _ = cli("verify-proof", "q.proof")
        assert (code, out) == (0, "ok\n")


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

    def test_audit_on_a_healthy_base_prints_none_actions(self, cli):
        cli("observe", "p", "--p", "0.99")
        code, out, _ = cli("audit")
        assert code == 0
        assert out.endswith("\tnone\n")


def loaded_after_import(modules: str, name: str) -> bool:
    """Whether a fresh interpreter holds module name after importing modules."""
    src = str(Path(veritas.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ),
    )
    run = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys, {modules}; print({name!r} in sys.modules)",
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return run.stdout.strip() == "True"


class TestImportCost:
    def test_cli_import_leaves_cryptography_unloaded(self):
        """Only truth-record signing needs cryptography, so the CLI skips it."""
        assert not loaded_after_import("veritas.cli", "cryptography")

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
        [(["query", "p"], 2), (["-h"], 1 + len(COMMAND_NAMES))],
        ids=["query p", "-h"],
    )
    def test_a_command_builds_only_its_own_subparser(
        self, argv, built, bare_cli, monkeypatch, capsys
    ):
        inits = []
        original = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            inits.append(kwargs.get("prog"))
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        code, _, _ = run_main(argv, capsys)
        assert code == 0
        assert len(inits) == built
