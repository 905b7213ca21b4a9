"""Session-level behavior: observation routing, proofs, rollback, the loop."""

from __future__ import annotations

import builtins
import errno
import fcntl
import hashlib
import io
import json
import os
import random
import sys
from pathlib import Path

import pytest
from oracles import (
    deletion_core,
    random_formula,
    reference_run_loop,
    tt_entails,
    tt_satisfiable,
)

import veritas.engine
import veritas.justify
import veritas.ledger
import veritas.logic.parser
import veritas.logic.sat
from veritas.belief import (
    BeliefBase,
    BeliefEntry,
    ConsistencyError,
    Provenance,
    StatusTag,
    export,
)
from veritas.config import load_config
from veritas.engine import (
    EscalationError,
    Session,
    SessionLockedError,
    parse_goal_literals,
    parse_observation_line,
    resolve_action,
)
from veritas.guard import FailureEvent, FailureKind
from veritas.justify import (
    NoJustificationError,
    node_to_json,
    proof_from_json,
    proof_to_json,
)
from veritas.ledger import (
    ZERO_HASH,
    Ledger,
    LedgerCorruptionError,
    Op,
    ReplayError,
    replay,
)
from veritas.logic import (
    Atom,
    ParseError,
    ResourceLimitError,
    parse,
    render_canonical,
)
from veritas.plan import PlanningError, trace_digest

DOMAINS = Path(__file__).parent / "domains"


@pytest.fixture()
def make_config(tmp_path):
    def factory(stem: str = "agent", **overrides):
        values = dict(
            fixed_clock=True,
            ledger_path=str(tmp_path / f"{stem}.vlog"),
        )
        values.update(overrides)
        return load_config(**values)

    return factory


def spy_parse_and_compile(monkeypatch) -> tuple[list[str], list]:
    """The text of every parse call, wherever a veritas module binds
    parse, and every formula sat compiles."""
    texts, compiled = [], []
    parse_, compile_ = veritas.logic.parser.parse, veritas.logic.sat._compile

    def spy_parse(text):
        texts.append(text)
        return parse_(text)

    def spy_compile(formula):
        compiled.append(formula)
        return compile_(formula)

    for name, module in list(sys.modules.items()):
        if name.startswith("veritas") and getattr(module, "parse", None) is parse_:
            monkeypatch.setattr(module, "parse", spy_parse)
    monkeypatch.setattr(veritas.logic.sat, "_compile", spy_compile)
    return texts, compiled


def churn_lines(monkeypatch, count: int) -> list[str]:
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import workloads

    return workloads.churn_stream(901, count)[0]


def replay_export(session: Session) -> str:
    return export(replay(session.ledger, session.config, session.graph))


def graft(session: Session, *entries: BeliefEntry) -> None:
    session.base = BeliefBase.from_entries(
        [*session.base.entries, *entries]
    )


def observe_fan(session: Session) -> None:
    """p and p -> q0..q15: 17 formulas in one atom component."""
    session.observe("p", 0.99, "sensor")
    for i in range(16):
        session.observe(f"p -> q{i}", 0.99, "rulebook")


@pytest.fixture()
def replays(monkeypatch) -> list:
    """Every replay a session makes of its ledger."""
    calls, original = [], veritas.engine.replay

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(veritas.engine, "replay", spy)
    return calls


class FullDisk:
    """A kept append handle whose write number failing stores half its
    bytes, then fails with ENOSPC; every other write goes through."""

    def __init__(self, handle, failing: int):
        self._handle, self.failing, self.writes = handle, failing, 0

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def write(self, data):
        self.writes += 1
        if self.writes != self.failing:
            return self._handle.write(data)
        self._handle.write(bytes(data[: len(data) // 2]))
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def plain_entry(text: str, probability: float, **kwargs) -> BeliefEntry:
    kwargs.setdefault("provenance", Provenance("sensor", 0, probability))
    kwargs.setdefault("status", StatusTag.OPERATIONAL)
    return BeliefEntry(parse(text), probability, **kwargs)


class TestObserve:
    """Observation routing between insert, revise, and the gate."""

    def test_confident_observation_is_admitted(self, make_config):
        with Session(make_config()) as session:
            assert session.observe("Temp(Room1)", 0.99, "sensor") == "admitted"
            entry = session.base.find(parse("Temp(Room1)"))
            assert entry is not None
            assert entry.probability == 0.99
            assert entry.assertable

    def test_below_gate_observation_is_stored_but_quarantined(self, make_config):
        with Session(make_config()) as session:
            verdict = session.observe("Rain(Tomorrow)", 0.5, "forecast")
            assert verdict == "stored-non-assertable"
            entry = session.base.find(parse("Rain(Tomorrow)"))
            assert entry is not None
            assert not entry.assertable

    def test_contradicting_observation_routes_through_revision(self, make_config):
        with Session(make_config()) as session:
            session.observe("p", 0.99, "sensor")
            assert session.observe("!p", 0.99, "sensor") == "revised"
            assert session.base.find(parse("!p")) is not None
            assert session.base.find(parse("p")) is None
            ops = [block.op for block in session.ledger.blocks]
            assert ops == [Op.INSERT, Op.REVISE]

    def test_self_contradictory_observation_is_refused(self, make_config):
        with Session(make_config()) as session:
            with pytest.raises(ConsistencyError):
                session.observe("p & !p", 0.99, "sensor")
            assert len(session.ledger) == 0

    def test_self_contradiction_is_refused_before_the_base_is_read(self, make_config):
        with Session(make_config()) as session:
            session.observe("p", 0.99, "sensor")
        with Session(make_config()) as session:
            with pytest.raises(ConsistencyError, match="self-contradictory: \\(p & \\(! p\\)\\)"):
                session.observe("p & !p", 0.99, "sensor")
            assert "base" not in vars(session) and "graph" not in vars(session)

    def test_a_satisfiable_observation_needs_no_solve_of_its_own(self, make_config, monkeypatch):
        """Extending the empty witness shows most observations satisfiable;
        only when it cannot decide does observe run the check."""
        checked = []
        original = veritas.logic.sat.is_consistent

        def spy(formulas, *args, **kwargs):
            checked.append([render_canonical(f) for f in formulas])
            return original(formulas, *args, **kwargs)

        monkeypatch.setattr(veritas.logic.sat, "is_consistent", spy)
        with Session(make_config()) as session:
            assert session.observe("p -> q", 0.99, "sensor") == "admitted"
            assert session.observe("p | (q & !r)", 0.99, "sensor") == "admitted"
            assert checked == []
            # Ka gets the smaller fresh id, so extension picks Ka for the
            # first clause and then has nothing left for !Ka.
            assert session.observe("(Ka | Kb) & !Ka", 0.99, "sensor") == "admitted"
            assert checked == [["((Ka | Kb) & (! Ka))"]]

    def test_reobservation_replaces_the_held_entry(self, make_config):
        with Session(make_config()) as session:
            session.observe("p", 0.99, "sensor")
            session.observe("p", 0.97, "sensor")
            entry = session.base.find(parse("p"))
            assert entry.probability == 0.97
            assert len(session.base.entries) == 1

    def test_observation_records_a_justification_node(self, make_config):
        with Session(make_config()) as session:
            session.observe("p", 0.99, "sensor")
            entry = session.base.find(parse("p"))
            node = session.graph.node(entry.justification)
            assert node.rule == "observation"
            assert node.provenance.source == "sensor"


class TestReplayParity:
    """The live base never drifts from a replay of the ledger."""

    def test_mixed_sequence_replays_to_the_live_base(self, make_config):
        with Session(make_config()) as session:
            session.observe("p", 0.99, "sensor")
            session.observe("p -> q", 0.97, "rulebook")
            session.observe("!p", 0.99, "sensor")
            session.contract_formula("q")
            assert export(session.base) == replay_export(session)

    def test_reopened_session_sees_the_same_base(self, make_config):
        config = make_config()
        with Session(config) as session:
            session.observe("p", 0.99, "sensor")
            session.observe("q", 0.8, "sensor")
            before = export(session.base)
        with Session(make_config()) as session:
            assert export(session.base) == before

    def test_revision_beside_many_disjoint_beliefs(self, make_config):
        """Revising one of 17 disjoint beliefs stays under the remainder cap."""
        with Session(make_config()) as session:
            for i in range(17):
                session.observe(f"P{i}", 0.99, "sensor")
            assert session.observe("!P3", 0.99, "sensor") == "revised"
            live = export(session.base)
            assert live == replay_export(session)
        with Session(make_config()) as session:
            assert export(session.base) == live

    def test_refused_revision_writes_no_block(self, make_config):
        """A revision over the remainder cap raises before its block is written."""
        with Session(make_config()) as session:
            observe_fan(session)
            blocks = len(session.ledger)
            before = export(session.base)
            with pytest.raises(ResourceLimitError):
                session.observe("!p", 0.99, "sensor")
            assert len(session.ledger) == blocks
            assert export(session.base) == before == replay_export(session)
        with Session(make_config()) as session:
            assert len(session.ledger) == blocks
            assert export(session.base) == before

    def test_refused_revision_records_no_node(self, make_config):
        """A refused observation leaves no justification node behind."""
        config = make_config()
        with Session(config) as session:
            observe_fan(session)
            with pytest.raises(ResourceLimitError):
                session.observe("!p", 0.99, "sensor")
            session.observe("r", 0.99, "sensor")
            assert len(session.ledger) == 18
            assert len(session.graph) == 18
        with open(config.resolved_nodes_path(), encoding="utf-8") as handle:
            assert len(handle.read().splitlines()) == 18
        with Session(make_config()) as session:
            assert len(session.graph) == 18
            assert export(session.base) == replay_export(session)

    def test_65th_atom_on_a_witnessed_base_writes_no_block(self, make_config):
        """A base at exactly 64 atoms refuses a formula with a 65th.

        The base's witness could be extended by the new atom, so this
        checks that the atom limit, not the witness, decides.
        """
        wide = " & ".join(f"w{i}" for i in range(64))
        with Session(make_config()) as session:
            session.observe(wide, 0.99, "sensor")
            assert len(session.base.witness.atom_ids) == 64
            blocks = len(session.ledger)
            before = export(session.base)
            with pytest.raises(ResourceLimitError):
                session.observe("w64", 0.99, "sensor")
            assert len(session.ledger) == blocks
            assert export(session.base) == before == replay_export(session)
        with Session(make_config()) as session:
            assert export(session.base) == before

    @pytest.mark.parametrize("path", ["agent.vlog", ""], ids=["file", "memory"])
    def test_65th_atom_leaves_graph_and_files_unchanged(
        self, make_config, tmp_path, path
    ):
        """The refused observation's node was recorded in its batch, which
        keeps no block and so none of its nodes: the graph, and any file,
        are as they were, in memory as on file."""
        config = make_config(ledger_path=path and str(tmp_path / path))
        stores = [tmp_path / "agent.vlog", tmp_path / "agent.nodes"]

        def held(session):
            files = [p.read_bytes() if p.exists() else None for p in stores]
            return session.graph.all_nodes(), session.ledger.blocks, files

        with Session(config) as session:
            session.observe(" & ".join(f"w{i}" for i in range(64)), 0.99, "sensor")
            before = held(session)
            with pytest.raises(ResourceLimitError):
                session.observe("w64", 0.99, "sensor")
            assert held(session) == before
            assert export(session.base) == replay_export(session)
        assert (before[2][0] is None) == (path == "")

    def test_refused_contraction_writes_no_block(self, make_config):
        with Session(make_config()) as session:
            observe_fan(session)
            blocks = len(session.ledger)
            before = export(session.base)
            with pytest.raises(ResourceLimitError):
                session.contract_formula("q0")
            assert len(session.ledger) == blocks
            assert export(session.base) == before == replay_export(session)
        with Session(make_config()) as session:
            assert export(session.base) == before

    def test_second_concurrent_session_is_refused(self, make_config):
        with Session(make_config()):
            with pytest.raises(SessionLockedError):
                Session(make_config())

    def test_a_failed_open_releases_the_lock(self, make_config):
        """A kept corruption error does not hold the lock through its
        traceback: the next open reports the corruption again."""
        config = make_config()
        with Session(config) as session:
            session.observe("p", 0.99, "sensor")
        path = Path(config.ledger_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:20] + b"!" + raw[21:])
        with pytest.raises(LedgerCorruptionError) as first:
            Session(config)
        with pytest.raises(LedgerCorruptionError):
            Session(config)
        assert first.value is not None

    def test_close_releases_the_lock_and_its_descriptor(self, make_config):
        config = make_config()
        lock = config.ledger_path + ".lock"
        session = Session(config)
        fd = session._lock_fd
        assert not lock_is_free(lock)
        session.close()
        with pytest.raises(OSError) as closed:
            os.fstat(fd)
        assert closed.value.errno == errno.EBADF
        assert lock_is_free(lock)
        session.close()

    def test_a_failed_open_releases_the_lock_descriptor(self, make_config):
        config = make_config()
        Path(config.ledger_path).write_bytes(b"not a block\n")
        with pytest.raises(LedgerCorruptionError):
            Session(config)
        assert lock_is_free(config.ledger_path + ".lock")

    def test_a_missing_lock_file_is_created(self, make_config):
        config = make_config()
        lock = Path(config.ledger_path + ".lock")
        assert not lock.exists()
        with Session(config):
            assert lock.is_file() and lock.read_bytes() == b""
        assert lock_is_free(str(lock))


def lock_is_free(path: str) -> bool:
    """Whether an exclusive flock on path, through a descriptor of its
    own, is granted at once."""
    fd = os.open(path, os.O_RDWR)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        return False
    finally:
        os.close(fd)
    return True


class TestLazyOpen:
    """A session reads the node store and replays only when a command needs it."""

    def test_verify_proof_reads_neither_nodes_nor_base(self, make_config):
        with Session(make_config()) as session:
            session.observe("p", 0.99, "sensor")
            proof = session.prove("p")
        with Session(make_config()) as session:
            assert session.verify_proof(proof).ok
            assert "graph" not in vars(session)
            assert "base" not in vars(session)

    def test_node_store_holds_each_node_once_in_graph_order(self, make_config):
        config = make_config()
        with Session(config) as session:
            session.observe("p", 0.99, "sensor")
            session.observe("p -> q", 0.97, "rulebook")
            session.prove("q")
        with Session(config) as session:
            session.observe("r", 0.99, "sensor")
            session.prove("q")
            session.observe("!p", 0.99, "sensor")
            written = [node_to_json(n) for n in session.graph.all_nodes()]
        with open(config.resolved_nodes_path(), encoding="utf-8") as handle:
            assert handle.read().splitlines() == written
        # p, p -> q, q, r and !p.  Proved again after r, q gets a new
        # entailment step with the anchored chain digest, so the proof
        # appends no block, and no block would name that step: it is
        # not kept.
        assert len(written) == 5

    def test_live_equals_replay_equals_reopened(self, make_config):
        """Full BeliefBase equality, retraction log and history included."""
        config = make_config()
        steps = [
            lambda s: s.observe("p", 0.99, "sensor"),
            lambda s: s.observe("p -> q", 0.97, "rulebook"),
            lambda s: s.prove("q"),
            lambda s: s.observe("!q", 0.99, "sensor"),
            lambda s: s.prove("!q"),
            lambda s: s.rollback(3),
            lambda s: s.observe("r", 0.9, "scout"),
            lambda s: s.rollback(0),
        ]
        for step in steps:
            with Session(config) as session:
                step(session)
                live = session.base
                assert live == replay(session.ledger, config, session.graph)
            with Session(config) as reopened:
                assert reopened.base == live
                assert export(reopened.base) == export(live)

    def test_a_failed_store_read_leaves_no_node_to_write(self, make_config):
        """The graph a failed read filled part way is emptied again, so
        the next block write appends none of its nodes to the store."""
        config = make_config()
        with Session(config) as session:
            session.observe("p", 0.99, "sensor")
            session.observe("q", 0.99, "sensor")
        store = Path(config.resolved_nodes_path())
        damaged = store.read_text().splitlines(True)[0] + "not json\n"
        store.write_text(damaged)
        with Session(config) as session:
            with pytest.raises(ReplayError, match="node store line 2"):
                session.graph
            session.ledger.append(Op.META, formula="after", timestamp=0)
        assert store.read_text() == damaged

    def test_reopened_churn_ledger_parses_each_conclusion_once(self, make_config):
        config = make_config()
        rng = random.Random(31)
        held = {f"C{i}": True for i in range(4)}
        with Session(config) as session:
            for _ in range(60):
                atom = rng.choice(sorted(held))
                if rng.random() < 0.4:
                    held[atom] = not held[atom]
                text = atom if held[atom] else f"!{atom}"
                session.observe(text, rng.choice((0.97, 0.99)), "sensor")
            live = session.base
        with Session(config) as reopened:
            nodes = reopened.graph.all_nodes()
            texts = {render_canonical(node.conclusion) for node in nodes}
            assert len(texts) < len(nodes)
            assert len({id(node.conclusion) for node in nodes}) == len(texts)
            assert reopened.base == live
            for entry in reopened.base.entries:
                node = reopened.graph.node(entry.justification)
                assert entry.formula is node.conclusion


class TestFormulaTable:
    """A session parses, renders and compiles each distinct formula text
    once, through its graph's formula table."""

    def test_a_churn_run_parses_each_text_once(self, make_config, monkeypatch):
        lines = churn_lines(monkeypatch, 300)
        texts, compiled = spy_parse_and_compile(monkeypatch)
        with Session(make_config()) as session:
            assert session.run_loop(lines, io.StringIO(), io.StringIO()) == 0
            live = session.base
        raw = {parse_observation_line(line)[0] for line in lines}
        assert sorted(texts) == sorted(raw)
        keys = [render_canonical(f) for f in compiled]
        assert len(keys) == len(set(keys))
        with Session(make_config()) as reopened:
            assert reopened.base == live

    def test_observing_a_stored_conclusion_compiles_nothing_new(
        self, make_config, monkeypatch
    ):
        """After a reopen, a text equal to a stored conclusion, in any
        spelling, is that node's formula and compiles nothing new.
        Observed before the store is read, it is the formula that the
        stored node then concludes."""
        config = make_config()
        with Session(config) as session:
            session.observe("p", 0.99, "sensor")
            session.observe("p -> q", 0.97, "rulebook")
        texts, compiled = spy_parse_and_compile(monkeypatch)
        with Session(config) as reopened:
            assert reopened.query("q").entailed
            texts.clear()
            compiled.clear()
            assert reopened.observe("(p) -> (q)", 0.98, "scout") == "admitted"
            assert texts == ["(p) -> (q)"] and compiled == []
            stored = reopened.graph.nodes_for(parse("p -> q"))[0]
            assert reopened.formula("p -> q") is reopened.graph.node(stored).conclusion
        compiled.clear()
        with Session(config) as reopened:
            assert reopened.observe("p", 0.96, "scout") == "admitted"
            observed = reopened.formula("p")
            stored = [reopened.graph.node(n) for n in reopened.graph.nodes_for(observed)]
            assert len(stored) == 2
            assert all(node.conclusion is observed for node in stored)
            keys = [render_canonical(f) for f in compiled]
            assert len(keys) == len(set(keys))

    def test_a_failed_write_leaves_live_replay_and_reopened_equal(
        self, make_config, monkeypatch
    ):
        """ENOSPC halfway through the block write of a revising line: the
        line leaves no trace but its formula in the table, which a later
        line of that text, spelt another way, then observes."""
        config, opener = make_config(), builtins.open

        def flaky_open(file, mode="r", *args, **kwargs):
            handle = opener(file, mode, *args, **kwargs)
            if os.fspath(file) == config.ledger_path and "a" in mode:
                # Each run writes its session-start block, then its line.
                return FullDisk(handle, 4)
            return handle

        monkeypatch.setattr(builtins, "open", flaky_open)
        with Session(config) as session:
            session.run_loop(["p\t0.99\tsensor\n"], io.StringIO(), io.StringIO())
            with pytest.raises(OSError):
                session.run_loop(["!p\t0.99\tsensor\n"], io.StringIO(), io.StringIO())
            kept = session.formula("!p")
            live = session.base
            assert live.find(kept) is None and live.find(parse("p")) is not None
            assert live == replay(session.ledger, config, session.graph)
            assert Ledger(config.ledger_path).blocks == session.ledger.blocks
            out = io.StringIO()
            line = "(! p)\t0.99\tsensor\n"
            assert session.run_loop([line], out, io.StringIO()) == 0
            assert out.getvalue() == "revised\t(! p)\n"
            assert session.base.find(kept).formula is kept
            live = session.base
            assert live == replay(session.ledger, config, session.graph)
        with Session(config) as reopened:
            assert reopened.base == live


class TestQuery:
    """Entailment read-outs with probability, tier, and state."""

    def test_modus_ponens_reports_weakest_premise(self, make_config):
        with Session(make_config()) as session:
            session.observe("p", 0.99, "sensor")
            session.observe("p -> q", 0.97, "rulebook")
            result = session.query("q")
            assert result.entailed
            assert result.probability == 0.97
            assert result.render() == "entailed\tp=0.97\ttier=4\tstate=Provisional"

    def test_unsupported_formula_reads_zero(self, make_config):
        with Session(make_config()) as session:
            session.observe("p", 0.99, "sensor")
            result = session.query("r")
            assert not result.entailed
            assert result.probability == 0.0
            assert result.state.value == "Rejected"

    def test_quarantined_entry_reports_stored_probability(self, make_config):
        with Session(make_config()) as session:
            session.observe("r", 0.5, "forecast")
            result = session.query("r")
            assert not result.entailed
            assert result.probability == 0.5

    def test_stored_formula_prefers_its_own_probability(self, make_config):
        with Session(make_config()) as session:
            session.observe("p", 0.99, "sensor")
            session.observe("p -> q", 0.99, "rulebook")
            session.observe("q", 0.96, "sensor")
            assert session.query("q").probability == 0.96

    def test_a_held_assertable_formula_needs_no_solve(self, make_config, monkeypatch):
        """phi in B entails phi; a held formula below the gate is still
        asked about, and the base may entail it all the same."""
        solves = []
        entails = veritas.engine.entails

        def spy(base, formula):
            solves.append(render_canonical(formula))
            return entails(base, formula)

        monkeypatch.setattr(veritas.engine, "entails", spy)
        with Session(make_config()) as session:
            session.observe("p", 0.99, "sensor")
            session.observe("p -> q", 0.97, "rulebook")
            session.observe("q", 0.6, "scout")
            session.observe("r", 0.6, "scout")
            assert session.query("(p -> q)").render() == (
                "entailed\tp=0.97\ttier=4\tstate=Provisional"
            )
            assert session.query("p").entailed and solves == []
            assert session.query("q").render() == (
                "entailed\tp=0.6\ttier=2\tstate=Uncertain"
            )
            assert not session.query("r").entailed
            assert solves == ["q", "r"]


# Literals, rules and disjunctions over four atoms.
ANSWER_POOL = (
    list("pqrs")
    + [f"!{a}" for a in "pqrs"]
    + [f"{a} -> {b}" for a in "pqrs" for b in "pqrs" if a != b]
    + [f"{a} | {b}" for a in "pqrs" for b in "pqrs" if a < b]
)


class TestOneAnswer:
    """query and prove read one answer (Session._answer)."""

    @pytest.mark.parametrize("seed", range(12))
    def test_prove_certifies_exactly_what_query_entails(self, make_config, seed):
        """Random observations over four atoms at 0.6, 0.96 and 0.99,
        refused ones skipped, then every goal of the pool: query entails
        a goal exactly when the base holds it as assertable or its
        assertable entries entail it (tt_entails); prove refuses exactly
        the goals query does not entail; and every proof verifies, its
        last step at query's probability."""
        rng = random.Random(seed)
        with Session(make_config(ledger_path="")) as session:
            for _ in range(rng.randrange(3, 9)):
                try:
                    session.observe(
                        rng.choice(ANSWER_POOL), rng.choice((0.6, 0.96, 0.99)), "s"
                    )
                except ConsistencyError:
                    continue
            assertable = session.base.assertable_formulas()
            for text in ANSWER_POOL:
                goal = parse(text)
                entry = session.base.find(goal)
                answer = session.query(text)
                assert answer.entailed == (
                    (entry is not None and entry.assertable)
                    or tt_entails(assertable, goal)
                ), text
                if not answer.entailed:
                    with pytest.raises(NoJustificationError):
                        session.prove(text)
                    continue
                proof = session.prove(text)
                assert session.verify_proof(proof).ok
                assert proof.chain[-1].provenance.confidence == answer.probability


class TestMinimalSupport:
    """The support behind a derived answer is the preferred minimal one."""

    def test_random_bases_match_the_deletion_loop(self, make_config):
        """Grafted bases over six atoms, some inconsistent, with about a
        quarter of the entries not assertable; every entailed goal's
        support is what the deletion loop over key order keeps, in base
        order."""
        rng = random.Random(27183)
        atoms = [Atom(name) for name in "pqrstu"]
        checked = inconsistent = 0
        with Session(make_config(ledger_path="")) as session:
            while checked < 300:
                pool = [random_formula(rng, atoms, 2) for _ in range(rng.randrange(1, 9))]
                session.base = BeliefBase()
                graft(
                    session,
                    *(
                        plain_entry(key, 0.99, assertable=rng.random() < 0.75)
                        for key in sorted({render_canonical(f) for f in pool})
                    ),
                )
                held = session.base.assertable_formulas()
                goal = random_formula(rng, atoms, 2)
                if not tt_entails(held, goal):
                    continue
                checked += 1
                inconsistent += not tt_satisfiable(held)
                expected = deletion_core(
                    [], sorted(held, key=render_canonical), lambda fs: tt_entails(fs, goal)
                )
                support = session._minimal_support(goal)
                assert [e.formula for e in support] == [
                    f for f in held if any(f is kept for kept in expected)
                ]
        assert inconsistent > 10

    def test_the_preferred_support_is_pinned(self, make_config):
        """r follows from {p, p -> r} and from {q, q -> r}.  The loop tries
        the earliest key first: (p -> r) goes, (q -> r) stays, p goes, q
        stays, so the answer carries q's 0.96 rather than 0.99."""
        with Session(make_config()) as session:
            session.observe("p", 0.99, "sensor")
            session.observe("q", 0.96, "sensor")
            session.observe("p -> r", 0.99, "rulebook")
            session.observe("q -> r", 0.99, "rulebook")
            assert [e.key for e in session._minimal_support(parse("r"))] == [
                "(q -> r)",
                "q",
            ]
            assert session.query("r").probability == 0.96
            proof = session.prove("r")
            premises = [session.graph.node(n).conclusion for n in proof.chain[-1].premises]
            assert [render_canonical(f) for f in premises] == ["(q -> r)", "q"]

    def test_a_held_text_maps_back_to_the_same_entries(self, make_config):
        """_minimal_support matches kept formulas to entries by identity;
        the goal may now be a held entry's own instance."""
        with Session(make_config()) as session:
            session.observe("p", 0.99, "sensor")
            session.observe("p -> q", 0.97, "rulebook")
            session.observe("q", 0.96, "sensor")
            session.observe("p -> r", 0.98, "rulebook")
            for text in ("q", "p -> q", "p", "q | r"):
                held = session.formula(text)
                fresh = parse(text)
                assert held is not fresh
                support = session._minimal_support(held)
                assert support == session._minimal_support(fresh)
                assert support and all(
                    any(e is kept for kept in session.base.entries) for e in support
                )
            keys = [e.key for e in session._minimal_support(session.formula("q"))]
            assert keys == ["q"]


class TestProofs:
    """Public proofs round-trip through JSON and anchor in the ledger."""

    def test_stored_belief_has_a_verifiable_proof(self, make_config):
        with Session(make_config()) as session:
            session.observe("p", 0.99, "sensor")
            proof = session.prove("p")
            assert session.verify_proof(proof).ok

    def test_derived_conclusion_gets_an_entailment_step(self, make_config):
        with Session(make_config()) as session:
            session.observe("p", 0.99, "sensor")
            session.observe("p -> q", 0.97, "rulebook")
            proof = session.prove("q")
            assert session.verify_proof(proof).ok
            assert proof.chain[-1].rule == "entailment"
            assert session.ledger.contains_digest(proof.digest)

    def test_proving_a_derived_formula_again_solves_no_step(
        self, make_config, monkeypatch
    ):
        """The second prove records the same entailment node, which the
        graph holds already, so add_node asks no entailment."""
        with Session(make_config()) as session:
            session.observe("p", 0.99, "sensor")
            session.observe("p -> q", 0.97, "rulebook")
            first = session.prove("q")
            solves = []
            entails = veritas.justify.entails
            monkeypatch.setattr(
                veritas.justify,
                "entails",
                lambda *args: solves.append(args) or entails(*args),
            )
            assert session.prove("q") == first and solves == []

    def test_proving_twice_reuses_the_anchor(self, make_config):
        with Session(make_config()) as session:
            session.observe("p", 0.99, "sensor")
            session.prove("p")
            length = len(session.ledger)
            session.prove("p")
            assert len(session.ledger) == length

    def test_proof_json_round_trip(self, make_config):
        with Session(make_config()) as session:
            session.observe("p", 0.99, "sensor")
            session.observe("p -> q", 0.97, "rulebook")
            proof = session.prove("q")
            assert proof_from_json(proof_to_json(proof)) == proof

    def test_tampered_digest_is_rejected(self, make_config):
        with Session(make_config()) as session:
            session.observe("p", 0.99, "sensor")
            proof = session.prove("p")
            forged = proof_from_json(
                proof_to_json(proof).replace(proof.digest.hex(), "00" * 32)
            )
            result = session.verify_proof(forged)
            assert not result.ok
            assert result.reason == "digest mismatch"

    def test_unanchored_proof_is_rejected_elsewhere(self, make_config):
        with Session(make_config("origin")) as session:
            session.observe("p", 0.99, "sensor")
            proof = session.prove("p")
        with Session(make_config("stranger")) as other:
            result = other.verify_proof(proof)
            assert not result.ok
            assert result.reason == "not anchored"

    def test_unprovable_formula_raises(self, make_config):
        with Session(make_config()) as session:
            session.observe("p", 0.99, "sensor")
            with pytest.raises(NoJustificationError):
                session.prove("r")

    @pytest.mark.parametrize("demoted", [False, True], ids=["below-gate", "demoted"])
    def test_a_held_formula_that_is_not_entailed_is_refused(
        self, make_config, demoted
    ):
        """prove reads query's answer: a held entry that the assertable
        entries do not entail, stored below the gate or demoted by
        protocol II, gets no proof, and the refusal writes no block and
        no node.  justify still returns the entry's recorded chain."""
        config = make_config()
        with Session(config) as session:
            if demoted:
                session.observe("q", 0.99, "sensor")
                session.recover(
                    FailureEvent(FailureKind.JUSTIFICATION_BREAKDOWN, "q")
                )
            else:
                assert session.observe("q", 0.6, "scout") == "stored-non-assertable"
            entry = session.base.find(parse("q"))
            assert not entry.assertable
            assert session.query("q").render() == (
                "not-entailed\tp=0.005\ttier=0\tstate=Rejected"
                if demoted
                else "not-entailed\tp=0.6\ttier=2\tstate=Uncertain"
            )
            stores = [Path(config.ledger_path), Path(config.resolved_nodes_path())]
            before = [path.read_bytes() for path in stores]
            length, nodes = len(session.ledger), len(session.graph)
            with pytest.raises(NoJustificationError, match="^not entailed: q$"):
                session.prove("q")
            assert (len(session.ledger), len(session.graph)) == (length, nodes)
            chain = session.justify_formula("q").chain
            assert chain[-1].node_id == entry.justification
            assert chain[-1].rule == ("demotion" if demoted else "observation")
        assert [path.read_bytes() for path in stores] == before

    def test_a_proof_already_anchored_keeps_no_node(self, make_config):
        """A second proof of q, after an observation moved the clock,
        records an entailment node with a new id but the anchored chain
        digest, so it appends no block; no block would name the node,
        so the graph does not keep it and no later write stores it."""
        config = make_config()
        with Session(config) as session:
            session.observe("p", 0.99, "sensor")
            session.observe("p -> q", 0.97, "rulebook")
            first = session.prove("q")
            session.observe("s", 0.99, "sensor")
            nodes, length = session.graph.all_nodes(), len(session.ledger)
            again = session.prove("q")
            assert again.digest == first.digest and again.chain != first.chain
            assert session.verify_proof(again).ok
            assert len(session.ledger) == length
            assert session.graph.all_nodes() == nodes
            session.observe("t", 0.99, "sensor")
            stored = session.graph.all_nodes()
        with Session(config) as reopened:
            assert reopened.graph.all_nodes() == stored

    def test_a_memory_session_keeps_the_nodes_a_file_session_keeps(
        self, make_config
    ):
        """The second, unanchored proof of q keeps no node in memory
        either, so both sessions end with the same node ids."""
        held = []
        for path in (make_config().ledger_path, ""):
            with Session(make_config(ledger_path=path)) as session:
                session.observe("p", 0.99, "sensor")
                session.observe("p -> q", 0.97, "rulebook")
                session.prove("q")
                session.observe("s", 0.99, "sensor")
                session.prove("q")
                held.append([node.node_id for node in session.graph.all_nodes()])
        assert held[0] == held[1] and len(held[0]) == 4

    @pytest.mark.parametrize("path", ["agent.vlog", ""], ids=["file", "memory"])
    def test_each_node_is_hashed_once(
        self, make_config, monkeypatch, tmp_path, path
    ):
        """An observation's node and a proof's entailment node are each
        hashed once: record_inference does not check the id it computed."""
        hashed, digest = [], veritas.justify.node_digest

        def spy(conclusion, *args):
            hashed.append(render_canonical(conclusion))
            return digest(conclusion, *args)

        for module in (veritas.justify, veritas.engine):
            monkeypatch.setattr(module, "node_digest", spy, raising=False)
        config = make_config(ledger_path=path and str(tmp_path / path))
        with Session(config) as session:
            session.observe("p", 0.99, "sensor")
            session.observe("p -> q", 0.97, "rulebook")
            assert hashed == ["p", "(p -> q)"]
            session.prove("q")
        assert hashed == ["p", "(p -> q)", "q"]


class TestRollback:
    """Rollback appends compensating blocks and never truncates."""

    def test_rollback_to_zero_empties_the_base(self, make_config):
        with Session(make_config()) as session:
            session.observe("p", 0.99, "sensor")
            session.observe("q", 0.97, "sensor")
            before = len(session.ledger)
            session.rollback(0)
            assert export(session.base) == ""
            assert len(session.ledger) > before
            assert export(session.base) == replay_export(session)

    def test_rollback_restores_a_contracted_belief(self, make_config):
        with Session(make_config()) as session:
            session.observe("p", 0.99, "sensor")
            session.observe("q", 0.97, "sensor")
            session.contract_formula("p")
            assert session.base.find(parse("p")) is None
            session.rollback(2)
            restored = session.base.find(parse("p"))
            assert restored is not None
            assert restored.probability == 0.99
            assert export(session.base) == replay_export(session)

    def test_rollback_restores_marked_entries_exactly(self, make_config):
        with Session(make_config()) as session:
            session.observe("Temp(Room1)", 0.99, "sensor")
            session.recover(
                FailureEvent(FailureKind.APPROXIMATION_DRIFT, "Temp(Room1)")
            )
            marked_length = len(session.ledger)
            marked = session.base.entries
            assert session.base.find(parse("Temp(Room1)")).status is (
                StatusTag.APPROXIMATE
            )
            session.rollback(1)
            fresh = session.base.find(parse("Temp(Room1)"))
            assert fresh.status is StatusTag.OPERATIONAL
            assert fresh.assertable
            session.rollback(marked_length)
            again = session.base.find(parse("Temp(Room1)"))
            assert again.status is StatusTag.APPROXIMATE
            assert not again.assertable
            assert session.base.entries == marked
            assert export(session.base) == replay_export(session)

    def test_an_observation_after_a_rollback_does_not_depend_on_a_reopen(
        self, make_config
    ):
        """The fixed clock counts the INSERT and REVISE blocks in the
        chain, rollback's re-insert of p included, in the session that
        appended them as in a reopened one: the next observation is
        stamped 2 and gets the same node either way."""
        config, twin = make_config(), make_config("twin")
        stamps = []
        for each in (config, twin):
            with Session(each) as session:
                session.observe("p", 0.99, "sensor")
                session.contract_formula("p")
                session.rollback(1)
                if each is config:
                    session.observe("q", 0.99, "sensor")
                    stamps.append(session.base.find(parse("q")).provenance.timestamp)
        with Session(twin) as session:
            session.observe("q", 0.99, "sensor")
            stamps.append(session.base.find(parse("q")).provenance.timestamp)
        assert stamps == [2, 2]
        for mine, theirs in (
            (config.ledger_path, twin.ledger_path),
            (config.resolved_nodes_path(), twin.resolved_nodes_path()),
        ):
            assert Path(mine).read_bytes() == Path(theirs).read_bytes()

    def test_rollback_bounds_are_checked(self, make_config):
        with Session(make_config()) as session:
            session.observe("p", 0.99, "sensor")
            with pytest.raises(ValueError):
                session.rollback(-1)
            with pytest.raises(ValueError):
                session.rollback(len(session.ledger) + 1)


class TestGuardIntegration:
    """Safety gate, meta-sweep reactions, and recovery wiring."""

    def test_is_safe_accepts_a_healthy_base(self, make_config):
        config = make_config(domain_path=str(DOMAINS / "navigation.domain"))
        with Session(config) as session:
            session.observe("At(Agent1,LocationA)", 0.99, "sensor")
            safe, reason = session.is_safe([])
            assert safe
            assert reason == ""

    def test_is_safe_flags_weak_support(self, make_config):
        config = make_config(domain_path=str(DOMAINS / "navigation.domain"))
        with Session(config) as session:
            graft(session, plain_entry("At(Agent1,LocationA)", 0.6))
            safe, reason = session.is_safe([])
            assert not safe
            assert "At(Agent1,LocationA)" in reason

    def test_is_safe_flags_an_inconsistent_base(self, make_config):
        config = make_config(domain_path=str(DOMAINS / "navigation.domain"))
        with Session(config) as session:
            graft(
                session,
                plain_entry("p", 0.99),
                plain_entry("!p", 0.99),
            )
            safe, reason = session.is_safe([])
            assert not safe
            assert reason == "belief base inconsistent"

    def test_sweep_is_quiet_on_a_healthy_base(self, make_config):
        with Session(make_config()) as session:
            session.observe("p", 0.99, "sensor")
            length = len(session.ledger)
            log, reports = session.sweep_and_react()
            assert all(item.action == "none" for item in log)
            assert reports == []
            assert len(session.ledger) == length

    def test_sweep_demotes_an_orphaned_belief(self, make_config):
        with Session(make_config()) as session:
            session.observe("p", 0.99, "sensor")
            graft(
                session,
                plain_entry("Hum(Room1)", 0.97, justification="0" * 64),
            )
            log, reports = session.sweep_and_react()
            assert any(
                item.action == "reevaluate" and item.formula == "Hum(Room1)"
                for item in log
            )
            assert len(reports) == 1
            entry = session.base.find(parse("Hum(Room1)"))
            assert entry.probability == pytest.approx(0.005)
            assert not entry.assertable
            ops = [block.op for block in session.ledger.blocks]
            assert Op.META in ops
            assert Op.RECOVERY in ops

    def test_nodes_are_stored_before_the_blocks_that_name_them(
        self, make_config, monkeypatch
    ):
        """Demotion (II), regrounding (III) and human review (IV) each
        record a node; it is in the node store before its block line is
        written."""
        config = make_config()
        append_all = veritas.ledger._append_all
        named = []

        def checked_write(handle, data, end, sync=False):
            if handle.name == config.ledger_path:
                with open(config.resolved_nodes_path(), encoding="utf-8") as nodes:
                    stored = {json.loads(line)["id"] for line in nodes}
                for raw in data.splitlines():
                    block = veritas.ledger._parse_line(raw)
                    op, digest = block.op, block.justification_digest
                    if op in (Op.INSERT, Op.REVISE) or (
                        op is Op.RECOVERY and block.formula and digest != ZERO_HASH
                    ):
                        assert digest.hex() in stored, (op, block.formula)
                        named.append(op)
            return append_all(handle, data, end, sync)

        # Both files are appended through this one helper.
        monkeypatch.setattr(veritas.ledger, "_append_all", checked_write)
        with Session(config) as session:
            for text in ("p", "q", "r"):
                session.observe(text, 0.99, "sensor")
            kinds = (
                FailureKind.JUSTIFICATION_BREAKDOWN,
                FailureKind.APPROXIMATION_DRIFT,
                FailureKind.GROUNDING_MISALIGNMENT,
            )
            reports = [
                session.recover(FailureEvent(kind, text))
                for kind, text in zip(kinds, ("p", "q", "r"))
            ]
        assert [r.lines[0].split("\t")[-1] for r in reports] == [
            "demoted", "marked-for-reobservation", "marked-for-reobservation"
        ]
        assert "human-review" in reports[2].directives
        assert named == [Op.INSERT] * 3 + [Op.RECOVERY] * 3


class TestWorldState:
    """Projection of the belief base into a planning state."""

    def test_init_atoms_merge_with_assertable_beliefs(self, make_config):
        config = make_config(domain_path=str(DOMAINS / "navigation.domain"))
        with Session(config) as session:
            session.observe("At(Agent1,LocationB)", 0.99, "sensor")
            state = session.world_state()
            assert parse("At(Agent1,LocationB)") in state.atoms
            assert parse("At(Agent1,LocationA)") in state.atoms

    def test_non_atoms_and_quarantined_entries_are_excluded(self, make_config):
        config = make_config(domain_path=str(DOMAINS / "navigation.domain"))
        with Session(config) as session:
            session.observe("At(Agent1,LocationB) -> Busy(Agent1)", 0.99, "x")
            session.observe("Busy(Agent1)", 0.5, "x")
            state = session.world_state()
            assert parse("Busy(Agent1)") not in state.atoms

    def test_the_state_is_one_object_while_its_beliefs_stay(self, make_config):
        config = make_config(domain_path=str(DOMAINS / "navigation.domain"))
        with Session(config) as session:
            session.observe("At(Agent1,LocationB)", 0.99, "sensor")
            state = session.world_state()
            session.observe("p -> q", 0.99, "rulebook")
            session.observe("Busy(Agent1)", 0.5, "x")
            session.observe("At(Agent1,LocationB)", 0.97, "sensor")
            assert session.world_state() is state
            session.observe("Busy(Agent1)", 0.99, "x")
            assert session.world_state() is not state
            assert parse("Busy(Agent1)") in session.world_state().atoms


class TestInjectPolicy:
    """External plans are type-gated, simulated, and repaired."""

    def test_failing_injection_is_reselected(self, make_config):
        config = make_config(domain_path=str(DOMAINS / "drone.domain"))
        with Session(config) as session:
            fly = resolve_action("Fly(Drone1,Base,SiteAlpha)", session.domain())
            lines = session.inject_policy([fly])
            assert any(line.startswith("injected\t") for line in lines)
            assert any(line.startswith("recovered\t") for line in lines)
            assert any("reselected(Recharge(Drone1)" in line for line in lines)
            ops = [block.op for block in session.ledger.blocks]
            assert ops.count(Op.TRACE_SEAL) == 2

    def test_utility_gap_triggers_reselection(self, make_config):
        config = make_config(domain_path=str(DOMAINS / "drone.domain"))
        with Session(config) as session:
            fly = resolve_action("Fly(Drone1,Base,SiteAlpha)", session.domain())
            lines = session.inject_policy(
                [fly], expected_utility=1.0, actual_utility=0.2
            )
            assert any(line.startswith("reselected\t") for line in lines)

    def test_utility_gap_within_delta_executes_as_given(self, make_config):
        config = make_config(domain_path=str(DOMAINS / "drone.domain"))
        with Session(config) as session:
            recharge = resolve_action("Recharge(Drone1)", session.domain())
            lines = session.inject_policy(
                [recharge], expected_utility=1.0, actual_utility=0.95
            )
            assert any(line.startswith("injected\t") for line in lines)
            assert not any(line.startswith("recovered\t") for line in lines)

    def test_escalates_when_no_alternative_exists(self, make_config, tmp_path):
        domain_file = tmp_path / "dead-end.domain"
        domain_file.write_text(
            "concept Thing\n"
            "entity A : Thing\n"
            "action Noop(x:Thing) pre: add: del:\n"
            "init: Ready(A)\n"
            "goal: Missing(A)\n"
        )
        config = make_config(domain_path=str(domain_file))
        with Session(config) as session:
            noop = resolve_action("Noop(A)", session.domain())
            with pytest.raises(EscalationError):
                session.inject_policy(
                    [noop], expected_utility=1.0, actual_utility=0.0
                )

    def test_type_violations_are_refused(self, make_config):
        config = make_config(domain_path=str(DOMAINS / "drone.domain"))
        with Session(config) as session:
            bad = resolve_action("Fly(Base,Base,Base)", session.domain())
            with pytest.raises(PlanningError):
                session.inject_policy([bad])

    def test_unknown_action_name_is_refused(self, make_config):
        config = make_config(domain_path=str(DOMAINS / "drone.domain"))
        with Session(config) as session:
            with pytest.raises(PlanningError):
                resolve_action("Teleport(Drone1)", session.domain())


class TestRunLoop:
    """The sense, revise, sweep, plan, seal cycle."""

    def test_empty_stream_leaves_one_session_block(self, make_config):
        with Session(make_config()) as session:
            out, diag = io.StringIO(), io.StringIO()
            assert session.run_loop([], out, diag) == 0
            assert len(session.ledger) == 1
            assert session.ledger.blocks[0].op is Op.META
            assert session.ledger.blocks[0].formula == "session-start"

    def test_contradictory_stream_revises_and_stays_consistent(self, make_config):
        with Session(make_config()) as session:
            out, diag = io.StringIO(), io.StringIO()
            lines = ["p\t0.99\tsensor\n", "!p\t0.99\tsensor\n"]
            assert session.run_loop(lines, out, diag) == 0
            assert "admitted\tp" in out.getvalue()
            assert "revised\t(! p)" in out.getvalue()
            assert session.base.find(parse("!p")) is not None
            assert session.base.find(parse("p")) is None

    def test_navigation_session_plans_and_seals(self, make_config):
        config = make_config(
            domain_path=str(DOMAINS / "navigation.domain"),
            goal="At(Agent1,LocationB)",
        )
        with Session(config) as session:
            out, diag = io.StringIO(), io.StringIO()
            lines = [
                "At(Agent1,LocationA)\t0.99\tsensor\n",
                "Connected(LocationA,LocationB)\t0.99\tmap\n",
            ]
            assert session.run_loop(lines, out, diag) == 0
            assert "executed\tMove(Agent1,LocationA,LocationB)" in out.getvalue()
            assert len(session.ledger) >= 3
            ops = [block.op for block in session.ledger.blocks]
            assert Op.TRACE_SEAL in ops

    def test_unreachable_goal_is_reported_not_fatal(self, make_config):
        config = make_config(
            domain_path=str(DOMAINS / "navigation.domain"),
            goal="Connected(LocationB,LocationA)",
        )
        with Session(config) as session:
            out, diag = io.StringIO(), io.StringIO()
            lines = ["At(Agent1,LocationA)\t0.99\tsensor\n"]
            assert session.run_loop(lines, out, diag) == 0
            assert diag.getvalue().startswith("plan-failure\t")

    def test_comments_and_blank_lines_are_skipped(self, make_config):
        with Session(make_config()) as session:
            out, diag = io.StringIO(), io.StringIO()
            lines = ["# warm-up\n", "\n", "p\t0.99\tsensor\n"]
            assert session.run_loop(lines, out, diag) == 0
            assert len(session.ledger) == 2

    def test_fixed_clock_runs_are_byte_identical(self, tmp_path):
        streams = [
            "At(Agent1,LocationA)\t0.99\tsensor\n",
            "Connected(LocationA,LocationB)\t0.99\tmap\n",
        ]
        ledgers = []
        for stem in ("first", "second"):
            workdir = tmp_path / stem
            workdir.mkdir()
            config = load_config(
                fixed_clock=True,
                ledger_path=str(workdir / "agent.vlog"),
                domain_path=str(DOMAINS / "navigation.domain"),
                goal="At(Agent1,LocationB)",
            )
            with Session(config) as session:
                session.run_loop(streams, io.StringIO(), io.StringIO())
            ledgers.append((workdir / "agent.vlog").read_bytes())
        assert ledgers[0] == ledgers[1]


DRONE_GOALS = (
    "At(Drone1,SiteAlpha)",
    "At(Drone1,SiteAlpha),!FullBattery(Drone1)",
    "Inside(Drone1,Base)",
)
DRONE_LINES = (
    "At(Drone1,SiteAlpha)",
    "At(Drone1,Base)",
    "!At(Drone1,Base)",
    "FullBattery(Drone1)",
    "!FullBattery(Drone1)",
    "LowBattery(Drone1)",
    "!LowBattery(Drone1)",
)


def drone_stream(rng: random.Random, count: int) -> list[str]:
    """Lines mixing S<i> atoms and rules with drone domain literals."""
    lines = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.3:
            text = rng.choice(DRONE_LINES)
        elif roll < 0.8:
            text = f"S{rng.randrange(12)}"
        else:
            text = f"S{rng.randrange(12)} -> S{rng.randrange(12)}"
        probability = rng.choice(("0.99", "0.97", "0.6"))
        lines.append(f"{text}\t{probability}\t{rng.choice(('gps', 'scout'))}\n")
    return lines


class TestPlanReuse:
    """run plans again only when the goal or the relevant state changes."""

    def drone_config(self, make_config, stem="agent", goal=DRONE_GOALS[0]):
        return make_config(
            stem, domain_path=str(DOMAINS / "drone.domain"), goal=goal
        )

    def count_plans(self, monkeypatch) -> list:
        calls = []
        original = veritas.engine.abduce_policy

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(veritas.engine, "abduce_policy", spy)
        return calls

    def test_irrelevant_lines_reuse_the_plan(self, make_config, monkeypatch):
        calls = self.count_plans(monkeypatch)
        lines = [f"S{i}\t0.99\tsensor\n" for i in range(50)]
        with Session(self.drone_config(make_config)) as session:
            out = io.StringIO()
            assert session.run_loop(lines, out, io.StringIO()) == 0
            assert len(calls) == 1
            assert out.getvalue().count("sealed\t") == 50
            # A quarantined domain atom is not in the state either.
            session.run_loop(["FullBattery(Drone1)\t0.6\tx\n"], out, io.StringIO())
            assert len(calls) == 1
            session.run_loop(["FullBattery(Drone1)\t0.99\tx\n"], out, io.StringIO())
            assert len(calls) == 2

    def test_a_planning_failure_is_reused_with_its_text(self, make_config, monkeypatch):
        calls = self.count_plans(monkeypatch)
        config = self.drone_config(make_config, goal=DRONE_GOALS[2])
        lines = [f"S{i}\t0.99\tsensor\n" for i in range(5)]
        with Session(config) as session:
            diag = io.StringIO()
            assert session.run_loop(lines, io.StringIO(), diag) == 0
        assert len(calls) == 1
        failures = diag.getvalue().splitlines()
        assert len(failures) == 5 and len(set(failures)) == 1
        assert failures[0].startswith(f"plan-failure\t{DRONE_GOALS[2]}\tno plan")

    def test_plan_and_inject_share_the_last_plan(self, make_config, monkeypatch):
        calls = self.count_plans(monkeypatch)
        with Session(self.drone_config(make_config)) as session:
            session.run_loop(["S1\t0.99\tsensor\n"], io.StringIO(), io.StringIO())
            plan, _, _ = session.plan_goal()
            assert len(calls) == 1
            fly = resolve_action("Fly(Drone1,Base,SiteAlpha)", session.domain())
            lines = session.inject_policy([fly])
            assert lines[-1].startswith("t2\tFly(Drone1,Base,SiteAlpha)")
            assert len(calls) == 1
        assert [a.render() for a in plan] == [
            "Recharge(Drone1)",
            "Fly(Drone1,Base,SiteAlpha)",
        ]

    @pytest.mark.parametrize("seed", range(9))
    def test_random_drone_streams_match_the_reference_loop(
        self, make_config, seed
    ):
        rng = random.Random(seed)
        lines = drone_stream(rng, 40)
        goal = DRONE_GOALS[seed % len(DRONE_GOALS)]
        results = []
        for stem, loop in (("live", Session.run_loop), ("ref", reference_run_loop)):
            config = self.drone_config(make_config, stem, goal)
            out, diag = io.StringIO(), io.StringIO()
            with Session(config) as session:
                status = loop(session, lines, out, diag)
            with open(config.ledger_path, "rb") as vlog:
                with open(config.resolved_nodes_path(), "rb") as nodes:
                    files = vlog.read(), nodes.read()
            results.append((status, out.getvalue(), diag.getvalue(), *files))
        assert results[0] == results[1]
        assert "sealed\t" in results[0][1] or "plan-failure" in results[0][2]

    def test_goal_without_domain_fails_each_line(self, make_config):
        with Session(make_config(goal="At(Agent1,LocationB)")) as session:
            diag = io.StringIO()
            lines = ["p\t0.99\tsensor\n", "q\t0.99\tsensor\n"]
            assert session.run_loop(lines, io.StringIO(), diag) == 0
        assert diag.getvalue() == (
            "plan-failure\tAt(Agent1,LocationB)\tno domain file configured\n" * 2
        )

    @pytest.mark.parametrize(
        "overrides, error",
        [
            (dict(goal="At(Drone1,"), ParseError),
            (dict(goal="At(Drone1,SiteAlpha)", domain_path="missing.domain"), OSError),
        ],
    )
    def test_a_bad_goal_or_domain_writes_nothing(self, make_config, overrides, error):
        config = make_config(**overrides)
        with Session(config) as session:
            with pytest.raises(error):
                session.run_loop(["p\t0.99\tsensor\n"], io.StringIO(), io.StringIO())
            assert len(session.ledger) == 0
            assert len(session.graph) == 0


class TestGroupCommit:
    """run writes each stream line's blocks with one write and one fsync."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        """Every os.fsync and open, in order, and the benchmark's inputs."""
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        seen = []
        fsync, opener = os.fsync, builtins.open

        def spy_fsync(fd):
            seen.append("fsync")
            return fsync(fd)

        def spy_open(*args, **kwargs):
            seen.append("open")
            return opener(*args, **kwargs)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(builtins, "open", spy_open)
        return seen

    def test_a_drone_run_fsyncs_once_per_line(self, make_config, calls):
        from workloads import ingest_stream

        lines, _ = ingest_stream(901, 200)
        config = make_config(
            domain_path=str(DOMAINS / "drone.domain"), goal="At(Drone1,SiteAlpha)"
        )
        with Session(config) as session:
            out = io.StringIO()
            assert session.run_loop(lines, out, io.StringIO()) == 0
        # One for session-start, then one per line for its observation
        # and its trace seal; the node store is not fsynced.
        assert out.getvalue().count("sealed\t") == 200
        assert calls.count("fsync") == 201

    def test_a_drone_run_opens_the_node_store_once(self, make_config, monkeypatch):
        """The store, and the ledger too, stays open for appends while the
        session holds its lock; each line's nodes are written at its
        batch's exit."""
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        from workloads import ingest_stream

        opened, opener = [], builtins.open

        def spy_open(file, *args, **kwargs):
            opened.append(os.fspath(file))
            return opener(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", spy_open)
        lines, _ = ingest_stream(901, 200)
        config = make_config(
            domain_path=str(DOMAINS / "drone.domain"), goal="At(Drone1,SiteAlpha)"
        )
        with Session(config) as session:
            assert session.run_loop(lines, io.StringIO(), io.StringIO()) == 0
            graph = session.graph
        assert opened.count(config.resolved_nodes_path()) == 1
        assert opened.count(config.ledger_path) == 1
        with Session(config) as reopened:
            assert reopened.graph.all_nodes() == graph.all_nodes()

    def test_a_line_scores_and_gates_a_bounded_number_of_entries(
        self, make_config, monkeypatch
    ):
        """A 1,500-line drone-goal run: no line calls justification_health
        or assertion_gate more than a few times, however large the base
        has grown.  A full sweep and support scan per line made over a
        thousand health calls on each of the last lines."""
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        from workloads import ingest_stream

        import veritas.belief
        import veritas.guard

        calls: list[str] = []
        for home, name in (
            (veritas.guard, "justification_health"),
            (veritas.belief, "assertion_gate"),
        ):
            original = getattr(home, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            for module in list(sys.modules.values()):
                if module.__name__.startswith("veritas") and (
                    getattr(module, name, None) is original
                ):
                    monkeypatch.setattr(module, name, counted)
        per_line = []
        run_line = Session._run_line

        def counted_line(self, *args):
            before = len(calls)
            status = run_line(self, *args)
            per_line.append(len(calls) - before)
            return status

        monkeypatch.setattr(Session, "_run_line", counted_line)
        lines, _ = ingest_stream(901, 1500)
        config = make_config(
            ledger_path="",
            domain_path=str(DOMAINS / "drone.domain"),
            goal="At(Drone1,SiteAlpha)",
        )
        with Session(config) as session:
            out = io.StringIO()
            assert session.run_loop(lines, out, io.StringIO()) == 0
            assert len(session.base.entries) == 1500
        assert out.getvalue().count("sealed\t") == 1500
        assert len(per_line) == 1500 and max(per_line) <= 6

    def test_the_cold_read_set_up_costs_no_more_than_before(self, tmp_path, calls):
        """80 goal-less lines write one block each, then four proofs
        anchor one META block each: 85 fsyncs and 168 opens, as when each
        block was written on its own."""
        from workloads import Clock, ColdRead

        ColdRead(5, tmp_path, DOMAINS / "drone.domain").setup(Clock())
        assert calls.count("fsync") == 85
        assert calls.count("open") <= 168

    @pytest.mark.parametrize("failing", ["mscu_sweep", "seal_trace"])
    def test_a_failing_line_keeps_its_blocks_and_prints_after_fsync(
        self, make_config, monkeypatch, replays, failing
    ):
        """The third line raises after its observation block was buffered;
        its blocks are written, so the session keeps its base and never
        replays the ledger again."""
        config = make_config(
            domain_path=str(DOMAINS / "drone.domain"), goal="At(Drone1,SiteAlpha)"
        )
        events = []
        fsync, original = os.fsync, getattr(veritas.engine, failing)

        def spy_fsync(fd):
            events.append("fsync")
            return fsync(fd)

        def third_raises(*args, **kwargs):
            if len(events) >= 5:
                raise RuntimeError(f"{failing} failed")
            return original(*args, **kwargs)

        class Out(io.StringIO):
            def write(self, text):
                events.append("out")
                return super().write(text)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(veritas.engine, failing, third_raises)
        lines = [f"S{i}\t0.99\tsensor\n" for i in range(5)]
        out = Out()
        with Session(config) as session:
            with pytest.raises(RuntimeError, match=f"{failing} failed"):
                session.run_loop(lines, out, io.StringIO())
            assert events == ["fsync", "fsync", "out", "fsync", "out", "fsync"]
            assert out.getvalue().count("admitted\t") == 2
            assert session.ledger.blocks[-1].formula == "S2"
            live = session.base
            assert live.find(parse("S2")) is not None
            assert live == replay(session.ledger, config, session.graph)
            assert len(replays) == 1
        with Session(config) as reopened:
            assert reopened.ledger.blocks == session.ledger.blocks
            assert reopened.base == live

    def test_a_clean_run_replays_once(self, make_config, replays):
        """The base is replayed on first use and then only folded."""
        lines = [f"S{i}\t0.99\tsensor\n" for i in range(3)]
        with Session(make_config()) as session:
            assert session.run_loop(lines, io.StringIO(), io.StringIO()) == 0
            live = session.base
        assert len(replays) == 1
        assert [e.key for e in live.entries] == ["S0", "S1", "S2"]

    def test_a_failed_write_leaves_no_trace_of_its_line(
        self, make_config, monkeypatch, replays
    ):
        """ENOSPC halfway through writing the second of three one-line
        runs: the file, the chain and the session go back to before that
        line, and the ledger ends as if the line had never been read.  The
        session reads its base back by one replay, at its next use."""
        config, reference = make_config(), make_config("reference")
        opener = builtins.open

        def flaky_open(file, mode="r", *args, **kwargs):
            handle = opener(file, mode, *args, **kwargs)
            if os.fspath(file) == config.ledger_path and "a" in mode:
                # Each run writes its session-start block, then its line,
                # so the fourth write is the second line's.
                return FullDisk(handle, 4)
            return handle

        monkeypatch.setattr(builtins, "open", flaky_open)
        lines = [f"S{i}\t0.99\tsensor\n" for i in range(3)]
        with Session(config) as session:
            session.run_loop(lines[:1], io.StringIO(), io.StringIO())
            out = io.StringIO()
            with pytest.raises(OSError) as err:
                session.run_loop(lines[1:2], out, io.StringIO())
            assert err.value.errno == errno.ENOSPC and out.getvalue() == ""
            assert len(replays) == 1
            live = session.base
            assert len(replays) == 2
            assert live.find(parse("S1")) is None
            assert live == replay(session.ledger, config, session.graph)
            on_disk = Ledger(config.ledger_path)
            assert on_disk.verify_chain() is None
            assert on_disk.blocks == session.ledger.blocks
            assert replay(on_disk, config, session.graph) == live
            assert session.graph.nodes_for(parse("S1")) == []
            assert session.run_loop(lines[2:], io.StringIO(), io.StringIO()) == 0
            live = session.base
            assert live == replay(session.ledger, config, session.graph)
            assert len(replays) == 2
        with Session(config) as reopened:
            assert reopened.ledger.verify_chain() is None
            assert reopened.base == live
        with Session(reference) as session:
            for stream in (lines[:1], [], lines[2:]):
                session.run_loop(stream, io.StringIO(), io.StringIO())
        for mine, theirs in (
            (config.ledger_path, reference.ledger_path),
            (config.resolved_nodes_path(), reference.resolved_nodes_path()),
        ):
            assert Path(mine).read_bytes() == Path(theirs).read_bytes()

    @pytest.mark.parametrize("failed", range(3))
    def test_a_failed_block_write_at_any_line_is_cut_back(
        self, make_config, monkeypatch, failed
    ):
        """ENOSPC halfway through the block write of one of three one-line
        runs in one session: each file is cut back to where it ended, every
        later write starts where its file really ends, and both files end
        byte for byte as a run that skipped the line."""
        config, reference = make_config(), make_config("reference")
        opener, append_all, ends = builtins.open, veritas.ledger._append_all, []

        def flaky_open(file, mode="r", *args, **kwargs):
            handle = opener(file, mode, *args, **kwargs)
            if os.fspath(file) == config.ledger_path and "a" in mode:
                # Each run writes its session-start block, then its line.
                return FullDisk(handle, 2 * failed + 2)
            return handle

        def tracked_append(handle, data, end, sync=False):
            ends.append((end, os.fstat(handle.fileno()).st_size))
            return append_all(handle, data, end, sync)

        monkeypatch.setattr(builtins, "open", flaky_open)
        monkeypatch.setattr(veritas.ledger, "_append_all", tracked_append)
        lines = [f"S{i}\t0.99\tsensor\n" for i in range(3)]
        with Session(config) as session:
            for index, line in enumerate(lines):
                if index != failed:
                    assert session.run_loop([line], io.StringIO(), io.StringIO()) == 0
                    continue
                with pytest.raises(OSError) as err:
                    session.run_loop([line], io.StringIO(), io.StringIO())
                assert err.value.errno == errno.ENOSPC
        # Six block writes, each line's node write before its block's.
        assert len(ends) == 9
        assert all(end == size for end, size in ends)
        with Session(reference) as session:
            for index, line in enumerate(lines):
                stream = [] if index == failed else [line]
                session.run_loop(stream, io.StringIO(), io.StringIO())
        for mine, theirs in (
            (config.ledger_path, reference.ledger_path),
            (config.resolved_nodes_path(), reference.resolved_nodes_path()),
        ):
            assert Path(mine).read_bytes() == Path(theirs).read_bytes()

    def test_a_failed_first_line_of_a_reopened_session_leaves_no_node(
        self, make_config, monkeypatch
    ):
        """The line whose block write fails is the one that first loads
        the node store, after its node line was written: the store and
        the graph go back to what the load read."""
        config, reference = make_config(), make_config("reference")
        lines = [f"S{i}\t0.99\tsensor\n" for i in range(3)]
        for each in (config, reference):
            with Session(each) as session:
                session.run_loop(lines[:1], io.StringIO(), io.StringIO())
        append_all, block_writes = veritas.ledger._append_all, []

        def full_on_second_block_write(handle, data, end, sync=False):
            # Block lines are fsynced, node lines are not.
            if sync:
                block_writes.append(data)
                if len(block_writes) == 2:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return append_all(handle, data, end, sync)

        monkeypatch.setattr(veritas.ledger, "_append_all", full_on_second_block_write)
        with Session(config) as session:
            with pytest.raises(OSError):
                session.run_loop(lines[1:2], io.StringIO(), io.StringIO())
            assert len(session.graph) == 1
            assert session.graph.nodes_for(parse("S1")) == []
            session.run_loop(lines[2:], io.StringIO(), io.StringIO())
        with Session(reference) as session:
            for stream in ([], lines[2:]):
                session.run_loop(stream, io.StringIO(), io.StringIO())
        for mine, theirs in (
            (config.ledger_path, reference.ledger_path),
            (config.resolved_nodes_path(), reference.resolved_nodes_path()),
        ):
            assert Path(mine).read_bytes() == Path(theirs).read_bytes()

    def test_a_failed_node_write_leaves_no_torn_line(self, make_config, monkeypatch):
        """ENOSPC halfway through the node line of the second of three
        one-line runs: the store is cut back and the line's blocks are
        not written, so the store reopens and later lines replay."""
        config = make_config()
        nodes_path, opener = config.resolved_nodes_path(), builtins.open

        def flaky_open(file, mode="r", *args, **kwargs):
            handle = opener(file, mode, *args, **kwargs)
            if os.fspath(file) == nodes_path and "a" in mode:
                return FullDisk(handle, 2)
            return handle

        monkeypatch.setattr(builtins, "open", flaky_open)
        lines = [f"S{i}\t0.99\tsensor\n" for i in range(3)]
        with Session(config) as session:
            session.run_loop(lines[:1], io.StringIO(), io.StringIO())
            length, out = len(session.ledger), io.StringIO()
            with pytest.raises(OSError) as err:
                session.run_loop(lines[1:2], out, io.StringIO())
            assert err.value.errno == errno.ENOSPC and out.getvalue() == ""
            # session-start is written; the line's observation is not.
            assert len(session.ledger) == length + 1
            assert session.base.find(parse("S1")) is None
            assert Ledger(config.ledger_path).blocks == session.ledger.blocks
            assert session.run_loop(lines[2:], io.StringIO(), io.StringIO()) == 0
            live = session.base
            assert live.find(parse("S2")) is not None
            assert live == replay(session.ledger, config, session.graph)
        with Session(config) as reopened:
            assert reopened.ledger.blocks == session.ledger.blocks
            assert reopened.graph.all_nodes() == session.graph.all_nodes()
            assert reopened.base == live

    def test_an_unchanged_plan_and_state_seal_the_kept_trace(
        self, make_config, monkeypatch
    ):
        """Rules add no ground atom, so the world state stays the same and
        the trace is simulated and rendered once; every seal is the same."""
        simulated = []
        simulate = veritas.engine.simulate_trace

        def spy(*args, **kwargs):
            simulated.append(args)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(veritas.engine, "simulate_trace", spy)
        config = make_config(
            domain_path=str(DOMAINS / "drone.domain"), goal="At(Drone1,SiteAlpha)"
        )
        lines = [f"S{i} -> S{i + 1}\t0.99\trulebook\n" for i in range(20)]
        goal = parse_goal_literals(config.goal)
        with Session(config) as session:
            assert session.run_loop(lines, io.StringIO(), io.StringIO()) == 0
            state = session.world_state()
            plan = session._abduce(goal, state)
            expected = trace_digest(simulate(plan, state, goal=goal).trace)
            seals = [b for b in session.ledger.blocks if b.op is Op.TRACE_SEAL]
            assert len(simulated) == 1
            assert [b.justification_digest for b in seals] == [expected] * 20
            line = "FullBattery(Drone1)\t0.99\tx\n"
            session.run_loop([line], io.StringIO(), io.StringIO())
            assert len(simulated) == 2


class TestFailedWrite:
    """A failed write is undone in one place, the ledger's batch, for
    every command that writes: both files are cut back, and the graph
    loses the nodes the call recorded."""

    CALLS = {
        "observe": lambda session: session.observe("p -> q", 0.97, "rulebook"),
        "prove": lambda session: session.prove("q"),
        "recover": lambda session: session.recover(
            FailureEvent(FailureKind.APPROXIMATION_DRIFT, "p")
        ),
    }

    @pytest.mark.parametrize("failing", ["block", "node"])
    @pytest.mark.parametrize("call", CALLS)
    def test_a_failed_call_keeps_none_of_its_nodes(
        self, make_config, monkeypatch, call, failing
    ):
        """ENOSPC on the call's fsynced block write, or on its node
        write: the graph and the base are as before the call, and a
        session that goes on to observe r ends with the bytes of a twin
        that skipped the call."""
        config, twin = make_config(), make_config("twin")
        setup = ["p", "p -> q"] if call == "prove" else ["p"]
        for each in (config, twin):
            with Session(each) as session:
                for text in setup:
                    session.observe(text, 0.99, "sensor")
        append_all, failed = veritas.ledger._append_all, []

        def full_once(handle, data, end, sync=False):
            # Block lines are fsynced, node lines are not.
            if sync == (failing == "block") and not failed:
                failed.append(data)
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return append_all(handle, data, end, sync)

        monkeypatch.setattr(veritas.ledger, "_append_all", full_once)
        with Session(config) as session:
            nodes, base = session.graph.all_nodes(), session.base
            with pytest.raises(OSError) as err:
                self.CALLS[call](session)
            assert err.value.errno == errno.ENOSPC and failed
            assert session.graph.all_nodes() == nodes
            assert session.base == base
            assert session.observe("r", 0.99, "sensor") == "admitted"
        with Session(twin) as session:
            session.observe("r", 0.99, "sensor")
        for mine, theirs in (
            (config.ledger_path, twin.ledger_path),
            (config.resolved_nodes_path(), twin.resolved_nodes_path()),
        ):
            assert Path(mine).read_bytes() == Path(theirs).read_bytes()


class TestWrittenBytes:
    """The bytes a fixed-clock run leaves in the ledger and node store."""

    @pytest.mark.parametrize(
        "stream, goal, revisions, digest",
        [
            (
                "ingest_stream",
                "At(Drone1,SiteAlpha)",
                0,
                "b06de2995938af94162fcbdb79345318731f79015c701cdce6d76ea1bb316654",
            ),
            (
                "churn_stream",
                None,
                36,
                "55cc732f92277005f7f1367d1548adf0420e99877a334b3a14cbbfdc3d8f9037",
            ),
        ],
    )
    def test_a_run_writes_the_recorded_files(
        self, make_config, monkeypatch, stream, goal, revisions, digest
    ):
        """SHA-256 of .vlog then .nodes after 120 lines of seed 901, as
        written when observe still folded and appended its own blocks."""
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        import workloads

        lines, _ = getattr(workloads, stream)(901, 120)
        config = make_config(
            domain_path=str(DOMAINS / "drone.domain") if goal else "", goal=goal
        )
        out = io.StringIO()
        with Session(config) as session:
            assert session.run_loop(lines, out, io.StringIO()) == 0
        assert out.getvalue().count("revised\t") == revisions
        written = b"".join(
            Path(path).read_bytes()
            for path in (config.ledger_path, config.resolved_nodes_path())
        )
        assert hashlib.sha256(written).hexdigest() == digest


class TestLineFormats:
    """Small parsing helpers used by the loop and the shell."""

    def test_observation_line_round_trip(self):
        assert parse_observation_line("p -> q\t0.97\trulebook\n") == (
            "p -> q",
            0.97,
            "rulebook",
        )

    def test_malformed_observation_line_raises(self):
        with pytest.raises(ValueError):
            parse_observation_line("p 0.97 rulebook")

    def test_goal_literals_respect_argument_commas(self):
        literals = parse_goal_literals("At(Agent1,LocationB),!Busy(Agent1)")
        assert [lit.render() for lit in literals] == [
            "At(Agent1,LocationB)",
            "!Busy(Agent1)",
        ]
        assert parse_goal_literals("  ") == ()
