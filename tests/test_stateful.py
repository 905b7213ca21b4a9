"""The three ledger invariants under random sequences of session commands.

After every step, refused ones included, the live base must equal a
replay of the ledger and the base of a session reopened from the bytes
on disk, under full BeliefBase equality (entries, epoch, retraction log
and history).  After every block appended, the bytes on disk must
reopen: no block may name a node the node store does not hold yet, so a
process that dies between two appends leaves a ledger that replays.
Inside a run_loop line's batch the reopened bytes lag the live chain,
as they would after a crash there.  After every step the session's
incremental sweep, world state and IsSafe verdict must also equal the
oracles' full passes over the base.

Some observe, contract and prove steps find the disk full: the next
write to one of the two files stores half its bytes and fails.  After
every step each file must hold exactly the session's chain or graph,
and a twin session, given every step but those that failed, must hold
the same bytes (fixed clock).  An in-memory session given the twin's
steps must hold the same node ids and export the same base: a ledger
without a file keeps and drops nodes as a file one does.
"""

from __future__ import annotations

import builtins
import errno
import io
import os
import shutil
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from oracles import reference_is_safe, reference_sweep, reference_world_state
from test_engine import FullDisk

from veritas.belief import ConsistencyError, export
from veritas.config import EngineConfig
from veritas.engine import Session
from veritas.guard import FailureEvent, FailureKind, mscu_sweep
from veritas.justify import NoJustificationError, node_to_json
from veritas.ledger import block_line, replay

DOMAIN = Path(__file__).parent / "domains" / "drone.domain"

# Four atoms; "p & !p" is refused as an observation and "p | !p" as a
# contraction, so refused operations are drawn as often as the rest.
FORMULAS = (
    "p", "q", "r", "s", "!p", "!q", "!r", "p -> q", "q -> r", "r | s",
    "p & !s", "p & !p", "p | !p",
)
PROBABILITIES = (0.3, 0.6, 0.96, 0.99)


class SessionMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="veritas-stateful-"))
        self.config = EngineConfig(
            ledger_path=str(self.dir / "live.vlog"),
            fixed_clock=True,
            domain_path=str(DOMAIN),
        )
        self.session = self._open()
        self.twin_config = EngineConfig(
            ledger_path=str(self.dir / "twin.vlog"),
            fixed_clock=True,
            domain_path=str(DOMAIN),
        )
        self.twin = Session(self.twin_config)
        self.memory = Session(
            EngineConfig(ledger_path="", fixed_clock=True, domain_path=str(DOMAIN))
        )

    def _sessions(self) -> tuple[Session, ...]:
        """The live session, its file twin and its in-memory twin."""
        return self.session, self.twin, self.memory

    def _open(self) -> Session:
        """A live session whose every append is followed by a reopen."""
        session = Session(self.config)
        append_block = session.ledger.append_block

        def append_then_reopen(block):
            append_block(block)
            self._reopened()
            return block

        session.ledger.append_block = append_then_reopen
        return session

    def _reopened(self):
        """The base of a session opened on a copy of the files, so the
        live session keeps its lock."""
        copy = EngineConfig(ledger_path=str(self.dir / "copy.vlog"), fixed_clock=True)
        for suffix in (".vlog", ".nodes"):
            source = self.dir / f"live{suffix}"
            target = self.dir / f"copy{suffix}"
            if source.exists():
                shutil.copyfile(source, target)
            else:
                target.unlink(missing_ok=True)
        with Session(copy) as reopened:
            return reopened.base

    def teardown(self) -> None:
        for session in self._sessions():
            session.close()
        shutil.rmtree(self.dir)

    @rule(
        text=st.sampled_from(FORMULAS),
        probability=st.sampled_from(PROBABILITIES),
        source=st.sampled_from(("alice", "bob")),
    )
    def observe(self, text: str, probability: float, source: str) -> None:
        for session in self._sessions():
            try:
                session.observe(text, probability, source)
            except ConsistencyError:
                assert text == "p & !p"

    @rule(
        suffix=st.sampled_from((".vlog", ".nodes")),
        step=st.sampled_from(("observe", "contract", "prove")),
        text=st.sampled_from(FORMULAS),
    )
    def full_disk(self, suffix: str, step: str, text: str) -> None:
        """One observe, contract or prove whose next write to the live
        file with suffix stores half its bytes, then fails with ENOSPC.
        The session's append handles are closed around the step, so
        that write opens the file again, through FullDisk."""
        target, opener = str(self.dir / f"live{suffix}"), builtins.open

        def flaky_open(file, mode="r", *args, **kwargs):
            handle = opener(file, mode, *args, **kwargs)
            if os.fspath(file) == target and "a" in mode:
                return FullDisk(handle, 1)
            return handle

        def run(session: Session) -> None:
            try:
                if step == "observe":
                    session.observe(text, 0.96, "dave")
                elif step == "contract":
                    session.contract_formula(text)
                else:
                    session.prove(text)
            except (ConsistencyError, NoJustificationError):
                pass

        ledger = self.session.ledger
        ledger.close()
        ledger.nodes.close()
        builtins.open = flaky_open
        try:
            run(self.session)
        except OSError as err:
            assert err.errno == errno.ENOSPC
        else:
            run(self.twin)
            run(self.memory)
        finally:
            builtins.open = opener
            ledger.close()
            ledger.nodes.close()

    @rule(
        lines=st.lists(
            st.tuples(st.sampled_from(FORMULAS), st.sampled_from(PROBABILITIES)),
            min_size=1,
            max_size=4,
        )
    )
    def run(self, lines) -> None:
        """run_loop, one batch per line; a refused line ends the run."""
        stream = [f"{text}\t{probability}\tcarol\n" for text, probability in lines]
        for session in self._sessions():
            try:
                session.run_loop(stream, io.StringIO(), io.StringIO())
            except ConsistencyError:
                assert "p & !p" in [text for text, _ in lines]

    @rule(text=st.sampled_from(FORMULAS))
    def contract(self, text: str) -> None:
        for session in self._sessions():
            try:
                session.contract_formula(text)
            except ConsistencyError:
                assert text == "p | !p"

    @rule(text=st.sampled_from(FORMULAS))
    def prove(self, text: str) -> None:
        for session in self._sessions():
            try:
                session.prove(text)
            except NoJustificationError:
                pass

    @rule(text=st.sampled_from(FORMULAS), other=st.sampled_from(FORMULAS))
    def prove_again(self, text: str, other: str) -> None:
        """A proof, an observation that moves the clock, and the same
        proof again, whose node gets a new id but an anchored digest."""
        for session in self._sessions():
            for step in ("prove", "observe", "prove"):
                try:
                    if step == "observe":
                        session.observe(other, 0.99, "erin")
                    else:
                        session.prove(text)
                except (ConsistencyError, NoJustificationError):
                    pass

    @rule()
    def sweep_and_react(self) -> None:
        for session in self._sessions():
            session.sweep_and_react()

    @rule(kind=st.sampled_from(list(FailureKind)), data=st.data())
    def recover(self, kind: FailureKind, data) -> None:
        """Mostly about a held formula, else one not held or unparsable."""
        held = [entry.key for entry in self.session.base.entries]
        subject = data.draw(st.sampled_from(held + ["t", "((("]))
        for session in self._sessions():
            session.recover(FailureEvent(kind, subject))

    @rule(data=st.data())
    def rollback(self, data) -> None:
        upto = data.draw(st.integers(0, len(self.session.ledger)))
        for session in self._sessions():
            session.rollback(upto)

    @rule()
    def reopen(self) -> None:
        self.session.close()
        self.session = self._open()
        self.twin.close()
        self.twin = Session(self.twin_config)

    @invariant()
    def live_equals_replay_equals_reopened(self) -> None:
        live = self.session.base
        assert live == replay(self.session.ledger, self.config, self.session.graph)
        assert self._reopened() == live

    @invariant()
    def files_hold_the_session_and_the_twin(self) -> None:
        """Each file holds exactly the chain's or the graph's lines, and
        the twin, which skipped the failed steps, the same bytes."""
        session = self.session
        nodes = session.graph.all_nodes()
        for suffix, lines in (
            (".vlog", [block_line(b) for b in session.ledger.blocks]),
            (".nodes", [f"{node_to_json(n)}\n".encode() for n in nodes]),
        ):
            live, twin = self.dir / f"live{suffix}", self.dir / f"twin{suffix}"
            held = live.read_bytes() if live.exists() else b""
            assert held == b"".join(lines)
            assert held == (twin.read_bytes() if twin.exists() else b"")

    @invariant()
    def memory_holds_the_files_nodes_and_base(self) -> None:
        """The in-memory twin holds the live session's node ids, in
        order, and its base."""
        live, memory = self.session, self.memory
        assert [n.node_id for n in memory.graph.all_nodes()] == [
            n.node_id for n in live.graph.all_nodes()
        ]
        assert export(memory.base) == export(live.base)

    @invariant()
    def incremental_reads_equal_full_passes(self) -> None:
        session = self.session
        theta_meta = self.config.theta_meta
        flagged = mscu_sweep(
            session.base, session.graph, theta_meta, session._index
        )
        full = reference_sweep(session.base, session.graph, theta_meta)
        assert flagged == [item for item in full if item.action != "none"]
        state = session.world_state()
        assert state == reference_world_state(session.domain(), session.base)
        assert session.is_safe([])[1] == reference_is_safe(session, state)


SessionMachine.TestCase.settings = settings(
    max_examples=80, stateful_step_count=15, deadline=None, derandomize=True
)
TestSessionInvariants = SessionMachine.TestCase
