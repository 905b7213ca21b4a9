"""Input generators and the workloads: ingest, revise-churn and cold-read.

Each workload has ``setup()``, which prepares the inputs and any ledger
the episodes read; ``episode(state, clock)``, which runs one fixed unit
of work and records one latency per operation; and ``check(state)``,
which verifies the program's outputs after the last episode.  Episodes
of one seed do identical work, so a run repeats them until its time is
up.  Every workload runs with ``fixed_clock=true`` so block bytes,
digests and per-layer counts repeat exactly.
"""

from __future__ import annotations

import contextlib
import io
import random
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from veritas import cli
from veritas.belief import export
from veritas.config import EngineConfig
from veritas.engine import Session
from veritas.justify import node_to_json
from veritas.ledger import block_line, replay

SOURCES = ("sensor", "rulebook", "scout")
# The engine's default theta: lines below it are stored but not assertable.
ASSERTION_GATE = 0.95
ASSERTABLE_P = ("0.96", "0.97", "0.98", "0.99")

# ingest: positive atoms and implications over 40 atoms, inside the SAT
# checker's 64-atom limit; a quarter of lines fall below the assertion gate.
INGEST_ATOMS = 40
INGEST_LINES = 200
# revise-churn: literals over 12 atoms, so a revision contracts a base of
# at most 12 formulas, inside the 16-formula remainder cap.
CHURN_ATOMS = 12
CHURN_LINES = 240
# cold-read: a ledger of 1 + COLD_LINES blocks plus one anchor per proof.
COLD_LINES = 80
COLD_FORMULAS = 4

# Twelve opening lines plus four groups of three: four revisions.
WARMUP_LINES = 24


class CheckFailed(AssertionError):
    """The program's output disagrees with what the benchmark expects."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def ingest_stream(seed: int, count: int) -> tuple[list[str], list[str]]:
    """Stream lines and the verdict each line must get.

    Every formula appears once and exactly a quarter of the lines sit
    below the assertion gate, so the base ends with ``count`` entries
    whatever the seed and only the formulas' shape varies between seeds.
    """
    rng = random.Random(f"ingest:{seed}")
    atoms = min(INGEST_ATOMS, count // 4)
    formulas = [f"S{i}" for i in rng.sample(range(INGEST_ATOMS), atoms)]
    pairs = [(i, j) for i in range(INGEST_ATOMS) for j in range(INGEST_ATOMS) if i != j]
    formulas += [f"S{i} -> S{j}" for i, j in rng.sample(pairs, count - atoms)]
    rng.shuffle(formulas)
    low = set(rng.sample(range(count), count // 4))
    lines, verdicts = [], []
    for n, text in enumerate(formulas):
        p = "0.6" if n in low else rng.choice(ASSERTABLE_P)
        lines.append(f"{text}\t{p}\t{rng.choice(SOURCES)}\n")
        verdicts.append("stored-non-assertable" if n in low else "admitted")
    return lines, verdicts


def churn_stream(seed: int, count: int) -> tuple[list[str], list[str]]:
    """Literal stream that first observes every atom once, then runs in
    groups of three lines: one negates a held literal (a revision) and two
    re-observe held literals.  The base holds all CHURN_ATOMS literals from
    then on, so every revision contracts a base of the same size.

    Revising towards a positive literal is much cheaper than towards a
    negative one (the SAT check short-cuts on ``!p`` next to ``!!p``), so
    revisions alternate between the two directions and every seed gets
    the same mix."""
    rng = random.Random(f"revise-churn:{seed}")
    held = {f"C{i}": rng.random() < 0.5 for i in range(CHURN_ATOMS)}
    lines, verdicts = [], []

    def emit(atom: str, verdict: str) -> None:
        text = atom if held[atom] else f"!{atom}"
        lines.append(f"{text}\t{rng.choice(ASSERTABLE_P)}\t{rng.choice(SOURCES)}\n")
        verdicts.append(verdict)

    for atom in rng.sample(sorted(held), CHURN_ATOMS):
        emit(atom, "admitted")
    revisions = 0
    while len(lines) < count:
        group = ["revised", "admitted", "admitted"]
        rng.shuffle(group)
        for verdict in group:
            if verdict == "revised":
                negate = revisions % 2 == 0
                pool = sorted(a for a, v in held.items() if v == negate) or sorted(held)
                atom = rng.choice(pool)
                held[atom] = not held[atom]
                revisions += 1
            else:
                atom = f"C{rng.randrange(CHURN_ATOMS)}"
            emit(atom, verdict)
    return lines[:count], verdicts[:count]


class Clock:
    """Per-operation latencies, each with its kind and, when a reference
    kernel is set, the kernel's time measured just before the operation."""

    def __init__(self, reference=None) -> None:
        self.latencies: list[float] = []
        self.kernels: list[float] = []
        self.kinds: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.on_op = None
        self.reference = reference
        self._kernel = 0.0

    def start_op(self) -> float:
        self.attempted += 1
        if self.on_op is not None:
            self.on_op()
        if self.reference is not None:
            self._kernel = self.reference()
        return perf_counter()

    def end_op(self, start: float) -> None:
        self.latencies.append(perf_counter() - start)
        self.kernels.append(self._kernel)

    def pull(self, lines):
        """Yield stream lines, timing each from hand-over to the next pull."""
        for line in lines:
            start = self.start_op()
            yield line
            self.end_op(start)


class VerdictLog(io.StringIO):
    """The ``out`` stream of run_loop; collects the verdict of each line."""

    VERDICTS = ("admitted", "stored-non-assertable", "revised")

    def verdicts(self) -> list[str]:
        return [
            line.split("\t", 1)[0]
            for line in self.getvalue().splitlines()
            if line.split("\t", 1)[0] in self.VERDICTS
        ]


def fail(clock: Clock, what: str) -> None:
    """Count a failed operation and report it with its traceback."""
    clock.failed += 1
    print(f"failed op: {what}", flush=True)
    traceback.print_exc()


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def reopen_export(blocks, nodes, workdir: Path) -> str:
    """Write an in-memory chain and its nodes with the ledger's own
    serialisation, reopen a session on the files, and export its base."""
    target = fresh_dir(workdir / "reopen")
    vlog = target / "copy.vlog"
    vlog.write_bytes(b"".join(block_line(b) for b in blocks))
    (target / "copy.nodes").write_text(
        "".join(node_to_json(n) + "\n" for n in nodes), encoding="utf-8"
    )
    with Session(EngineConfig(ledger_path=str(vlog), fixed_clock=True)) as reopened:
        return export(reopened.base)


@dataclass
class StreamState:
    lines: list[str]
    verdicts: list[str]
    workdir: Path
    tip: bytes | None = None
    last: Session | None = None
    last_verdicts: list[str] = field(default_factory=list)


class StreamWorkload:
    """Session.run_loop over a generated stream, one fresh ledger per episode."""

    name = ""
    lines_per_episode = 0
    revise_share_min = 0.0

    def __init__(self, seed: int, root: Path, domain: Path):
        self.seed = seed
        self.root = root
        self.domain = domain

    def stream(self, count: int) -> tuple[list[str], list[str]]:
        raise NotImplementedError

    def config(self, workdir: Path) -> EngineConfig:
        raise NotImplementedError

    def setup(self, clock: Clock) -> StreamState:
        """Generate the stream and run a warm-up prefix through ``clock``."""
        lines, verdicts = self.stream(self.lines_per_episode)
        state = StreamState(lines, verdicts, fresh_dir(self.root / self.name))
        self._run(state, lines[:WARMUP_LINES], clock)
        expect(clock.failed == 0, f"{self.name}: warm-up failed")
        return state

    def _run(self, state: StreamState, lines: list[str], clock: Clock) -> Session | None:
        config = self.config(fresh_dir(state.workdir / "ledger"))
        out, diag = VerdictLog(), io.StringIO()
        try:
            session = Session(config)
        except Exception:
            fail(clock, f"{self.name}: open session")
            return None
        with session:
            try:
                status = session.run_loop(clock.pull(lines), out, diag)
            except Exception:
                fail(clock, f"{self.name}: run_loop line {clock.attempted}")
                return None
        if status != 0:
            clock.failed += 1
            print(f"failed op: run_loop exit {status}: {diag.getvalue()!r}", flush=True)
            return None
        expect(diag.getvalue() == "", f"{self.name}: diagnostics {diag.getvalue()!r}")
        state.last_verdicts = out.verdicts()
        return session

    def episode(self, state: StreamState, clock: Clock) -> None:
        first = len(clock.latencies)
        session = self._run(state, state.lines, clock)
        if session is None:
            clock.kinds.extend(["failed"] * (len(clock.latencies) - first))
            return
        clock.kinds.extend(state.last_verdicts)
        expect(
            state.last_verdicts == state.verdicts,
            f"{self.name}: verdicts differ from the generator's model",
        )
        tip = session.ledger.last_hash()
        expect(state.tip in (None, tip), f"{self.name}: chain tip differs between repeats")
        state.tip = tip
        state.last = session

    def check(self, state: StreamState) -> None:
        session = state.last
        expect(session is not None, f"{self.name}: no episode completed")
        live = export(session.base)
        replayed = export(replay(session.ledger, session.config, session.graph))
        expect(live == replayed, f"{self.name}: live base differs from replay(ledger)")
        if session.config.ledger_path:
            with Session(session.config) as again:
                reopened = export(again.base)
        else:
            reopened = reopen_export(
                session.ledger.blocks, session.graph.all_nodes(), state.workdir
            )
        expect(live == reopened, f"{self.name}: live base differs after reopening from disk")
        revised = state.last_verdicts.count("revised")
        expect(
            revised >= self.revise_share_min * len(state.lines),
            f"{self.name}: {revised} revisions in {len(state.lines)} lines",
        )

    def bytes_written(self, state: StreamState) -> int:
        """Ledger and node-file bytes of the last episode, which starts empty."""
        ledger = state.workdir / "ledger"
        return sum(p.stat().st_size for p in ledger.glob("bench.*") if p.suffix != ".lock")


class Ingest(StreamWorkload):
    name = "ingest"
    lines_per_episode = INGEST_LINES
    tail_percentile = 98.0

    def stream(self, count):
        return ingest_stream(self.seed, count)

    def config(self, workdir):
        return EngineConfig(
            ledger_path=str(workdir / "bench.vlog"),
            domain_path=str(self.domain),
            goal="At(Drone1,SiteAlpha)",
            fixed_clock=True,
        )


class ReviseChurn(StreamWorkload):
    name = "revise-churn"
    lines_per_episode = CHURN_LINES
    revise_share_min = 0.25
    tail_percentile = 95.0

    def stream(self, count):
        return churn_stream(self.seed, count)

    def config(self, workdir):
        return EngineConfig(ledger_path="", fixed_clock=True)


@dataclass
class ColdState:
    vlog: Path
    nodes: Path
    snapshot: tuple[bytes, bytes]
    commands: list[tuple[str, list[str], str]]


class ColdRead:
    """Cold CLI commands: one ``ledger verify``, which opens and
    hash-checks the chain, then ``query``, ``prove`` and ``verify-proof``,
    which also replay it.

    Set-up builds a fresh ledger with the ingest generator (no goal, so
    one block per line), anchors the proofs, and snapshots the files; the
    check at the end requires the files to equal the snapshot.
    """

    name = "cold-read"
    tail_percentile = 90.0

    def __init__(self, seed: int, root: Path, domain: Path):
        self.seed = seed
        self.root = root

    def setup(self, clock: Clock) -> ColdState:
        """Build the ledger, running its lines through ``clock``."""
        workdir = fresh_dir(self.root / self.name)
        vlog, nodes = workdir / "bench.vlog", workdir / "bench.nodes"
        lines, verdicts = ingest_stream(self.seed, COLD_LINES)
        config = EngineConfig(ledger_path=str(vlog), fixed_clock=True)
        out, diag = VerdictLog(), io.StringIO()
        with Session(config) as session:
            status = session.run_loop(clock.pull(lines), out, diag)
            expect(status == 0 and diag.getvalue() == "", f"{self.name}: build {diag.getvalue()!r}")
            expect(out.verdicts() == verdicts, f"{self.name}: build verdicts differ")
            flags = ["--set", f"ledger_path={vlog}", "--set", "fixed_clock=true"]
            commands = self.commands(session, lines, workdir, flags)
        return ColdState(vlog, nodes, (vlog.read_bytes(), nodes.read_bytes()), commands)

    def _pick(self, lines: list[str]) -> list[tuple[str, str, str | None]]:
        """(atom, held or derived, probability if held), chosen from the
        stream alone: forward chaining over its assertable lines says which
        atoms the base entails, independently of the program."""
        held: dict[str, str] = {}
        stored, rules = set(), []
        for line in lines:
            text, p, _ = line.rstrip("\n").split("\t")
            if "->" not in text:
                stored.add(text)
            if float(p) < ASSERTION_GATE:
                continue
            if "->" in text:
                rules.append(tuple(text.split(" -> ")))
            else:
                held[text] = p
        entailed, grown = set(held), True
        while grown:
            fresh = {b for a, b in rules if a in entailed and b not in entailed}
            entailed |= fresh
            grown = bool(fresh)
        derived = sorted(entailed - stored)
        half = COLD_FORMULAS // 2
        expect(len(held) >= half and len(derived) >= half, f"{self.name}: too few candidates")
        rng = random.Random(f"{self.name}:{self.seed}")
        return [(a, "held", held[a]) for a in rng.sample(sorted(held), half)] + [
            (a, "derived", None) for a in rng.sample(derived, half)
        ]

    def commands(self, session: Session, lines: list[str], workdir: Path, flags: list[str]):
        """(kind, argv, expected stdout) per command.  Expected answers come
        from the live session that built the ledger, after checking them
        against the stream; proofs are anchored here, so the timed commands
        leave the ledger unchanged."""
        commands = []
        for k, (text, how, p) in enumerate(self._pick(lines)):
            answer = session.query(text).render() + "\n"
            want = "entailed\t" + ("" if p is None else f"p={float(p)!r}\t")
            expect(answer.startswith(want), f"{self.name}: live query {text} gave {answer!r}")
            proof = workdir / f"proof{k}.json"
            digest = session.prove(text).digest.hex()
            commands += [
                (f"query:{how}", flags + ["query", text], answer),
                (f"prove:{how}", flags + ["prove", text, "--out", str(proof)],
                 f"proof\t{proof}\tdigest\t{digest}\n"),
                (f"verify-proof:{how}", flags + ["verify-proof", str(proof)], "ok\n"),
            ]
        verify = ("ledger-verify", flags + ["ledger", "verify"], f"ok\t{len(session.ledger)}\n")
        return [verify] + commands

    def episode(self, state: ColdState, clock: Clock) -> None:
        for kind, argv, want in state.commands:
            stdout, stderr = io.StringIO(), io.StringIO()
            start = clock.start_op()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main(argv)
            except Exception:
                fail(clock, f"{self.name}: {' '.join(argv)}")
                continue
            clock.end_op(start)
            clock.kinds.append(kind)
            if code != 0:
                clock.failed += 1
                print(f"failed op: exit {code}: {stderr.getvalue()!r}", flush=True)
                continue
            expect(
                stdout.getvalue() == want,
                f"{self.name}: {kind} printed {stdout.getvalue()!r}, expected {want!r}",
            )

    def check(self, state: ColdState) -> None:
        expect(
            (state.vlog.read_bytes(), state.nodes.read_bytes()) == state.snapshot,
            f"{self.name}: read-only commands changed the ledger",
        )

    def bytes_written(self, state: ColdState) -> int:
        """Ledger and node-file growth since the set-up snapshot."""
        size = state.vlog.stat().st_size + state.nodes.stat().st_size
        return size - sum(len(part) for part in state.snapshot)


WORKLOADS = {w.name: w for w in (Ingest, ReviseChurn, ColdRead)}
