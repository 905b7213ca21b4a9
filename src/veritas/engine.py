"""Agent sessions: the observe, sweep, plan, and audit cycle.

A Session owns the ledger, the justification node store, and the belief
base replayed from them.  Opening one verifies the chain; the node store
is read, and the base replayed, only when a command first uses them, so
checking a proof against the ledger needs neither.  Every belief
mutation, an observation too, goes through ledger.commit, which folds
the block by the same code replay uses and appends it only once the fold
has succeeded, so the live base and a fresh replay of the ledger can
never drift apart and a refused change appends no block.  A ledger
batch is the write unit for both the ledger and the node store: it
writes the store's new nodes before any block line, so later sessions
can replay every block, and a write that fails leaves both files and
the graph as they were, for every command.  observe, prove and a
recovery record each node with record_inference inside their batch,
then commit the block that names it, and set the live base only once
the batch is written; a batch that keeps no block keeps none of its
nodes, in memory as on file.  A run line is one batch, and a failed one
also gives the session back its base.

query and prove read one Answer (Session._answer): a formula is
entailed when held and assertable, or entailed by the assertable
entries, at the held entry's probability, else at the weakest link of
the preferred minimal support.  prove refuses any other formula;
justify_formula reads the recorded chain of any held entry.
"""

from __future__ import annotations

import fcntl
import functools
import io
import time
from dataclasses import dataclass

from .belief import (
    BeliefBase,
    BeliefEntry,
    ConfidenceTier,
    ConsistencyError,
    FourState,
    Provenance,
    classify_confidence,
    is_consistent_base,
    project_four_state,
    weakest_link,
)
from .config import EngineConfig
from .guard import (
    Diagnostic,
    FailureEvent,
    FailureKind,
    MetaLogEntry,
    RecoveryContext,
    RecoveryReport,
    SweepIndex,
    classify_failure,
    mscu_sweep,
    run_recovery,
)
from .justify import (
    JustificationGraph,
    NoJustificationError,
    PublicProof,
    VerifyResult,
    build_public_proof,
    verify_public_proof,
)
from .ledger import ZERO_HASH, Block, Ledger, NodeStore, Op, commit, replay, store_io
from .logic import (
    Atom,
    Formula,
    entails,
    is_tautology,
    parse,
    render_canonical,
)
from .logic.sat import is_satisfiable, preferred_conflict
from .plan import (
    Domain,
    GroundAction,
    Literal,
    PlanningError,
    SimulationResult,
    WorldState,
    abduce_policy,
    load_domain,
    parse_literal_list,
    relevant_state,
    render_trace,
    seal_trace,
    simulate_trace,
    trace_digest,
    type_check,
)


class SessionLockedError(RuntimeError):
    """Another process holds the ledger lock."""


class EscalationError(RuntimeError):
    """A recovery protocol escalated without a usable alternative."""


@dataclass(frozen=True)
class Answer:
    """Session._answer's answer: support is the held entry, else a
    derived answer's preferred minimal support; tier and state follow
    from the probability."""

    formula: Formula
    entailed: bool
    probability: float
    support: tuple[BeliefEntry, ...]

    @property
    def tier(self) -> ConfidenceTier:
        return classify_confidence(self.probability)

    @property
    def state(self) -> FourState:
        return project_four_state(self.probability)

    @property
    def held(self) -> bool:
        key = render_canonical(self.formula)
        return len(self.support) == 1 and self.support[0].key == key

    def render(self) -> str:
        verdict = "entailed" if self.entailed else "not-entailed"
        return "\t".join(
            (
                verdict,
                f"p={self.probability!r}",
                f"tier={self.tier.value}",
                f"state={self.state.value}",
            )
        )


def parse_observation_line(line: str) -> tuple[str, float, str]:
    """Split a ``formula TAB probability TAB source`` stream line."""
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 3:
        raise ValueError(f"expected formula, probability, source: {line!r}")
    return parts[0], float(parts[1]), parts[2]


def parse_goal_literals(text: str) -> tuple[Literal, ...]:
    if not text.strip():
        return ()
    return parse_literal_list(text)


def resolve_action(text: str, domain: Domain) -> GroundAction:
    """Turn ``Name(arg,...)`` into a ground action over domain schemas."""
    shape = parse(text)
    if not isinstance(shape, Atom):
        raise PlanningError(f"not an action: {text!r}")
    try:
        schema = domain.schema(shape.predicate)
    except KeyError:
        raise PlanningError(f"unknown action name {shape.predicate!r}") from None
    return GroundAction(schema, shape.args)


class Session:
    """One agent over one ledger, safe to reopen between commands."""

    def __init__(self, config: EngineConfig):
        config.validate()
        self.config = config
        self._lock_handle = None
        # The store refers to no session, so closed ones need no cyclic GC.
        self._nodes = NodeStore(
            config.resolved_nodes_path() if config.ledger_path else ""
        )
        if config.ledger_path:
            self._acquire_lock(config.ledger_path + ".lock")
        try:
            self.ledger = Ledger(config.ledger_path or None, self._nodes)
            self.ledger.ensure_verified()
        except BaseException:
            # No caller gets this session to close, and a kept exception
            # would keep the lock held through its traceback.
            self.close()
            raise
        self._obs_seq = sum(
            1 for b in self.ledger.blocks if b.op in (Op.INSERT, Op.REVISE)
        )
        self._domain: Domain | None = None
        # The last planning problem and its plan or error, see _abduce.
        self._last_plan: tuple | None = None
        self._last_trace: tuple | None = None  # see _simulate_and_seal
        self._index = SweepIndex(config)
        self._state: tuple | None = None  # see world_state

    @functools.cached_property
    def graph(self) -> JustificationGraph:
        """The node store, read and validated on first use (NodeStore.load)."""
        return self._nodes.load()

    def formula(self, text: str) -> Formula:
        """The session's one formula for text, from its graph's formula
        table (JustificationGraph.formula), which serves before the node
        store is read and does not read it."""
        return self._nodes.graph.formula(text)

    @functools.cached_property
    def base(self) -> BeliefBase:
        """The base replayed from the ledger on first use."""
        return replay(self.ledger, self.config, self.graph)

    def _acquire_lock(self, path: str) -> None:
        with store_io(path):
            handle = open(path, "a+")
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            handle.close()
            raise SessionLockedError(
                f"another session holds {path}"
            ) from None
        self._lock_handle = handle

    def close(self) -> None:
        """Close both files' append handles, then release the lock."""
        # No ledger is set when opening it failed.
        if hasattr(self, "ledger"):
            self.ledger.close()
        self._nodes.close()
        if self._lock_handle is not None:
            fcntl.flock(self._lock_handle.fileno(), fcntl.LOCK_UN)
            self._lock_handle.close()
            self._lock_handle = None

    def __enter__(self) -> Session:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- clocks ---------------------------------------------------------

    def _block_ts(self) -> int:
        if self.config.fixed_clock:
            return len(self.ledger)
        return int(time.time() * 1000)

    def _prov_ts(self) -> int:
        if self.config.fixed_clock:
            return self._obs_seq
        return int(time.time() * 1000)

    # -- persistence ----------------------------------------------------

    def _commit(
        self, op: Op | str, formula: str = "", digest: bytes = ZERO_HASH
    ) -> tuple[BeliefBase, Block]:
        """ledger.commit on the live base: the folded base, which the
        caller sets once the block is written, and the block."""
        return commit(
            self.ledger,
            self.base,
            self.config,
            self.graph,
            op,
            formula,
            digest,
            self._block_ts(),
        )

    def _append_meta(self, formula: str, digest: bytes = ZERO_HASH) -> None:
        """Append a META block: a record with no effect on the base."""
        self.ledger.append(Op.META, formula, digest, self._block_ts())

    # -- observations and contraction ------------------------------------

    def observe(
        self, formula: Formula | str, probability: float, source: str
    ) -> str:
        """Admit one observation; returns which route it took.

        The formula may be given as text, which formula resolves, or
        already parsed.  Its node is recorded, as prove's is, in the
        batch of the block that names it: commit folds the node's entry
        as replay folds the block, and appends the block (insert or
        revise, by the fold's route) only once the fold has succeeded.
        """
        if isinstance(formula, str):
            formula = self.formula(formula)
        if not is_satisfiable(formula):
            raise ConsistencyError(
                f"observation is self-contradictory: {render_canonical(formula)}"
            )
        provenance = Provenance(source, self._prov_ts(), probability)
        with self.ledger.batch():
            node_id = self.graph.record_inference(
                formula, (), "observation", provenance
            )
            base, block = self._commit(
                Op.INSERT, render_canonical(formula), bytes.fromhex(node_id)
            )
        self.base = base
        self._obs_seq += 1
        if block.op == Op.REVISE:
            return "revised"
        entry = self.base.find(formula)
        return "admitted" if entry is not None and entry.assertable else (
            "stored-non-assertable"
        )

    def contract_formula(self, formula: Formula | str) -> None:
        """Contract the formula, given as text or already parsed."""
        if isinstance(formula, str):
            formula = self.formula(formula)
        if is_tautology(formula):
            raise ConsistencyError(
                f"refusing to contract a tautology: {render_canonical(formula)}"
            )
        self.base, _ = self._commit(Op.CONTRACT, render_canonical(formula))

    # -- queries and proofs -----------------------------------------------

    def _minimal_support(self, formula: Formula) -> list[BeliefEntry]:
        """The assertable entries that a minimal support of an entailed
        formula keeps, preferring later keys, in base order."""
        support = [e for e in self.base.entries if e.assertable]
        by_preference = sorted(support, key=lambda e: e.key, reverse=True)
        kept = preferred_conflict(
            [],
            [e.formula for e in by_preference],
            lambda formulas: entails(formulas, formula),
        )
        kept_ids = {id(f) for f in kept}
        return [e for e in support if id(e.formula) in kept_ids]

    def _answer(self, formula: Formula) -> Answer:
        """The answer query reports and prove certifies (see the module
        docstring); an empty support, a tautology's, carries 1.0."""
        entry = self.base.find(formula)
        # A base entails each formula it holds, so a held, assertable
        # formula needs no solve.
        entailed = (entry is not None and entry.assertable) or entails(
            self.base.assertable_formulas(), formula
        )
        if entry is not None:
            return Answer(formula, entailed, entry.probability, (entry,))
        if not entailed:
            return Answer(formula, False, 0.0, ())
        support = tuple(self._minimal_support(formula))
        probability = weakest_link([e.probability for e in support]) if support else 1.0
        return Answer(formula, True, probability, support)

    def query(self, text: str) -> Answer:
        return self._answer(self.formula(text))

    def justify_formula(self, text: str) -> PublicProof:
        """The unanchored proof of a held entry's recorded node, whether
        or not the entry is asserted."""
        formula = self.formula(text)
        entry = self.base.find(formula)
        # No node id is None, so a missing justification is not in graph.
        if entry is None or entry.justification not in self.graph:
            raise NoJustificationError(
                f"no recorded justification for {render_canonical(formula)}"
            )
        return build_public_proof(self.graph, entry.justification)

    def prove(self, text: str) -> PublicProof:
        """Build an anchored public proof of an entailed formula: the held
        entry's own node, else one entailment node over the answer's
        support at its probability."""
        answer = self._answer(self.formula(text))
        if not answer.entailed:
            raise NoJustificationError(
                f"not entailed: {render_canonical(answer.formula)}"
            )
        with self.ledger.batch():
            if answer.held:
                proof = self.justify_formula(text)
            else:
                node_id = self.graph.record_inference(
                    answer.formula,
                    tuple(e.justification for e in answer.support),
                    "entailment",
                    Provenance("engine", self._prov_ts(), answer.probability),
                )
                proof = build_public_proof(self.graph, node_id)
            if not self.ledger.contains_digest(proof.digest):
                self._append_meta(render_canonical(answer.formula), proof.digest)
        return proof

    def verify_proof(self, proof: PublicProof) -> VerifyResult:
        return verify_public_proof(proof, self.ledger.contains_digest)

    # -- guard integration ------------------------------------------------

    def recover(self, event: FailureEvent, replan=None) -> RecoveryReport:
        context = RecoveryContext(
            base=self.base,
            graph=self.graph,
            config=self.config,
            ledger=self.ledger,
            clock=self._block_ts,
            replan=replan,
        )
        report = run_recovery(event, context)
        self.base = report.base
        return report

    def sweep_and_react(self) -> tuple[list[MetaLogEntry], list[RecoveryReport]]:
        """One incremental MSCU pass, its flagged items and their reactions."""
        log = mscu_sweep(self.base, self.graph, self.config.theta_meta, self._index)
        reports: list[RecoveryReport] = []
        contradiction_handled = False
        for item in log:
            self._append_meta(f"sweep:{item.action}:{item.formula}")
            if item.action == "contract" and not contradiction_handled:
                contradiction_handled = True
                kind = FailureKind.BELIEF_INCONSISTENCY
            elif item.action == "reevaluate":
                kind = FailureKind.JUSTIFICATION_BREAKDOWN
            else:
                continue
            reports.append(self.recover(FailureEvent(kind, item.formula)))
        return log, reports

    # -- planning ---------------------------------------------------------

    def domain(self) -> Domain:
        if self._domain is None:
            if not self.config.domain_path:
                raise PlanningError("no domain file configured")
            self._domain = load_domain(self.config.domain_path)
        return self._domain

    def world_state(self) -> WorldState:
        """Domain initial facts plus the assertable ground beliefs: one
        object while they stay, so the kept plan and trace match by identity."""
        init = self.domain().init.atoms
        self._index.sync(self.base, self.graph, self.config.theta_meta)
        atoms = self._index.atoms()
        if self._state is None or self._state[0] is not atoms:
            self._state = (atoms, WorldState(init | atoms))
        return self._state[1]

    def is_safe(self, plan: list[GroundAction]) -> tuple[bool, str]:
        """The IsSafe gate: consistent base, every support within risk."""
        del plan
        if not is_consistent_base(self.base):
            return False, "belief base inconsistent"
        self._index.sync(self.base, self.graph, self.config.theta_meta)
        if self._index.failing:
            return False, f"support below gate: {min(self._index.failing)}"
        return True, ""

    def _abduce(
        self, goal: tuple[Literal, ...], state: WorldState
    ) -> list[GroundAction]:
        """abduce_policy over the domain, planning only for a new problem.

        The planner reads only the relevant state, so its answer depends
        on the goal and that projection alone.  The session keeps the
        last such pair with its plan or PlanningError and plans again
        only when the pair changes; it projects again only for a state
        object it has not just seen.
        """
        domain = self.domain()
        last = self._last_plan
        if last is not None and last[0] is state and last[1][0] == goal:
            key = last[1]
        else:
            key = (goal, relevant_state(goal, state, domain.schemas))
        if last is None or last[1] != key:
            try:
                answer = tuple(
                    abduce_policy(goal, key[1], domain.schemas, domain.ontology)
                )
            except PlanningError as err:
                # Kept without its traceback, whose frames hold this session.
                answer = err.with_traceback(None)
        else:
            answer = last[2]
        self._last_plan = (state, key, answer)
        if isinstance(answer, PlanningError):
            raise PlanningError(str(answer), answer.subgoal)
        return list(answer)

    def plan_goal(
        self, goal_text: str | None = None
    ) -> tuple[list[GroundAction], SimulationResult, int]:
        """Abduce, simulate, and seal a plan for the goal literals that
        _goal resolves from goal_text."""
        goal = self._goal(goal_text)
        if not goal:
            raise PlanningError("no goal given")
        state = self.world_state()
        plan = self._abduce(goal, state)
        return plan, *self._simulate_and_seal(plan, state, goal)

    def _goal(self, goal_text: str | None = None) -> tuple[Literal, ...]:
        """goal_text, else the configured goal, else the domain's goal."""
        domain = self.domain()
        goal_text = goal_text or self.config.goal
        return parse_goal_literals(goal_text) if goal_text else domain.goal

    def _simulate_and_seal(self, plan, state, goal) -> tuple[SimulationResult, int]:
        """simulate_trace and seal_trace, simulating a new problem only.

        A trace depends on the plan, goal and full state alone, so the
        session keeps the last such triple with its result and digest.
        """
        key = (tuple(plan), goal, state)
        if self._last_trace is None or self._last_trace[0] != key:
            result = simulate_trace(plan, state, goal=goal)
            self._last_trace = (key, result, trace_digest(result.trace))
        _, result, digest = self._last_trace
        return result, seal_trace(result.trace, self.ledger, self._block_ts(), digest)

    def inject_policy(
        self,
        actions: list[GroundAction],
        expected_utility: float | None = None,
        actual_utility: float | None = None,
    ) -> list[str]:
        """Gate an externally supplied plan, then simulate and seal it
        toward the goal that _goal resolves.

        A utility gap beyond delta, or a mid-plan precondition failure,
        hands a TypeV event to recovery, which replans from the current
        state; escalation without an alternative raises.
        """
        domain = self.domain()
        lines: list[str] = []
        for action in actions:
            violation = type_check(action, domain.ontology)
            if violation is not None:
                raise PlanningError(violation.render())
        goal = self._goal()
        state = self.world_state()

        def replan() -> str | None:
            try:
                alternate = self._abduce(goal, state)
            except PlanningError:
                return None
            return ";".join(a.render() for a in alternate)

        def run(plan: list[GroundAction], label: str) -> SimulationResult:
            result, seal = self._simulate_and_seal(plan, state, goal)
            lines.append(f"{label}\tsealed={seal}")
            lines.extend(render_trace(result.trace).splitlines())
            return result

        def rerun(event: FailureEvent, label: str, detail: str) -> SimulationResult:
            """Recover from event, then run the alternate plan that
            replan rendered, which _abduce keeps as a list of actions."""
            report = self.recover(event, replan=replan)
            lines.extend(report.lines)
            if report.escalated:
                raise EscalationError(detail)
            return run(self._abduce(goal, state), label)

        if expected_utility is not None and actual_utility is not None:
            event = classify_failure(
                Diagnostic(
                    subject=";".join(a.render() for a in actions),
                    expected_utility=expected_utility,
                    actual_utility=actual_utility,
                    delta=self.config.delta,
                )
            )
            if event.kind == FailureKind.POLICY_MISPROJECTION:
                rerun(event, "reselected", "no alternate policy available")
                return lines
        result = run(actions, "injected")
        if result.failure is not None:
            recovered = rerun(result.failure, "recovered", result.failure.detail)
            if recovered.failure is not None:
                raise EscalationError(recovered.failure.detail)
        return lines

    # -- rollback and audit -----------------------------------------------

    def rollback(self, upto: int) -> int:
        """Return to the base left by the first upto blocks, by appending.

        Replays the prefix, then appends retractions for entries that
        should vanish and inserts (plus marking amendments) for entries
        that should return.  The ledger never shrinks, and a full replay
        still lands on the post-rollback base.
        """
        if upto < 0 or upto > len(self.ledger):
            raise ValueError(f"block count out of range: {upto}")
        target = replay(self.ledger, self.config, self.graph, upto=upto - 1)
        appended = 0
        current = {e.key: e for e in self.base.entries}
        wanted = {e.key: e for e in target.entries}
        for key in sorted(current):
            if key not in wanted or wanted[key] != current[key]:
                self.base, _ = self._commit(Op.RECOVERY, key)
                appended += 1
        for key in sorted(wanted):
            formula = self.formula(key)
            if self.base.find(formula) is not None:
                continue
            entry = wanted[key]
            if entry.justification is None:
                raise ValueError(
                    f"cannot restore {key}: no justification node"
                )
            insert_id = entry.justification
            if self.graph.node(insert_id).provenance != entry.provenance:
                for candidate in self.graph.nodes_for(formula):
                    if self.graph.node(candidate).provenance == entry.provenance:
                        insert_id = candidate
                        break
                else:
                    raise ValueError(
                        f"cannot restore {key}: no matching node"
                    )
            self.base, _ = self._commit(Op.INSERT, key, bytes.fromhex(insert_id))
            # A reopened session counts every insert on its fixed clock.
            self._obs_seq += 1
            appended += 1
            if self.base.find(formula) != entry:
                self.base, _ = self._commit(
                    Op.RECOVERY, key, bytes.fromhex(entry.justification)
                )
                appended += 1
        if {e.key: e for e in self.base.entries} != wanted:
            raise RuntimeError("rollback reconstruction incomplete")
        self._append_meta(f"rollback:{upto}")
        return appended + 1

    def audit(self) -> list[MetaLogEntry]:
        log = mscu_sweep(self.base, self.graph, self.config.theta_meta)
        for item in log:
            if item.action != "none":
                self._append_meta(f"sweep:{item.action}:{item.formula}")
        return log

    # -- the main loop ------------------------------------------------------

    def run_loop(self, lines, out, diag) -> int:
        """Sense, update, sweep, plan, gate, execute, seal; per F-style loop.

        Observation lines are ``formula TAB probability TAB source``.
        Returns the process exit status: 0 on a clean run, 6 when a
        recovery escalates with no way forward.  A configured goal is
        parsed, and its domain loaded, before anything is written, so a
        bad one raises and leaves the ledger as it was.  Each line plans
        only when the relevant state has changed (see _abduce).  A line
        is the unit of durability: its blocks are written in one ledger
        batch, and its output once that batch is on disk.  A line that
        raises prints nothing, but the blocks it appended are written.  If
        writing them fails, none is kept, nor is any node the line added,
        and the session and its files are as they were before the line.
        """
        goal = None
        if self.config.goal:
            goal = parse_goal_literals(self.config.goal)
            if self.config.domain_path:
                self.domain()
        self._append_meta("session-start")
        for raw in lines:
            said, warned = io.StringIO(), io.StringIO()
            length, seq = len(self.ledger), self._obs_seq
            base = self.__dict__.get("base")  # None until first replayed
            try:
                with self.ledger.batch():
                    status = self._run_line(raw, goal, said, warned)
            except BaseException:
                if len(self.ledger) == length:
                    # No block of the line is in the chain (a failed write
                    # drops them all with their nodes), so neither is any
                    # change it made.
                    self._obs_seq = seq
                    if base is None:
                        self.__dict__.pop("base", None)
                    else:
                        self.base = base
                raise
            out.write(said.getvalue())
            diag.write(warned.getvalue())
            if status:
                return status
        return 0

    def _run_line(self, raw: str, goal, out, diag) -> int:
        """One stream line of run_loop; 6 when a recovery escalates."""
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            return 0
        text, probability, source = parse_observation_line(raw)
        formula = self.formula(text)
        verdict = self.observe(formula, probability, source)
        out.write(f"{verdict}\t{render_canonical(formula)}\n")
        _, reports = self.sweep_and_react()
        if any(r.escalated for r in reports):
            diag.write("EpistemicWarning\tsweep\tescalated\n")
            return 6
        if goal is None:
            return 0
        try:
            state = self.world_state()
            plan = self._abduce(goal, state)
        except PlanningError as err:
            diag.write(f"plan-failure\t{self.config.goal}\t{err}\n")
            return 0
        safe, reason = self.is_safe(plan)
        if not safe:
            diag.write(f"EpistemicWarning\t{self.config.goal}\t{reason}\n")
            return 0
        _, seal = self._simulate_and_seal(plan, state, goal)
        for action in plan:
            out.write(f"executed\t{action.render()}\n")
        out.write(f"sealed\t{seal}\n")
        return 0
