"""Command line front end over agent sessions.

Exit status doubles as a machine-readable verdict: 0 success, 2 bad
input, 3 consistency refusal, 4 ledger corruption (or a damaged node
store, or a block naming a node the store lacks), 5 planning failure,
6 recovery escalation, 7 resource limit, 8 a failed read or write of a
store file (the ledger, its node store or its lock; files the user
names are bad input), 1 anything else.  Errors go to stderr as one
tab-separated ``error`` line.  A reader that closes stdout early is not
an error: the command stops at its first failed write, prints nothing
more and exits 141, as a shell reports a command that SIGPIPE ended.
A plain command line is read straight from the command table; help and
usage errors come from argparse, worded as the Python release words them.
"""

from __future__ import annotations

import os
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .belief import ConsistencyError, export
from .config import EngineConfig, ThetaRangeWarning, apply_env, apply_file, assign
from .engine import (
    EscalationError,
    Session,
    SessionLockedError,
    resolve_action,
)
from .justify import NoJustificationError, proof_from_json, proof_to_json
from .ledger import Ledger, LedgerCorruptionError, ReplayError, StoreIOError, replay
from .logic import ParseError, ResourceLimitError, render_canonical
from .plan import PlanningError, render_trace

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_REFUSED = 3
EXIT_CORRUPT = 4
EXIT_NO_PLAN = 5
EXIT_ESCALATED = 6
EXIT_LIMIT = 7
EXIT_IO = 8
# 128 + SIGPIPE: the reader closed stdout before the output was written.
EXIT_CLOSED_STDOUT = 141


_FORMULA = ("formula", {})
_PATH = ("path", {})
_GOAL = ("--goal", {"default": None})
_DOMAIN = ("--domain", {"default": None})
# Each command's help, then its arguments as (name or flag, keywords).
_COMMANDS: dict[str, tuple] = {
    "observe": (
        "admit one observation",
        _FORMULA,
        ("--p", {"type": float, "required": True}),
        ("--source", {"default": "cli"}),
    ),
    "contract": ("retract a belief and its dependents", _FORMULA),
    "query": ("entailment with confidence read-out", _FORMULA),
    "justify": ("print the derivation chain", _FORMULA),
    "prove": (
        "emit an anchored public proof",
        _FORMULA,
        ("--out", {"default": "proof.json"}),
    ),
    "verify-proof": ("check a proof file", _PATH),
    "plan": ("abduce, simulate, and seal a plan", _GOAL, _DOMAIN),
    "inject-policy": ("gate an external plan", _PATH, _DOMAIN),
    "ledger": (
        "inspect the ledger",
        ("action", {"choices": ("verify", "replay")}),
        ("--to", {"type": int, "default": None}),
    ),
    "rollback": (
        "append blocks undoing later state",
        ("--to", {"type": int, "required": True}),
    ),
    "audit": ("run one meta-cognitive sweep and log what it flags",),
    "run": (
        "full loop over an observation stream",
        ("--stream", {"default": "-"}),
        _GOAL,
        _DOMAIN,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The veritas parser, every command's subparser built."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="veritas",
        description="Auditable beliefs, proofs, and plans over a hash-chained ledger.",
    )
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        dest="overrides",
        metavar="KEY=VALUE",
        help="override one config entry (repeatable)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, *arguments) in _COMMANDS.items():
        subparser = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            subparser.add_argument(flag, **options)
    return parser


def _plain(argv: list[str]) -> SimpleNamespace | None:
    """What build_parser().parse_args(argv) gives, if argv is plain:
    --config and --set pairs, a command, then its own flags spelt in
    full, each once with a value, and exactly its positionals, where no
    value starts with "-" and each converts.  Otherwise None."""
    at, config, overrides = 0, [None], []
    while argv[at:at + 1] in (["--config"], ["--set"]):
        if at + 1 == len(argv) or argv[at + 1].startswith("-"):
            return None
        (config if argv[at] == "--config" else overrides).append(argv[at + 1])
        at += 2
    if at == len(argv) or argv[at] not in _COMMANDS:
        return None
    _, *arguments = _COMMANDS[argv[at]]
    fields = {"config": config[-1], "overrides": overrides, "command": argv[at]}
    given, words = {}, []
    rest = iter(argv[at + 1:])
    for token in rest:
        if token.startswith("-"):
            value = next(rest, "-")
            if token in given or value.startswith("-"):
                return None
            given[token] = value
        else:
            words.append(token)
    positionals = iter(words)
    for name, options in arguments:
        raw = given.pop(name, None) if name[0] == "-" else next(positionals, None)
        value = options.get("default")
        if raw is None and options.get("required", name[0] != "-"):
            return None
        if raw is not None:
            try:
                value = options.get("type", str)(raw)
            except (TypeError, ValueError):
                return None
            if value not in options.get("choices", (value,)):
                return None
        fields[name.lstrip("-")] = value
    if given or next(positionals, None) is not None:
        return None
    return SimpleNamespace(**fields)


def _build_config(args: SimpleNamespace) -> EngineConfig:
    """The file, then VERITAS_ variables, then each --set, validated once.

    Each warning the validation raises prints as one tab-separated line
    on stderr: its category, ``config`` and its message.
    """
    config = EngineConfig()
    if args.config is not None:
        apply_file(config, Path(args.config))
    apply_env(config, os.environ)
    for item in args.overrides:
        if "=" not in item:
            raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, raw = item.partition("=")
        key = key.strip()
        if not assign(config, key, raw):
            raise ValueError(f"unknown config key: {key}")
    if getattr(args, "domain", None):
        config.domain_path = args.domain
    if getattr(args, "goal", None):
        config.goal = args.goal
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        config.validate()
    for warning in caught:
        sys.stderr.write(f"{warning.category.__name__}\tconfig\t{warning.message}\n")
    return config


def _read_policy(path: str) -> tuple[list[str], float | None, float | None]:
    actions: list[str] = []
    expected: float | None = None
    actual: float | None = None
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        head, _, rest = stripped.partition(" ")
        if head == "action":
            actions.append(rest.strip())
        elif head == "expected-utility":
            expected = float(rest)
        elif head == "actual-utility":
            actual = float(rest)
        else:
            raise ValueError(f"{path}:{lineno}: unknown policy entry {head!r}")
    if not actions:
        raise ValueError(f"{path}: policy file declares no actions")
    return actions, expected, actual


def _dispatch(args: SimpleNamespace, session: Session) -> int:
    out = sys.stdout
    if args.command == "observe":
        formula = session.formula(args.formula)
        verdict = session.observe(formula, args.p, args.source)
        out.write(f"{verdict}\t{render_canonical(formula)}\n")
        return EXIT_OK
    if args.command == "contract":
        formula = session.formula(args.formula)
        session.contract_formula(formula)
        out.write(f"contracted\t{render_canonical(formula)}\n")
        return EXIT_OK
    if args.command == "query":
        out.write(session.query(args.formula).render() + "\n")
        return EXIT_OK
    if args.command == "justify":
        proof = session.justify_formula(args.formula)
        for node in proof.chain:
            out.write(f"{node.rule}\t{render_canonical(node.conclusion)}\n")
        out.write(f"digest\t{proof.digest.hex()}\n")
        return EXIT_OK
    if args.command == "prove":
        proof = session.prove(args.formula)
        Path(args.out).write_text(proof_to_json(proof) + "\n")
        out.write(f"proof\t{args.out}\tdigest\t{proof.digest.hex()}\n")
        return EXIT_OK
    if args.command == "verify-proof":
        proof = proof_from_json(Path(args.path).read_text())
        result = session.verify_proof(proof)
        if result.ok:
            out.write("ok\n")
            return EXIT_OK
        step = "" if result.step is None else f"\tstep={result.step}"
        out.write(f"reject\t{result.reason}{step}\n")
        return EXIT_ERROR
    if args.command == "plan":
        plan, result, seal = session.plan_goal(args.goal)
        for action in plan:
            out.write(f"plan\t{action.render()}\n")
        out.write(render_trace(result.trace))
        out.write(f"sealed\t{seal}\n")
        return EXIT_OK
    if args.command == "inject-policy":
        texts, expected, actual = _read_policy(args.path)
        actions = [resolve_action(t, session.domain()) for t in texts]
        for line in session.inject_policy(actions, expected, actual):
            out.write(line + "\n")
        return EXIT_OK
    if args.command == "ledger":
        if args.action == "replay":
            if args.to is not None and args.to < 0:
                raise ValueError(f"--to must be non-negative, got {args.to}")
            upto = args.to - 1 if args.to is not None else None
            base = replay(
                session.ledger, session.config, session.graph, upto=upto
            )
            out.write(export(base))
            return EXIT_OK
        raise AssertionError("verify handled before session construction")
    if args.command == "rollback":
        appended = session.rollback(args.to)
        out.write(f"rolled-back\tto={args.to}\tappended={appended}\n")
        return EXIT_OK
    if args.command == "audit":
        for item in session.audit():
            out.write(
                f"{item.epoch}\t{item.formula}\t{item.score!r}\t{item.action}\n"
            )
        return EXIT_OK
    if args.command == "run":
        if args.stream == "-":
            return session.run_loop(sys.stdin, out, sys.stderr)
        with open(args.stream, "r", encoding="utf-8") as handle:
            return session.run_loop(handle, out, sys.stderr)
    raise AssertionError(f"unhandled command {args.command!r}")


def _verify_only(config: EngineConfig) -> int:
    """Check the chain; opening the ledger hashed each line as it read it."""
    ledger = Ledger(config.ledger_path or None)
    try:
        ledger.ensure_verified()
    except LedgerCorruptionError as err:
        sys.stdout.write(f"corrupt\t{err.index}\n")
        return EXIT_CORRUPT
    sys.stdout.write(f"ok\t{len(ledger)}\n")
    return EXIT_OK


# How main reports an error: the first row whose types it is an instance
# of gives its category and exit status, so StoreIOError comes before
# OSError and ParseError before ValueError.  Any other error propagates.
_FAILURES: tuple[tuple[tuple[type[Exception], ...], str, int], ...] = (
    ((StoreIOError,), "io", EXIT_IO),
    ((ParseError,), "parse", EXIT_USAGE),
    ((ValueError, OSError), "usage", EXIT_USAGE),
    ((ConsistencyError,), "refused", EXIT_REFUSED),
    ((LedgerCorruptionError, ReplayError), "ledger", EXIT_CORRUPT),
    ((PlanningError,), "plan", EXIT_NO_PLAN),
    ((EscalationError,), "escalated", EXIT_ESCALATED),
    ((ResourceLimitError,), "limit", EXIT_LIMIT),
    ((NoJustificationError,), "justify", EXIT_ERROR),
    ((SessionLockedError,), "locked", EXIT_ERROR),
)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _plain(argv) or SimpleNamespace(**vars(build_parser().parse_args(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _build_config(args)
        if args.command == "ledger" and args.action == "verify":
            code = _verify_only(config)
        else:
            with warnings.catch_warnings():
                # Reported above; the session validates its config again.
                warnings.simplefilter("ignore", ThetaRangeWarning)
                with Session(config) as session:
                    code = _dispatch(args, session)
        # A closed stdout shows here, not in the interpreter's last flush.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # What is still buffered goes to /dev/null when the interpreter
        # flushes stdout at exit (Python's "Note on SIGPIPE").
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_STDOUT
    except Exception as err:
        for types, category, status in _FAILURES:
            if isinstance(err, types):
                sys.stderr.write(f"error\t{category}\t{err}\n")
                return status
        raise


if __name__ == "__main__":
    sys.exit(main())
