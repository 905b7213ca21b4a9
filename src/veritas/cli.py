"""Command line front end over agent sessions.

Exit status doubles as a machine-readable verdict: 0 success, 2 bad
input, 3 consistency refusal, 4 ledger corruption (or a damaged node
store, or a block naming a node the store lacks), 5 planning failure,
6 recovery escalation, 7 resource limit, 1 anything else.  Errors go to
stderr as one tab-separated ``error`` line.  A reader that closes stdout
early is not an error: the command stops at its first failed write,
prints nothing more and exits 141, as a shell reports a command that
SIGPIPE ended.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path

from .belief import ConsistencyError, export
from .config import EngineConfig, ThetaRangeWarning, apply_env, apply_file, assign
from .engine import (
    EscalationError,
    Session,
    SessionLockedError,
    proof_from_json,
    proof_to_json,
    resolve_action,
)
from .justify import NoJustificationError
from .ledger import Ledger, LedgerCorruptionError, ReplayError, replay
from .logic import ParseError, ResourceLimitError, parse, render_canonical
from .plan import PlanningError, render_trace

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_REFUSED = 3
EXIT_CORRUPT = 4
EXIT_NO_PLAN = 5
EXIT_ESCALATED = 6
EXIT_LIMIT = 7
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
    "audit": ("run one meta-cognitive sweep read-only",),
    "run": (
        "full loop over an observation stream",
        ("--stream", {"default": "-"}),
        _GOAL,
        _DOMAIN,
    ),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The veritas parser; given a command, with only its subparser.

    Help and usage output are the same either way.
    """
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
    if command is not None:
        # The usage line must still list every command.  Only here: a
        # metavar also renames the argument in the errors about a missing
        # or unknown command, which only the full parser reports.
        sub.metavar = "{%s}" % ",".join(_COMMANDS)
    for name in _COMMANDS if command is None else (command,):
        help_text, *arguments = _COMMANDS[name]
        subparser = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            subparser.add_argument(flag, **options)
    return parser


def _named_command(argv: list[str]) -> str | None:
    """The command argv names after its --config and --set pairs, if known.

    Any other spelling (--set=..., an abbreviated option, -h) gives
    None, and with it the full parser.
    """
    at = 0
    while at < len(argv) and argv[at] in ("--config", "--set"):
        at += 2
    if at < len(argv) and argv[at] in _COMMANDS:
        return argv[at]
    return None


def _build_config(args: argparse.Namespace) -> EngineConfig:
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


def _dispatch(args: argparse.Namespace, session: Session) -> int:
    out = sys.stdout
    if args.command == "observe":
        formula = parse(args.formula)
        verdict = session.observe(formula, args.p, args.source)
        out.write(f"{verdict}\t{render_canonical(formula)}\n")
        return EXIT_OK
    if args.command == "contract":
        formula = parse(args.formula)
        session.contract_formula(formula)
        out.write(f"contracted\t{render_canonical(formula)}\n")
        return EXIT_OK
    if args.command == "query":
        out.write(session.query(args.formula).render() + "\n")
        return EXIT_OK
    if args.command == "justify":
        chain, digest = session.justify_formula(args.formula)
        for node in chain:
            out.write(f"{node.rule}\t{render_canonical(node.conclusion)}\n")
        out.write(f"digest\t{digest.hex()}\n")
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


def _error(category: str, err: object) -> None:
    sys.stderr.write(f"error\t{category}\t{err}\n")


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(_named_command(argv))
    try:
        args = parser.parse_args(argv)
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
    except ParseError as err:
        _error("parse", err)
        return EXIT_USAGE
    except (ValueError, OSError) as err:
        _error("usage", err)
        return EXIT_USAGE
    except ConsistencyError as err:
        _error("refused", err)
        return EXIT_REFUSED
    except (LedgerCorruptionError, ReplayError) as err:
        _error("ledger", err)
        return EXIT_CORRUPT
    except PlanningError as err:
        _error("plan", err)
        return EXIT_NO_PLAN
    except EscalationError as err:
        _error("escalated", err)
        return EXIT_ESCALATED
    except ResourceLimitError as err:
        _error("limit", err)
        return EXIT_LIMIT
    except NoJustificationError as err:
        _error("justify", err)
        return EXIT_ERROR
    except SessionLockedError as err:
        _error("locked", err)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
