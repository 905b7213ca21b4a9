"""Justification DAG with content-addressed nodes and public proofs.

Every inference is a node whose id is the SHA-256 of its own content
(conclusion, rule, premise ids, provenance), so the graph is acyclic by
construction and any mutation is detectable.  A public proof packages
the sub-DAG supporting one formula together with a chain digest over
the conclusion formulas; verification needs only the proof and a way to
ask whether the digest is anchored, and admits each step by add_node.
A proof file is what proof_to_json writes and proof_from_json reads.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Mapping, Sequence

from .belief import Provenance
from .hashing import sha256
from .logic import Formula, ResourceLimitError, entails, parse, render_canonical
from .logic.parser import NestingLimitError
from .record import record

DEFAULT_SOURCE_RELIABILITY = 0.5

_FIELD_SEP = "\x1f"
_CHAIN_SEP = b"\x1e"

class UnknownPremiseError(LookupError):
    """A premise id does not name any recorded node."""


class CycleError(ValueError):
    """A node lists itself among its premises."""


class UnsoundInferenceError(ValueError):
    """The premises of a step do not entail its conclusion."""


class NoJustificationError(LookupError):
    """No node concludes the requested formula."""


@record
class JustificationNode:
    node_id: str
    conclusion: Formula
    rule: str
    premises: tuple[str, ...]
    provenance: Provenance


def node_digest(
    conclusion: Formula,
    rule: str,
    premises: Sequence[str],
    provenance: Provenance,
) -> str:
    """SHA-256 over the node's serialized content, as lowercase hex."""
    # The separator is ASCII and UTF-8 encodes piece by piece, so one
    # encode of the joined text gives the bytes of the encoded fields
    # joined.
    payload = _FIELD_SEP.join(
        (
            render_canonical(conclusion),
            rule,
            ",".join(premises),
            provenance.source,
            str(provenance.timestamp),
            repr(provenance.confidence),
        )
    )
    return sha256(payload.encode()).hexdigest()


def hash_chain(nodes: Sequence[JustificationNode]) -> bytes:
    """Digest over the chain's conclusions, in order, joined by 0x1E.

    Rule labels, premises and provenance are not hashed into it: the
    node ids bind them, and verify_public_proof checks each id against
    its step, but a chain whose ids were recomputed after an edit still
    matches this digest.
    """
    joined = _CHAIN_SEP.join(
        render_canonical(node.conclusion).encode() for node in nodes
    )
    return sha256(joined).digest()


@dataclass(frozen=True)
class PublicProof:
    conclusion: Formula
    chain: tuple[JustificationNode, ...]
    digest: bytes


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str | None = None
    step: int | None = None


class JustificationGraph:
    """Append-only store of justification nodes, and a formula table.

    The table maps each text that formula was asked for, as given and
    in canonical form, to one parsed formula, so a session parses,
    renders and compiles each distinct text once however often it is
    observed, queried or read back (hash-consing: Filliatre & Conchon,
    "Type-Safe Modular Hash-Consing", 2006).  Nodes leave the graph
    only by truncate, and their formulas stay in the table.
    """

    def __init__(self) -> None:
        self._nodes: dict[str, JustificationNode] = {}
        self._formulas: dict[str, Formula] = {}

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def get(self, node_id: str) -> JustificationNode | None:
        return self._nodes.get(node_id)

    def formula(self, text: str) -> Formula:
        """The graph's one formula for text, parsed on its first request.

        A text not seen before is parsed and then looked up by its
        canonical text, so every spelling of one formula, and the
        conclusion of a node read back, share one instance, which keeps
        its text and compiled form.  parse's errors propagate and a
        failed parse stores nothing.
        """
        formula = self._formulas.get(text)
        if formula is None:
            parsed = parse(text)
            canonical = render_canonical(parsed)
            formula = self._formulas.setdefault(canonical, parsed)
            if text != canonical:
                self._formulas[text] = formula
        return formula

    def node(self, node_id: str) -> JustificationNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownPremiseError(node_id) from None

    def record_inference(
        self,
        conclusion: Formula,
        premises: Sequence[str],
        rule: str,
        provenance: Provenance,
    ) -> str:
        """Add an inference step and return its id, the content digest
        computed here once: add_node's checks but the id's (_admit)."""
        premises = tuple(premises)
        node_id = node_digest(conclusion, rule, premises, provenance)
        return self._admit(
            JustificationNode(node_id, conclusion, rule, premises, provenance)
        )

    def add_node(self, node: JustificationNode) -> str:
        """Insert a node read back (a store line, a proof step): its id
        must be the digest of its content, then _admit checks its step."""
        if node.node_id in node.premises:
            raise CycleError(f"node {node.node_id} references itself")
        expected = node_digest(
            node.conclusion, node.rule, node.premises, node.provenance
        )
        if node.node_id != expected:
            raise ValueError(
                f"node id {node.node_id} does not match content digest"
            )
        return self._admit(node)

    def _admit(self, node: JustificationNode) -> str:
        """Check a node's premises and step: every node joins here."""
        # The id is a digest of the content, so that node was checked
        # when it joined.
        if node.node_id in self._nodes:
            return node.node_id
        for premise in node.premises:
            if premise not in self._nodes:
                raise UnknownPremiseError(premise)
        if node.premises:
            support = [self._nodes[p].conclusion for p in node.premises]
            if not entails(support, node.conclusion):
                raise UnsoundInferenceError(
                    f"premises do not entail {render_canonical(node.conclusion)}"
                )
        self._nodes[node.node_id] = node
        return node.node_id

    def nodes_for(self, formula: Formula) -> list[str]:
        """All node ids concluding the formula, oldest first, by a scan."""
        key = render_canonical(formula)
        nodes = self._nodes.values()
        return [n.node_id for n in nodes if render_canonical(n.conclusion) == key]

    def latest_for(self, formula: Formula) -> str | None:
        ids = self.nodes_for(formula)
        return ids[-1] if ids else None

    def trace(self, target: Formula | str) -> list[JustificationNode]:
        """Minimal supporting sub-DAG, leaves first, conclusion last."""
        if isinstance(target, str):
            root = target
            if root not in self._nodes:
                raise NoJustificationError(root)
        else:
            maybe = self.latest_for(target)
            if maybe is None:
                raise NoJustificationError(render_canonical(target))
            root = maybe
        order: list[JustificationNode] = []
        self._visit(root, set(), order)
        return order

    def _visit(
        self, node_id: str, done: set[str], order: list[JustificationNode]
    ) -> None:
        """Append the node's premises, depth first, then the node itself.

        A method rather than a nested function: a closure that calls
        itself is a reference cycle, which keeps the graph alive until
        the cyclic collector runs.
        """
        if node_id in done:
            return
        node = self.node(node_id)
        done.add(node_id)
        for premise in node.premises:
            self._visit(premise, done, order)
        order.append(node)

    def depth(self, node_id: str) -> int:
        """Longest premise path below the node; leaves have depth 0."""
        return self.depth_of(self.node(node_id))

    def depth_of(self, node: JustificationNode) -> int:
        """depth() of a node whose premises are recorded; it need not be."""
        if not node.premises:
            return 0
        return 1 + max(self.depth(p) for p in node.premises)

    def all_nodes(self) -> list[JustificationNode]:
        return list(self._nodes.values())

    def nodes_since(self, count: int) -> list[JustificationNode]:
        """The nodes added after the first count, oldest first.

        Nodes keep insertion order, so this walks only the newest nodes,
        from the end.
        """
        newest = islice(reversed(self._nodes.values()), len(self._nodes) - count)
        return list(newest)[::-1]

    def truncate(self, count: int) -> None:
        """Drop the nodes added after the first count, newest first."""
        while len(self._nodes) > count:
            self._nodes.popitem()


def build_public_proof(graph: JustificationGraph, target: Formula | str) -> PublicProof:
    chain = tuple(graph.trace(target))
    return PublicProof(
        conclusion=chain[-1].conclusion,
        chain=chain,
        digest=hash_chain(chain),
    )


def verify_public_proof(
    proof: PublicProof,
    anchored: Callable[[bytes], bool],
) -> VerifyResult:
    """Check a proof against its digest, the ledger, and each step.

    The digest is recomputed first, so any post-hoc edit to a chain
    formula reports as a digest mismatch.  An intact, anchored chain is
    admitted step by step into a graph of its own by add_node, as a
    store line is; the first step it refuses is the bad step.
    """
    if not proof.chain:
        return VerifyResult(False, "bad step", None)
    if hash_chain(proof.chain) != proof.digest:
        return VerifyResult(False, "digest mismatch", None)
    if not anchored(proof.digest):
        return VerifyResult(False, "not anchored", None)
    if render_canonical(proof.chain[-1].conclusion) != render_canonical(
        proof.conclusion
    ):
        return VerifyResult(False, "bad step", len(proof.chain) - 1)
    graph = JustificationGraph()
    for index, node in enumerate(proof.chain):
        try:
            graph.add_node(node)
        except (ValueError, UnknownPremiseError):
            return VerifyResult(False, "bad step", index)
    return VerifyResult(True)


def dominance(
    a: Provenance,
    b: Provenance,
    reliability: Mapping[str, float] | None = None,
) -> int:
    """Compare provenance records: 1 if a wins, -1 if b wins, 0 on a tie.

    Ordering is lexicographic over confidence, then recency, then the
    configured source reliability (default 0.5 for unknown sources).
    """
    table = reliability or {}

    def rank(p: Provenance) -> tuple[float, int, float]:
        return (
            p.confidence,
            p.timestamp,
            table.get(p.source, DEFAULT_SOURCE_RELIABILITY),
        )

    left, right = rank(a), rank(b)
    if left > right:
        return 1
    if right > left:
        return -1
    return 0


# The line json.dumps(..., sort_keys=True) writes for a node, spelt by
# hand: json's own escaper quotes each string, and _json_number spells
# each number as json does.  _NODE_LINE_RE below reads it back.
_NODE_LINE = (
    '{"conclusion": %s, "confidence": %s, "id": %s, "premises": [%s],'
    ' "rule": %s, "source": %s, "timestamp": %s}'
)
_quote = json.encoder.encode_basestring_ascii


def _json_number(value: float) -> str:
    """A bool, int or finite float as json.dumps spells it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return int.__repr__(value) if isinstance(value, int) else float.__repr__(value)


def node_to_json(node: JustificationNode) -> str:
    """The node's store line, without its newline: a JSON object with
    sorted keys, byte for byte what json.dumps gives."""
    provenance = node.provenance
    return _NODE_LINE % (
        _quote(render_canonical(node.conclusion)),
        _json_number(provenance.confidence),
        _quote(node.node_id),
        ", ".join(map(_quote, node.premises)),
        _quote(node.rule),
        _quote(provenance.source),
        _json_number(provenance.timestamp),
    )


_NODE_FIELDS = (
    ("id", str),
    ("conclusion", str),
    ("rule", str),
    ("premises", list),
    ("source", str),
    ("timestamp", int),
    ("confidence", (int, float)),
)

# A line as node_to_json spells it: keys sorted, its separators, strings
# without escapes, and numbers whose whole part has at most 18 digits
# (so int() here never meets the interpreter's digit limit).  Such a
# line is decoded and type-checked by this one match; any other line
# goes through json and checked_fields.
_CHARS = r'[^"\\\x00-\x1f]*'
_STRING = r'"(' + _CHARS + r')"'
_NODE_LINE_RE = re.compile(
    r'\{"conclusion": ' + _STRING
    + r', "confidence": (-?(?:0|[1-9][0-9]{0,17}))((?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?)'
    + r', "id": ' + _STRING
    + r', "premises": \[((?:"' + _CHARS + r'"(?:, "' + _CHARS + r'")*)?)\]'
    + r', "rule": ' + _STRING
    + r', "source": ' + _STRING
    + r', "timestamp": (-?(?:0|[1-9][0-9]{0,17}))\}\n?'
)


def node_from_json(
    line: str, formula_for: Callable[[str], Formula] | None = None
) -> JustificationNode:
    """The node a node_to_json line holds; ValueError if it holds none.

    A line spelt as node_to_json writes it is decoded and type-checked
    by one regex match; any other is read by json, with the same result.
    Bad JSON, a missing or mistyped field and a conclusion that does
    not parse all raise ValueError.  The id is not checked against the
    content here: JustificationGraph.add_node does that.  The
    conclusion is formula_for(text), such as a graph's formula for the
    text (JustificationGraph.formula), else a fresh parse.
    """
    match = _NODE_LINE_RE.fullmatch(line)
    if match is None:
        node_id, text, rule, premises, source, timestamp, confidence = (
            checked_fields(json.loads(line), _NODE_FIELDS, "node")
        )
        if not all(isinstance(premise, str) for premise in premises):
            raise ValueError("node field 'premises' has the wrong type")
    else:
        text, whole, part, node_id, listed, rule, source, stamp = match.groups()
        # As json decodes a number: an int unless it has a fraction or
        # an exponent.
        confidence = float(whole + part) if part else int(whole)
        premises = listed[1:-1].split('", "') if listed else ()
        timestamp = int(stamp)
    # Positional: a keyword call to a class packs a dict (see record).
    return JustificationNode(
        node_id,
        parse(text) if formula_for is None else formula_for(text),
        rule,
        tuple(premises),
        Provenance(source, timestamp, confidence),
    )


def checked_fields(
    obj: object, fields: Sequence[tuple[str, type | tuple[type, ...]]], what: str
) -> list:
    """The values of fields, (name, type) pairs, in a decoded JSON
    object, in that order.  A top level that is not an object, or the
    first field missing or of the wrong type, raises ValueError naming
    what was decoded: a proof or a node."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} is not a JSON object")
    for name, kind in fields:
        if name not in obj:
            raise ValueError(f"{what} lacks field {name!r}")
        if not isinstance(obj[name], kind):
            raise ValueError(f"{what} field {name!r} has the wrong type")
    return [obj[name] for name, _ in fields]


def proof_to_json(proof: PublicProof) -> str:
    return json.dumps(
        {
            "conclusion": render_canonical(proof.conclusion),
            "digest": proof.digest.hex(),
            "chain": [json.loads(node_to_json(n)) for n in proof.chain],
        },
        indent=2,
    )


_PROOF_FIELDS = (("conclusion", str), ("digest", str), ("chain", list))


def proof_from_json(text: str) -> PublicProof:
    """The proof a proof_to_json file holds; ValueError if it holds none.

    Bad JSON, a top level or field that checked_fields refuses, as it
    refuses a node line's, and a bad node, conclusion or digest all
    raise ValueError.  The conclusions share one formula table, so the
    proof's conclusion, its last step's too, is parsed once.
    """
    conclusion, digest, chain = checked_fields(
        json.loads(text), _PROOF_FIELDS, "proof"
    )
    formula = JustificationGraph().formula
    chain = tuple(node_from_json(json.dumps(item), formula) for item in chain)
    return PublicProof(
        conclusion=formula(conclusion), chain=chain, digest=bytes.fromhex(digest)
    )


def load_graph(
    lines: Iterable[str | bytes], graph: JustificationGraph | None = None
) -> JustificationGraph:
    """graph, a new one by default, with the nodes that node-store lines,
    as text or as the bytes read, hold added, each validated again.

    ValueError names the first line that holds no valid node by its
    number alone, with at most a column within it: a blank line (as in
    a ledger), bytes that are not UTF-8, bad JSON, a missing or mistyped
    field, an id that does not match the content, an unknown premise or
    an unsound step.  A line repeating a node adds nothing.  A
    conclusion nested deeper than the parser's limit is not damage, so
    ResourceLimitError names its line instead.  Each conclusion comes
    from graph's formula table, which graph keeps: nodes with the same
    conclusion text share one parsed formula with each other and with
    every other request for that text, so a session compiles each
    distinct formula once.
    """
    if graph is None:
        graph = JustificationGraph()
    formula_for = graph.formula
    for number, line in enumerate(lines, 1):
        try:
            text = line if isinstance(line, str) else line.decode()
            graph.add_node(node_from_json(text, formula_for))
            continue
        except UnknownPremiseError as err:
            damage = f"unknown premise {err}"
        except NestingLimitError as err:
            raise ResourceLimitError(f"node store line {number}: {err}") from None
        except UnicodeDecodeError as err:
            damage = f"invalid UTF-8 at column {len(line[: err.start].decode()) + 1}"
        except json.JSONDecodeError as err:
            damage = f"{err.msg} at column {err.colno}"
        except ValueError as err:
            damage = str(err)
        raise ValueError(f"node store line {number}: {damage}")
    return graph
