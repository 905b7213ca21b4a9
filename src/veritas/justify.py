"""Justification DAG with content-addressed nodes and public proofs.

Every inference is a node whose id is the SHA-256 of its own content
(conclusion, rule, premise ids, provenance), so the graph is acyclic by
construction and any mutation is detectable.  A public proof packages
the sub-DAG supporting one formula together with a chain digest over
the conclusion formulas; verification needs only the proof, a way to
ask whether the digest is anchored, and the entailment checker.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Mapping, Sequence

from .belief import Provenance
from .logic import Formula, entails, parse, render_canonical

DEFAULT_SOURCE_RELIABILITY = 0.5

_FIELD_SEP = b"\x1f"
_CHAIN_SEP = b"\x1e"

LEAF_RULES = frozenset({"observation", "axiom", "approximation"})


class UnknownPremiseError(LookupError):
    """A premise id does not name any recorded node."""


class CycleError(ValueError):
    """A node lists itself among its premises."""


class UnsoundInferenceError(ValueError):
    """The premises of a step do not entail its conclusion."""


class NoJustificationError(LookupError):
    """No node concludes the requested formula."""


@dataclass(frozen=True)
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
    payload = _FIELD_SEP.join(
        (
            render_canonical(conclusion).encode(),
            rule.encode(),
            ",".join(premises).encode(),
            provenance.source.encode(),
            str(provenance.timestamp).encode(),
            repr(provenance.confidence).encode(),
        )
    )
    return hashlib.sha256(payload).hexdigest()


def hash_chain(nodes: Sequence[JustificationNode]) -> bytes:
    """Digest over the chain's conclusions, in order, joined by 0x1E.

    Rule labels are hashed into node ids but deliberately not into the
    chain digest, which commits to the formula sequence alone.
    """
    joined = _CHAIN_SEP.join(
        render_canonical(node.conclusion).encode() for node in nodes
    )
    return hashlib.sha256(joined).digest()


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
    """Append-only store of justification nodes."""

    def __init__(self) -> None:
        self._nodes: dict[str, JustificationNode] = {}
        self._by_conclusion: dict[str, list[str]] = {}

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def get(self, node_id: str) -> JustificationNode | None:
        return self._nodes.get(node_id)

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
        """Add an inference step and return its content digest."""
        premises = tuple(premises)
        for premise in premises:
            if premise not in self._nodes:
                raise UnknownPremiseError(premise)
        if premises:
            support = [self._nodes[p].conclusion for p in premises]
            if not entails(support, conclusion):
                raise UnsoundInferenceError(
                    f"premises do not entail {render_canonical(conclusion)}"
                )
        node_id = node_digest(conclusion, rule, premises, provenance)
        if node_id in premises:
            raise CycleError(f"node {node_id} references itself")
        node = JustificationNode(node_id, conclusion, rule, premises, provenance)
        return self._insert(node)

    def add_node(self, node: JustificationNode) -> str:
        """Insert a pre-built node, re-validating id, premises, and step."""
        if node.node_id in node.premises:
            raise CycleError(f"node {node.node_id} references itself")
        expected = node_digest(
            node.conclusion, node.rule, node.premises, node.provenance
        )
        if node.node_id != expected:
            raise ValueError(
                f"node id {node.node_id} does not match content digest"
            )
        for premise in node.premises:
            if premise not in self._nodes:
                raise UnknownPremiseError(premise)
        if node.premises:
            support = [self._nodes[p].conclusion for p in node.premises]
            if not entails(support, node.conclusion):
                raise UnsoundInferenceError(
                    f"premises do not entail {render_canonical(node.conclusion)}"
                )
        return self._insert(node)

    def _insert(self, node: JustificationNode) -> str:
        if node.node_id not in self._nodes:
            self._nodes[node.node_id] = node
            key = render_canonical(node.conclusion)
            self._by_conclusion.setdefault(key, []).append(node.node_id)
        return node.node_id

    def nodes_for(self, formula: Formula) -> list[str]:
        """All node ids concluding the formula, oldest first."""
        return list(self._by_conclusion.get(render_canonical(formula), []))

    def latest_for(self, formula: Formula) -> str | None:
        ids = self._by_conclusion.get(render_canonical(formula))
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

        Nodes are never removed and keep insertion order, so this walks
        only the newest nodes, from the end.
        """
        newest = islice(reversed(self._nodes.values()), len(self._nodes) - count)
        return list(newest)[::-1]


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
    formula reports as a digest mismatch; an intact, anchored chain with
    an invalid inference reports the offending step instead.
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
    seen: dict[str, JustificationNode] = {}
    for index, node in enumerate(proof.chain):
        for premise in node.premises:
            if premise == node.node_id or premise not in seen:
                return VerifyResult(False, "bad step", index)
        if node.premises:
            support = [seen[p].conclusion for p in node.premises]
            if not entails(support, node.conclusion):
                return VerifyResult(False, "bad step", index)
        seen[node.node_id] = node
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


def node_to_json(node: JustificationNode) -> str:
    return json.dumps(
        {
            "id": node.node_id,
            "conclusion": render_canonical(node.conclusion),
            "rule": node.rule,
            "premises": list(node.premises),
            "source": node.provenance.source,
            "timestamp": node.provenance.timestamp,
            "confidence": node.provenance.confidence,
        },
        sort_keys=True,
    )


def node_from_json(line: str) -> JustificationNode:
    obj = json.loads(line)
    return JustificationNode(
        node_id=obj["id"],
        conclusion=parse(obj["conclusion"]),
        rule=obj["rule"],
        premises=tuple(obj["premises"]),
        provenance=Provenance(
            source=obj["source"],
            timestamp=obj["timestamp"],
            confidence=obj["confidence"],
        ),
    )


def load_graph(lines: Iterable[str]) -> JustificationGraph:
    graph = JustificationGraph()
    for line in lines:
        line = line.strip()
        if line:
            graph.add_node(node_from_json(line))
    return graph
