"""Append-only hash-chained ledger with replay and Merkle proofs.

Each block commits to its index, timestamp, operation, formula text,
justification digest, and the previous block's hash; the genesis block
links to 32 zero bytes.  The on-disk format is one line per block: the
hashed serialization, a unit separator, the block hash in hex, and a
newline.  A line is read back only when it is exactly that, byte for
byte: a line whose fields would parse to the same block but are spelt
otherwise (a zero-padded index, uppercase hex) is corrupt, since its
bytes are not what was hashed.  Replaying the ledger through the
belief module with the same configuration reconstructs the live base
exactly, because commit is the one way to change a base: it folds the
next block as apply_block does and appends it only once that fold has
succeeded.  A batch writes the lines of the blocks appended inside it
with one write and one fsync.  Ledger._write runs the before_write
hook, a NodeStore's write, before any block line, so a node is stored
before a block names it.
"""

from __future__ import annotations

import contextlib
import enum
import os
import re
from binascii import unhexlify
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from .belief import (
    MARKING_RULES,
    BeliefBase,
    BeliefEntry,
    StatusTag,
    amend_entry,
    assertion_gate,
    contract,
    retract_entry,
    status_for,
    update_belief_state,
)
from .config import EngineConfig
from .hashing import sha256
from .justify import JustificationGraph, JustificationNode, load_graph, node_to_json
from .logic import parse

ZERO_HASH = b"\x00" * 32
LEDGER_SUFFIX = ".vlog"

_FIELD_SEP = b"\x1f"


class LedgerCorruptionError(RuntimeError):
    """The chain fails verification; appends are refused."""

    def __init__(self, index: int):
        super().__init__(f"ledger corrupt at block {index}")
        self.index = index


class ReplayError(RuntimeError):
    """A block cannot be re-applied: it names a node the node store
    lacks, or the node store itself is damaged."""


class Op(enum.Enum):
    INSERT = "insert"
    CONTRACT = "contract"
    REVISE = "revise"
    RECOVERY = "recovery"
    TRACE_SEAL = "trace-seal"
    META = "meta"


@dataclass(frozen=True)
class Block:
    index: int
    timestamp: int
    op: Op
    formula: str
    justification_digest: bytes
    h_prev: bytes
    h: bytes


def block_payload(
    index: int,
    timestamp: int,
    op: Op,
    formula: str,
    justification_digest: bytes,
    h_prev: bytes,
) -> bytes:
    """The exact byte string whose SHA-256 is the block hash."""
    return _FIELD_SEP.join(
        (
            str(index).encode(),
            str(timestamp).encode(),
            op.value.encode(),
            formula.encode(),
            justification_digest.hex().encode(),
            h_prev.hex().encode(),
        )
    )


def block_hash(
    index: int,
    timestamp: int,
    op: Op,
    formula: str,
    justification_digest: bytes,
    h_prev: bytes,
) -> bytes:
    return sha256(
        block_payload(index, timestamp, op, formula, justification_digest, h_prev)
    ).digest()


def block_line(block: Block) -> bytes:
    payload = block_payload(
        block.index,
        block.timestamp,
        block.op,
        block.formula,
        block.justification_digest,
        block.h_prev,
    )
    return payload + _FIELD_SEP + block.h.hex().encode() + b"\n"


# What block_line writes and nothing else: decimals without a sign or
# leading zeros, a known op, lowercase hex, no trailing bytes.
_DECIMAL = rb"(0|[1-9][0-9]*)"
_HEX_32 = rb"([0-9a-f]{64})"
_LINE_RE = re.compile(
    _FIELD_SEP.join(
        (
            _DECIMAL,
            _DECIMAL,
            b"(" + b"|".join(re.escape(op.value.encode()) for op in Op) + b")",
            rb"([^\x1f]*)",
            _HEX_32,
            _HEX_32,
            _HEX_32,
        )
    )
)
_OPS = {op.value.encode(): op for op in Op}


def _parse_line(raw: bytes) -> Block | None:
    match = _LINE_RE.fullmatch(raw)
    if match is None:
        return None
    index, timestamp, op, formula, digest, h_prev, h = match.groups()
    try:
        text = formula.decode()
    except UnicodeDecodeError:
        return None
    return Block(
        int(index),
        int(timestamp),
        _OPS[op],
        text,
        unhexlify(digest),
        unhexlify(h_prev),
        unhexlify(h),
    )


class Ledger:
    """Blocks in memory, mirrored to a .vlog file when a path is given.

    Each block is hashed once per ledger: ``next_block`` hashes it and
    ``append_block``, the one method that adds blocks, does not.
    ``verify_chain`` re-hashes the whole chain and, when it is intact,
    records it as the verified prefix; ``ensure_verified`` accepts a
    chain equal to that prefix without hashing it again.  before_write,
    when given, runs each time block lines are about to be written.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        before_write: Callable[[], None] | None = None,
    ):
        self.path = Path(path) if path is not None else None
        self.before_write = before_write
        self._blocks: list[Block] = []
        # The verified prefix, None until a verification succeeds.
        # ensure_verified compares it with _blocks by list equality, which
        # hashes nothing, so an in-memory edit is still caught.
        self._verified: list[Block] | None = None
        self._digests: set[bytes] = set()
        self._corrupt_at: int | None = None
        # Lines of the blocks appended inside a batch, not yet written.
        self._pending: list[bytes] | None = None
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        assert self.path is not None
        lines = self.path.read_bytes().split(b"\n")
        # Only the piece after the final newline may be empty; an empty
        # line anywhere else is a corrupt block.
        if not lines[-1]:
            lines.pop()
        for raw in lines:
            block = _parse_line(raw)
            if block is None:
                self._corrupt_at = len(self._blocks)
                return
            self._blocks.append(block)
            self._digests.add(block.justification_digest)

    def __len__(self) -> int:
        return len(self._blocks)

    @property
    def blocks(self) -> tuple[Block, ...]:
        return tuple(self._blocks)

    def last_hash(self) -> bytes:
        return self._blocks[-1].h if self._blocks else ZERO_HASH

    def verify_chain(self) -> int | None:
        """None when the chain is intact, else the first bad index.

        Always re-hashes every block; an intact chain becomes the
        verified prefix that append extends.
        """
        previous = ZERO_HASH
        for position, block in enumerate(self._blocks):
            if block.index != position or block.h_prev != previous:
                return position
            expected = block_hash(
                block.index,
                block.timestamp,
                block.op,
                block.formula,
                block.justification_digest,
                block.h_prev,
            )
            if block.h != expected:
                return position
            previous = block.h
        if self._corrupt_at is not None:
            return self._corrupt_at
        self._verified = list(self._blocks)
        return None

    def ensure_verified(self) -> None:
        """Raise LedgerCorruptionError unless the chain is intact.

        A chain that still equals the verified prefix is not hashed
        again; any other chain is verified in full.
        """
        if self._blocks != self._verified:
            bad = self.verify_chain()
            if bad is not None:
                raise LedgerCorruptionError(bad)

    def next_block(
        self,
        op: Op | str,
        formula: str = "",
        justification_digest: bytes = ZERO_HASH,
        timestamp: int = 0,
    ) -> Block:
        """The block append would write next, without writing it."""
        op = Op(op) if isinstance(op, str) else op
        if len(justification_digest) != 32:
            raise ValueError("justification digest must be 32 bytes")
        index = len(self._blocks)
        h_prev = self.last_hash()
        h = block_hash(index, timestamp, op, formula, justification_digest, h_prev)
        return Block(index, timestamp, op, formula, justification_digest, h_prev, h)

    def append(
        self,
        op: Op | str,
        formula: str = "",
        justification_digest: bytes = ZERO_HASH,
        timestamp: int = 0,
    ) -> Block:
        """Build the next block from these fields and append it."""
        block = self.next_block(op, formula, justification_digest, timestamp)
        return self.append_block(block)

    def append_block(self, block: Block) -> Block:
        """Append a block that next_block built, without hashing it again.

        Refuses a corrupt chain and a block that does not extend it.
        Outside a batch the block's line is on disk when this returns,
        or the block has left the chain again.
        """
        self.ensure_verified()
        if block.index != len(self._blocks) or block.h_prev != self.last_hash():
            raise ValueError(f"block {block.index} does not extend the chain")
        with self.batch():
            self._blocks.append(block)
            self._verified.append(block)
            self._digests.add(block.justification_digest)
            if self.path is not None:
                self._pending.append(block_line(block))
        return block

    @contextlib.contextmanager
    def batch(self):
        """Write the blocks appended inside with one write and one fsync.

        They join the chain when appended and are written on any exit,
        by exception too.  When the write raises, the blocks leave the
        chain again and the error propagates.  Nested, or without a
        file, it adds nothing.
        """
        if self.path is None or self._pending is not None:
            yield
            return
        self._pending = []
        kept = len(self._blocks)
        try:
            yield
        finally:
            data, self._pending = b"".join(self._pending), None
            if data:
                try:
                    self._write(data)
                except BaseException:
                    del self._blocks[kept:]
                    if self._verified is not None:
                        del self._verified[kept:]
                    self._digests = {b.justification_digest for b in self._blocks}
                    raise

    def _write(self, data: bytes) -> None:
        """Run before_write, then append the block lines and fsync them.

        This is the one place that orders node lines before block lines.
        """
        if self.before_write is not None:
            self.before_write()
        with open(self.path, "ab", buffering=0) as handle:
            _append_all(handle, data, sync=True)

    def contains_digest(self, digest: bytes) -> bool:
        """Whether any block anchors the given justification digest."""
        return digest in self._digests


def _append_all(handle, data: bytes, sync: bool = False) -> None:
    """Append all of data through an unbuffered binary handle, fsynced
    when sync is set; if any of it fails, cut the file back to its
    length before the write and re-raise."""
    end = handle.seek(0, os.SEEK_END)
    try:
        view = memoryview(data)
        while view:
            view = view[handle.write(view):]
        if sync:
            os.fsync(handle.fileno())
    except BaseException:
        handle.truncate(end)
        raise


class NodeStore:
    """The justification nodes that blocks name: one JSON line each.

    load reads the store into a graph; write_new appends the nodes the
    graph gained since, through a handle kept open until close, and
    truncate takes nodes back out.  Before load it writes nothing and
    reads nothing.  A session's ledger runs write_new as its
    before_write hook.
    """

    def __init__(self, path: str):
        self.path = path
        self.graph: JustificationGraph | None = None
        self._loaded = 0
        self._written = 0
        self._handle = None

    def load(self) -> JustificationGraph:
        """The graph the store holds; a damaged store raises ReplayError,
        like a block naming a node the store lacks."""
        graph = JustificationGraph()
        if self.path and os.path.exists(self.path):
            with open(self.path, "r", encoding="utf-8") as handle:
                try:
                    graph = load_graph(handle)
                except ValueError as err:
                    raise ReplayError(str(err)) from None
        self.graph, self._loaded, self._written = graph, len(graph), len(graph)
        return graph

    def write_new(self) -> None:
        graph = self.graph
        if graph is None or len(graph) == self._written:
            return
        if self._handle is None:
            self._handle = open(self.path, "ab", buffering=0)
        lines = (node_to_json(n) + "\n" for n in graph.nodes_since(self._written))
        _append_all(self._handle, "".join(lines).encode())
        self._written = len(graph)

    def truncate(self, count: int | None) -> None:
        """Drop the graph's nodes after the first count, or after those
        load read when count is None, and cut the lines of the ones
        already written off the end of the store."""
        graph = self.graph
        if graph is None:
            return
        if count is None:
            count = self._loaded
        if self._written > count:
            lines = graph.nodes_since(count)[: self._written - count]
            size = len("".join(node_to_json(n) + "\n" for n in lines).encode())
            self._handle.truncate(self._handle.seek(0, os.SEEK_END) - size)
            self._written = count
        graph.truncate(count)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def apply_block(
    base: BeliefBase,
    block: Block,
    config: EngineConfig,
    graph: JustificationGraph,
) -> BeliefBase:
    """Re-apply one block's operation to a belief base.

    insert/revise route through update_belief_state using the linked
    justification node for probability and provenance; contract runs
    partial meet contraction; recovery blocks encode one retraction
    (zero digest) or one amendment (digest of the node to adopt);
    trace-seal and meta blocks carry no belief effect.
    """
    if block.op in (Op.INSERT, Op.REVISE):
        node = graph.get(block.justification_digest.hex())
        if node is None:
            raise ReplayError(
                f"block {block.index} references unknown node "
                f"{block.justification_digest.hex()}"
            )
        return _fold_node(base, node, config, graph, block.formula)[0]
    if block.op == Op.CONTRACT:
        return contract(base, parse(block.formula))
    if block.op == Op.RECOVERY:
        if not block.formula:
            return base
        formula = parse(block.formula)
        if block.justification_digest == ZERO_HASH:
            return retract_entry(base, formula, "recovery")
        node = graph.get(block.justification_digest.hex())
        if node is None:
            raise ReplayError(
                f"recovery block {block.index} references unknown node"
            )
        # A demotion or regrounding node marks the entry for re-observation:
        # approximate and not assertable, whatever its probability.
        probability = node.provenance.confidence
        marking = node.rule in MARKING_RULES
        return amend_entry(
            base,
            formula,
            probability=probability,
            status=(
                StatusTag.APPROXIMATE
                if marking
                else status_for(node.rule, probability)
            ),
            justification=node.node_id,
            assertable=not marking
            and assertion_gate(probability, graph.depth(node.node_id), config),
        )
    return base


def _fold_node(
    base: BeliefBase,
    node: JustificationNode,
    config: EngineConfig,
    graph: JustificationGraph,
    key: str | None = None,
) -> tuple[BeliefBase, str, str]:
    """Fold in the entry an insert or revise block adds for node: the
    new base, the route update_belief_state took, and the entry's key.

    Probability and provenance come from the node, and the assertion
    gate weighs its derivation depth; only its premises need be in
    graph.  The node holds its formula parsed, and compiled once it has
    been checked; key, a block's formula, is parsed only if it differs.
    """
    probability = node.provenance.confidence
    entry = BeliefEntry(
        formula=node.conclusion,
        probability=probability,
        provenance=node.provenance,
        status=status_for(node.rule, probability),
        justification=node.node_id,
        assertable=assertion_gate(probability, graph.depth_of(node), config),
    )
    if key is not None and entry.key != key:
        entry = replace(entry, formula=parse(key))
    folded, route = update_belief_state(base, entry, theta=config.theta)
    return folded, route, entry.key


def commit(
    ledger: Ledger,
    base: BeliefBase,
    config: EngineConfig,
    graph: JustificationGraph,
    op: Op | str,
    formula: str = "",
    justification_digest: bytes = ZERO_HASH,
    timestamp: int = 0,
    node: JustificationNode | None = None,
) -> tuple[BeliefBase, Block]:
    """Fold the next block into base, then append it; the folded base
    and the block.

    A fold that raises (a resource limit, say) appends nothing, and the
    base returned is the one a replay of the ledger rebuilds.  node is a
    new observation, not yet in graph: its block inserts the node's
    conclusion under the node's id, and becomes a REVISE when the fold
    revised the base.  The node joins graph once the fold has succeeded.
    """
    if node is None:
        block = ledger.next_block(op, formula, justification_digest, timestamp)
        folded = apply_block(base, block, config, graph)
    else:
        folded, route, formula = _fold_node(base, node, config, graph)
        if route == "revised":
            op = Op.REVISE
        block = ledger.next_block(op, formula, bytes.fromhex(node.node_id), timestamp)
        graph.add_node(node)
    return folded, ledger.append_block(block)


def replay(
    ledger: Ledger,
    config: EngineConfig,
    graph: JustificationGraph,
    upto: int | None = None,
    initial: BeliefBase | None = None,
) -> BeliefBase:
    """Rebuild the belief base from blocks 0..upto (inclusive)."""
    ledger.ensure_verified()
    base = initial if initial is not None else BeliefBase()
    for block in ledger.blocks:
        if upto is not None and block.index > upto:
            break
        base = apply_block(base, block, config, graph)
    return base


@dataclass(frozen=True)
class MerkleProof:
    index: int
    leaf: bytes
    path: tuple[tuple[bytes, str], ...]
    root: bytes


def _merkle_levels(leaves: list[bytes]) -> list[list[bytes]]:
    levels = [list(leaves)]
    while len(levels[-1]) > 1:
        level = levels[-1]
        parents = []
        for i in range(0, len(level), 2):
            left = level[i]
            right = level[i + 1] if i + 1 < len(level) else left
            parents.append(sha256(left + right).digest())
        levels.append(parents)
    return levels


def merkle_root(ledger: Ledger) -> bytes:
    """Root over all block hashes; an empty ledger roots to zeros."""
    if not len(ledger):
        return ZERO_HASH
    return _merkle_levels([b.h for b in ledger.blocks])[-1][0]


def inclusion_proof(ledger: Ledger, index: int) -> MerkleProof:
    blocks = ledger.blocks
    if not 0 <= index < len(blocks):
        raise IndexError(f"no block at index {index}")
    levels = _merkle_levels([b.h for b in blocks])
    path: list[tuple[bytes, str]] = []
    position = index
    for level in levels[:-1]:
        if position % 2 == 0:
            sibling = level[position + 1] if position + 1 < len(level) else level[position]
            path.append((sibling, "right"))
        else:
            path.append((level[position - 1], "left"))
        position //= 2
    return MerkleProof(
        index=index,
        leaf=blocks[index].h,
        path=tuple(path),
        root=levels[-1][0],
    )


def verify_inclusion(proof: MerkleProof, root: bytes) -> bool:
    """Fold the audit path up to the root, binding the leaf's index.

    Bit k of the index says which side the level-k sibling sits on (1:
    left), so a path whose sides disagree with the index, or an index
    with bits above the path, is rejected.
    """
    if proof.index < 0 or proof.index >> len(proof.path):
        return False
    current = proof.leaf
    for level, (sibling, side) in enumerate(proof.path):
        if (proof.index >> level) & 1:
            if side != "left":
                return False
            current = sha256(sibling + current).digest()
        else:
            if side != "right":
                return False
            current = sha256(current + sibling).digest()
    return current == root == proof.root
