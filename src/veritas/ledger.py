"""Append-only hash-chained ledger with replay and Merkle proofs.

Each block commits to its index, timestamp, operation, formula text,
justification digest, and the previous block's hash; the genesis block
links to 32 zero bytes.  The on-disk format is one line per block: the
hashed serialization, a unit separator, the block hash in hex, and a
newline.  A line is read back only when it is exactly that, byte for
byte: it is split on the separator into seven fields, and each must be
spelt as block_line spells it.  A line whose fields would parse to the
same block but are spelt otherwise (a zero-padded index, uppercase hex)
is corrupt, since its bytes are not what was hashed.  One check,
_extends, decides whether a block may follow the one before: its index,
its link and its hash.  Opening a file applies it to each line once,
hashing the bytes the line was read from, so a chain read intact needs
no second pass; verify_chain applies it to the blocks held in memory.
Replaying the ledger through the belief module with the same
configuration reconstructs the live base exactly, because commit is the
one way to change a base: it folds the next block as apply_block does
and appends it only once that fold has succeeded.  A node joins the
graph one way: the writer records it inside a batch, then commits the
block that names it.  A batch is the write unit for both files: it
writes the nodes its ledger's NodeStore gained, then the lines of the
blocks appended inside it, with one write each and one fsync, so a node
is stored before a block names it.  If either write fails, the batch
cuts both files back to where they ended when it began, and takes its
blocks out of the chain and the nodes recorded since out of the graph,
so a failed write leaves both files and the graph as they were, for
every command.  A batch that keeps no block keeps none of its nodes, on
every ledger, with a file or without one.  The ledger and the node
store each open their file for appending on their first write and keep
that handle until close; each tracks where its file ends, so a write
neither reopens the file nor seeks.  An OSError from opening, reading,
writing or fsyncing either file is raised as a StoreIOError naming it.
"""

from __future__ import annotations

import enum
import os
from binascii import unhexlify
from dataclasses import dataclass
from pathlib import Path

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
from .logic import Formula, ResourceLimitError, render_canonical
from .logic.parser import NestingLimitError
from .logic.sat import EMPTY_WITNESS
from .record import record

ZERO_HASH = b"\x00" * 32
LEDGER_SUFFIX = ".vlog"

_FIELD_SEP = b"\x1f"


class LedgerCorruptionError(RuntimeError):
    """The chain fails verification; appends are refused."""

    def __init__(self, index: int):
        super().__init__(f"ledger corrupt at block {index}")
        self.index = index


class StoreIOError(OSError):
    """Opening, reading, writing or fsyncing a store file failed: the
    operating system's error, with that file as its filename."""

    def __str__(self) -> str:
        return f"{self.filename}: {self.strerror}"


def _store_error(err: OSError, path) -> StoreIOError:
    """err as a StoreIOError naming path: each store-file OSError's one mapping."""
    return StoreIOError(err.errno, err.strerror or str(err), os.fspath(path))


class ReplayError(RuntimeError):
    """A block cannot be re-applied: it names a node the node store
    lacks or one concluding another formula, or the node store itself
    is damaged."""


class Op(enum.Enum):
    INSERT = "insert"
    CONTRACT = "contract"
    REVISE = "revise"
    RECOVERY = "recovery"
    TRACE_SEAL = "trace-seal"
    META = "meta"


@record
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


def payload_hash(payload: bytes) -> bytes:
    """The block hash of a payload: every block hash is computed here."""
    return sha256(payload).digest()


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


def _extends(block: Block, index: int, previous: bytes, payload: bytes) -> bool:
    """Whether block, hashed over payload, may stand at index after a
    block whose hash is previous: the one check of a block, read from a
    file or held in memory."""
    return (
        block.index == index
        and block.h_prev == previous
        and payload_hash(payload) == block.h
    )


_OPS = {op.value.encode(): op for op in Op}
_HEX_DIGITS = b"0123456789abcdef"


def _parse_line(raw: bytes) -> Block | None:
    """The block a line holds, or None unless the line is what
    block_line writes and nothing else: seven fields split on the
    separator, decimals without a sign or leading zeros, a known op, a
    UTF-8 formula and three hashes of 64 lowercase hex digits."""
    fields = raw.split(_FIELD_SEP)
    if len(fields) != 7:
        return None
    index, timestamp, op, formula, digest, h_prev, h = fields
    op = _OPS.get(op)
    if (
        op is None
        or not index.isdigit()
        or (index[0] == b"0"[0] and len(index) > 1)
        or not timestamp.isdigit()
        or (timestamp[0] == b"0"[0] and len(timestamp) > 1)
        or not len(digest) == len(h_prev) == len(h) == 64
        or (digest + h_prev + h).strip(_HEX_DIGITS)
    ):
        return None
    try:
        text = formula.decode()
    except UnicodeDecodeError:
        return None
    return Block(
        int(index),
        int(timestamp),
        op,
        text,
        unhexlify(digest),
        unhexlify(h_prev),
        unhexlify(h),
    )


def _lines(data: bytes) -> list[bytes]:
    """The lines of a store file, without their newlines: the one rule
    by which both files are split.  Only the piece after the final
    newline may be empty; an empty line anywhere else is damage."""
    lines = data.split(b"\n")
    if not lines[-1]:
        lines.pop()
    return lines


# A line is its payload, the separator and 64 hex digits of hash.
_HASH_SUFFIX = len(_FIELD_SEP) + 64


class Ledger:
    """Blocks in memory, mirrored to a .vlog file when a path is given.

    Each block is hashed once per ledger: ``_load`` hashes each line it
    reads, ``next_block`` hashes each new block and ``append_block``,
    the one method that adds blocks, does not.  A chain read intact, or
    begun empty, is the verified prefix; ``verify_chain`` re-hashes the
    whole chain and, when it is intact, records it as that prefix.
    ``ensure_verified`` accepts a chain equal to the prefix without
    hashing it again.  nodes, a session's NodeStore when given, is
    written and taken back with each batch.  The first write opens the
    file for appending; the handle stays open until ``close``, which a
    file-backed ledger that has written needs, directly or as a context
    manager.
    """

    def __init__(self, path: str | Path | None = None, nodes: NodeStore | None = None):
        self.path = Path(path) if path is not None else None
        self.nodes = nodes
        self._blocks: list[Block] = []
        # The verified prefix: the chain as read, if it verified, else
        # None until verify_chain succeeds.  ensure_verified compares it
        # with _blocks by list equality, which hashes nothing, so an
        # in-memory edit is still caught.
        self._verified: list[Block] | None = None
        self._digests: set[bytes] = set()
        self._corrupt_at: int | None = None
        # Lines of the blocks appended inside a batch, not yet written.
        self._pending: list[bytes] | None = None
        # The append handle, once a write opened it, and the file's length.
        self._handle = None
        self._end = 0
        intact = True
        if self.path is not None and self.path.exists():
            intact = self._load()
        if intact:
            self._verified = list(self._blocks)

    def _load(self) -> bool:
        """Read the file's blocks up to the first unreadable line, and
        tell whether the chain read is intact.

        Each block passes _extends as it is read, until one fails.  The
        hash is taken over the bytes of its line, which _parse_line
        admits only as block_payload gives them, so no payload is rebuilt.
        """
        assert self.path is not None
        blocks = self._blocks
        intact = True
        previous = ZERO_HASH
        try:
            data = self.path.read_bytes()
        except OSError as err:
            raise _store_error(err, self.path) from err
        for raw in _lines(data):
            block = _parse_line(raw)
            if block is None:
                self._corrupt_at = len(blocks)
                return False
            intact = intact and _extends(
                block, len(blocks), previous, raw[:-_HASH_SUFFIX]
            )
            previous = block.h
            blocks.append(block)
            self._digests.add(block.justification_digest)
        return intact

    def __len__(self) -> int:
        return len(self._blocks)

    @property
    def blocks(self) -> tuple[Block, ...]:
        return tuple(self._blocks)

    def last_hash(self) -> bytes:
        return self._blocks[-1].h if self._blocks else ZERO_HASH

    def verify_chain(self) -> int | None:
        """None when the chain is intact, else the first bad index.

        Always re-hashes every block, over the payload of the line its
        fields give, so an edit in memory is caught; each block passes
        _extends, as each line _load reads does.  An intact chain
        becomes the verified prefix that append extends.
        """
        previous = ZERO_HASH
        for position, block in enumerate(self._blocks):
            payload = block_line(block).rpartition(_FIELD_SEP)[0]
            if not _extends(block, position, previous, payload):
                return position
            previous = block.h
        if self._corrupt_at is not None:
            return self._corrupt_at
        self._verified = list(self._blocks)
        return None

    def ensure_verified(self) -> None:
        """Raise LedgerCorruptionError unless the chain is intact.

        A chain still equal to the verified prefix (compared block by
        block) is not hashed again; any other is verified in full.
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
        h = payload_hash(
            block_payload(index, timestamp, op, formula, justification_digest, h_prev)
        )
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

    def batch(self) -> _Batch:
        """Write the blocks appended inside, and the nodes the store
        gained, with one write each and one fsync.

        They join the chain, and the graph, when added and are written
        on any exit, by exception too.  When a write raises, both files
        are cut back to where they ended when the batch began, the
        blocks leave the chain, the nodes recorded since then leave the
        graph, and the error propagates.  A batch that keeps no block
        keeps none of its nodes either; only the write needs a file.
        Nested, it adds nothing.
        """
        return _Batch(self)

    def _write(self, data: bytes) -> None:
        """Write the store's new nodes, then append the block lines
        through the kept handle and fsync them.

        This is the one place that orders node lines before block lines.
        A write that fails leaves the file, and the length tracked for
        it, as they were before it.
        """
        if self.nodes is not None:
            self.nodes.write_new()
        try:
            if self._handle is None:
                self._handle, self._end = _open_append(self.path)
            self._end = _append_all(self._handle, data, self._end, sync=True)
        except OSError as err:
            raise _store_error(err, self.path) from err

    def close(self) -> None:
        """Close the append handle, if a write opened it."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> Ledger:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def contains_digest(self, digest: bytes) -> bool:
        """Whether any block anchors the given justification digest."""
        return digest in self._digests


class _Batch:
    """The context manager Ledger.batch returns.  Only the outermost
    batch, entered while no lines are pending, marks where the chain and
    the node store stand, and writes or cuts back on exit."""

    __slots__ = ("ledger", "kept", "mark")

    def __init__(self, ledger: Ledger):
        self.ledger = ledger
        self.kept: int | None = None

    def __enter__(self) -> None:
        ledger = self.ledger
        if ledger._pending is None:
            self.kept = len(ledger._blocks)
            self.mark = ledger.nodes and ledger.nodes.mark()
            ledger._pending = []

    def __exit__(self, *exc) -> None:
        kept, ledger = self.kept, self.ledger
        if kept is None:
            return
        data, ledger._pending = b"".join(ledger._pending), None
        try:
            if data:
                ledger._write(data)
        except BaseException:
            del ledger._blocks[kept:]
            if ledger._verified is not None:
                del ledger._verified[kept:]
            ledger._digests = {b.justification_digest for b in ledger._blocks}
            raise
        finally:
            # No block kept names a node recorded here, so none is kept.
            if len(ledger._blocks) == kept and ledger.nodes is not None:
                ledger.nodes.truncate(self.mark)


def _open_append(path):
    """An unbuffered binary append handle on path, and the file's length."""
    handle = open(path, "ab", buffering=0)
    return handle, handle.seek(0, os.SEEK_END)


def _append_all(handle, data: bytes, end: int, sync: bool = False) -> int:
    """Append all of data through an unbuffered binary append handle on
    a file end bytes long, fsynced when sync is set, and return the
    file's new length.  If any of it fails, cut the file back to end and
    re-raise."""
    try:
        view = memoryview(data)
        while view:
            view = view[handle.write(view):]
        if sync:
            os.fsync(handle.fileno())
    except BaseException:
        handle.truncate(end)
        raise
    return end + len(data)


class NodeStore:
    """The justification nodes that blocks name: one JSON line each.

    load reads the store into graph; write_new appends the nodes the
    graph gained since, through a handle that its first write opens and
    close closes; mark tells where the store stands and truncate takes
    it back there.  Each tracks the file's length, learnt at load,
    instead of asking for it.  Before load it writes nothing and reads
    nothing, and graph holds no node: it serves only its formula table.
    A session's ledger writes it and takes it back (Ledger.batch).
    """

    def __init__(self, path: str):
        self.path = path
        self.graph = JustificationGraph()
        # The mark load left, None before a load succeeds.
        self._read = None
        self._written = 0
        # The append handle, once a write opened it, and the file's length.
        self._handle = None
        self._end = 0

    def load(self) -> JustificationGraph:
        """graph, with the nodes the store holds read into it.  A damaged
        store raises ReplayError, like a block naming a node the store
        lacks; a read that raises leaves graph without nodes."""
        graph, data = self.graph, b""
        if self.path and os.path.exists(self.path):
            try:
                with open(self.path, "rb") as handle:
                    data = handle.read()
            except OSError as err:
                raise _store_error(err, self.path) from err
            # No node of a failed read stays for write_new to write.
            try:
                load_graph(_lines(data), graph)
            except ValueError as err:
                graph.truncate(0)
                raise ReplayError(str(err)) from None
            except BaseException:
                graph.truncate(0)
                raise
        self._written, self._end = len(graph), len(data)
        self._read = self._written, self._written, self._end
        return graph

    def mark(self) -> tuple[int, int, int] | None:
        """Where the store stands: the graph's node count, how many of
        them the file holds, and its length; None before load."""
        return self._read and (len(self.graph), self._written, self._end)

    def write_new(self) -> None:
        graph = self.graph
        if len(graph) == self._written:
            return
        lines = (node_to_json(n) + "\n" for n in graph.nodes_since(self._written))
        try:
            if self._handle is None:
                self._handle, self._end = _open_append(self.path)
            self._end = _append_all(self._handle, "".join(lines).encode(), self._end)
        except OSError as err:
            raise _store_error(err, self.path) from err
        self._written = len(graph)

    def truncate(self, mark: tuple[int, int, int] | None) -> None:
        """Drop the nodes added since mark and cut the file back to its
        length then; a mark of None means what load read, or nothing."""
        count, self._written, end = mark or self._read or (0, 0, 0)
        if self._end != end:
            try:
                self._handle.truncate(end)
            except OSError as err:
                raise _store_error(err, self.path) from err
            self._end = end
        self.graph.truncate(count)

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

    insert/revise fold the node the block names (see _named_node)
    through update_belief_state; contract runs partial meet contraction;
    recovery blocks encode one retraction (zero digest) or one amendment
    to the named node's conclusion; trace-seal and meta blocks carry no
    belief effect.
    """
    if block.op in (Op.INSERT, Op.REVISE):
        return _fold_node(base, _block_node(block, graph), config, graph)[0]
    if block.op == Op.CONTRACT:
        return contract(base, _stored_formula(block, graph))
    if block.op == Op.RECOVERY:
        if not block.formula:
            return base
        if block.justification_digest == ZERO_HASH:
            return retract_entry(base, _stored_formula(block, graph), "recovery")
        node = _block_node(block, graph)
        # A demotion or regrounding node marks the entry for re-observation:
        # approximate and not assertable, whatever its probability.
        probability = node.provenance.confidence
        marking = node.rule in MARKING_RULES
        return amend_entry(
            base,
            node.conclusion,
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


def _block_node(block: Block, graph: JustificationGraph) -> JustificationNode:
    """The node an insert, revise or amending recovery block names."""
    return _named_node(block.index, block.formula, block.justification_digest, graph)


def _named_node(
    index: int, formula: str, digest: bytes, graph: JustificationGraph
) -> JustificationNode:
    """The node that block index, with text formula, names by digest.

    Every writer gives the block the canonical text of the node's
    conclusion, so a node graph lacks, or one that concludes another
    formula, raises ReplayError.
    """
    node_id = digest.hex()
    node = graph.get(node_id)
    if node is None:
        raise ReplayError(f"block {index} references unknown node {node_id}")
    if render_canonical(node.conclusion) != formula:
        raise ReplayError(
            f"block {index} names node {node_id}, which does not"
            f" conclude {formula!r}"
        )
    return node


def _stored_formula(block: Block, graph: JustificationGraph) -> Formula:
    """The formula a block names, from graph's formula table.  One
    nested deeper than the parser's limit is not bad input but a limit
    of this reader, so it raises ResourceLimitError, as a node store
    line does."""
    try:
        return graph.formula(block.formula)
    except NestingLimitError as err:
        raise ResourceLimitError(f"block {block.index}: {err}") from None


def _fold_node(
    base: BeliefBase,
    node: JustificationNode,
    config: EngineConfig,
    graph: JustificationGraph,
) -> tuple[BeliefBase, str]:
    """Fold in the entry an insert or revise block adds for node: the
    new base and the route update_belief_state took.

    The entry's formula, probability and provenance come from the node,
    and the assertion gate weighs its derivation depth; only its
    premises need be in graph.
    """
    probability = node.provenance.confidence
    # Positional: a keyword call to a class packs a dict (see record).
    entry = BeliefEntry(
        node.conclusion,
        probability,
        node.provenance,
        status_for(node.rule, probability),
        node.node_id,
        assertion_gate(probability, graph.depth_of(node), config),
    )
    return update_belief_state(base, entry, theta=config.theta)


def commit(
    ledger: Ledger,
    base: BeliefBase,
    config: EngineConfig,
    graph: JustificationGraph,
    op: Op | str,
    formula: str = "",
    justification_digest: bytes = ZERO_HASH,
    timestamp: int = 0,
) -> tuple[BeliefBase, Block]:
    """Fold the next block into base, then append it; the folded base
    and the block.

    A fold that raises (a resource limit, say) appends nothing, and the
    base returned is the one a replay of the ledger rebuilds.  An insert
    is folded before its block is built, and becomes a REVISE when the
    fold revised the base, so each block is hashed once.
    """
    op = Op(op) if isinstance(op, str) else op
    if op is not Op.INSERT:
        block = ledger.next_block(op, formula, justification_digest, timestamp)
        return apply_block(base, block, config, graph), ledger.append_block(block)
    node = _named_node(len(ledger), formula, justification_digest, graph)
    folded, route = _fold_node(base, node, config, graph)
    if route == "revised":
        op = Op.REVISE
    block = ledger.next_block(op, formula, justification_digest, timestamp)
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
    # No formulas are a consistent set, witnessed by no literals.
    base = initial if initial is not None else BeliefBase(witness=EMPTY_WITNESS)
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
