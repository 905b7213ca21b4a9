"""Append-only hash-chained ledger with replay, Merkle proofs, signatures.

Each block commits to its index, timestamp, operation, formula text,
justification digest, and the previous block's hash; the genesis block
links to 32 zero bytes.  The on-disk format is one line per block: the
hashed serialization, a unit separator, the block hash in hex, and a
newline.  Replaying the ledger through the belief module with the same
configuration reconstructs the live base exactly, because commit is the
one way to change a base: it folds the next block with apply_block and
appends the block only once that fold has succeeded.  A batch writes the
lines of the blocks appended inside it with one write and one fsync.
"""

from __future__ import annotations

import contextlib
import enum
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

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
from .justify import JustificationGraph, JustificationNode
from .logic import Formula, parse

if TYPE_CHECKING:
    # cryptography is imported where a key is used: no engine or CLI
    # path signs anything, and loading it costs several MB of memory.
    from cryptography.hazmat.primitives.asymmetric.ed25519 import (
        Ed25519PrivateKey,
        Ed25519PublicKey,
    )

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


_HEX_32 = re.compile(rb"[0-9a-f]{64}")


def _strict_hex(field: bytes) -> bytes | None:
    """Decode exactly 32 bytes of lowercase hex; int() and fromhex() are
    whitespace-tolerant, which would let some byte flips slip through."""
    if _HEX_32.fullmatch(field) is None:
        return None
    return bytes.fromhex(field.decode())


def _parse_line(raw: bytes) -> Block | None:
    fields = raw.split(_FIELD_SEP)
    if len(fields) != 7:
        return None
    if not fields[0].isdigit() or not fields[1].isdigit():
        return None
    digest = _strict_hex(fields[4])
    h_prev = _strict_hex(fields[5])
    h = _strict_hex(fields[6])
    if digest is None or h_prev is None or h is None:
        return None
    try:
        op = Op(fields[2].decode())
        formula = fields[3].decode()
    except (ValueError, UnicodeDecodeError):
        return None
    return Block(int(fields[0]), int(fields[1]), op, formula, digest, h_prev, h)


class Ledger:
    """Blocks in memory, mirrored to a .vlog file when a path is given.

    Each block is hashed once per ledger: ``next_block`` hashes it and
    ``append_block``, the one method that adds blocks, does not.
    ``verify_chain`` re-hashes the whole chain and, when it is intact,
    records it as the verified prefix; ``ensure_verified`` accepts a
    chain equal to that prefix without hashing it again.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
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
        data = self.path.read_bytes()
        for position, raw in enumerate(data.split(b"\n")):
            if not raw:
                continue
            block = _parse_line(raw)
            if block is None:
                self._corrupt_at = position
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
        Outside a batch the block's line is on disk when this returns.
        """
        self.ensure_verified()
        if block.index != len(self._blocks) or block.h_prev != self.last_hash():
            raise ValueError(f"block {block.index} does not extend the chain")
        self._blocks.append(block)
        self._verified.append(block)
        self._digests.add(block.justification_digest)
        if self.path is not None:
            with self.batch():
                self._pending.append(block_line(block))
        return block

    @property
    def batching(self) -> bool:
        """Whether appended blocks are being held for a batch's exit."""
        return self._pending is not None

    @contextlib.contextmanager
    def batch(self, before_write: Callable[[], None] | None = None):
        """Write the blocks appended inside with one write and one fsync.

        They join the chain when appended and are written on any exit,
        by exception too, after before_write runs.  When before_write or
        the write raises, the file is cut back to its length before the
        write, the blocks leave the chain again, and the error
        propagates.  Nested, or without a file, it adds nothing.
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
            try:
                if before_write is not None:
                    before_write()
                if data:
                    self._write(data)
            except BaseException:
                del self._blocks[kept:]
                if self._verified is not None:
                    del self._verified[kept:]
                self._digests = {b.justification_digest for b in self._blocks}
                raise

    def _write(self, data: bytes) -> None:
        """Append data to the file and fsync it, or leave the file as it was."""
        with open(self.path, "ab", buffering=0) as handle:
            end = handle.tell()
            try:
                view = memoryview(data)
                while view:
                    view = view[handle.write(view):]
                os.fsync(handle.fileno())
            except BaseException:
                handle.truncate(end)
                raise

    def contains_digest(self, digest: bytes) -> bool:
        """Whether any block anchors the given justification digest."""
        return digest in self._digests


def node_entry(
    formula: Formula,
    node: JustificationNode,
    config: EngineConfig,
    graph: JustificationGraph,
) -> BeliefEntry:
    """The entry an insert or revise block adds for its justification node.

    Probability and provenance come from the node; the assertion gate
    weighs the node's derivation depth.  The node itself need not be in
    the graph yet, only its premises.
    """
    probability = node.provenance.confidence
    return BeliefEntry(
        formula=formula,
        probability=probability,
        provenance=node.provenance,
        status=status_for(node.rule, probability),
        justification=node.node_id,
        assertable=assertion_gate(
            probability, graph.depth_of(node), config
        ),
    )


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
        # The node holds the formula already parsed, and compiled once
        # it has been checked; parse again only if its text differs.
        entry = node_entry(node.conclusion, node, config, graph)
        if entry.key != block.formula:
            entry = node_entry(parse(block.formula), node, config, graph)
        new_base, _ = update_belief_state(base, entry, theta=config.theta)
        return new_base
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


def commit(
    ledger: Ledger,
    base: BeliefBase,
    config: EngineConfig,
    graph: JustificationGraph,
    op: Op | str,
    formula: str = "",
    justification_digest: bytes = ZERO_HASH,
    timestamp: int = 0,
    before_append: Callable[[], None] | None = None,
) -> BeliefBase:
    """Fold the next block into base, then append it; the folded base.

    A fold that raises (a resource limit, say) appends nothing, and the
    base returned is the one a replay of the ledger rebuilds.
    before_append runs between the fold and the append; a session passes
    its node-store sync there, so the nodes a block names are on disk
    before the block is.
    """
    block = ledger.next_block(op, formula, justification_digest, timestamp)
    folded = apply_block(base, block, config, graph)
    if before_append is not None:
        before_append()
    ledger.append_block(block)
    return folded


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


@dataclass(frozen=True)
class TruthRecord:
    formula: str
    timestamp: int
    signature: bytes
    inclusion: MerkleProof


def _record_message(formula: str, timestamp: int) -> bytes:
    return sha256(
        formula.encode() + _FIELD_SEP + str(timestamp).encode()
    ).digest()


def sign_truth_record(
    ledger: Ledger,
    formula: str,
    timestamp: int,
    key: Ed25519PrivateKey,
) -> TruthRecord:
    """Sign a held formula and prove its block is in the ledger."""
    position = None
    for block in ledger.blocks:
        if block.formula == formula:
            position = block.index
    if position is None:
        raise ValueError(f"no block carries formula {formula!r}")
    signature = key.sign(_record_message(formula, timestamp))
    return TruthRecord(
        formula=formula,
        timestamp=timestamp,
        signature=signature,
        inclusion=inclusion_proof(ledger, position),
    )


def verify_truth_record(
    record: TruthRecord,
    public_key: Ed25519PublicKey,
    root: bytes,
) -> tuple[bool, str | None]:
    """Check signature then Merkle inclusion; names the failing check."""
    from cryptography.exceptions import InvalidSignature

    try:
        public_key.verify(
            record.signature, _record_message(record.formula, record.timestamp)
        )
    except InvalidSignature:
        return False, "signature"
    if not verify_inclusion(record.inclusion, root):
        return False, "inclusion"
    return True, None


def generate_key() -> Ed25519PrivateKey:
    from cryptography.hazmat.primitives.asymmetric.ed25519 import (
        Ed25519PrivateKey,
    )

    return Ed25519PrivateKey.generate()


def private_key_bytes(key: Ed25519PrivateKey) -> bytes:
    from cryptography.hazmat.primitives import serialization

    return key.private_bytes(
        serialization.Encoding.Raw,
        serialization.PrivateFormat.Raw,
        serialization.NoEncryption(),
    )


def load_private_key(raw: bytes) -> Ed25519PrivateKey:
    from cryptography.hazmat.primitives.asymmetric.ed25519 import (
        Ed25519PrivateKey,
    )

    return Ed25519PrivateKey.from_private_bytes(raw)
