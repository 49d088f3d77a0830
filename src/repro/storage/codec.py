"""Stable serialization for blocks and state (the durable wire format).

A WAL record is one block plus its post-commit state root as a
*positional* JSON list — ``[header, root, [tx rows]]`` — compressed
with zlib at level 1; the manifest's snapshot anchor is the bare
header list. State entries go into snapshot runs as canonical JSON
rows. Field order is fixed, so the encoded bytes are deterministic
across runs and platforms for one zlib build. Decoding rebuilds the
exact in-memory objects — ``Block.block_hash`` of a decoded block
equals the original's, which is what lets recovery re-verify the hash
chain from raw bytes.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from typing import Any

from repro.common.errors import StorageError
from repro.common.types import Operation, OpType, Transaction, TxType
from repro.crypto.digests import sha256_hex
from repro.ledger.block import Block, BlockHeader
from repro.ledger.store import StateStore, Version

#: zlib level for WAL records: level 1 already takes a 100-tx record to
#: about a quarter of its JSON; levels 6 and 9 shave 13–17 % more at
#: about 2× and 3× the compress time on the commit path.
WAL_ZLIB_LEVEL = 1


def header_to_row(header: BlockHeader) -> list[Any]:
    """A block header as ``[height, prev_hash, tx_root, timestamp,
    proposer]`` — a WAL record's first field and the manifest anchor."""
    return [header.height, header.prev_hash, header.tx_root,
            header.timestamp, header.proposer]


def header_from_row(row: Any) -> BlockHeader:
    """Inverse of :func:`header_to_row`; StorageError on a bad shape."""
    if not isinstance(row, list) or len(row) != 5:
        raise StorageError(f"malformed block header {row!r}")
    return BlockHeader(*row)


def encode_block(block: Block, state_root: str) -> bytes:
    """One WAL-record payload: the block plus the post-commit state root.

    Each tx row is ``[tx_id, contract, args, submitter, tx_type,
    declared_ops, involved, submitted_at]``.
    """
    rows = [
        [tx.tx_id, tx.contract, list(tx.args), tx.submitter,
         tx.tx_type.value,
         [[op.op_type.value, op.key] for op in tx.declared_ops],
         sorted(tx.involved), tx.submitted_at]
        for tx in block.transactions
    ]
    text = json.dumps(
        [header_to_row(block.header), state_root, rows],
        separators=(",", ":"),
    )
    return zlib.compress(text.encode(), WAL_ZLIB_LEVEL)


def decode_block(payload: bytes) -> tuple[Block, str]:
    """Inverse of :func:`encode_block`; StorageError on anything else,
    including a payload whose transactions do not match its tx root."""
    try:
        header, root, rows = json.loads(zlib.decompress(payload))
        block = Block(header_from_row(header), tuple(
            Transaction(tx_id, contract, tuple(args), submitter,
                        TxType(tx_type),
                        tuple(Operation(OpType(kind), key)
                              for kind, key in ops),
                        frozenset(involved), submitted_at)
            for (tx_id, contract, args, submitter, tx_type, ops,
                 involved, submitted_at) in rows
        ))
        block.validate_payload()
    except Exception as exc:  # noqa: BLE001 - any malformed payload
        raise StorageError(f"undecodable WAL payload: {exc}") from exc
    return block, root


# -- state digests ------------------------------------------------------------


def state_root(store: StateStore) -> str:
    """The root WAL records and the manifest commit to: 64 hex chars.

    Two stores with identical visible state *and* identical MVCC
    versions — the post-recovery equivalence the WAL records assert —
    produce the same root regardless of their internal layer layout.
    The store maintains it in O(writes since the last request); see
    :meth:`~repro.ledger.store.StateStore.state_root`.
    """
    return store.state_root()


def entry_to_row(key: str, value: Any, version: Version) -> list[Any]:
    """One snapshot-run row; ``value`` None encodes a tombstone."""
    return [key, value, version.height, version.tx_index]


def row_to_entry(row: list[Any]) -> tuple[str, Any, Version]:
    key, value, height, tx_index = row
    return key, value, Version(int(height), int(tx_index))


def checksum(payload: bytes) -> str:
    """Content checksum for snapshot runs and the manifest."""
    return sha256_hex(payload)


# -- blocked run format (v3) ---------------------------------------------------
#
# A block payload is its rows, each canonical JSON, between newlines:
# ``\n`` row ``\n`` row ... ``\n``. ``json.dumps`` escapes control
# characters, so a raw newline occurs only where the frame put one, the
# row for ``key`` is *the* substring starting ``\n[<key as JSON>,``, and
# the payload is exactly as long as the JSON list of the same rows.

_KEY_JSON = json.encoder.encode_basestring_ascii
_SCAN_JSON = json.JSONDecoder().scan_once
#: ``json.dumps(row, sort_keys=True, separators=(",", ":"))`` without
#: building a new encoder per call.
_ROW_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def encode_row(row: list[Any]) -> str:
    """One run row as canonical JSON (the unit block payloads frame).

    The common row — ``[key, str | int | None, height, tx_index]`` — is
    formatted directly; anything else (bools, floats, nested values)
    goes through the canonical encoder. Both give the same bytes.
    """
    if len(row) == 4:
        key, value, height, tx_index = row
        if type(key) is str and type(height) is int and type(tx_index) is int:
            kind = type(value)
            if kind is str:
                return (f"[{_KEY_JSON(key)},{_KEY_JSON(value)},"
                        f"{height},{tx_index}]")
            if kind is int:
                return f"[{_KEY_JSON(key)},{value},{height},{tx_index}]"
            if value is None:
                return f"[{_KEY_JSON(key)},null,{height},{tx_index}]"
    return _ROW_JSON(row)


def frame_rows(encoded: list[str]) -> bytes:
    """One run block from its pre-encoded rows — the only place a block
    payload is written."""
    return ("\n" + "\n".join(encoded) + "\n").encode()


def encode_block_rows(rows: list[list[Any]]) -> bytes:
    """One run block: its rows, newline-framed."""
    return frame_rows([encode_row(row) for row in rows])


def block_text(payload: bytes, where: str) -> str:
    """A checksum-verified block payload as searchable text.
    StorageError unless it is UTF-8 and newline-framed — searching an
    unframed one would report present keys as absent."""
    try:
        text = payload.decode()
    except UnicodeDecodeError as exc:
        raise StorageError(f"undecodable run block in {where}") from exc
    if len(text) < 2 or text[0] != "\n" or text[-1] != "\n":
        raise StorageError(f"unframed run block in {where}")
    return text


def _text_rows(text: str, where: str) -> list[list[Any]]:
    """Every row of one :func:`block_text`, decoded in one parse."""
    try:
        return json.loads("[" + text[1:-1].replace("\n", ",") + "]")
    except ValueError as exc:
        raise StorageError(f"undecodable run block in {where}") from exc


def decode_block_rows(payload: bytes, where: str) -> list[list[Any]]:
    """Inverse of :func:`encode_block_rows` — every row of the block,
    for scans; StorageError on garbage."""
    return _text_rows(block_text(payload, where), where)


def split_block_rows(
    payload: bytes, where: str
) -> list[tuple[list[Any], str]]:
    """Every row of the block paired with its canonical text, for
    compaction to copy: :func:`decode_block_rows`'s frame and parse, plus
    the split between the frame's newlines. StorageError on garbage."""
    text = block_text(payload, where)
    rows = _text_rows(text, where)
    encoded = text[1:-1].split("\n")
    if len(encoded) != len(rows):
        raise StorageError(f"misframed run block in {where}")
    return list(zip(rows, encoded))


def find_row(text: str, key: str, where: str) -> list[Any] | None:
    """The row for ``key`` in one block's :func:`block_text`, decoding
    that row only; None when the block does not hold the key."""
    at = text.find("\n[" + _KEY_JSON(key) + ",")
    if at < 0:
        return None
    try:
        return _SCAN_JSON(text, at + 1)[0]
    except (ValueError, StopIteration) as exc:
        raise StorageError(f"undecodable run row in {where}") from exc


_LOW64 = (1 << 64) - 1


class KeyFilter:
    """Compact key-membership filter over one run's keys (bloom-style).

    ``k`` bit positions per key are derived from one SHA-256 digest by
    double hashing (``h1 + i*h2 mod m``) — fixed, deterministic seeds, so
    the same key set always yields the same bits and same-seed runs stay
    byte-identical across processes. A negative answer is exact ("the
    run cannot hold this key"), which is what lets the paged read path
    skip most runs without touching their blocks; positives are
    approximate (~3% false at the default 8 bits/key, k=4).
    """

    BITS_PER_KEY = 8
    HASHES = 4

    __slots__ = ("nbits", "nhashes", "bits")

    def __init__(self, nbits: int, nhashes: int, bits: bytearray) -> None:
        if nbits < 8 or nhashes < 1:
            raise StorageError(
                f"bad key-filter shape (nbits={nbits}, nhashes={nhashes})"
            )
        self.nbits = nbits
        self.nhashes = nhashes
        self.bits = bits

    @classmethod
    def sized_for(cls, expected_keys: int) -> "KeyFilter":
        """An empty filter sized for ``expected_keys`` (an upper bound is
        fine — oversizing only lowers the false-positive rate)."""
        nbits = max(64, expected_keys * cls.BITS_PER_KEY)
        nbits = (nbits + 7) // 8 * 8
        return cls(nbits, cls.HASHES, bytearray(nbits // 8))

    @staticmethod
    def hash_pair(key: str) -> tuple[int, int]:
        """The key's ``(h1, h2)``: independent of any one filter's
        shape, so a lookup probing several runs derives it once."""
        digest = hashlib.sha256(key.encode()).digest()
        return (
            int.from_bytes(digest[:8], "big"),
            int.from_bytes(digest[8:16], "big") | 1,
        )

    def add(self, key: str) -> None:
        """Set ``key``'s bits: the positions :meth:`might_contain` probes
        for its :meth:`hash_pair`, stepped ``h2 mod m`` at a time."""
        pair = int.from_bytes(hashlib.sha256(key.encode()).digest(), "big")
        nbits, bits = self.nbits, self.bits
        position = (pair >> 192) % nbits
        step = (((pair >> 128) & _LOW64) | 1) % nbits
        for _ in range(self.nhashes):
            bits[position >> 3] |= 1 << (position & 7)
            position = (position + step) % nbits

    def might_contain(self, pair: tuple[int, int]) -> bool:
        """False when no key with this :meth:`hash_pair` was added."""
        h1, h2 = pair
        for i in range(self.nhashes):
            position = (h1 + i * h2) % self.nbits
            if not self.bits[position >> 3] & (1 << (position & 7)):
                return False
        return True

    def to_dict(self) -> dict[str, Any]:
        return {"m": self.nbits, "k": self.nhashes, "bits": bytes(self.bits).hex()}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "KeyFilter":
        try:
            bits = bytearray.fromhex(data["bits"])
            nbits, nhashes = int(data["m"]), int(data["k"])
        except (KeyError, ValueError, TypeError) as exc:
            raise StorageError("malformed key filter in run footer") from exc
        if len(bits) * 8 != nbits:
            raise StorageError("key-filter bit count does not match payload")
        return cls(nbits, nhashes, bits)
