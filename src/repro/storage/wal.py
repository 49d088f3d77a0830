"""The append-only block log (WAL): length-prefixed, checksummed, segmented.

Record layout (all integers big-endian)::

    MAGIC(4) | payload_length(4) | crc32(payload)(4) | payload

Payloads are opaque here; a durable ledger's is one zlib-compressed
positional block record (:func:`~repro.storage.codec.encode_block`),
and the CRC covers the compressed bytes.

Replay walks records sequentially and stops at the first sign of
corruption — a bad magic, a length running past end-of-file, or a CRC
mismatch. Everything before that point is trusted; everything from it
on is a **torn tail** (a write in flight when power failed, or a bit
flip) and is discarded, to be re-fetched from peers. That is the
classic ARIES-style contract: the checksum makes "how far did the log
really get" a well-defined question.

The log is *segmented*: every state-snapshot spill rolls to a fresh
segment file, so pruning the WAL after a snapshot is a file delete (no
rewrite) and recovery cost is proportional to the tail since the last
snapshot, not the chain length.

Fsync policy decides when appends become durable:

* ``per-block`` — fsync after every append (group size 1);
* ``group:N`` — fsync once per N appends (group commit);
* ``async`` — never fsync on append; only snapshot spills and clean
  shutdown persist the log (maximum throughput, longest loss window).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

from repro.common.errors import StorageError
from repro.ledger.store import STORE_COUNTERS

_MAGIC = b"WALR"
_HEADER = struct.Struct(">4sII")

#: WAL segment name pattern; ids are monotone, gaps allowed.
SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".log"


def segment_name(segment_id: int) -> str:
    return f"{SEGMENT_PREFIX}{segment_id:06d}{SEGMENT_SUFFIX}"


@dataclass(frozen=True)
class FsyncPolicy:
    """When the WAL calls fsync. Parse with :meth:`parse`."""

    name: str
    group_size: int  # 0 = never (async)

    @classmethod
    def parse(cls, spec: str) -> "FsyncPolicy":
        if spec == "per-block":
            return cls("per-block", 1)
        if spec == "async":
            return cls("async", 0)
        if spec.startswith("group:"):
            try:
                size = int(spec.split(":", 1)[1])
            except ValueError:
                size = 0
            if size >= 1:
                return cls(spec, size)
        raise StorageError(
            f"unknown fsync policy {spec!r} "
            "(expected per-block | group:N | async)"
        )


def encode_record(payload: bytes) -> bytes:
    return _HEADER.pack(_MAGIC, len(payload), zlib.crc32(payload)) + payload


@dataclass
class ReplayResult:
    """Outcome of replaying one segment (or a whole log)."""

    payloads: list[bytes]
    torn: bool = False
    #: Bytes of valid prefix (where a repair would truncate to).
    valid_bytes: int = 0


def replay_records(data: bytes) -> ReplayResult:
    """Decode every intact record; flag (and drop) the torn tail."""
    payloads: list[bytes] = []
    offset = 0
    size = len(data)
    while offset < size:
        if offset + _HEADER.size > size:
            return ReplayResult(payloads, torn=True, valid_bytes=offset)
        magic, length, crc = _HEADER.unpack_from(data, offset)
        body_start = offset + _HEADER.size
        if magic != _MAGIC or body_start + length > size:
            return ReplayResult(payloads, torn=True, valid_bytes=offset)
        payload = data[body_start:body_start + length]
        if zlib.crc32(payload) != crc:
            return ReplayResult(payloads, torn=True, valid_bytes=offset)
        payloads.append(payload)
        offset = body_start + length
    return ReplayResult(payloads, torn=False, valid_bytes=offset)


class BlockLog:
    """Appender over one live segment, with policy-driven fsync batching."""

    def __init__(
        self,
        backend,
        policy: FsyncPolicy | str = "per-block",
        segment_id: int = 1,
    ) -> None:
        self.backend = backend
        self.policy = (
            policy if isinstance(policy, FsyncPolicy)
            else FsyncPolicy.parse(policy)
        )
        self.segment_id = segment_id
        self._unsynced = 0

    @property
    def current_segment(self) -> str:
        return segment_name(self.segment_id)

    def append(self, payload: bytes) -> None:
        """Append one record; fsync according to the policy."""
        record = encode_record(payload)
        self.backend.append(self.current_segment, record)
        # Write-amplification ledger: WAL bytes vs spill vs compaction.
        STORE_COUNTERS["wal_bytes_written"] += len(record)
        self._unsynced += 1
        if self.policy.group_size and self._unsynced >= self.policy.group_size:
            self.flush()

    def flush(self) -> None:
        """Force the segment durable regardless of policy."""
        if self._unsynced == 0 and not self.backend.exists(
            self.current_segment
        ):
            return
        if self.backend.exists(self.current_segment):
            self.backend.fsync(self.current_segment)
        self._unsynced = 0

    def roll(self) -> str:
        """Flush and close the live segment; start the next one.

        Returns the finished segment's name (for the manifest).
        """
        finished = self.current_segment
        self.flush()
        self.segment_id += 1
        self._unsynced = 0
        return finished
