"""Durable storage: WAL, snapshot tier, and crash-restart recovery.

The durability substitution of DESIGN.md: the memory-only ledger and
state store gain an on-disk twin — an append-only checksummed block log
(:mod:`repro.storage.wal`) plus LSM-style state snapshot runs behind an
atomically swapped manifest (:mod:`repro.storage.snapshots`) — over a
narrow backend API (:mod:`repro.storage.backend`) with a deterministic
in-memory implementation whose seeded fault profiles model torn writes,
lying fsyncs, and bit flips. :mod:`repro.storage.durable` wires it into
the chaos engine as crash-recoverable simulated nodes.
"""

from repro.storage.backend import (
    CLEAN_PROFILE,
    STORAGE_COUNTERS,
    FaultProfile,
    MemoryBackend,
    OsBackend,
    reset_storage_counters,
)
from repro.storage.codec import decode_block, encode_block, state_root
from repro.storage.durable import (
    BlockAnnounce,
    BlockRange,
    BlockRequest,
    ChainTail,
    DurableCluster,
    DurableLedger,
    DurableNode,
    OrdererNode,
    RecoveryResult,
    build_canonical_chain,
    release_data_dir,
    resolve_data_dir,
)
from repro.storage.paged import (
    DEFAULT_CACHE_BYTES,
    BlockCache,
    PagedRun,
    PagedSnapshot,
    PagedStateStore,
    scan_layers,
)
from repro.storage.snapshots import (
    RUN_FORMAT,
    STORAGE_TIER_COMPACTIONS,
    CompactionPolicy,
    RunWriter,
    SnapshotStore,
    SpillBuffer,
    merge_overlays,
)
from repro.storage.wal import (
    BlockLog,
    FsyncPolicy,
    ReplayResult,
    encode_record,
    replay_records,
    segment_name,
)

__all__ = [
    "BlockAnnounce",
    "BlockCache",
    "BlockLog",
    "BlockRange",
    "BlockRequest",
    "CLEAN_PROFILE",
    "ChainTail",
    "CompactionPolicy",
    "DEFAULT_CACHE_BYTES",
    "DurableCluster",
    "DurableLedger",
    "DurableNode",
    "FaultProfile",
    "FsyncPolicy",
    "MemoryBackend",
    "OrdererNode",
    "OsBackend",
    "PagedRun",
    "PagedSnapshot",
    "PagedStateStore",
    "RUN_FORMAT",
    "RecoveryResult",
    "ReplayResult",
    "RunWriter",
    "STORAGE_COUNTERS",
    "STORAGE_TIER_COMPACTIONS",
    "SnapshotStore",
    "SpillBuffer",
    "build_canonical_chain",
    "decode_block",
    "encode_block",
    "encode_record",
    "merge_overlays",
    "release_data_dir",
    "replay_records",
    "reset_storage_counters",
    "resolve_data_dir",
    "scan_layers",
    "segment_name",
    "state_root",
]
