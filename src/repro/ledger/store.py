"""The versioned key-value state store ("blockchain state / datastore").

Execute-order-validate systems (Fabric, paper section 2.3.3) rely on
*versioned* reads: an endorser records the version of every key it read,
and the validator later checks those versions are still current (MVCC).
The store therefore tracks, for every key, the version — (block height,
transaction index) — that last wrote it.

Snapshots are copy-on-write. The store keeps its state as a stack of
layers — one large *base* map plus small immutable *sealed* overlays and
one mutable *head* overlay — and a snapshot captures references to the
sealed layers only. Taking a snapshot is therefore O(1) in state size
(it never copies entries), and committing a block costs O(write set):
the writes land in the head overlay, which is sealed the next time a
snapshot is taken. This is the versioned-read design Fabric's own
architecture motivates (Androulaki et al.) and the lever FastFabric
pulls for its validation-pipeline speedups; see DESIGN.md "Performance".

Sealed overlays are merged size-tiered (each entry is re-merged at most
O(log n) times, keeping the read chain logarithmic), and the whole
stack is compacted into a fresh base once overlay entries rival the
base — both amortized O(1) per written entry. Old snapshots keep
references to the layers they captured, which are never mutated, so
isolation (an endorsement snapshot taken before block N never observes
block N's writes) holds by construction.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Iterator

from repro.common.errors import LedgerError

#: Overlay marker for deleted keys; masks base entries until compaction.
_TOMBSTONE = object()

#: Below this many total overlay entries, compaction is never triggered
#: (tiny states should not pay repeated rebuilds).
_COMPACT_FLOOR = 1024

#: Live counters for the hot-path benchmarks (see
#: ``repro.bench.profiling.hotpath_counters``). Plain module state: the
#: store is used from forked benchmark workers, each of which gets its
#: own copy, so rows stay identical between serial and parallel runs.
STORE_COUNTERS = {
    "snapshots_taken": 0,
    "snapshot_entries_copied": 0,  # stays 0 on the COW path — the point
    "overlay_entries_merged": 0,
    "compactions": 0,
    "compaction_entries": 0,
    # Durability tier (repro.storage): sealed overlays spilled to on-disk
    # snapshot runs, and entries written by those spills.
    "overlay_spills": 0,
    "overlay_spill_entries": 0,
    # Paged read path (repro.storage.paged): point lookups served from
    # blocked run files through the shared LRU block cache.
    "paged_lookups": 0,
    "filter_skips": 0,          # runs ruled out by the key filter
    "filter_false_positives": 0,  # filter said maybe, block said no
    "block_cache_hits": 0,
    "block_cache_misses": 0,
    "block_cache_evictions": 0,
    # Memory-bounded storage (PR 10). Gauges, not monotonic counts:
    # overlay_resident_bytes is the last charged buffer's estimate,
    # overlay_resident_peak the maximum any buffer reached since reset.
    "overlay_resident_bytes": 0,
    "overlay_resident_peak": 0,
    # Spills forced by the byte budget *between* interval snapshots.
    "budget_spills": 0,
    # Write-amplification ledger: bytes appended to run files by overlay
    # spills vs. by compaction rewrites vs. bytes appended to the WAL.
    "spill_bytes_written": 0,
    "compaction_bytes_written": 0,
    "wal_bytes_written": 0,
    # Range scans over the paged tier: blocks decoded by scan() — the
    # E24 gate asserts this tracks blocks-in-range, not total blocks.
    "range_block_decodes": 0,
}


def is_tombstone(entry: Any) -> bool:
    """True when an overlay entry marks a deleted key.

    Part of the :meth:`StateStore.sealed_overlays` public contract: the
    durability tier (``repro.storage.snapshots``) walks sealed overlays
    directly and must distinguish live values from deletion markers
    without reaching into the private sentinel.
    """
    return entry is _TOMBSTONE


def reset_store_counters() -> None:
    for key in STORE_COUNTERS:
        STORE_COUNTERS[key] = 0


def value_weight(value: Any) -> int:
    """Deterministic byte estimate of one state value.

    The budget accounting must be a pure function of the committed data
    — two same-seed runs (or a run and its replay) have to spill at the
    same blocks — so this deliberately is *not* ``sys.getsizeof``
    (interpreter- and version-dependent). The estimate tracks encoded
    size: strings/bytes by length, numbers as 8 bytes, containers as a
    small header plus their elements.
    """
    if value is None:
        return 8
    if isinstance(value, str):
        return len(value)
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, (int, float, bool)):
        return 8
    if isinstance(value, (list, tuple)):
        return 16 + sum(value_weight(item) for item in value)
    if isinstance(value, dict):
        return 16 + sum(
            value_weight(k) + value_weight(v) for k, v in value.items()
        )
    return len(repr(value))


#: Fixed per-entry overhead charged by :class:`MemoryBudget`: the
#: VersionedValue wrapper, the Version pair, and the dict slot.
ENTRY_OVERHEAD_BYTES = 32


class MemoryBudget:
    """Deterministic resident-byte accounting for an overlay buffer.

    Tracks one weight per live key (an overwrite replaces the old
    charge, O(1) via the per-key weight map), so ``resident_bytes``
    estimates what the buffer actually holds, not what passed through
    it. The durability tier consults :meth:`over` after every commit to
    trigger overlay spills *between* interval snapshots — the lever
    that bounds a long-running node's memory (ROADMAP item 2).

    ``budget_bytes == 0`` disables the threshold (accounting still
    runs, so gauges stay meaningful).
    """

    __slots__ = ("budget_bytes", "_weights", "_bytes")

    def __init__(self, budget_bytes: int = 0) -> None:
        if budget_bytes < 0:
            raise ValueError(
                f"budget_bytes must be >= 0, got {budget_bytes}"
            )
        self.budget_bytes = budget_bytes
        self._weights: dict[str, int] = {}
        self._bytes = 0

    @property
    def resident_bytes(self) -> int:
        return self._bytes

    def charge(self, key: str, value: Any) -> None:
        """Account one written entry (``value is None`` = tombstone)."""
        weight = ENTRY_OVERHEAD_BYTES + len(key) + value_weight(value)
        self._bytes += weight - self._weights.get(key, 0)
        self._weights[key] = weight
        STORE_COUNTERS["overlay_resident_bytes"] = self._bytes
        if self._bytes > STORE_COUNTERS["overlay_resident_peak"]:
            STORE_COUNTERS["overlay_resident_peak"] = self._bytes

    def over(self) -> bool:
        """True when a non-zero budget has been reached or passed."""
        return 0 < self.budget_bytes <= self._bytes


@dataclass(frozen=True, order=True)
class Version:
    """Last-writer version of a key: ordered by (height, tx position)."""

    height: int
    tx_index: int


#: Version assigned to keys that have never been written.
NEVER_WRITTEN = Version(height=-1, tx_index=-1)


@dataclass(frozen=True)
class VersionedValue:
    value: Any
    version: Version


_MISSING = VersionedValue(None, NEVER_WRITTEN)

#: Public alias of the missing-entry sentinel. Part of the read-contract
#: seam the paged store (``repro.storage.paged``) implements: ``get`` /
#: ``__contains__`` compare by *identity* against this object, so any
#: subclass overriding :meth:`StateStore.get_versioned` must return this
#: exact sentinel for absent keys, never an equal-valued copy.
MISSING = _MISSING

#: State roots are sums of SHA-256 leaf digests, reduced to digest width.
_ROOT_MODULUS = 1 << 256


def _leaf_hash(key: str, entry: VersionedValue) -> int:
    """One live entry's term in the state root (MVCC version included)."""
    leaf = (
        f"{key}|{entry.value!r}|{entry.version.height}|"
        f"{entry.version.tx_index}"
    )
    return int.from_bytes(hashlib.sha256(leaf.encode()).digest(), "big")


class StateSnapshot:
    """An immutable point-in-time view of a store (endorsement reads).

    Holds references to the store's base map and sealed overlays at
    capture time — O(1) to create, regardless of state size. The layers
    are never mutated after capture (the store writes into a fresh head
    overlay), so the view is stable under concurrent commits.
    """

    __slots__ = ("_base", "_overlays")

    def __init__(
        self,
        base: dict[str, VersionedValue],
        overlays: tuple[dict[str, Any], ...] = (),
    ) -> None:
        self._base = base
        self._overlays = overlays

    def get(self, key: str, default: Any = None) -> Any:
        entry = self.get_versioned(key)
        return entry.value if entry is not _MISSING else default

    def get_versioned(self, key: str) -> VersionedValue:
        for overlay in reversed(self._overlays):
            entry = overlay.get(key)
            if entry is not None:
                return _MISSING if entry is _TOMBSTONE else entry
        entry = self._base.get(key)
        return _MISSING if entry is None else entry

    def keys(self) -> Iterator[str]:
        if not self._overlays:
            return iter(self._base)
        return iter(self._merged_keys())

    def _merged_keys(self) -> list[str]:
        dead: set[str] = set()
        live: dict[str, None] = {}
        for overlay in reversed(self._overlays):
            for key, entry in overlay.items():
                if key in live or key in dead:
                    continue
                if entry is _TOMBSTONE:
                    dead.add(key)
                else:
                    live[key] = None
        for key in self._base:
            if key not in live and key not in dead:
                live[key] = None
        return list(live)

    def __contains__(self, key: str) -> bool:
        return self.get_versioned(key) is not _MISSING


class StateStore:
    """The mutable world state held by one replica."""

    def __init__(self) -> None:
        #: Large bottom layer; shared read-only with snapshots.
        self._base: dict[str, VersionedValue] = {}
        #: Immutable sealed overlays, oldest -> newest; shared with
        #: snapshots. Entries are VersionedValue or the tombstone.
        self._sealed: tuple[dict[str, Any], ...] = ()
        #: Mutable top layer, private to the store until sealed.
        self._head: dict[str, Any] = {}
        self._len = 0
        #: State-root bookkeeping, off until the first root request (or
        #: a seed): the root as of the last request, and for every key
        #: written since, the entry that root covered.
        self._root = 0
        self._dirty: dict[str, VersionedValue] | None = None

    # -- reads ---------------------------------------------------------------

    def get(self, key: str, default: Any = None) -> Any:
        entry = self.get_versioned(key)
        return entry.value if entry is not _MISSING else default

    def get_versioned(self, key: str) -> VersionedValue:
        entry = self._head.get(key)
        if entry is None:
            for overlay in reversed(self._sealed):
                entry = overlay.get(key)
                if entry is not None:
                    break
            else:
                entry = self._base.get(key)
        if entry is None or entry is _TOMBSTONE:
            return _MISSING
        return entry

    def version_of(self, key: str) -> Version:
        return self.get_versioned(key).version

    def __contains__(self, key: str) -> bool:
        return self.get_versioned(key) is not _MISSING

    def __len__(self) -> int:
        return self._len

    def keys(self) -> list[str]:
        if not self._sealed and not self._head:
            return list(self._base)
        snapshot_view = StateSnapshot(
            self._base, self._sealed + ((dict(self._head),) if self._head else ())
        )
        return list(snapshot_view.keys())

    def items(self) -> Iterator[tuple[str, VersionedValue]]:
        """Live (key, VersionedValue) pairs, layer-merged."""
        for key in self.keys():
            yield key, self.get_versioned(key)

    def scan(
        self, start: str | None = None, end: str | None = None
    ) -> Iterator[tuple[str, VersionedValue]]:
        """Live entries with ``start <= key <= end``, in key order.

        ``None`` bounds are open. This materialized implementation is
        the equivalence oracle for the paged store's indexed scan
        (``repro.storage.paged.PagedStateStore.scan``), which must
        return the identical sequence while decoding only the run
        blocks that intersect the range.
        """
        for key in sorted(self.keys()):
            if start is not None and key < start:
                continue
            if end is not None and key > end:
                break
            yield key, self.get_versioned(key)

    # -- writes --------------------------------------------------------------

    def put(self, key: str, value: Any, version: Version) -> None:
        old = self.get_versioned(key)
        if old is _MISSING:
            self._len += 1
        if self._dirty is not None:
            self._dirty.setdefault(key, old)
        self._head[key] = VersionedValue(value=value, version=version)

    def delete(self, key: str) -> None:
        old = self.get_versioned(key)
        if old is _MISSING:
            return
        self._len -= 1
        if self._dirty is not None:
            self._dirty.setdefault(key, old)
        self._head[key] = _TOMBSTONE

    def mark_deleted(self, key: str) -> None:
        """Record a deletion marker even when ``key`` is not visible here.

        A full store can skip deletes of absent keys (:meth:`delete`),
        but a *delta* buffer — the durability tier's spill buffer —
        must not: the key being deleted usually lives in an older
        on-disk run, and only the tombstone carries the delete there.
        """
        old = self.get_versioned(key)
        if old is not _MISSING:
            self._len -= 1
            if self._dirty is not None:
                self._dirty.setdefault(key, old)
        self._head[key] = _TOMBSTONE

    def apply_writes(self, writes: dict[str, Any], version: Version) -> None:
        """Install a committed write set atomically at ``version``.

        O(write set): the entries land in the head overlay; no part of
        the existing state is copied.
        """
        for key, value in writes.items():
            if value is None:
                self.delete(key)
            else:
                self.put(key, value, version)

    # -- snapshots (copy-on-write) -------------------------------------------

    def snapshot(self) -> StateSnapshot:
        """O(1) copy-on-write snapshot (the endorsement-time view in XOV).

        Seals the head overlay (if any writes happened since the last
        snapshot) and hands out references to the immutable layers. No
        state entries are copied, whatever the state size.
        """
        if self._head:
            self._seal_head()
        STORE_COUNTERS["snapshots_taken"] += 1
        return StateSnapshot(self._base, self._sealed)

    def _seal_head(self) -> None:
        layer = self._head
        self._head = {}
        sealed = list(self._sealed)
        # Size-tiered merge: absorb smaller-or-similar overlays so the
        # read chain stays O(log overlay entries). Merging builds new
        # dicts — layers already captured by snapshots are untouched.
        while sealed and len(sealed[-1]) <= 2 * len(layer):
            lower = sealed.pop()
            merged = dict(lower)
            merged.update(layer)
            STORE_COUNTERS["overlay_entries_merged"] += len(lower)
            layer = merged
        sealed.append(layer)
        self._sealed = tuple(sealed)
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Fold the sealed overlays into a fresh base when they rival it.

        Subclasses that must keep every sealed overlay observable (the
        durability tier's spill buffer) override this with a no-op.
        """
        total = sum(len(overlay) for overlay in self._sealed)
        if total < max(_COMPACT_FLOOR, len(self._base)):
            return
        base = dict(self._base)
        for overlay in self._sealed:
            for key, entry in overlay.items():
                if entry is _TOMBSTONE:
                    base.pop(key, None)
                else:
                    base[key] = entry
        STORE_COUNTERS["compactions"] += 1
        STORE_COUNTERS["compaction_entries"] += len(base)
        self._base = base
        self._sealed = ()

    def sealed_overlays(self) -> tuple[dict[str, Any], ...]:
        """The immutable sealed overlays, **oldest to newest**.

        Public contract (the durability tier's snapshot spill depends on
        it — see ``repro.storage.snapshots``):

        * Overlays are ordered oldest first; for a key present in more
          than one overlay, the **last** overlay holding it wins. A
          correct merged view is therefore ``dict(o0) | dict(o1) | …``.
        * Entries are :class:`VersionedValue` objects or a deletion
          marker; callers must classify entries with
          :func:`is_tombstone`, never by identity against private state.
        * The returned overlays are never mutated afterwards (snapshots
          share them), so callers may iterate them lazily.

        Writes still in the mutable head overlay are *not* included;
        call :meth:`snapshot` first to seal the head.
        """
        return self._sealed

    # -- state commitment -----------------------------------------------------

    def state_root(self) -> str:
        """Commitment to the live entries, MVCC versions included.

        An additive multiset hash: the sum mod 2**256 of SHA-256 over
        one ``key|value-repr|height|tx_index`` leaf per live entry, as
        64 hex characters. Addition commutes, so two stores with the
        same visible state and versions agree whatever their layer
        layout or write order — and a root can be *updated*: the first
        request folds the whole state once and switches write tracking
        on; every later one subtracts the leaf the previous root covered
        and adds the current one for each key written since, O(write
        set) however large the state. Collision resistance is a
        modelled parameter here, like the HMAC signatures, and there
        are no inclusion proofs against this root (block ``tx_root``s
        stay Merkle trees).
        """
        if self._dirty is None:
            root = sum(_leaf_hash(key, entry) for key, entry in self.items())
            self._dirty = {}
        else:
            root = self._root
            for key, old in self._dirty.items():
                new = self.get_versioned(key)
                if old is not _MISSING:
                    root -= _leaf_hash(key, old)
                if new is not _MISSING:
                    root += _leaf_hash(key, new)
            self._dirty.clear()
        self._root = root % _ROOT_MODULUS
        return f"{self._root:064x}"

    def seed_state_root(self, root: str) -> None:
        """Adopt ``root`` as the commitment to the current visible state.

        For a store opened over state whose root is already on record
        (a paged store over the manifest's runs): tracking starts from
        the recorded value instead of a scan of the whole state.
        """
        try:
            digest = bytes.fromhex(root)
        except (TypeError, ValueError):
            digest = b""
        if len(digest) != 32:
            raise LedgerError(f"malformed state root {root!r}")
        self._root = int.from_bytes(digest, "big")
        self._dirty = {}

    # -- whole-state views ----------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        """Plain {key: value} copy, for assertions and state comparison."""
        return {key: entry.value for key, entry in self.items()}

    def same_state_as(self, other: "StateStore") -> bool:
        """Value-level equality of two replicas' world state.

        Compares entries directly instead of materialising two full
        ``as_dict`` copies — this runs inside safety monitors on every
        fuzz schedule, so it must not be O(state) in allocations.
        """
        if len(self) != len(other):
            return False
        for key, entry in self.items():
            theirs = other.get_versioned(key)
            if theirs is _MISSING or theirs.value != entry.value:
                return False
        return True


class EagerCopyStateStore(StateStore):
    """Pre-overhaul behaviour: ``snapshot()`` deep-copies every entry.

    Kept only as the measured baseline of ``benchmarks/bench_hotpath.py``
    (the "snapshot cost is O(state)" arm); production paths always use
    :class:`StateStore`.
    """

    def snapshot(self) -> StateSnapshot:
        data = {key: entry for key, entry in self.items()}
        STORE_COUNTERS["snapshots_taken"] += 1
        STORE_COUNTERS["snapshot_entries_copied"] += len(data)
        return StateSnapshot(data)
