"""Larger-than-RAM state: the paged read path over blocked run files.

PR 7's recovery rebuilds the whole StateStore in memory
(:meth:`~repro.storage.snapshots.SnapshotStore.load_state`) — O(total
state) in time *and* memory, which caps durable state at RAM and makes
restart time grow with history instead of with the WAL tail. The
storage-layer literature the paper leans on (Dinh et al.'s data
processing view; the end-to-end comparisons) identifies exactly this
cliff: once state outgrows memory, reads — not consensus — dominate.

:class:`PagedStateStore` removes the cliff by serving the
:class:`~repro.ledger.store.StateStore` read contract directly from the
run files, LSM style:

* a point lookup walks the in-memory overlays first (head, then sealed
  overlays newest→oldest — post-recovery writes), then the runs
  **newest to oldest**;
* per run it consults the key filter (a definite *no* skips the run
  without touching a single block), binary-searches the block index for
  the only block that could hold the key, and finds the key's row in
  that ~4KB block's text — one substring search, one row decoded (run
  format v3 frames rows between newlines so that the search is exact;
  see :mod:`repro.storage.codec`);
* blocks live in a shared :class:`BlockCache` — a byte-budget LRU — as
  the **verified text** read from disk, so a hit and a miss share one
  lookup path, hot keys cost zero I/O and no checksum, and the budget
  is the resident size whatever the state size.

Writes land in the inherited COW overlay stack, which is never folded
into the (empty) base: the base-fold would drop tombstones that must
keep masking run entries below. Tombstones therefore resolve exactly as
in the on-disk tiers — newest layer wins, a deletion marker at any
layer hides everything older — and only bottom-tier compaction cancels
them for good.

Equivalence oracle: the fully-materialized ``load_state`` path is kept
unchanged, and ``benchmarks/bench_state_paging.py`` (E23) gates that
both paths return byte-identical values for every probed key.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from typing import Any, Iterator

from repro.common.errors import StorageError
from repro.ledger.store import (
    MISSING,
    STORE_COUNTERS,
    StateSnapshot,
    StateStore,
    Version,
    VersionedValue,
    is_tombstone,
)
from repro.storage.codec import (
    KeyFilter,
    block_text,
    decode_block_rows,
    find_row,
)
from repro.storage.snapshots import read_run_block, read_run_footer

#: Default block-cache budget: small enough that the E23 sweeps push
#: state well past it, big enough that hot working sets stay resident.
DEFAULT_CACHE_BYTES = 4 * 1024 * 1024


class BlockCache:
    """Shared byte-budget LRU over run blocks, held as verified text.

    Keyed by ``(run file name, block index)``; an entry is the block's
    :func:`~repro.storage.codec.block_text`, verified when it was read,
    charged at its length — canonical JSON is ASCII, so that is what
    the string occupies. Counters land in
    :data:`~repro.ledger.store.STORE_COUNTERS` (``block_cache_hits`` /
    ``block_cache_misses`` / ``block_cache_evictions``) for the E23
    gates.
    """

    def __init__(self, budget_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        if budget_bytes < 0:
            raise StorageError(
                f"cache budget must be >= 0, got {budget_bytes}"
            )
        self.budget_bytes = budget_bytes
        self._entries: "OrderedDict[tuple[str, int], str]" = OrderedDict()
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def resident_bytes(self) -> int:
        return self._bytes

    def get(self, run: "PagedRun", index: int) -> str:
        """The block's text, filling + evicting as needed."""
        key = (run.name, index)
        text = self._entries.get(key)
        if text is not None:
            self._entries.move_to_end(key)
            STORE_COUNTERS["block_cache_hits"] += 1
            return text
        STORE_COUNTERS["block_cache_misses"] += 1
        text = block_text(run.read_block(index), run.name)
        self._entries[key] = text
        self._bytes += len(text)
        # Evict LRU-first down to budget; the just-filled block is never
        # evicted (an oversized single block would otherwise thrash).
        while self._bytes > self.budget_bytes and len(self._entries) > 1:
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= len(evicted)
            STORE_COUNTERS["block_cache_evictions"] += 1
        return text

    def drop_runs(self, names) -> None:
        """Purge every block of the named runs (their files are being
        deleted) in one pass over the entries."""
        names = set(names)
        for key in [k for k in self._entries if k[0] in names]:
            self._bytes -= len(self._entries.pop(key))


class PagedRun:
    """One run file opened for point lookups: footer resident, rows not.

    Opening reads + verifies only the footer (block index + key filter)
    — O(index), never the row blocks.
    """

    __slots__ = ("backend", "entry", "name", "filter", "blocks", "firsts")

    def __init__(self, backend, entry: dict[str, Any]) -> None:
        self.backend = backend
        self.entry = entry
        self.name = entry["name"]
        footer = read_run_footer(backend, entry)
        self.blocks = footer["blocks"]
        self.filter = KeyFilter.from_dict(footer["filter"])
        self.firsts = [spec["first"] for spec in self.blocks]

    def read_block(self, index: int) -> bytes:
        """One block's payload, length- and checksum-verified."""
        return read_run_block(self.backend, self.name, self.blocks[index])

    def block_count(self) -> int:
        return len(self.blocks)

    def lookup(
        self, key: str, pair: tuple[int, int], cache: BlockCache
    ) -> list[Any] | None:
        """The row for ``key`` in this run (tombstone rows included), or
        None — touching at most one block and decoding at most one row.
        ``pair`` is the key's :meth:`KeyFilter.hash_pair`, derived once
        per lookup, not per run."""
        if not self.filter.might_contain(pair):
            STORE_COUNTERS["filter_skips"] += 1
            return None
        index = bisect_right(self.firsts, key) - 1
        row = (
            find_row(cache.get(self, index), key, self.name)
            if index >= 0 else None
        )
        if row is None:
            STORE_COUNTERS["filter_false_positives"] += 1
        return row

    def scan(
        self, start: str | None = None, end: str | None = None
    ) -> Iterator[list[Any]]:
        """Rows with ``start <= key <= end`` in key order, decoding only
        the blocks that intersect the range.

        Binary-searches the per-run block index for the first candidate
        block (the last one whose first key is <= ``start``) and stops
        as soon as a block's first key passes ``end`` — so the work is
        O(blocks-in-range + log blocks), never O(run). Bypasses the
        block cache (a wide scan must not evict the point-lookup
        working set); every decode is counted in
        ``STORE_COUNTERS["range_block_decodes"]``, which the E24 gate
        pins to range size while total blocks grow.
        """
        index = 0
        if start is not None:
            index = max(0, bisect_right(self.firsts, start) - 1)
        while index < len(self.blocks):
            if end is not None and self.firsts[index] > end:
                break
            rows = decode_block_rows(self.read_block(index), self.name)
            STORE_COUNTERS["range_block_decodes"] += 1
            position = 0
            if start is not None:
                position = bisect_left(rows, start, key=lambda row: row[0])
            for row in rows[position:]:
                if end is not None and row[0] > end:
                    return
                yield row
            index += 1


def scan_layers(
    layers: list[dict[str, Any]],
    runs: list[PagedRun],
    start: str | None = None,
    end: str | None = None,
) -> Iterator[tuple[str, VersionedValue]]:
    """Lazy k-way merged range scan over overlays + runs, newest-wins.

    ``layers`` arrive newest first (head, then sealed newest→oldest);
    runs are manifest order (oldest first) and take lower priority the
    older they are. ``heapq.merge`` interleaves the per-layer sorted
    streams by (key, priority); the first surfacing of a key is its
    newest version, which decides — later duplicates and everything a
    tombstone masks are skipped. Peak memory is one decoded block per
    run plus one sorted key list per overlay slice, never the state.
    """

    def in_range(key: str) -> bool:
        if start is not None and key < start:
            return False
        return end is None or key <= end

    def overlay_stream(layer: dict[str, Any], priority: int):
        for key in sorted(k for k in layer if in_range(k)):
            yield (key, priority, layer[key])

    def run_stream(run: PagedRun, priority: int):
        for row in run.scan(start, end):
            yield (row[0], priority, row)

    streams: list[Any] = [
        overlay_stream(layer, priority)
        for priority, layer in enumerate(layers)
    ]
    base = len(layers)
    # Newest run = lowest priority number among runs.
    streams.extend(
        run_stream(run, base + offset)
        for offset, run in enumerate(reversed(runs))
    )
    last_key = None
    for key, _priority, payload in heapq.merge(*streams):
        if key == last_key:
            continue  # superseded by a newer layer
        last_key = key
        if isinstance(payload, list):
            if payload[1] is None:
                continue  # run-tier tombstone masks older runs
            yield key, VersionedValue(
                payload[1], Version(int(payload[2]), int(payload[3]))
            )
        else:
            if is_tombstone(payload):
                continue
            yield key, payload


class PagedSnapshot(StateSnapshot):
    """A point-in-time view over overlays *plus* the run set.

    Same isolation argument as the in-memory snapshot — captured layers
    are never mutated, run files named by a manifest are never modified
    in place — with one documented limit: the view is valid only until
    the next **disk compaction** deletes the captured run files
    (:meth:`PagedStateStore.rebase`). Endorsement snapshots in the
    simulator live for a block or two; disk compactions are many blocks
    apart.
    """

    __slots__ = ("_runs", "_cache")

    def __init__(
        self,
        overlays: tuple[dict[str, Any], ...],
        runs: list[PagedRun],
        cache: BlockCache,
    ) -> None:
        super().__init__({}, overlays)
        self._runs = runs
        self._cache = cache

    def get_versioned(self, key: str) -> VersionedValue:
        for overlay in reversed(self._overlays):
            entry = overlay.get(key)
            if entry is not None:
                return MISSING if is_tombstone(entry) else entry
        return _run_lookup(self._runs, key, self._cache)

    def keys(self) -> Iterator[str]:
        return (
            key
            for key, _entry in scan_layers(
                list(reversed(self._overlays)), self._runs
            )
        )

    def scan(
        self, start: str | None = None, end: str | None = None
    ) -> Iterator[tuple[str, VersionedValue]]:
        """Indexed range scan over the captured overlays + run set."""
        return scan_layers(
            list(reversed(self._overlays)), self._runs, start, end
        )


def _run_lookup(
    runs: list[PagedRun], key: str, cache: BlockCache
) -> VersionedValue:
    """Walk runs newest→oldest; first run holding the key decides."""
    STORE_COUNTERS["paged_lookups"] += 1
    pair = KeyFilter.hash_pair(key)
    for run in reversed(runs):
        row = run.lookup(key, pair, cache)
        if row is not None:
            if row[1] is None:
                return MISSING  # tombstone: masks older runs
            return VersionedValue(row[1], Version(int(row[2]), int(row[3])))
    return MISSING


class PagedStateStore(StateStore):
    """The StateStore read contract served from blocked run files.

    Reads: overlays (head, sealed newest→oldest), then runs newest→
    oldest via :class:`PagedRun` lookups through the shared cache.
    Writes: the inherited overlay stack, with base-folding disabled —
    the base is permanently empty, and overlay tombstones must keep
    masking run entries (folding would cancel them against an empty
    base and resurrect deleted keys).

    ``len(store)`` is computed lazily: the first call pays one merged
    scan over the runs, after which the parent's incremental ±1
    bookkeeping keeps it exact. Construction itself reads only the run
    footers — O(index), not O(state) — which is what makes paged
    recovery O(WAL tail).
    """

    def __init__(
        self,
        backend,
        run_entries,
        cache: BlockCache | None = None,
    ) -> None:
        super().__init__()
        self.backend = backend
        self.cache = cache if cache is not None else BlockCache()
        #: Manifest order (oldest first); lookups iterate reversed.
        self._runs = [PagedRun(backend, entry) for entry in run_entries]
        self._counted = False

    # -- layering ------------------------------------------------------------

    def _maybe_compact(self) -> None:
        """Never fold overlays into the base (see the class docstring)."""
        return

    def rebase(self, run_entries) -> None:
        """Swap the run set after a spill or disk compaction changed it.

        Safe mid-life because every write since recovery still lives in
        the overlays, which keep superseding whatever the new runs say.
        An entry whose name **and** footer checksum are unchanged keeps
        its open :class:`PagedRun` and cached blocks; other entries are
        opened, and the blocks of every name that left are purged.
        Keeping is safe because a run id is never reused for a run a
        manifest has referenced: ids only grow, and the one name that
        can be written twice is an orphan's — deleted before the
        rewrite and, never having been in a manifest, never cached.
        Snapshots taken before the rebase become invalid once their
        files are gone — the documented :class:`PagedSnapshot` lifetime.
        """
        dropped = {run.name: run for run in self._runs}
        runs = []
        for entry in run_entries:
            run = dropped.get(entry["name"])
            if run is not None and run.entry["checksum"] == entry["checksum"]:
                del dropped[run.name]
            else:
                run = PagedRun(self.backend, entry)
            runs.append(run)
        self.cache.drop_runs(dropped)
        self._runs = runs

    def collapse(self, run_entries) -> None:
        """Rebase onto ``run_entries`` *and* drop every overlay.

        Correct only when the new run set covers everything the
        overlays hold — i.e. immediately after a snapshot spill, whose
        delta run (written from the spill buffer that mirrors the same
        committed writes) carries every overlay entry, tombstones and
        exact MVCC versions included. This is the step that bounds a
        long-running paged node's resident memory: without it the
        overlays grow for the life of the process, spill or not.
        Snapshots taken before the collapse keep their captured layers
        (never mutated) but are bound by the :class:`PagedSnapshot`
        run-file lifetime, as with :meth:`rebase`.
        """
        self.rebase(run_entries)
        self._sealed = ()
        self._head = {}
        # len() must be recounted lazily: tombstoned keys just left the
        # overlays, so the incremental count no longer applies.
        self._counted = False
        self._len = 0

    def overlay_entries(self) -> int:
        """Resident overlay entries (head + sealed) — the quantity
        :meth:`collapse` bounds; asserted by the E24 memory gate."""
        return len(self._head) + sum(len(o) for o in self._sealed)

    def run_names(self) -> list[str]:
        return [run.name for run in self._runs]

    # -- reads ---------------------------------------------------------------

    def get_versioned(self, key: str) -> VersionedValue:
        entry = self._head.get(key)
        if entry is None:
            for overlay in reversed(self._sealed):
                entry = overlay.get(key)
                if entry is not None:
                    break
        if entry is not None:
            return MISSING if is_tombstone(entry) else entry
        return _run_lookup(self._runs, key, self.cache)

    def keys(self) -> list[str]:
        return [key for key, _entry in self.scan()]

    def items(self) -> Iterator[tuple[str, VersionedValue]]:
        """Live entries in one merged pass (the parent's ``keys()`` then
        a lookup per key would walk every run twice)."""
        return self.scan()

    def scan(
        self, start: str | None = None, end: str | None = None
    ) -> Iterator[tuple[str, VersionedValue]]:
        """Live entries with ``start <= key <= end`` in key order —
        byte-identical to the materialized :meth:`StateStore.scan`
        oracle, but decoding only run blocks that intersect the range
        (binary search on each run's block index) instead of every
        block of every run."""
        layers = [self._head] + list(reversed(self._sealed))
        return scan_layers(layers, self._runs, start, end)

    def __len__(self) -> int:
        if not self._counted:
            # One merged scan; afterwards the parent's put/delete
            # bookkeeping keeps the count exact incrementally.
            self._len = len(self.keys())
            self._counted = True
        return self._len

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> PagedSnapshot:
        """COW snapshot including the run tier (see PagedSnapshot's
        lifetime note)."""
        if self._head:
            self._seal_head()
        STORE_COUNTERS["snapshots_taken"] += 1
        return PagedSnapshot(self._sealed, list(self._runs), self.cache)
