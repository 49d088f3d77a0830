"""The on-disk state tier: snapshot runs, manifest, compaction.

This extends the size-tiered COW overlay design of
:class:`~repro.ledger.store.StateStore` (PR 4) one level down, LSM
style:

* A :class:`SpillBuffer` — a ``StateStore`` that never compacts —
  accumulates every committed write since the last spill. Spilling
  seals it and merges its sealed overlays **oldest to newest** (the
  :meth:`~repro.ledger.store.StateStore.sealed_overlays` public
  contract; later overlays supersede earlier ones) into one sorted,
  **blocked** run file.
* A **run file** (format v3) is a sequence of ~4KB blocks of sorted,
  canonical-JSON rows — each block individually checksummed — followed
  by a footer holding the block index (first key / offset / length /
  checksum per block) and a compact key-membership filter
  (:class:`~repro.storage.codec.KeyFilter`), and a fixed trailer
  locating the footer. Inside a block the rows sit between newlines,
  which canonical JSON never contains, so a key's row is found by one
  substring search (:func:`~repro.storage.codec.find_row`): a point
  lookup of the paged read path (:mod:`repro.storage.paged`) consults
  the filter, binary-searches the index, verifies one block and
  decodes one row. The manifest entry records the footer checksum and
  the ``format`` version; a run of any other version (v2 blocks were
  JSON lists, v1 one unblocked blob) is rejected by name, and a
  durable node holding one resyncs.
* The **manifest** is the tiny root of trust: the ordered list of live
  runs (with checksums), the snapshot height, the header of the anchor
  block the WAL tail continues from (the five-field list of
  :func:`~repro.storage.codec.header_to_row` — never its
  transactions), and the live WAL segment. Its ``format`` id names
  this layout; a manifest with any other id reads as unusable and its
  node resyncs. It is replaced
  atomically (write-temp + fsync + rename), so a crash at *any* point
  leaves either the old or the new snapshot set fully readable — never
  a mixture. Run files and WAL segments are only deleted **after** the
  manifest that stops referencing them is durable. Run files are
  written block-by-block (append + final fsync before the manifest
  references them); a crash mid-write leaves an unreferenced partial
  file that recovery garbage-collects.
* **Compaction** merges all live runs into one (newest entry per key
  wins, tombstones drop out once they reach the bottom) and swaps the
  manifest; a crash mid-compaction is invisible to recovery. The merge
  is a k-way heap over each run's sorted row stream, so compaction
  memory is O(block), not O(state).

Reading state back is ``apply runs in manifest order``: rows carry the
exact MVCC :class:`~repro.ledger.store.Version` of each write, so a
recovered store is version-identical to the store that spilled it.
"""

from __future__ import annotations

import heapq
import json
import struct
from dataclasses import dataclass
from typing import Any, Iterator

from repro.common.errors import StorageError
from repro.ledger.store import (
    STORE_COUNTERS,
    MemoryBudget,
    StateStore,
    Version,
    is_tombstone,
)
from repro.storage.codec import (
    KeyFilter,
    checksum,
    decode_block_rows,
    encode_row,
    entry_to_row,
    frame_rows,
    row_to_entry,
)

MANIFEST_NAME = "MANIFEST.json"
#: v2: the anchor is a header list, not a whole block dict.
MANIFEST_FORMAT = "repro-manifest/v2"

RUN_PREFIX = "snap-"
RUN_SUFFIX = ".json"

#: The run-file format: sorted checksummed blocks of newline-framed
#: rows + footer index + key filter. The only one written or read.
RUN_FORMAT = 3

#: Target encoded size of one run block. Small enough that a point
#: lookup verifies and searches ~4KB; large enough that the per-block
#: index stays ~1% of the data.
BLOCK_TARGET_BYTES = 4096

#: Run-file trailer: footer length + magic, fixed size at end-of-file
#: (the magic names the trailer layout, unchanged since v2).
_TRAILER = struct.Struct(">Q4s")
_RUN_MAGIC = b"RUN2"

#: Compact the run set once it grows past this many files.
DEFAULT_MAX_RUNS = 4

#: Disk-compaction counter (separate from the in-memory STORE_COUNTERS
#: "compactions", which counts base folds inside StateStore).
STORAGE_SNAPSHOT_COMPACTIONS = {"count": 0}

#: Tiered-compaction telemetry: merges performed per size tier
#: ({tier index: count}). Reset alongside the other storage counters.
STORAGE_TIER_COMPACTIONS: dict[int, int] = {}


@dataclass(frozen=True)
class CompactionPolicy:
    """When and what the snapshot tier merges.

    ``full`` is the PR 7 behaviour: once the run count passes
    ``max_runs``, every live run merges into one. Write amplification
    per trigger is O(total state) — each trigger rewrites everything.

    ``tiered`` is classic size-tiered compaction: every spill run is
    born at tier 0; once an **age-contiguous** band of ``fanout``-or-
    more same-tier runs accumulates, the band merges into one run at
    the next tier up, at the band's position in the manifest. Each
    trigger rewrites O(one band), and any entry is rewritten at most
    once per tier promotion — O(log_fanout(spills)) times over its
    life, instead of once per trigger under ``full``. Tiers are
    recorded explicitly in the manifest entry (``"tier"``) rather than
    derived from file size: heavy overwrite workloads dedup a merged
    band back down to its inputs' size, and size-derived tiers would
    then re-merge the same data forever. Bands must be age-contiguous
    because key shadowing between runs is positional (newest run wins;
    tombstone rows carry the sentinel version ``(-1, -1)``, so versions
    cannot order them) — merging a non-contiguous subset would let an
    old value resurface over a newer run left in the gap. Tombstones
    drop only when the band includes the oldest run (nothing below is
    left to mask).
    """

    kind: str = "full"
    max_runs: int = DEFAULT_MAX_RUNS
    fanout: int = 4

    def __post_init__(self) -> None:
        if self.kind not in ("full", "tiered"):
            raise StorageError(
                f"unknown compaction policy kind {self.kind!r}"
            )
        if self.max_runs < 1:
            raise StorageError(f"max_runs must be >= 1, got {self.max_runs}")
        if self.fanout < 2:
            raise StorageError(f"fanout must be >= 2, got {self.fanout}")

    @classmethod
    def parse(
        cls, spec: "CompactionPolicy | str", max_runs: int = DEFAULT_MAX_RUNS
    ) -> "CompactionPolicy":
        """``"full"``, ``"tiered"``, or ``"tiered:<fanout>"``."""
        if isinstance(spec, CompactionPolicy):
            return spec
        text = spec.strip().lower()
        if text == "full":
            return cls(kind="full", max_runs=max_runs)
        if text == "tiered":
            return cls(kind="tiered", max_runs=max_runs)
        if text.startswith("tiered:"):
            try:
                fanout = int(text.split(":", 1)[1])
            except ValueError as exc:
                raise StorageError(
                    f"bad tiered fanout in policy {spec!r}"
                ) from exc
            return cls(kind="tiered", max_runs=max_runs, fanout=fanout)
        raise StorageError(f"unknown compaction policy {spec!r}")

    def select_band(
        self, entries: list[dict[str, Any]]
    ) -> tuple[int, int] | None:
        """The oldest age-contiguous same-tier band ready to merge, as
        ``(start, count)`` over manifest positions — or None."""
        if self.kind != "tiered":
            return None
        tiers = [int(e["tier"]) for e in entries]
        start = 0
        while start < len(tiers):
            end = start
            while end < len(tiers) and tiers[end] == tiers[start]:
                end += 1
            if end - start >= self.fanout:
                return (start, end - start)
            start = end
        return None


def run_name(run_id: int) -> str:
    return f"{RUN_PREFIX}{run_id:06d}{RUN_SUFFIX}"


def is_run_name(name: str) -> bool:
    """True for any file the snapshot tier may have written as a run."""
    return name.startswith(RUN_PREFIX) and name.endswith(RUN_SUFFIX)


class SpillBuffer(StateStore):
    """A StateStore that keeps every sealed overlay observable.

    The base-compaction step of the parent class folds overlays into
    the base dict and *drops tombstones that cancel base entries* —
    information the spill still needs. This subclass disables
    compaction, so between two spills the full delta (including
    deletes) remains reachable through :meth:`sealed_overlays`.
    Buffers are reset (replaced) after every spill, so they stay small.

    Every write is also charged to a :class:`~repro.ledger.store.
    MemoryBudget`: since the buffer holds exactly the delta since the
    last spill, its deterministic byte estimate is the resident-overlay
    gauge the durable ledger consults to force a spill *between*
    interval snapshots (``overlay_budget_bytes``). Buffers are replaced
    after every spill, so the accounting resets with them.
    """

    def __init__(self) -> None:
        super().__init__()
        self.budget = MemoryBudget()

    @property
    def resident_bytes(self) -> int:
        """Deterministic estimate of the delta this buffer holds."""
        return self.budget.resident_bytes

    def _maybe_compact(self) -> None:  # noqa: D102 - contract in class doc
        return

    def put(self, key: str, value: Any, version: Version) -> None:
        super().put(key, value, version)
        self.budget.charge(key, value)

    def delete(self, key: str) -> None:
        """Always record the tombstone: this buffer holds only the delta
        since the last spill, so the deleted key usually lives in an
        older run — skipping "absent" keys would lose the delete."""
        self.mark_deleted(key)

    def mark_deleted(self, key: str) -> None:
        super().mark_deleted(key)
        self.budget.charge(key, None)


def merge_overlays(overlays) -> dict[str, Any]:
    """Merge sealed overlays per the documented order contract.

    ``overlays`` is oldest → newest; for keys present in several
    overlays the **last** one wins. Entries are VersionedValue objects
    or tombstones (classified via
    :func:`~repro.ledger.store.is_tombstone`).
    """
    merged: dict[str, Any] = {}
    for overlay in overlays:
        merged.update(overlay)
    return merged


# -- the blocked run format ----------------------------------------------------


class RunWriter:
    """Stream sorted rows into one blocked run file, O(block) memory.

    Rows arrive in strictly increasing key order (enforced — an
    out-of-order row means a broken merge upstream). Each ~4KB of
    encoded rows is appended as one checksummed block; the footer
    (block index + key filter) and trailer land last, and a final fsync
    makes the whole file durable *before* :meth:`finish` returns its
    manifest entry — preserving the run-durable-before-referenced
    ordering the manifest swap relies on. A crash mid-write leaves an
    unreferenced partial file for recovery's garbage collector.
    """

    def __init__(
        self,
        backend,
        name: str,
        expected_keys: int,
        block_bytes: int = BLOCK_TARGET_BYTES,
        purpose: str = "spill",
    ) -> None:
        if backend.exists(name):
            # A leftover orphan from a writer that crashed before its
            # manifest swap (the id was never consumed); appending to
            # its garbage would corrupt the new run.
            backend.delete(name)
        if purpose not in ("spill", "compaction"):
            raise StorageError(f"unknown run purpose {purpose!r}")
        self.backend = backend
        self.name = name
        self.block_bytes = block_bytes
        #: Which write-amplification gauge the finished run charges:
        #: ``spill`` = first write of fresh data, ``compaction`` =
        #: rewrite of already-durable data.
        self.purpose = purpose
        self.filter = KeyFilter.sized_for(expected_keys)
        self.blocks: list[dict[str, Any]] = []
        self.rows_written = 0
        self._offset = 0
        self._encoded: list[str] = []
        self._encoded_bytes = 0
        self._first_key: str | None = None
        self._last_key: str | None = None

    def add(self, row: list[Any]) -> None:
        key = row[0]
        if self._last_key is not None and key <= self._last_key:
            raise StorageError(
                f"run rows out of order ({key!r} after {self._last_key!r})"
            )
        self._last_key = key
        if self._first_key is None:
            self._first_key = key
        self.filter.add(key)
        encoded = encode_row(row)
        self._encoded.append(encoded)
        self._encoded_bytes += len(encoded) + 1
        self.rows_written += 1
        if self._encoded_bytes >= self.block_bytes:
            self._flush_block()

    def _flush_block(self) -> None:
        if not self._encoded:
            return
        payload = frame_rows(self._encoded)
        self.backend.append(self.name, payload)
        self.blocks.append({
            "first": self._first_key,
            "off": self._offset,
            "len": len(payload),
            "sum": checksum(payload),
            "rows": len(self._encoded),
        })
        self._offset += len(payload)
        self._encoded = []
        self._encoded_bytes = 0
        self._first_key = None

    def finish(self) -> dict[str, Any]:
        """Seal the run; returns its manifest entry."""
        self._flush_block()
        footer = {
            "format": RUN_FORMAT,
            "blocks": self.blocks,
            "filter": self.filter.to_dict(),
            "rows": self.rows_written,
        }
        footer_bytes = json.dumps(
            footer, sort_keys=True, separators=(",", ":")
        ).encode()
        self.backend.append(
            self.name,
            footer_bytes + _TRAILER.pack(len(footer_bytes), _RUN_MAGIC),
        )
        self.backend.fsync(self.name)
        total_bytes = self._offset + len(footer_bytes) + _TRAILER.size
        STORE_COUNTERS[f"{self.purpose}_bytes_written"] += total_bytes
        return {
            "name": self.name,
            "checksum": checksum(footer_bytes),
            "rows": self.rows_written,
            "format": RUN_FORMAT,
            "bytes": total_bytes,
            # Fresh runs are born at tier 0; band merges overwrite this
            # with the promoted tier (see CompactionPolicy).
            "tier": 0,
        }


def read_run_footer(backend, entry: dict[str, Any]) -> dict[str, Any]:
    """Read + verify one run's footer (index + filter) — O(footer),
    never touching the row blocks. StorageError on any corruption and
    on an entry of any format but :data:`RUN_FORMAT` (every reader
    opens a run through here: this is the one format check)."""
    name = entry["name"]
    if entry.get("format") != RUN_FORMAT:
        raise StorageError(
            f"unknown run format {entry.get('format')!r} in snapshot run "
            f"{name!r}"
        )
    if not backend.exists(name):
        raise StorageError(f"missing snapshot run {name!r}")
    size = backend.size(name)
    if size < _TRAILER.size:
        raise StorageError(f"truncated snapshot run {name!r}")
    trailer = backend.read_range(name, size - _TRAILER.size, _TRAILER.size)
    try:
        footer_len, magic = _TRAILER.unpack(trailer)
    except struct.error as exc:
        raise StorageError(f"unreadable trailer in run {name!r}") from exc
    if magic != _RUN_MAGIC or footer_len > size - _TRAILER.size:
        raise StorageError(f"corrupt trailer in snapshot run {name!r}")
    footer_bytes = backend.read_range(
        name, size - _TRAILER.size - footer_len, footer_len
    )
    if checksum(footer_bytes) != entry["checksum"]:
        raise StorageError(f"footer checksum mismatch in run {name!r}")
    try:
        footer = json.loads(footer_bytes.decode())
    except (ValueError, UnicodeDecodeError) as exc:
        raise StorageError(f"undecodable footer in run {name!r}") from exc
    if not isinstance(footer, dict) or footer.get("format") != RUN_FORMAT:
        raise StorageError(f"unknown run format in {name!r}")
    return footer


def read_run_block(backend, name: str, spec: dict[str, Any]) -> bytes:
    """Read exactly one block of a run (one ``read_range``), verified:
    nothing looks inside a block whose length or checksum is off."""
    payload = backend.read_range(name, spec["off"], spec["len"])
    if len(payload) != spec["len"] or checksum(payload) != spec["sum"]:
        raise StorageError(f"block checksum mismatch in run {name!r}")
    return payload


class SnapshotStore:
    """Manages run files + the manifest over one storage backend."""

    def __init__(
        self,
        backend,
        max_runs: int = DEFAULT_MAX_RUNS,
        policy: CompactionPolicy | str | None = None,
    ) -> None:
        if max_runs < 1:
            raise StorageError(f"max_runs must be >= 1, got {max_runs}")
        self.backend = backend
        self.max_runs = max_runs
        self.policy = (
            CompactionPolicy(max_runs=max_runs)
            if policy is None
            else CompactionPolicy.parse(policy, max_runs=max_runs)
        )

    # -- manifest ------------------------------------------------------------

    def read_manifest(self) -> dict[str, Any] | None:
        """The current manifest, or None when absent, undecodable or of
        another format.

        A manifest file that reads as None (an older format, a lost
        rename journal) is *no usable snapshot state* — recovery falls
        back to a full resync, which is always safe.
        """
        if not self.backend.exists(MANIFEST_NAME):
            return None
        try:
            data = json.loads(self.backend.read(MANIFEST_NAME).decode())
        except (ValueError, UnicodeDecodeError):
            # Corrupt manifest = no manifest; narrow so control-flow
            # exceptions (KeyboardInterrupt, SystemExit) propagate.
            return None
        if not isinstance(data, dict) or data.get("format") != MANIFEST_FORMAT:
            return None
        return data

    def write_manifest(self, manifest: dict[str, Any]) -> None:
        manifest = dict(manifest)
        manifest["format"] = MANIFEST_FORMAT
        payload = json.dumps(
            manifest, sort_keys=True, separators=(",", ":")
        ).encode()
        # One atomic replace: the backend models write-temp+fsync+rename.
        self.backend.replace(MANIFEST_NAME, payload)

    # -- runs ----------------------------------------------------------------

    def write_run(
        self, run_id: int, rows: list[list[Any]], purpose: str = "spill"
    ) -> dict[str, Any]:
        """Write one blocked run file; returns its manifest entry."""
        writer = RunWriter(self.backend, run_name(run_id), len(rows),
                           purpose=purpose)
        for row in rows:
            writer.add(row)
        return writer.finish()

    def read_run(self, entry: dict[str, Any]) -> list[list[Any]]:
        """Read + verify one whole run (footer, then every block);
        StorageError on any corruption."""
        return list(self.iter_run_rows(entry))

    def iter_run_rows(self, entry: dict[str, Any]) -> Iterator[list[Any]]:
        """Stream one run's rows in key order, one block in memory at a
        time."""
        name = entry["name"]
        for spec in read_run_footer(self.backend, entry)["blocks"]:
            yield from decode_block_rows(
                read_run_block(self.backend, name, spec), name
            )

    def orphan_runs(self, manifest: dict[str, Any] | None) -> list[str]:
        """Run files on disk that ``manifest`` does not reference.

        A crash between a run write and the manifest swap that would
        have referenced it — or between compaction's swap and its
        delete loop — leaks files; recovery deletes what this returns.
        """
        referenced = {
            entry["name"] for entry in (manifest or {}).get("runs", ())
        }
        return [
            name for name in self.backend.list()
            if is_run_name(name) and name not in referenced
        ]

    # -- spill ---------------------------------------------------------------

    def rows_from_buffer(self, buffer: SpillBuffer) -> list[list[Any]]:
        """Seal ``buffer`` and flatten its delta into sorted run rows.

        This is the consumer of the ``sealed_overlays()`` order
        contract: later overlays supersede earlier ones, tombstones
        become ``value None`` rows (deletes must be replayed — a key
        deleted here may exist in an older run).
        """
        buffer.snapshot()  # seals the head overlay
        merged = merge_overlays(buffer.sealed_overlays())
        rows = []
        for key in sorted(merged):
            entry = merged[key]
            if is_tombstone(entry):
                rows.append(entry_to_row(key, None, Version(-1, -1)))
            else:
                rows.append(entry_to_row(key, entry.value, entry.version))
        STORE_COUNTERS["overlay_spills"] += 1
        STORE_COUNTERS["overlay_spill_entries"] += len(rows)
        return rows

    def spill(
        self,
        buffer: SpillBuffer,
        manifest: dict[str, Any],
        **manifest_updates: Any,
    ) -> dict[str, Any]:
        """Write ``buffer``'s delta as a new run and swap the manifest.

        Returns the new manifest. Old WAL segments named in
        ``manifest_updates`` handling are the caller's job; this method
        only guarantees run durability ordering (run file durable
        before the manifest references it) and triggers compaction when
        the run set grows past ``max_runs``.
        """
        rows = self.rows_from_buffer(buffer)
        run_id = int(manifest.get("next_run_id", 1))
        entry = self.write_run(run_id, rows)
        new_manifest = dict(manifest)
        new_manifest["runs"] = list(manifest.get("runs", ())) + [entry]
        new_manifest["next_run_id"] = run_id + 1
        new_manifest.update(manifest_updates)
        return self.apply_policy(new_manifest)

    # -- compaction ----------------------------------------------------------

    def apply_policy(self, manifest: dict[str, Any]) -> dict[str, Any]:
        """Commit ``manifest``, then run the compaction policy over it.

        ``full``: the PR 7 behaviour — past ``max_runs`` live runs,
        everything merges into one and the *merged* manifest is the only
        swap (the pre-merge set is never referenced). ``tiered``: the
        incoming manifest is committed first (the spill's own commit
        point), then each qualifying age-contiguous band merges in its
        own crash-safe write-run → swap-manifest → delete cycle,
        repeating until no band qualifies — so a crash between band
        merges leaves a fully readable intermediate run set.
        """
        if self.policy.kind == "full":
            if len(manifest.get("runs", ())) > self.policy.max_runs:
                return self.compact(manifest)
            self.write_manifest(manifest)
            return manifest
        self.write_manifest(manifest)
        while True:
            band = self.policy.select_band(list(manifest.get("runs", ())))
            if band is None:
                return manifest
            manifest = self.merge_band(manifest, band[0], band[1])

    def merge_band(
        self, manifest: dict[str, Any], start: int, count: int
    ) -> dict[str, Any]:
        """Merge ``count`` age-contiguous runs at manifest position
        ``start`` into one; atomic manifest swap.

        The merge is **streaming**: a k-way heap over each run's sorted
        row iterator, newest run winning ties, tombstones cancelling
        only when the band includes the oldest run (position 0 — with
        anything below, a tombstone must survive to keep masking it) —
        so peak memory is O(block) per input run plus the output
        writer's current block, never the merged state. The merged run
        replaces the band *at its position*, preserving the positional
        key-shadowing order of the untouched runs around it.

        Ordering is the whole point:

        1. write the merged run (block appends + fsync — durable),
        2. swap the manifest (atomic replace),
        3. only then delete the superseded run files.

        A crash before (2) leaves the old manifest pointing at the old,
        untouched run set (the partial merged file is unreferenced and
        garbage-collected on recovery); a crash between (2) and (3)
        leaks files but loses nothing. The crash-during-compaction
        sweeps assert exactly this for both policies.
        """
        entries = list(manifest.get("runs", ()))
        if start < 0 or count < 1 or start + count > len(entries):
            raise StorageError(
                f"bad compaction band ({start}, {count}) over "
                f"{len(entries)} runs"
            )
        band = entries[start:start + count]
        drop_tombstones = start == 0
        run_id = int(manifest.get("next_run_id", 1))
        writer = RunWriter(
            self.backend,
            run_name(run_id),
            expected_keys=sum(int(e.get("rows", 0)) for e in band),
            purpose="compaction",
        )
        # Heap keys are (row key, -band position): for a key present in
        # several runs the newest (highest position) pops first, and the
        # older duplicates are skipped as they surface.
        def stream(entry: dict[str, Any], position: int):
            for row in self.iter_run_rows(entry):
                yield (row[0], -position, row)

        streams = [
            stream(entry, position)
            for position, entry in enumerate(band)
        ]
        last_key = None
        for key, _position, row in heapq.merge(*streams):
            if key == last_key:
                continue  # superseded by a newer run
            last_key = key
            if row[1] is None and drop_tombstones:
                continue  # bottom tier: tombstones cancel out
            writer.add(row)
        new_entry = writer.finish()
        # Promote the merged run one tier above its inputs — explicit,
        # not size-derived, so dedup-heavy merges still move upward.
        tier = max(int(e["tier"]) for e in band) + 1
        new_entry["tier"] = tier
        new_manifest = dict(manifest)
        new_manifest["runs"] = (
            entries[:start] + [new_entry] + entries[start + count:]
        )
        new_manifest["next_run_id"] = run_id + 1
        self.write_manifest(new_manifest)
        STORAGE_SNAPSHOT_COMPACTIONS["count"] += 1
        STORAGE_TIER_COMPACTIONS[tier] = (
            STORAGE_TIER_COMPACTIONS.get(tier, 0) + 1
        )
        for entry in band:
            self.backend.delete(entry["name"])
        return new_manifest

    def compact(self, manifest: dict[str, Any]) -> dict[str, Any]:
        """Merge every live run into one; atomic manifest swap.

        The full-merge special case of :meth:`merge_band` — the band is
        the whole run set, so tombstones cancel for good.
        """
        entries = list(manifest.get("runs", ()))
        if not entries:
            self.write_manifest(manifest)
            return manifest
        return self.merge_band(manifest, 0, len(entries))

    # -- load ----------------------------------------------------------------

    def load_state(self, manifest: dict[str, Any]) -> StateStore:
        """Rebuild a fully-materialized StateStore from the run set.

        Runs apply in manifest order (oldest first), so later runs'
        entries — including deletes — supersede earlier ones, mirroring
        the overlay order they were spilled from. StorageError on any
        missing or corrupt run (callers treat that as "snapshot tier
        unusable, full resync"). O(total state) in time and memory —
        the equivalence oracle for the paged read path
        (:class:`~repro.storage.paged.PagedStateStore`), which serves
        the same contract directly from the run files.
        """
        store = StateStore()
        for entry in manifest.get("runs", ()):
            for row in self.iter_run_rows(entry):
                key, value, version = row_to_entry(row)
                if value is None:
                    store.delete(key)
                else:
                    store.put(key, value, version)
        return store
