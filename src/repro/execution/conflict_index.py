"""Incremental per-key reader/writer conflict indexes.

ParBlockchain (arXiv:1902.01457) builds its dependency graphs *at
ordering time*, incrementally, as transactions stream into a block —
not by re-scanning the whole block after the fact. This module is that
structure, shared by the three execution-layer consumers:

* :class:`BlockConflictIndex` — the OXII flavour. Ingests declared
  read/write sets as transactions arrive and records, per transaction,
  its conflict *predecessors* (earlier accessors it must follow).
  Cutting a block is then an O(intra-block edges) extraction
  (:meth:`BlockConflictIndex.graph_for`) instead of a per-block rebuild.
* :class:`ConstraintIndex` — the Fabric++ / FabricSharp flavour.
  Records read-from constraint edges (reader must commit before the
  writer that would invalidate it) incrementally at endorsement time,
  so the reorderers' conflict analysis becomes a lookup
  (:meth:`ConstraintIndex.edges_among`).
* :class:`KeyLockIndex` — the sharded systems' no-wait lock table:
  conflict probes are O(keys touched) and release is O(keys held),
  replacing the per-transaction ``touched & set(lock_dict)`` rebuild.

Both transaction indexes hand out monotonically increasing integer
*uids* at ingest and support :meth:`seal`: once every transaction below
a boundary sits in a decided block, per-key accessor lists are pruned
(lazily, on the next scan) so hot-key lookups stay proportional to the
*pending* window rather than the whole run. :class:`SealTracker` turns
possibly out-of-order block decisions into that monotone boundary.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Sequence

from repro.execution.depgraph import DependencyGraph


class _AccessLists:
    """Per-key ascending uid lists with lazy seal-boundary pruning."""

    __slots__ = ("_lists", "_sealed")

    def __init__(self) -> None:
        self._lists: dict[str, list[int]] = {}
        self._sealed = 0

    def seal(self, boundary: int) -> None:
        self._sealed = max(self._sealed, boundary)

    def live(self, key: str) -> list[int]:
        """The key's still-pending accessors (pruned in place)."""
        uids = self._lists.get(key)
        if uids is None:
            return _EMPTY
        if uids and uids[0] < self._sealed:
            del uids[: bisect_left(uids, self._sealed)]
        return uids

    def append(self, key: str, uid: int) -> None:
        lst = self._lists.get(key)
        if lst is None:
            self._lists[key] = [uid]
        else:
            lst.append(uid)


_EMPTY: list[int] = []


class BlockConflictIndex:
    """Incremental dependency-graph index (the OXII / ParBlockchain path).

    Ingestion order must match eventual block order (true for the
    ordering queue: blocks are contiguous slices of the enqueue stream).
    Each ingest records the transaction's conflict predecessors — every
    earlier still-pending accessor the dependency-graph semantics of
    :func:`~repro.execution.depgraph.build_dependency_graph` would draw
    an edge from: write-write and read-write conflicts in both
    directions, directed by arrival order. Extracting a block's graph
    filters those predecessor lists to the block's members, so the cost
    per block is O(intra-block edges), never O(block²) and never a
    rescan of keys already indexed.
    """

    def __init__(self) -> None:
        self._readers = _AccessLists()
        self._writers = _AccessLists()
        self._cleared = 0
        #: Per-uid sorted predecessor uids (conflicts this tx follows).
        self._preds: list[tuple[int, ...]] = []

    @property
    def ingested(self) -> int:
        return len(self._preds)

    def ingest(
        self, read_keys: Iterable[str], write_keys: Iterable[str]
    ) -> int:
        """Index one declared read/write set; returns its uid."""
        uid = len(self._preds)
        preds: set[int] = set()
        for key in write_keys:
            # Write-write and read-write against all earlier accessors.
            preds.update(self._writers.live(key))
            preds.update(self._readers.live(key))
            self._writers.append(key, uid)
        for key in read_keys:
            preds.update(self._writers.live(key))
            self._readers.append(key, uid)
        preds.discard(uid)
        self._preds.append(tuple(sorted(preds)))
        return uid

    def seal(self, boundary: int) -> None:
        """Every uid below ``boundary`` is in a decided block; prune."""
        self._readers.seal(boundary)
        self._writers.seal(boundary)
        for uid in range(self._cleared, min(boundary, len(self._preds))):
            self._preds[uid] = ()
        self._cleared = max(self._cleared, min(boundary, len(self._preds)))

    def graph_for(self, uids: Sequence[int], txs: list) -> DependencyGraph:
        """The block's dependency graph, in block (== ``uids``) order.

        Byte-identical to ``build_dependency_graph(txs)``: the
        predecessor lists already hold every conflict, so this only
        restricts them to the block's membership.
        """
        local = {uid: i for i, uid in enumerate(uids)}
        successors: dict[int, set[int]] = {i: set() for i in range(len(uids))}
        for i, uid in enumerate(uids):
            for pred in self._preds[uid]:
                j = local.get(pred)
                if j is not None and j != i:
                    successors[j].add(i)
        return DependencyGraph(txs=txs, successors=successors)


class ConstraintIndex:
    """Incremental read-from constraint index (Fabric++ / FabricSharp).

    Constraint semantics (see :mod:`repro.execution.reorder`): an edge
    ``b -> a`` whenever transaction ``b`` *read* a key transaction ``a``
    *writes* — ``b`` is only valid if it commits before ``a``,
    regardless of which was endorsed first. Each ingest records the
    edges the new transaction completes: to earlier pending writers of
    its read keys, and from earlier pending readers of its write keys.
    """

    def __init__(self) -> None:
        self._readers = _AccessLists()
        self._writers = _AccessLists()
        self._cleared = 0
        #: Per-uid out-edge targets (writers this tx must precede).
        self._out: list[list[int]] = []

    @property
    def ingested(self) -> int:
        return len(self._out)

    def ingest(
        self, read_keys: Iterable[str], write_keys: Iterable[str]
    ) -> int:
        """Index one endorsed read/write set; returns its uid."""
        uid = len(self._out)
        out: list[int] = []
        self._out.append(out)
        for key in read_keys:
            for writer in self._writers.live(key):
                if writer != uid:
                    out.append(writer)
            self._readers.append(key, uid)
        for key in write_keys:
            for reader in self._readers.live(key):
                if reader != uid:
                    self._out[reader].append(uid)
            self._writers.append(key, uid)
        return uid

    def seal(self, boundary: int) -> None:
        """Every uid below ``boundary`` is in a decided block; prune."""
        self._readers.seal(boundary)
        self._writers.seal(boundary)
        for uid in range(self._cleared, min(boundary, len(self._out))):
            self._out[uid] = []
        self._cleared = max(self._cleared, min(boundary, len(self._out)))

    def edges_among(self, uids: Sequence[int]) -> dict[int, set[int]]:
        """Constraint edges restricted to ``uids``, as local indices.

        Matches ``_constraint_edges`` over the same transactions: keys
        are 0..len(uids)-1, values the local targets each must precede.
        """
        local = {uid: i for i, uid in enumerate(uids)}
        edges: dict[int, set[int]] = {i: set() for i in range(len(uids))}
        for i, uid in enumerate(uids):
            bucket = edges[i]
            for target in self._out[uid]:
                j = local.get(target)
                if j is not None and j != i:
                    bucket.add(j)
        return edges


class SealTracker:
    """Turns out-of-order block decisions into a monotone seal boundary.

    Blocks are contiguous uid ranges in practice, but the consensus
    decide order is not guaranteed here; the tracker advances the
    low-water mark only through uids actually decided, so a seal can
    never outrun a still-pending transaction.
    """

    __slots__ = ("_decided", "_next")

    def __init__(self) -> None:
        self._decided: set[int] = set()
        self._next = 0

    def decide(self, uids: Iterable[int]) -> int:
        """Record decided uids; returns the new seal boundary."""
        self._decided.update(uids)
        while self._next in self._decided:
            self._decided.discard(self._next)
            self._next += 1
        return self._next


def wave_is_conflict_free(txs: Sequence) -> bool:
    """Do the declared sets of ``txs`` really commute (no write-write or
    read-write overlap)?

    Defence-in-depth for the process-pool wave executor: a wave produced
    by the dependency graph is conflict-free *by construction of the
    declared sets*, so a violation here means a transaction's declaration
    is inconsistent with the graph that scheduled it — executing such a
    wave concurrently would be unsound, and the caller degrades to
    inline serial execution instead. Built on two :class:`KeyLockIndex`
    tables (writers and readers), so the check is O(keys touched).
    """
    writers = KeyLockIndex()
    readers = KeyLockIndex()
    for tx in txs:
        write_keys = tx.write_keys
        read_keys = tx.read_keys
        if (
            writers.conflicts(write_keys)
            or readers.conflicts(write_keys)
            or writers.conflicts(read_keys)
        ):
            return False
        writers.acquire(write_keys, tx.tx_id)
        readers.acquire(read_keys, tx.tx_id)
    return True


class KeyLockIndex:
    """No-wait lock table with O(touched) probes and O(held) release.

    The lock table of every shard of the sharded systems and of every
    multi-channel Fabric channel: a probe looks up only the keys a
    transaction touches, a release visits only the keys its holder owns.
    """

    __slots__ = ("_holder_of", "_keys_of")

    def __init__(self) -> None:
        self._holder_of: dict[str, str] = {}
        self._keys_of: dict[str, list[str]] = {}

    def __len__(self) -> int:
        return len(self._holder_of)

    def __contains__(self, key: str) -> bool:
        return key in self._holder_of

    def holder(self, key: str) -> str | None:
        return self._holder_of.get(key)

    def conflicts(self, keys: Iterable[str]) -> bool:
        """Is any of ``keys`` currently locked?"""
        holder_of = self._holder_of
        return any(key in holder_of for key in keys)

    def acquire(self, keys: Iterable[str], holder: str) -> None:
        """Grant ``keys`` to ``holder`` (caller checked conflicts)."""
        held = self._keys_of.setdefault(holder, [])
        for key in keys:
            self._holder_of[key] = holder
            held.append(key)

    def release(self, holder: str) -> None:
        """Free every key ``holder`` still owns."""
        for key in self._keys_of.pop(holder, ()):
            if self._holder_of.get(key) == holder:
                del self._holder_of[key]
