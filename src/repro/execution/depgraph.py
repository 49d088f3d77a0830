"""Dependency graphs and parallel scheduling — the OXII execute phase.

ParBlockchain (paper section 2.3.3): after ordering a block, the orderers
generate a dependency graph giving "a partial order based on the conflicts
between transactions", enabling parallel execution of non-conflicting
transactions. Conflicts are detected from *declared* read/write sets,
which is why OXII can build the graph before execution.

Two schedulers are provided: :func:`schedule_waves` (topological levels,
easy to reason about) and :func:`schedule_parallel` (event-driven list
scheduling on a fixed executor pool, the makespan model used by the
benchmarks). Everything on this path is linear in vertices + edges:
:meth:`DependencyGraph.waves` is one forward pass (Kahn-style level
propagation over the stored successors), adjacency is computed once
and cached, and the schedulers keep executor lanes in
heaps instead of rebuilding per-step sets.

Per-block graphs are built incrementally by
:class:`~repro.execution.conflict_index.BlockConflictIndex`;
:func:`build_dependency_graph` remains as the one-shot form (it streams
the block through a fresh index).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.common.errors import ExecutionError
from repro.common.types import Transaction


@dataclass
class DependencyGraph:
    """Conflict edges among the transactions of one block.

    ``successors[i]`` holds indices j > i that conflict with i — the
    edge direction follows block order, so the graph is acyclic by
    construction and any schedule respecting it is equivalent to serial
    execution in block order.

    :meth:`sorted_successors` is cached on first use; the graph is
    treated as frozen once it is computed.
    """

    txs: list[Transaction]
    successors: dict[int, set[int]] = field(default_factory=dict)
    _adjacency: tuple[tuple[int, ...], ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for i in range(len(self.txs)):
            self.successors.setdefault(i, set())

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self.successors.values())

    def sorted_successors(self) -> tuple[tuple[int, ...], ...]:
        """Successor lists in ascending order, computed once and cached
        (the schedulers' inner loop; avoids a sort per scheduling step)."""
        if self._adjacency is None:
            self._adjacency = tuple(
                tuple(sorted(self.successors[i])) for i in range(len(self.txs))
            )
        return self._adjacency

    def indegrees(self) -> list[int]:
        """Fresh per-vertex predecessor counts (callers mutate them)."""
        counts = [0] * len(self.txs)
        for succs in self.successors.values():
            for j in succs:
                counts[j] += 1
        return counts

    def waves(self) -> list[list[int]]:
        """Topological levels: wave k holds txs whose longest dependency
        chain has length k. Txs within a wave are mutually conflict-free.

        One forward pass over the stored successors — indices are
        already topological, so each vertex's level is final before its
        out-edges are relaxed: O(V + E), not O(V²).
        """
        n = len(self.txs)
        level = [0] * n
        depth = 0
        for i in range(n):
            base = level[i] + 1
            for j in self.successors[i]:
                if level[j] < base:
                    level[j] = base
            if level[i] > depth:
                depth = level[i]
        result: list[list[int]] = [[] for _ in range(depth + 1 if n else 0)]
        for i in range(n):
            result[level[i]].append(i)
        return result


def build_dependency_graph(txs: list[Transaction]) -> DependencyGraph:
    """Edges between conflicting transactions, directed by block order.

    One-shot form of the incremental path: streams the block through a
    fresh :class:`~repro.execution.conflict_index.BlockConflictIndex`,
    so the cost is proportional to actual conflicts rather than O(n²)
    key comparisons. Systems that see transactions arrive one at a time
    (``repro.core.oxii``) keep a persistent index instead and pay only
    the new transaction's edges.
    """
    from repro.execution.conflict_index import BlockConflictIndex

    index = BlockConflictIndex()
    uids = []
    for tx in txs:
        if not tx.declared_ops:
            raise ExecutionError(
                f"OXII requires declared operations; tx {tx.tx_id} has none"
            )
        uids.append(index.ingest(tx.read_keys, tx.write_keys))
    return index.graph_for(uids, list(txs))


def partition_wave(
    wave: list[int], workers: int
) -> list[list[int]]:
    """Deterministic round-robin split of one wave across worker lanes.

    Returns exactly ``workers`` chunks (some possibly empty) with chunk
    ``k`` holding ``wave[k::workers]`` — a pure function of the wave and
    the worker count, so the process-pool backend's task assignment (and
    therefore its merge order and IPC shape) is reproducible run to run.
    Round-robin keeps lane loads within one transaction of each other
    for uniform costs, the common case for a single contract family.
    """
    if workers < 1:
        raise ExecutionError(f"need at least one worker, got {workers}")
    return [list(wave[k::workers]) for k in range(workers)]


def schedule_waves(graph: DependencyGraph, costs: list[float]) -> float:
    """Makespan with unbounded executors and a barrier between waves."""
    total = 0.0
    for wave in graph.waves():
        total += max((costs[i] for i in wave), default=0.0)
    return total


def schedule_parallel(
    graph: DependencyGraph, costs: list[float], executors: int
) -> tuple[float, list[int]]:
    """Event-driven list scheduling on ``executors`` workers.

    Transactions become ready when every predecessor finished; ready
    transactions are started in block order (deterministic). Returns
    ``(makespan, completion_order)``.
    """
    if executors < 1:
        raise ExecutionError(f"need at least one executor, got {executors}")
    n = len(graph.txs)
    if n == 0:
        return 0.0, []
    adjacency = graph.sorted_successors()
    remaining = graph.indegrees()
    ready = [i for i in range(n) if remaining[i] == 0]
    heapq.heapify(ready)
    # (finish_time, tx_index) heap of running transactions.
    running: list[tuple[float, int]] = []
    completion_order: list[int] = []
    now = 0.0
    free = executors
    while ready or running:
        while ready and free > 0:
            tx_index = heapq.heappop(ready)
            heapq.heappush(running, (now + costs[tx_index], tx_index))
            free -= 1
        finish, tx_index = heapq.heappop(running)
        now = finish
        free += 1
        completion_order.append(tx_index)
        for succ in adjacency[tx_index]:
            remaining[succ] -= 1
            if remaining[succ] == 0:
                heapq.heappush(ready, succ)
    return now, completion_order


def schedule_multi_enterprise(
    graph: DependencyGraph,
    costs: list[float],
    owners: list[str],
    executors_per_enterprise: int,
    cross_enterprise_latency: float = 0.002,
    pools: dict[str, int] | None = None,
) -> tuple[float, list[int]]:
    """ParBlockchain's multi-enterprise execution model.

    "In a multi-enterprise system, each enterprise has its own set of
    executor nodes where the transactions of each enterprise are
    executed by the corresponding executor nodes" (paper section 2.3.3).

    Each enterprise owns a pool of ``executors_per_enterprise`` lanes
    (override per enterprise with ``pools``, a mapping from enterprise
    to lane count — its iteration order is irrelevant, lanes are only
    ever looked up by owner) and executes only its own transactions. A
    dependency edge between transactions of *different* enterprises
    additionally pays ``cross_enterprise_latency`` — the producing
    executor must ship the updated state to the consuming enterprise's
    executors before the successor may start. Lane availability is kept
    in a per-enterprise heap (O(log lanes) per claim, no per-step
    scans). Returns ``(makespan, completion_order)``.
    """
    if executors_per_enterprise < 1:
        raise ExecutionError("need at least one executor per enterprise")
    n = len(graph.txs)
    if n == 0:
        return 0.0, []
    if len(owners) != n or len(costs) != n:
        raise ExecutionError("owners and costs must match the tx count")
    if pools is not None:
        missing = sorted(set(owners) - set(pools))
        if missing:
            raise ExecutionError(f"no executor pool for enterprises {missing}")
        if any(lanes < 1 for lanes in pools.values()):
            raise ExecutionError("need at least one executor per enterprise")
    adjacency = graph.sorted_successors()
    remaining = graph.indegrees()
    # earliest moment tx i's inputs are available at its enterprise.
    ready_at = [0.0] * n
    # (ready_time, tx_index) of schedulable transactions.
    ready: list[tuple[float, int]] = [
        (0.0, i) for i in range(n) if remaining[i] == 0
    ]
    heapq.heapify(ready)
    # min-heap of lane free times per enterprise.
    pool_free: dict[str, list[float]] = {}
    for owner in owners:
        if owner not in pool_free:
            lanes = pools[owner] if pools is not None else executors_per_enterprise
            pool_free[owner] = [0.0] * lanes
    running: list[tuple[float, int]] = []
    completion_order: list[int] = []
    makespan = 0.0
    while ready or running:
        if ready:
            ready_time, tx_index = heapq.heappop(ready)
            lanes = pool_free[owners[tx_index]]
            lane_free = heapq.heappop(lanes)
            start = max(ready_time, lane_free)
            finish = start + costs[tx_index]
            heapq.heappush(lanes, finish)
            heapq.heappush(running, (finish, tx_index))
            continue
        finish, tx_index = heapq.heappop(running)
        makespan = max(makespan, finish)
        completion_order.append(tx_index)
        owner = owners[tx_index]
        for succ in adjacency[tx_index]:
            handoff = finish
            if owners[succ] != owner:
                handoff += cross_enterprise_latency
            if handoff > ready_at[succ]:
                ready_at[succ] = handoff
            remaining[succ] -= 1
            if remaining[succ] == 0:
                heapq.heappush(ready, (ready_at[succ], succ))
    return makespan, completion_order
