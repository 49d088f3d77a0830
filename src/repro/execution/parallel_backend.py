"""Real multi-core block execution: process-pool wave execution.

Everything "parallel" elsewhere in the execution layer is *modelled* on
the simulator's virtual timeline inside one Python process, so wall-clock
throughput is capped by a single core. This module escapes that box
while keeping the modelled serial timeline as the correctness oracle
(ParBlockchain's premise — arXiv:1902.01457 — that declared read/write
sets make transaction parallelism safe; Geyer & Mayer's arXiv:2311.15433
end-to-end wall-clock methodology).

Design (one lane per worker with batched IPC, not process-per-transaction):

* The coordinator reads each transaction's declared read/write keys
  once per block (:func:`declared_key_sets`) and levels them into
  conflict-free waves in one pass (:func:`level_waves`) — the same waves
  :meth:`~repro.execution.depgraph.DependencyGraph.waves` gives, without
  building the graph.
* ``workers`` is the lane count. The coordinator is lane 0 and forks
  ``workers - 1`` long-lived worker processes for the other lanes. Each
  child holds a replica view of the state: the copy-on-write
  :class:`~repro.ledger.store.StateSnapshot` inherited at fork time plus
  a local overlay fed exclusively by coordinator deltas.
* Each wave is split round-robin into one chunk per lane
  (:func:`~repro.execution.depgraph.partition_wave`) and costs at most
  **one IPC round**: every child receives one message carrying the
  writes committed since its last message (the delta) and its chunk,
  then the coordinator runs chunk 0 against the live store while the
  children work, and each child replies with one batch of captured
  read/write sets. A wave whose child chunks are all empty (a one-tx
  wave) sends nothing; its delta waits for the next round. Nobody
  applies results while the wave runs — the coordinator is the single
  writer, so replicas can never diverge from the authoritative store.
* The coordinator merges its own rows and the replies in block order
  (deterministic whatever the workers' finishing order), applies
  committed writes with the transaction's original
  ``Version(height, tx_index)``, and — because every intra-block
  conflict puts its later transaction in a later wave — the result is
  equivalent to serial execution in block order. That claim is
  *checked*, not assumed: :meth:`ParallelExecutor.execute_block`
  replays the block serially against the pre-block snapshot and asserts
  identical commit sets, abort decisions, read/write-set digests, and
  state digest. The report's :attr:`ParallelExecutionReport.state_digest`
  is computed on first read, off the execution path.

Failure handling is graceful degradation, never a wedged pool: a worker
that raises ships the traceback back (the wave re-runs inline, where a
genuine contract bug propagates exactly as the serial engine would
propagate it); a worker that times out or dies takes the pool down and
every remaining wave runs inline, counted in
``hotpath_counters()["exec.wave_fallbacks"]``. Either way the
coordinator's own rows for that wave are discarded — nothing was
applied yet. A contract bug in the coordinator's own chunk propagates
as in the serial engine, after the round's replies are drained so the
pipes stay in step.

Worker count resolution (:func:`resolve_workers`) honors
``REPRO_BENCH_WORKERS`` and rejects invalid values (0, negative,
non-integer) with a :class:`~repro.common.errors.ConfigError` instead of
a pool crash. It is the one parser of that knob: the sweep harness
(``repro.bench.harness.sweep``) calls it too.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, Sequence

import multiprocessing

from repro.common.errors import ConfigError, ExecutionError
from repro.common.types import OpType, Transaction
from repro.crypto.digests import sha256_hex
from repro.execution.conflict_index import wave_is_conflict_free
from repro.execution.contracts import ContractContext, ContractRegistry
from repro.execution.depgraph import partition_wave
from repro.execution.pipeline import ExecutionPipeline
from repro.execution.rwsets import RWSet, execute_with_capture
from repro.ledger.block import Block
from repro.ledger.store import (
    NEVER_WRITTEN,
    StateSnapshot,
    StateStore,
    Version,
    VersionedValue,
)

#: Environment variable sizing both the process pool and the benchmark
#: sweep harness, which reads it through :func:`resolve_workers`.
WORKERS_ENV = "REPRO_BENCH_WORKERS"

#: Seconds the coordinator waits for a wave reply before declaring the
#: pool dead and degrading to inline execution.
DEFAULT_WAVE_TIMEOUT = 30.0

#: Live counters surfaced as ``exec.*`` by
#: ``repro.bench.profiling.hotpath_counters``. Plain module state, like
#: STORE_COUNTERS: forked children get their own copies, so worker-side
#: activity never double-counts in the parent.
EXEC_COUNTERS = {
    "blocks_executed": 0,
    "waves_executed": 0,
    "waves_pooled": 0,
    "wave_fallbacks": 0,
    "pool_failures": 0,
    "tasks_shipped": 0,
    "delta_entries_shipped": 0,
    "oracle_checks": 0,
    "oracle_mismatches": 0,
}


def reset_exec_counters() -> None:
    for key in EXEC_COUNTERS:
        EXEC_COUNTERS[key] = 0


def resolve_workers(workers: int | None = None) -> int:
    """The worker count to size the pool with.

    Explicit ``workers`` wins; otherwise :data:`WORKERS_ENV` is
    consulted; otherwise 1 (in-process serial execution, no pool).
    Invalid values — 0, negative, booleans, non-integers — raise
    :class:`ConfigError` naming the offender, never crash the pool.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV)
        if raw is None or raw == "":
            return 1
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(
                f"{WORKERS_ENV} must be a positive integer, got {raw!r}"
            ) from None
        if value < 1:
            raise ConfigError(
                f"{WORKERS_ENV} must be a positive integer, got {value}"
            )
        return value
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ConfigError(
            f"workers must be a positive integer, got {workers!r}"
        )
    if workers < 1:
        raise ConfigError(f"workers must be a positive integer, got {workers}")
    return workers


# -- replica views -------------------------------------------------------------

#: What a replica returns for keys that are absent or deleted — value
#: None at NEVER_WRITTEN, exactly what ``StateStore.get_versioned``
#: reports for missing keys, so captured read versions match bit for bit.
_DELETED = VersionedValue(None, NEVER_WRITTEN)

#: Overlay-miss sentinel (None is a legal overlay entry via _DELETED).
_ABSENT = object()


class ReplicaStateView:
    """A shard-local replica: COW snapshot base plus a delta-fed overlay.

    Workers read through one of these (base = the snapshot inherited at
    fork, overlay = every delta the coordinator shipped since); the
    serial oracle replays through another (base = the pre-block
    snapshot, overlay = its own writes).
    """

    __slots__ = ("_base", "_overlay")

    def __init__(
        self,
        base: StateSnapshot,
        overlay: dict[str, VersionedValue] | None = None,
    ) -> None:
        self._base = base
        self._overlay = overlay if overlay is not None else {}

    def get_versioned(self, key: str) -> VersionedValue:
        entry = self._overlay.get(key, _ABSENT)
        if entry is not _ABSENT:
            return entry
        return self._base.get_versioned(key)

    def get(self, key: str, default: Any = None) -> Any:
        entry = self.get_versioned(key)
        return entry.value if entry.value is not None else default

    def apply_writes(self, writes: dict[str, Any], version: Version) -> None:
        """Install a committed write set (None values mean delete)."""
        for key, value in writes.items():
            self._overlay[key] = (
                _DELETED if value is None
                else VersionedValue(value, version)
            )

    def apply_delta(self, delta: "Delta") -> None:
        """Apply a coordinator delta batch, in shipped (= commit) order."""
        for key, value, height, tx_index in delta:
            self._overlay[key] = (
                _DELETED if value is None
                else VersionedValue(value, Version(height, tx_index))
            )


# -- IPC payloads --------------------------------------------------------------

#: One committed write: ``(key, value_or_None_for_delete, height, tx_index)``.
DeltaEntry = tuple[str, Any, int, int]
#: The writes committed since a worker last heard from the coordinator.
Delta = list[DeltaEntry]
#: One transaction to execute: ``(tx_index, tx_id, contract, args)``.
WaveTask = tuple[int, str, str, tuple]
#: One captured outcome: ``(tx_index, ok, reads, writes, result, cost)``.
ResultRow = tuple[int, bool, dict[str, Version], dict[str, Any], Any, float]


def pack_wave_tasks(
    indexes: Iterable[int], txs: Sequence[Transaction]
) -> list[WaveTask]:
    """The compact per-transaction payload shipped to workers."""
    return [
        (i, txs[i].tx_id, txs[i].contract, txs[i].args) for i in indexes
    ]


def _capture_task(
    registry: ContractRegistry, task: WaveTask, view: Any
) -> ResultRow:
    """Run one shipped task against ``view``; business-rule aborts are
    captured (ok=False, no writes), anything else propagates."""
    index, _tx_id, contract, args = task
    ctx = ContractContext(view)
    cost = registry.cost(contract)
    fn = registry.contract(contract)
    try:
        result = fn(ctx, *args)
    except ExecutionError:
        return (index, False, ctx.reads, {}, None, cost)
    return (index, True, ctx.reads, ctx.writes, result, cost)


def _row_to_rwset(row: ResultRow, tx_id: str) -> RWSet:
    index, ok, reads, writes, result, cost = row
    return RWSet(
        tx_id=tx_id, reads=reads, writes=writes, ok=ok, result=result,
        cost=cost,
    )


# -- wave levelling ------------------------------------------------------------

#: One transaction's declared ``(read keys, write keys)``.
KeySets = tuple[set[str], set[str]]

_READ = OpType.READ
_WRITE = OpType.WRITE


def declared_key_sets(txs: Sequence[Transaction]) -> list[KeySets]:
    """Each transaction's declared read and write keys, from one pass
    over its ``declared_ops``.

    The block-local form of ``Transaction.read_keys``/``write_keys``:
    the leveller and the per-wave conflict re-check both read these, so
    a block builds them once. A transaction without declared operations
    cannot be scheduled and raises :class:`ExecutionError`.
    """
    key_sets = []
    for tx in txs:
        if not tx.declared_ops:
            raise ExecutionError(
                f"OXII requires declared operations; tx {tx.tx_id} has none"
            )
        reads: set[str] = set()
        writes: set[str] = set()
        for op in tx.declared_ops:
            if op.op_type is not _WRITE:
                reads.add(op.key)
            if op.op_type is not _READ:
                writes.add(op.key)
        key_sets.append((reads, writes))
    return key_sets


def level_waves(key_sets: Sequence[KeySets]) -> list[list[int]]:
    """A block's conflict-free waves, in one pass of per-key levels.

    A transaction's level is one more than the highest level of any
    earlier accessor of a key it writes and of any earlier writer of a
    key it reads (0 when there is neither) — the longest-path level
    :meth:`~repro.execution.depgraph.DependencyGraph.waves` computes
    over ``build_dependency_graph``'s edges, which stays the reference.
    Wave k lists its members in block order.
    """
    accessed: dict[str, int] = {}  # key -> highest level touching it
    written: dict[str, int] = {}  # key -> highest level writing it
    waves: list[list[int]] = []
    for index, (reads, writes) in enumerate(key_sets):
        level = 0
        for key in writes:
            above = accessed.get(key, -1) + 1
            if above > level:
                level = above
        for key in reads:
            above = written.get(key, -1) + 1
            if above > level:
                level = above
        for key in writes:
            if written.get(key, -1) < level:
                written[key] = level
            if accessed.get(key, -1) < level:
                accessed[key] = level
        for key in reads:
            if accessed.get(key, -1) < level:
                accessed[key] = level
        if level == len(waves):
            waves.append([index])
        else:
            waves[level].append(index)
    return waves


# -- worker process ------------------------------------------------------------

# Set in the coordinator immediately before forking, inherited by the
# children through fork, cleared afterwards — the same idiom as the
# bench harness's _ACTIVE_JOB: nothing here is ever pickled.
_FORK_REGISTRY: ContractRegistry | None = None
_FORK_SNAPSHOT: StateSnapshot | None = None


def _worker_main(conn) -> None:
    """Worker loop: apply deltas, execute chunks, reply in one batch.

    Message protocol (one request, one reply, in order):

    * ``("wave", delta, tasks)`` -> ``("ok", rows)`` — sync the replica
      with ``delta``, execute ``tasks`` against the synced view (results
      are buffered, never self-applied), reply with every row.
    * ``("stop",)`` — exit.

    Unexpected exceptions reply ``("err", traceback)`` and keep the loop
    alive: the replica is still consistent because results are only ever
    applied coordinator-side.
    """
    registry = _FORK_REGISTRY
    base = _FORK_SNAPSHOT
    replica = ReplicaStateView(base)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        kind = message[0]
        if kind == "stop":
            conn.close()
            return
        try:
            if kind == "wave":
                _kind, delta, tasks = message
                replica.apply_delta(delta)
                view = ReplicaStateView(base, replica._overlay)
                rows = [_capture_task(registry, t, view) for t in tasks]
                reply = ("ok", rows)
            else:
                reply = ("err", f"unknown message kind {kind!r}")
        except BaseException:
            reply = ("err", traceback.format_exc())
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return


def _fork_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


# -- reports -------------------------------------------------------------------


@dataclass
class ParallelExecutionReport:
    """Outcome of executing one block through the parallel backend."""

    rwsets: list[RWSet] = field(default_factory=list)
    committed: int = 0
    failed: int = 0
    #: Serial sum of modelled contract costs (identical to the serial
    #: engine's ``modelled_cost`` — parallelism never changes it).
    modelled_cost: float = 0.0
    #: Modelled makespan with ``workers`` lanes and a barrier per wave.
    modelled_parallel_seconds: float = 0.0
    workers: int = 1
    backend: str = "serial"
    n_waves: int = 0
    #: Waves that degraded to inline execution (crash/timeout/verify).
    fallback_waves: int = 0
    oracle_checked: bool = False
    oracle_matches: bool = True
    #: The block's height: every committed write's version in the digest.
    height: int = 0

    @cached_property
    def state_digest(self) -> str:
        """Digest over the block's net committed effects (key, value,
        version) — equal digests mean byte-identical state transitions.
        Computed on first read, so executing a block never pays for it.
        """
        return block_effects_digest(self.rwsets, self.height)


def block_effects_digest(rwsets: Sequence[RWSet], height: int) -> str:
    """Digest of a block's cumulative committed effects.

    Folds every committed write (in block order, so last-writer-wins per
    key) plus each transaction's commit/abort decision. Two execution
    paths with equal digests produced byte-identical state transitions
    and identical abort decisions.
    """
    effects: dict[str, tuple[Any, int, int]] = {}
    decisions = []
    for index, rwset in enumerate(rwsets):
        decisions.append((index, rwset.ok))
        if rwset.ok:
            for key, value in rwset.writes.items():
                effects[key] = (repr(value), height, index)
    material = f"{sorted(effects.items())!r}|{decisions!r}"
    return sha256_hex(material)


# -- the executor --------------------------------------------------------------


class ParallelExecutor:
    """Process-pool wave executor bound to one registry and one store.

    ``workers`` lanes: the coordinator runs one itself and forks
    ``workers - 1`` children at construction, each inheriting an O(1)
    COW snapshot of ``store``; after that, **every write to the store
    must flow through** :meth:`execute_block` so worker replicas stay in
    sync — the coordinator ships the writes committed since the last
    round as the next round's delta, at most one IPC round per wave.
    Before dispatch, every wave is re-checked against its members'
    declared key sets; a wave that fails runs inline, one transaction at
    a time, instead.

    Use as a context manager, or call :meth:`close`; workers are daemonic
    either way, so leaked executors cannot outlive the parent.
    """

    def __init__(
        self,
        registry: ContractRegistry,
        store: StateStore,
        workers: int | None = None,
        *,
        wave_timeout: float = DEFAULT_WAVE_TIMEOUT,
        check_oracle: bool = True,
    ) -> None:
        self.registry = registry
        self.store = store
        self.workers = resolve_workers(workers)
        self.wave_timeout = wave_timeout
        self.check_oracle = check_oracle
        self.backend = "serial"
        self._procs: list[Any] = []
        self._conns: list[Any] = []
        self._unshipped: Delta = []
        if self.workers > 1:
            self._start_pool()

    # -- lifecycle -----------------------------------------------------------

    def _start_pool(self) -> None:
        context = _fork_context()
        if context is None:  # pragma: no cover - non-POSIX platforms
            EXEC_COUNTERS["pool_failures"] += 1
            return
        global _FORK_REGISTRY, _FORK_SNAPSHOT
        _FORK_REGISTRY = self.registry
        _FORK_SNAPSHOT = self.store.snapshot()
        try:
            for _ in range(self.workers - 1):
                parent_conn, child_conn = context.Pipe()
                proc = context.Process(
                    target=_worker_main, args=(child_conn,), daemon=True
                )
                proc.start()
                child_conn.close()
                self._procs.append(proc)
                self._conns.append(parent_conn)
            self.backend = "process-pool"
        finally:
            _FORK_REGISTRY = None
            _FORK_SNAPSHOT = None

    @property
    def pool_alive(self) -> bool:
        return self.backend == "process-pool" and bool(self._conns)

    def _mark_broken(self) -> None:
        """Kill the pool; every later wave runs inline (degraded mode)."""
        EXEC_COUNTERS["pool_failures"] += 1
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already gone
                pass
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=5.0)
        self._procs = []
        self._conns = []
        self.backend = "serial-degraded"

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already gone
                pass
        self._procs = []
        self._conns = []
        if self.backend == "process-pool":
            self.backend = "serial"

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- block execution -----------------------------------------------------

    def execute_block(self, block: Block) -> ParallelExecutionReport:
        """Execute ``block`` against the bound store, wave by wave.

        Equivalent to
        :func:`~repro.execution.serial.execute_block_serially` in commit
        sets, abort decisions, captured read/write sets, and resulting
        state — asserted against the serial oracle when ``check_oracle``
        is on (an :class:`ExecutionError` on divergence, counted in
        ``exec.oracle_mismatches``).
        """
        txs = list(block.transactions)
        height = block.height
        n = len(txs)
        report = ParallelExecutionReport(
            workers=self.workers, backend=self.backend, height=height
        )
        EXEC_COUNTERS["blocks_executed"] += 1
        if n == 0:
            report.oracle_checked = self.check_oracle
            return report
        key_sets = declared_key_sets(txs)
        waves = level_waves(key_sets)
        costs = [self.registry.cost(tx.contract) for tx in txs]
        report.n_waves = len(waves)
        report.modelled_parallel_seconds = self._modelled_makespan(
            waves, costs
        )
        oracle_rwsets: list[RWSet] | None = None
        if self.check_oracle:
            oracle_rwsets = self._serial_oracle(txs, height)

        rwsets: list[RWSet | None] = [None] * n
        for wave in waves:
            EXEC_COUNTERS["waves_executed"] += 1
            self._run_wave(wave, txs, key_sets, rwsets, height, report)

        report.rwsets = [rwset for rwset in rwsets if rwset is not None]
        for rwset in report.rwsets:
            report.modelled_cost += rwset.cost
            if rwset.ok:
                report.committed += 1
            else:
                report.failed += 1
        report.backend = self.backend

        if oracle_rwsets is not None:
            report.oracle_checked = True
            report.oracle_matches = self._check_oracle(
                report, oracle_rwsets, height
            )
        return report

    # -- wave plumbing -------------------------------------------------------

    def _run_wave(
        self,
        wave: list[int],
        txs: list[Transaction],
        key_sets: list[KeySets],
        rwsets: list[RWSet | None],
        height: int,
        report: ParallelExecutionReport,
    ) -> None:
        if self.pool_alive:
            if not wave_is_conflict_free([key_sets[i] for i in wave]):
                # The schedule disagrees with the declared sets that
                # produced it; shipping this wave to concurrent workers
                # would be unsound.
                EXEC_COUNTERS["wave_fallbacks"] += 1
                report.fallback_waves += 1
            else:
                rows = self._execute_wave_pooled(wave, txs)
                if rows is not None:
                    EXEC_COUNTERS["waves_pooled"] += 1
                    self._merge_wave(rows, rwsets, height)
                    return
                EXEC_COUNTERS["wave_fallbacks"] += 1
                report.fallback_waves += 1
        elif self.workers > 1:
            # Pool was requested but is gone — degraded mode.
            EXEC_COUNTERS["wave_fallbacks"] += 1
            report.fallback_waves += 1
        self._execute_wave_inline(wave, txs, rwsets, height)

    def _execute_wave_pooled(
        self, wave: list[int], txs: list[Transaction]
    ) -> list[tuple[int, RWSet]] | None:
        """At most one batched IPC round, with the coordinator running
        chunk 0 against the live store; None means fall back to inline.

        A conflict-free wave's members read nothing another member
        writes, so the live store (every write merged so far) is the
        view the children's replicas are synced to by this round's
        delta. Round-robin leaves chunk 1 empty only for a one-tx wave,
        which therefore sends nothing.
        """
        own, *shipped = partition_wave(wave, self.workers)
        dispatched = bool(shipped[0])
        if dispatched:
            delta = self._unshipped
            self._unshipped = []
            EXEC_COUNTERS["tasks_shipped"] += len(wave) - len(own)
            EXEC_COUNTERS["delta_entries_shipped"] += len(delta) * len(
                self._conns
            )
            try:
                for conn, chunk in zip(self._conns, shipped):
                    conn.send(("wave", delta, pack_wave_tasks(chunk, txs)))
            except (BrokenPipeError, OSError):
                self._mark_broken()
                return None
        try:
            rows = [
                (i, execute_with_capture(self.registry, txs[i], self.store))
                for i in own
            ]
        except BaseException:
            # A contract bug propagates as in the serial engine, once
            # this round's replies are read so the pipes stay in step.
            if dispatched:
                self._collect_replies(txs)
            raise
        if not dispatched:
            return rows
        replies = self._collect_replies(txs)
        return None if replies is None else rows + replies

    def _collect_replies(
        self, txs: list[Transaction]
    ) -> list[tuple[int, RWSet]] | None:
        """Every child's reply to the round just sent; None when a child
        replied with a traceback, died, or missed the wave timeout."""
        deadline = time.monotonic() + self.wave_timeout
        rows: list[tuple[int, RWSet]] = []
        worker_error: str | None = None
        for conn in self._conns:
            remaining = deadline - time.monotonic()
            try:
                if remaining <= 0 or not conn.poll(remaining):
                    self._mark_broken()
                    return None
                reply = conn.recv()
            except (EOFError, OSError):
                self._mark_broken()
                return None
            if reply[0] != "ok":
                # Worker replied with a traceback: its replica is still
                # consistent (results are never self-applied), so the
                # pool survives; this wave re-runs inline where a real
                # contract bug propagates like the serial engine's.
                worker_error = reply[1]
                continue
            for row in reply[1]:
                rows.append((row[0], _row_to_rwset(row, txs[row[0]].tx_id)))
        if worker_error is not None:
            return None
        return rows

    def _execute_wave_inline(
        self,
        wave: list[int],
        txs: list[Transaction],
        rwsets: list[RWSet | None],
        height: int,
    ) -> None:
        """In-process execution of one wave against the live store.

        Members run one at a time in block order, each merged before the
        next starts: serial semantics, so even a wave that failed the
        conflict re-check ends in the serial engine's state. For a
        conflict-free wave this is the view pooled workers get.
        """
        for i in wave:
            rwset = execute_with_capture(self.registry, txs[i], self.store)
            self._merge_wave([(i, rwset)], rwsets, height)

    def _merge_wave(
        self,
        rows: list[tuple[int, RWSet]],
        rwsets: list[RWSet | None],
        height: int,
    ) -> None:
        """Deterministic merge: block order, original versions, and the
        delta buffer for the next wave's worker sync."""
        rows.sort(key=lambda row: row[0])
        for index, rwset in rows:
            rwsets[index] = rwset
            if rwset.ok:
                version = Version(height=height, tx_index=index)
                self.store.apply_writes(rwset.writes, version)
                for key, value in rwset.writes.items():
                    self._unshipped.append((key, value, height, index))

    def _modelled_makespan(
        self, waves: list[list[int]], costs: list[float]
    ) -> float:
        """Modelled wall time with ``workers`` lanes, barrier per wave."""
        pipeline = ExecutionPipeline(depth=self.workers)
        barrier = 0.0
        for wave in waves:
            for i in wave:
                pipeline.claim(barrier, costs[i])
            barrier = pipeline.last_done
            pipeline.reset(barrier)
        return barrier

    # -- the serial oracle ---------------------------------------------------

    def _serial_oracle(
        self, txs: list[Transaction], height: int
    ) -> list[RWSet]:
        """The modelled serial timeline: strict block order against the
        pre-block snapshot, each commit applied before the next read."""
        EXEC_COUNTERS["oracle_checks"] += 1
        view = ReplicaStateView(self.store.snapshot())
        rwsets = []
        for index, tx in enumerate(txs):
            rwset = execute_with_capture(self.registry, tx, view)
            if rwset.ok:
                view.apply_writes(
                    rwset.writes, Version(height=height, tx_index=index)
                )
            rwsets.append(rwset)
        return rwsets

    def _check_oracle(
        self,
        report: ParallelExecutionReport,
        oracle_rwsets: list[RWSet],
        height: int,
    ) -> bool:
        oracle_digest = block_effects_digest(oracle_rwsets, height)
        divergence = None
        if len(oracle_rwsets) != len(report.rwsets):
            divergence = (
                f"row counts differ ({len(report.rwsets)} parallel vs "
                f"{len(oracle_rwsets)} serial)"
            )
        else:
            for index, (mine, theirs) in enumerate(
                zip(report.rwsets, oracle_rwsets)
            ):
                if mine.ok != theirs.ok:
                    divergence = (
                        f"tx {index} ({mine.tx_id}): parallel "
                        f"{'committed' if mine.ok else 'aborted'}, serial "
                        f"{'committed' if theirs.ok else 'aborted'}"
                    )
                    break
                if mine.digest() != theirs.digest():
                    divergence = (
                        f"tx {index} ({mine.tx_id}): read/write sets "
                        "diverge between parallel and serial execution"
                    )
                    break
            if divergence is None and report.state_digest != oracle_digest:
                divergence = "cumulative state digests diverge"
        if divergence is None:
            return True
        EXEC_COUNTERS["oracle_mismatches"] += 1
        raise ExecutionError(
            "parallel execution diverged from the serial oracle: "
            + divergence
            + " (a transaction touched keys outside its declared "
            "read/write set?)"
        )


def execute_block_parallel(
    block: Block,
    store: StateStore,
    registry: ContractRegistry,
    workers: int | None = None,
    **kwargs: Any,
) -> ParallelExecutionReport:
    """One-shot convenience: pool up, execute ``block``, tear down.

    Reuse a :class:`ParallelExecutor` instead when executing many blocks
    — pool forking is the expensive part, and a held executor ships only
    per-wave deltas.
    """
    with ParallelExecutor(registry, store, workers, **kwargs) as executor:
        return executor.execute_block(block)
