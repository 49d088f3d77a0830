"""The seven workloads: inputs from a seed, a timed section, an oracle.

Each workload builds everything it needs from ``(seed, sizes)`` in
:meth:`setup`, does its measured work inside the ``section`` context
the harness hands to :meth:`timed` (and only there), and returns a
:class:`Sample`. The program under test sees generated inputs only;
no ``src/`` file is edited or special-cased for the benchmark.

The layers are measured from outside: every call into the program goes
through a public function named in ``tracing.TRACE_POINTS`` or listed
in the README's "pinned public surface".
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import math
import multiprocessing
import os
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ContextManager, Iterable

from repro.consensus import PROTOCOLS, ConsensusCluster
from repro.core import SystemConfig
from repro.execution import ParallelExecutor, block_effects_digest
from repro.execution.contracts import ContractRegistry, standard_registry
from repro.execution.serial import execute_block_serially
from repro.gateway import GatewayConfig, GatewayRun
from repro.ledger.block import Block, genesis_block
from repro.ledger.chain import Blockchain
from repro.ledger.store import StateStore, Version
from repro.sim.network import LanLatency
from repro.storage.backend import OsBackend
from repro.storage.codec import state_root
from repro.storage.durable import ChainTail, DurableLedger
from repro.storage.paged import BlockCache, PagedStateStore
from repro.storage.snapshots import SnapshotStore, SpillBuffer, is_run_name
from repro.storage.wal import SEGMENT_PREFIX
from repro.workloads.kv import KvWorkload
from repro.workloads.openloop import (
    OpenLoopConfig,
    OpenLoopWorkload,
    ScalableZipfSampler,
    ramp_steady_burst,
)

from stackbench.counters import (
    CountingBackend,
    hit_rate,
    ratio,
    read_counters,
)

Section = Callable[[], ContextManager[None]]


@dataclass
class Sample:
    """What one timed pass measured.

    ``ops`` were attempted in ``wall_s`` seconds. ``failed`` counts
    operations that ended in a state the workload's oracle does not
    allow (lost, timed out, wrong answer); ``refused`` counts explicit
    refusals — sheds and MVCC aborts — which are correct behaviour but
    still failures to the user. Only the rest, :attr:`ok`, count
    towards ``wall_tx_per_s`` and ``ok_share``, so work the system
    sheds or aborts never reads as throughput.
    ``fingerprint`` must be identical across same-seed passes.
    """

    ops: int
    wall_s: float
    failed: int = 0
    refused: int = 0
    end_to_end: dict[str, float] = field(default_factory=dict)
    layer: dict[str, float | None] = field(default_factory=dict)
    fingerprint: str = ""

    @property
    def ok(self) -> int:
        return self.ops - self.failed - self.refused


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(len(sorted_values) * pct / 100))
    return sorted_values[rank - 1]


def sha(material: Any) -> str:
    return hashlib.sha256(repr(material).encode()).hexdigest()


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux hosts
        return os.cpu_count() or 1


class Workload:
    """Base: a name, its sizes, and the four steps of one rep."""

    name = ""
    #: Unit sizes of one rep at the seed commit (README records why).
    sizes: dict[str, Any] = {}
    #: Overrides for ``--check``: small enough for the whole set < 20 s.
    check_sizes: dict[str, Any] = {}
    #: Timed sections run per ``setup`` (> 1 only where the timed
    #: section leaves what ``setup`` built untouched).
    passes = 1
    #: Reps (a set-up and its passes) in a run of ten seconds, chosen
    #: so a whole run takes about 13 s at the seed commit. The run
    #: length is fixed in work, not in time, so the statistics of a run
    #: do not depend on how fast the machine happened to be.
    reps_per_10s = 8

    def setup(self, seed: int, sizes: dict[str, Any], scratch: Path) -> Any:
        raise NotImplementedError

    def timed(self, state: Any, section: Section) -> Sample:
        raise NotImplementedError

    def verify(self, state: Any, sample: Sample, first: bool) -> list[str]:
        """Oracle failures, outside the timed section; ``first`` marks
        the rep that also runs the once-per-process audits."""
        return []

    def close(self, state: Any) -> None:
        """Stop processes and release files the rep opened."""


# -- frontdoor: client -> gateway -> ordering -> XOV commit --------------------


class Frontdoor(Workload):
    """Open-loop arrivals through ``GatewayRun("xov")`` at one load."""

    def __init__(self, name: str, offered_tps: float, steady_s: float,
                 check_steady_s: float, reps_per_10s: int) -> None:
        self.name = name
        self.reps_per_10s = reps_per_10s
        self.sizes = {
            "architecture": "xov", "offered_tps": offered_tps,
            "steady_s": steady_s, "clients": 200_000,
            "invalid_fraction": 0.01, "orderers": 4, "block_size": 50,
        }
        self.check_sizes = {"steady_s": check_steady_s}

    def setup(self, seed, sizes, scratch):
        workload = OpenLoopWorkload(OpenLoopConfig(
            clients=sizes["clients"],
            invalid_fraction=sizes["invalid_fraction"],
            phases=ramp_steady_burst(
                sizes["offered_tps"], steady=sizes["steady_s"]
            ),
            seed=seed,
        ))
        return GatewayRun(
            sizes["architecture"],
            workload,
            gateway_config=GatewayConfig(
                rate=100.0, burst=10.0, queue_capacity=300,
                max_in_flight=600, batch_size=sizes["block_size"],
            ),
            system_config=SystemConfig(
                orderers=sizes["orderers"], protocol="pbft",
                block_size=sizes["block_size"], seed=seed,
                max_time=workload.config.duration + 60.0,
            ),
        )

    def timed(self, run, section):
        with section():
            start = time.perf_counter()
            report = run.run()
            wall = time.perf_counter() - start
        latency = report.latency
        sheds = report.sheds
        shed = sum(sheds.values())
        accounted = (
            latency.committed + latency.aborted + shed + latency.timeouts
        )
        end_to_end, admit, order, commit = [], [], [], []
        for trace in run.ledger:
            if trace.status == "committed":
                end_to_end.append(trace.commit - trace.submit)
                admit.append(trace.admit - trace.submit)
                order.append(trace.order - trace.admit)
                commit.append(trace.commit - trace.order)
        for values in (end_to_end, admit, order, commit):
            values.sort()
        system, sim = run.system, run.system.sim
        counters = run.gateway.counters
        cache = run.membership.cache_stats
        program = read_counters()
        decisions = min(
            len(replica.decided)
            for replica in system.cluster.replicas.values()
        )
        messages = sim.metrics.get("net.messages")
        decide_times: dict[int, list[float]] = {}
        for (_node, seq), at in getattr(
            system.cluster, "_decide_times", {}
        ).items():
            decide_times.setdefault(seq, []).append(at)
        spreads = sorted(max(t) - min(t) for t in decide_times.values())
        blocks = system.ledger.height
        return Sample(
            ops=latency.arrivals,
            wall_s=wall,
            failed=latency.timeouts + abs(latency.arrivals - accounted),
            refused=latency.aborted + shed,
            end_to_end={
                "virt_goodput_tps":
                    latency.committed / run.workload.config.duration,
                "p50_latency_s": percentile(end_to_end, 50),
                "p99_latency_s": percentile(end_to_end, 99),
            },
            layer={
                "sim.events": sim.events_processed,
                "sim.events_per_wall_s": sim.events_processed / wall,
                "sim.network.messages": messages,
                "sim.network.bytes": sim.metrics.get("net.bytes"),
                "consensus.decisions": decisions,
                "consensus.msgs_per_decision": ratio(messages, decisions),
                "consensus.view_changes": max(
                    replica.view
                    for replica in system.cluster.replicas.values()
                ),
                "consensus.decide_spread_virt_s": percentile(spreads, 50),
                "gateway.admitted": counters["admitted"],
                **{f"gateway.shed.{reason}": count
                   for reason, count in sheds.items()},
                "gateway.retries": counters["retries"],
                "gateway.batches": counters["batches"],
                "gateway.txs_per_batch":
                    ratio(counters["admitted"], counters["batches"]),
                "gateway.admit_wait_virt_s": percentile(admit, 50),
                "gateway.order_wait_virt_s": percentile(order, 50),
                "gateway.commit_wait_virt_s": percentile(commit, 50),
                "crypto.sigcache.hit_rate":
                    ratio(cache["hits"], cache["hits"] + cache["misses"]),
                "crypto.merkle.nodes_hashed": program["merkle.nodes_hashed"],
                "crypto.merkle.leaf_cache_hit_rate": hit_rate(
                    program["merkle.leaf_cache_hits"],
                    program["merkle.leaves_hashed"]),
                "core.blocks": blocks,
                "core.txs_per_block": ratio(
                    sum(len(block.transactions) for block in system.ledger),
                    blocks),
                "core.abort.mvcc": sim.metrics.get("abort.mvcc_conflict"),
                "core.useful_share":
                    ratio(latency.committed, counters["admitted"]),
                "ledger.snapshot.count": program["store.snapshots_taken"],
                "workloads.arrivals.count": latency.arrivals,
            },
            fingerprint=report.fingerprint,
        )

    def verify(self, run, sample, first):
        problems = []
        if sample.failed:
            problems.append(
                f"{sample.failed} arrivals timed out or are unaccounted: "
                "arrivals != committed + aborted + shed + timeouts"
            )
        if sample.ok < 1:
            problems.append("no committed transaction")
        return problems


# -- ordering: one consensus instance per proposal -----------------------------


@dataclass
class OrderingState:
    cluster: ConsensusCluster
    due: dict[tuple, float]
    first: dict[tuple, float]
    last: dict[tuple, float]
    base: dict[str, float]
    settle_s: float


class Ordering(Workload):
    """Open-loop one-tx proposals into a bare consensus cluster."""

    def __init__(self, name: str, protocol: str, replicas: int,
                 reps_per_10s: int) -> None:
        self.name = name
        self.reps_per_10s = reps_per_10s
        self.sizes = {
            "protocol": protocol, "replicas": replicas, "proposals": 600,
            "rate_tps": 400.0, "settle_s": 2.0,
        }
        self.check_sizes = {"proposals": 80}

    def setup(self, seed, sizes, scratch):
        replica_cls, byzantine = PROTOCOLS[sizes["protocol"]]
        first: dict[tuple, float] = {}
        last: dict[tuple, float] = {}

        def on_decide(_node: str, _seq: int, value: Any) -> None:
            now = cluster.sim.now
            first.setdefault(value, now)
            last[value] = now

        cluster = ConsensusCluster(
            replica_cls, n=sizes["replicas"], byzantine=byzantine,
            seed=seed, latency=LanLatency(), decide_listener=on_decide,
        )
        # Let timers arm and (Raft) a leader win its election before
        # the first proposal is due.
        cluster.sim.run(until=sizes["settle_s"])
        # Clients hand their proposals to the leader, whichever replica
        # the seed made it: through a follower every decision costs one
        # more hop, and the seeds whose leader is not the first replica
        # (seven of ten) would measure that hop as well.
        leader = _leader(cluster)
        # A Poisson process given its count: the proposals fall
        # independently and uniformly over a window of proposals / rate
        # seconds, so every seed offers the same load for the same time.
        rng = random.Random(seed)
        window = sizes["proposals"] / sizes["rate_tps"]
        times = sorted(
            sizes["settle_s"] + rng.random() * window
            for _ in range(sizes["proposals"])
        )
        due = {}
        for index, at in enumerate(times):
            value = (f"p{index:06d}",)
            due[value] = at
            cluster.sim.schedule_at(at, cluster.submit, value, leader)
        metrics = cluster.sim.metrics
        base = {
            "events": cluster.sim.events_processed,
            "messages": metrics.get("net.messages"),
            "bytes": metrics.get("net.bytes"),
            "leader_changes": _leader_changes(cluster),
        }
        return OrderingState(cluster, due, first, last, base,
                             sizes["settle_s"])

    def timed(self, state, section):
        cluster, sim = state.cluster, state.cluster.sim
        with section():
            start = time.perf_counter()
            cluster.run_until_decided(
                len(state.due), timeout=60.0, max_events=50_000_000
            )
            wall = time.perf_counter() - start
        decided = [value for value in state.due if value in state.first]
        latencies = sorted(
            state.first[value] - state.due[value] for value in decided
        )
        spreads = sorted(
            state.last[value] - state.first[value] for value in decided
        )
        # From the window's start to the last decision: a backlog that
        # outlasts the arrivals lowers the goodput.
        busy_s = max(state.first.values(), default=0.0) - state.settle_s
        events = sim.events_processed - state.base["events"]
        messages = sim.metrics.get("net.messages") - state.base["messages"]
        return Sample(
            ops=len(state.due),
            wall_s=wall,
            failed=len(state.due) - len(decided),
            end_to_end={
                "virt_goodput_tps": ratio(len(decided), busy_s) or 0.0,
                "p50_latency_s": percentile(latencies, 50),
                "p99_latency_s": percentile(latencies, 99),
            },
            layer={
                "sim.events": events,
                "sim.events_per_wall_s": events / wall,
                "sim.network.messages": messages,
                "sim.network.bytes":
                    sim.metrics.get("net.bytes") - state.base["bytes"],
                "consensus.decisions": len(decided),
                "consensus.msgs_per_decision": ratio(messages, len(decided)),
                "consensus.view_changes":
                    _leader_changes(cluster) - state.base["leader_changes"],
                "consensus.decide_spread_virt_s": percentile(spreads, 50),
                "workloads.arrivals.count": len(state.due),
            },
            fingerprint=sha(sorted(state.first.items())),
        )

    def verify(self, state, sample, first):
        problems = []
        if not state.cluster.agreement_holds():
            problems.append("replicas' decided logs are not prefix-consistent")
        if sample.failed:
            problems.append(f"{sample.failed} proposals never decided")
        return problems


def _leader(cluster: ConsensusCluster) -> str | None:
    """The replica leading now: Raft's elected leader; None where the
    protocol has no such role to read (PBFT: the first replica is view
    0's primary, and ``submit`` goes through it by default)."""
    for node_id, replica in cluster.replicas.items():
        if getattr(getattr(replica, "role", None), "name", "") == "LEADER":
            return node_id
    return None


def _leader_changes(cluster: ConsensusCluster) -> int:
    """Highest view (PBFT) or term (Raft) any replica has reached."""
    return max(
        getattr(replica, "view", getattr(replica, "term", 0))
        for replica in cluster.replicas.values()
    )


# -- exec_parallel: the process pool against the serial engine -----------------


def _spin(token: Any, rounds: int) -> int:
    """Deterministic busy work, identical in workers and serially."""
    digest = repr(token).encode()
    for _ in range(rounds):
        digest = hashlib.sha256(digest).digest()
    return digest[0]


def pin_one_per_core(pids: Iterable[int]) -> None:
    """Give each pool worker a core of its own; the coordinator stays
    free. Left to itself this sandbox's scheduler stacks both workers
    on one core for seconds at a time — 14.7k against 21.4k tx/s
    through the pool, ten alternating passes each — and the pool's rate
    would measure the scheduler's mood, not the program."""
    if not hasattr(os, "sched_setaffinity"):  # non-Linux hosts
        return
    cores = sorted(os.sched_getaffinity(0))
    for index, pid in enumerate(sorted(pids)):
        os.sched_setaffinity(pid, {cores[index % len(cores)]})


def heavy_registry(rounds: int) -> ContractRegistry:
    """The stock KV contracts with a sha256 spin of ``rounds``
    iterations per touched key, so a transaction costs compute."""
    registry = ContractRegistry()

    def kv_set(ctx, key, value):
        _spin((key, value), rounds)
        ctx.put(key, value)
        return value

    def increment(ctx, key, amount=1):
        _spin((key, amount), rounds)
        updated = ctx.get(key, 0) + amount
        ctx.put(key, updated)
        return updated

    def read_many(ctx, *keys):
        for key in keys:
            _spin(key, rounds)
        return [ctx.get(key) for key in keys]

    registry.register("kv_set", kv_set)
    registry.register("increment", increment)
    registry.register("read_many", read_many)
    return registry


def kv_chain(workload: KvWorkload, blocks: int, block_txs: int,
             prefix: str) -> Blockchain:
    """``blocks`` chained blocks of ``block_txs`` transactions, with
    ids derived from position (``Transaction.create`` numbers them from
    a process-global counter, which would differ from rep to rep)."""
    chain = Blockchain()
    for height in range(1, blocks + 1):
        txs = [
            dataclasses.replace(tx, tx_id=f"{prefix}{height:04d}{index:05d}")
            for index, tx in enumerate(workload.generate(block_txs))
        ]
        chain.append(chain.next_block(txs, timestamp=float(height)))
    return chain


@dataclass
class ExecState:
    chain: Blockchain
    registry: ContractRegistry
    store: StateStore
    twin: StateStore
    executor: ParallelExecutor
    pool_start_s: float
    sizes: dict[str, Any]


class ExecParallel(Workload):
    name = "exec_parallel"
    reps_per_10s = 11
    sizes = {
        "blocks": 4, "block_txs": 2000, "spin": 60, "theta": 0.2,
        "workers": min(2, usable_cores()), "audit_blocks": 1,
    }
    check_sizes = {"blocks": 2, "block_txs": 300, "audit_blocks": 2}

    def setup(self, seed, sizes, scratch):
        chain = kv_chain(
            KvWorkload(
                n_keys=4 * sizes["block_txs"], theta=sizes["theta"],
                read_fraction=0.2, rmw_fraction=0.6, seed=seed,
            ),
            sizes["blocks"], sizes["block_txs"], "e",
        )
        registry = heavy_registry(sizes["spin"])
        store = StateStore()
        others = set(multiprocessing.active_children())
        start = time.perf_counter()
        executor = ParallelExecutor(
            registry, store, sizes["workers"], check_oracle=False
        )
        pool_start_s = time.perf_counter() - start
        pin_one_per_core(
            child.pid for child in multiprocessing.active_children()
            if child not in others
        )
        return ExecState(chain, registry, store, StateStore(), executor,
                         pool_start_s, sizes)

    def timed(self, state, section):
        blocks = [
            state.chain.block(height)
            for height in range(1, state.chain.height + 1)
        ]
        pooled, serial, pool_walls, serial_walls = [], [], [], []
        with section():
            # Block by block, the pool and then the serial engine on
            # its twin store: both rates see the same seconds of the
            # host, whose speed wanders, so their ratio holds still.
            for block in blocks:
                start = time.perf_counter()
                pooled.append(state.executor.execute_block(block))
                middle = time.perf_counter()
                serial.append(execute_block_serially(
                    block, state.twin, state.registry
                ))
                end = time.perf_counter()
                pool_walls.append(middle - start)
                serial_walls.append(end - middle)
        pool_wall, serial_wall = sum(pool_walls), sum(serial_walls)
        ops = sum(len(block.transactions) for block in blocks)
        # A transaction is done when its block is.
        latencies = sorted(
            wall for block, wall in zip(blocks, pool_walls)
            for _ in block.transactions
        )
        counters = read_counters()
        pool_digests = [report.state_digest for report in pooled]
        serial_digests = [
            block_effects_digest(report.rwsets, block.height)
            for report, block in zip(serial, blocks)
        ]
        mismatched = sum(
            len(block.transactions)
            for block, a, b in zip(blocks, pool_digests, serial_digests)
            if a != b
        )
        workers = state.sizes["workers"]
        return Sample(
            ops=ops,
            wall_s=pool_wall,
            failed=mismatched,
            end_to_end={
                "p50_latency_s": percentile(latencies, 50),
                "p99_latency_s": percentile(latencies, 99),
                "pool_speedup": serial_wall / pool_wall,
            },
            layer={
                "execution.serial.wall_tx_per_s": ops / serial_wall,
                "execution.pool.waves": counters["exec.waves_executed"],
                "execution.pool.tasks_shipped":
                    counters["exec.tasks_shipped"],
                "execution.pool.delta_entries_shipped":
                    counters["exec.delta_entries_shipped"],
                "execution.pool.start_s": state.pool_start_s,
                "execution.pool.efficiency":
                    serial_wall / (workers * pool_wall),
                "execution.pool.wave_fallbacks":
                    sum(report.fallback_waves for report in pooled),
                "execution.pool.failures": counters["exec.pool_failures"],
                "execution.oracle_mismatches":
                    counters["exec.oracle_mismatches"],
                "ledger.snapshot.count": counters["store.snapshots_taken"],
                "workloads.arrivals.count": ops,
            },
            fingerprint=sha(pool_digests),
        )

    def verify(self, state, sample, first):
        problems = []
        if sample.failed:
            problems.append(
                f"{sample.failed} transactions in blocks whose pool "
                "effects digest != serial"
            )
        if not state.store.same_state_as(state.twin):
            problems.append("pool end state differs from the serial twin's")
        if sample.layer["execution.pool.wave_fallbacks"]:
            problems.append("a wave fell back to inline execution")
        if state.sizes["workers"] > 1 and state.executor.backend != (
            "process-pool"
        ):
            problems.append(f"pool backend is {state.executor.backend!r}")
        if first:
            problems.extend(self._audit(state))
        return problems

    def _audit(self, state: ExecState) -> list[str]:
        """The executor's own per-block serial oracle, on a fresh pool,
        outside the timed reps (it replays every block serially)."""
        with ParallelExecutor(
            state.registry, StateStore(), state.sizes["workers"],
            check_oracle=True,
        ) as executor:
            for height in range(1, state.sizes["audit_blocks"] + 1):
                report = executor.execute_block(state.chain.block(height))
                if not (report.oracle_checked and report.oracle_matches):
                    return [f"serial oracle mismatch at block {height}"]
        return []

    def close(self, state):
        state.executor.close()


# -- durable_commit: the write path on real files ------------------------------


def file_kind(name: str) -> str:
    if name.startswith(SEGMENT_PREFIX):
        return "wal"
    return "run" if is_run_name(name) else "other"


def logical_bytes(key: str, value: Any) -> int:
    """Codec-independent size of one state entry: what the user wrote."""
    return len(key) + len(repr(value))


class CommitLoop:
    """``DurableNode._commit_block``, step for step, without the node.

    The durable tier's commit path lives inside a simulated
    ``DurableNode``; this is the same sequence of public calls —
    execute serially, mirror committed writes into the spill buffer,
    compute the state root, append the WAL record, maybe snapshot (and
    collapse a paged store onto the new run set). ``test_stackbench``
    feeds a ``DurableCluster`` and this loop the same blocks and
    requires the same state root and WAL record count.
    """

    def __init__(self, ledger: DurableLedger) -> None:
        self.ledger = ledger
        self.registry = standard_registry()
        self.tail = ChainTail(genesis_block())
        self.store: StateStore = StateStore()
        self.spill = SpillBuffer()
        self.root = ""
        self.written_bytes = 0

    def adopt(self, recovered) -> None:
        self.tail, self.store = recovered.tail, recovered.store
        self.spill = recovered.spill

    def commit(self, block: Block) -> None:
        self.tail.append(block)
        report = execute_block_serially(block, self.store, self.registry)
        for index, rwset in enumerate(report.rwsets):
            if rwset.ok:
                self.spill.apply_writes(
                    rwset.writes, Version(block.height, index)
                )
                for key, value in rwset.writes.items():
                    self.written_bytes += logical_bytes(key, value)
        self.root = state_root(self.store)
        self.ledger.commit_block(block, self.root)
        if self.ledger.maybe_snapshot(block, self.root, self.spill):
            self.spill = SpillBuffer()
            if isinstance(self.store, PagedStateStore):
                manifest = self.ledger.snapshots.read_manifest() or {}
                self.store.collapse(manifest.get("runs", ()))


@dataclass
class DurableState:
    directory: Path
    chain: Blockchain
    loop: CommitLoop
    backend: CountingBackend
    sizes: dict[str, Any]
    recovered: Any = None


class DurableCommit(Workload):
    name = "durable_commit"
    reps_per_10s = 6
    sizes = {
        "n_keys": 20_000, "theta": 0.6, "block_txs": 100,
        "setup_blocks": 28, "timed_blocks": 27, "recover_cycles": 9,
        "fsync_policy": "group:4", "snapshot_interval": 8,
        "cache_bytes": 256 * 1024, "compaction": "tiered",
        "overlay_budget_bytes": 64 * 1024,
    }
    check_sizes = {
        "n_keys": 2_000, "block_txs": 20, "setup_blocks": 12,
        "timed_blocks": 11, "recover_cycles": 2,
    }

    def __init__(self) -> None:
        self._oracle_roots: dict[tuple, str] = {}

    def open(self, directory: Path, sizes) -> tuple[DurableLedger, Any]:
        backend = CountingBackend(OsBackend(directory), file_kind)
        ledger = DurableLedger(
            backend,
            policy=sizes["fsync_policy"],
            snapshot_interval=sizes["snapshot_interval"],
            paged=True,
            cache_bytes=sizes["cache_bytes"],
            compaction=sizes["compaction"],
            overlay_budget_bytes=sizes["overlay_budget_bytes"],
        )
        return ledger, backend

    def setup(self, seed, sizes, scratch):
        chain = kv_chain(
            KvWorkload(
                n_keys=sizes["n_keys"], theta=sizes["theta"],
                read_fraction=0.1, rmw_fraction=0.5, seed=seed,
            ),
            sizes["setup_blocks"] + sizes["timed_blocks"],
            sizes["block_txs"], "d",
        )
        directory = scratch / "durable"
        ledger, backend = self.open(directory, sizes)
        loop = CommitLoop(ledger)
        for height in range(1, sizes["setup_blocks"] + 1):
            loop.commit(chain.block(height))
        ledger.flush()
        backend.close()
        # Restart, so the timed commits run on the paged store a
        # long-lived node serves from, not on the in-memory one.
        ledger, backend = self.open(directory, sizes)
        loop = CommitLoop(ledger)
        loop.adopt(ledger.recover(standard_registry))
        return DurableState(directory, chain, loop, backend, sizes)

    def timed(self, state, section):
        sizes, loop, backend = state.sizes, state.loop, state.backend
        blocks = [
            state.chain.block(height)
            for height in range(sizes["setup_blocks"] + 1,
                                state.chain.height + 1)
        ]
        recoveries, latencies = [], []
        with section():
            start = time.perf_counter()
            for block in blocks:
                begun = time.perf_counter()
                loop.commit(block)
                backend.mark()
                # A transaction is done when its block is.
                latencies += [time.perf_counter() - begun] * len(
                    block.transactions
                )
            loop.ledger.flush()
            commit_wall = time.perf_counter() - start
            for _ in range(sizes["recover_cycles"]):
                backend.close()
                start = time.perf_counter()
                ledger, reopened = self.open(state.directory, sizes)
                state.recovered = ledger.recover(standard_registry)
                recoveries.append(time.perf_counter() - start)
                backend = reopened
        state.backend.close()
        backend.close()
        ops = sum(len(block.transactions) for block in blocks)
        counters = read_counters()
        written = state.backend.written
        live_bytes = sum(
            logical_bytes(key, entry.value)
            for key, entry in state.recovered.store.items()
        )
        recovered_store = state.recovered.store
        return Sample(
            ops=ops,
            wall_s=commit_wall,
            end_to_end={
                "p50_latency_s": percentile(sorted(latencies), 50),
                "p99_latency_s": percentile(sorted(latencies), 99),
                "wall_recoveries_per_s": 1 / statistics.median(recoveries),
                "write_amp":
                    state.backend.total_written / loop.written_bytes,
                "space_amp": state.backend.bytes_on_disk() / live_bytes,
            },
            layer={
                "crypto.merkle.nodes_hashed": counters["merkle.nodes_hashed"],
                "crypto.merkle.leaf_cache_hit_rate": hit_rate(
                    counters["merkle.leaf_cache_hits"],
                    counters["merkle.leaves_hashed"]),
                "ledger.snapshot.count": counters["store.snapshots_taken"],
                "ledger.overlay_resident_peak_bytes":
                    counters["store.overlay_resident_peak"],
                "storage.wal.bytes": written["wal"],
                "storage.wal.fsyncs": state.backend.fsyncs["wal"],
                "storage.spill.bytes": counters["store.spill_bytes_written"],
                "storage.compaction.bytes":
                    counters["store.compaction_bytes_written"],
                "storage.compaction.tier_merges":
                    counters["tier_merges.total"],
                "storage.budget_spills": counters["store.budget_spills"],
                "storage.max_commit_bytes": state.backend.max_commit_bytes,
                "storage.recover.replayed_blocks": state.recovered.replayed,
                "storage.recover.footers_opened":
                    len(recovered_store.run_names()),
                "storage.cache.hit_rate": hit_rate(
                    counters["store.block_cache_hits"],
                    counters["store.block_cache_misses"]),
                "storage.cache.evictions":
                    counters["store.block_cache_evictions"],
                "storage.filter_skips": counters["store.filter_skips"],
                "storage.run_count": len(recovered_store.run_names()),
                "workloads.arrivals.count": ops,
            },
            fingerprint=loop.root,
        )

    def verify(self, state, sample, first):
        problems = []
        recovered = state.recovered
        if recovered.resync or recovered.torn:
            problems.append("recovery fell back to resync / found a torn tail")
        if recovered.replayed < 1:
            problems.append("the WAL tail was empty: recovery replayed nothing")
        if recovered.tail.height != state.chain.height:
            problems.append(
                f"recovered height {recovered.tail.height} != "
                f"{state.chain.height}"
            )
        recovered_root = state_root(recovered.store)
        if recovered_root != state.loop.root:
            problems.append("recovered state root != pre-crash state root")
        if recovered_root != self._oracle_root(state):
            problems.append("state root != in-memory serial oracle's root")
        return problems

    def _oracle_root(self, state: DurableState) -> str:
        """Root of the whole chain executed serially on a plain
        in-memory store; inputs repeat across reps, so computed once."""
        key = (state.chain.tip_hash(),)
        if key not in self._oracle_roots:
            store = StateStore()
            registry = standard_registry()
            for height in range(1, state.chain.height + 1):
                execute_block_serially(
                    state.chain.block(height), store, registry
                )
            self._oracle_roots[key] = state_root(store)
        return self._oracle_roots[key]


# -- paged_read: point gets and range scans over run files ---------------------


def scan_rows(store: PagedStateStore, start: str, end: str) -> list:
    """Consume one range scan (``scan`` is lazy; the work is in the
    iteration). Also the ``storage.scan`` trace point."""
    return list(store.scan(start, end))


@dataclass
class PagedState:
    backend: OsBackend
    cache_bytes: int
    oracle: dict[str, str]
    probes: list[str]
    ranges: list[tuple[str, str]]
    runs: list[dict[str, Any]]
    gets: list[Any] = field(default_factory=list)
    scans: list[list] = field(default_factory=list)


class PagedRead(Workload):
    name = "paged_read"
    #: The timed section only reads, so one built state serves several
    #: passes; building it costs as much as a pass.
    passes = 3
    reps_per_10s = 3
    sizes = {
        "keys": 40_000, "spills": 19, "gets": 10_000, "scans": 250,
        "scan_width": 100, "cache_bytes": 96 * 1024, "zipf_theta": 0.9,
        "absent_share": 0.02, "compaction": "tiered",
    }
    check_sizes = {"keys": 4_000, "gets": 1_500, "scans": 40,
                   "cache_bytes": 16 * 1024}

    def setup(self, seed, sizes, scratch):
        rng = random.Random(seed)
        backend = OsBackend(scratch / "paged")
        snapshots = SnapshotStore(backend, policy=sizes["compaction"])
        manifest: dict[str, Any] = {"runs": [], "next_run_id": 1}
        keys = [f"key{index:07d}" for index in range(sizes["keys"])]
        order = list(range(len(keys)))
        rng.shuffle(order)
        per_spill = len(keys) // sizes["spills"]
        oracle: dict[str, str] = {}
        written = 0
        for spill in range(sizes["spills"]):
            buffer = SpillBuffer()
            for index in order[spill * per_spill:(spill + 1) * per_spill]:
                value = "v" * rng.randrange(8, 49)
                buffer.put(keys[index], value, Version(spill + 1, written))
                oracle[keys[index]] = value
                written += 1
            # 10 % of each later spill rewrites older keys; a tenth of
            # those rewrites are deletes (1 % of the spill).
            for _ in range(per_spill // 10 if spill else 0):
                key = keys[order[rng.randrange(spill * per_spill)]]
                if rng.random() < 0.1:
                    buffer.mark_deleted(key)
                    oracle.pop(key, None)
                else:
                    value = "w" * rng.randrange(8, 49)
                    buffer.put(key, value, Version(spill + 1, written))
                    oracle[key] = value
                written += 1
            manifest = snapshots.spill(buffer, manifest)
        zipf = ScalableZipfSampler(len(keys), sizes["zipf_theta"], rng)
        ranked = list(range(len(keys)))
        rng.shuffle(ranked)  # hot keys are spread over runs and blocks
        probes = [
            f"absent{rng.randrange(10 ** 6):06d}"
            if rng.random() < sizes["absent_share"]
            else keys[ranked[zipf.sample()]]
            for _ in range(sizes["gets"])
        ]
        ranges = []
        for _ in range(sizes["scans"]):
            first = rng.randrange(len(keys) - sizes["scan_width"])
            ranges.append(
                (keys[first], keys[first + sizes["scan_width"] - 1])
            )
        return PagedState(backend, sizes["cache_bytes"], oracle, probes,
                          ranges, list(manifest["runs"]))

    def timed(self, state, section):
        with section():
            # Every pass opens the run files anew: footers re-read, the
            # program's block cache cold (the OS page cache is not).
            store = PagedStateStore(
                state.backend, state.runs, BlockCache(state.cache_bytes)
            )
            start = time.perf_counter()
            clock, stamps, gets = time.perf_counter, [start], []
            for key in state.probes:
                gets.append(store.get(key))
                stamps.append(clock())
            state.gets = gets
            middle = time.perf_counter()
            state.scans = [
                scan_rows(store, first, last) for first, last in state.ranges
            ]
            end = time.perf_counter()
        get_wall, scan_wall = middle - start, end - middle
        latencies = sorted(
            after - before for before, after in zip(stamps, stamps[1:])
        )
        rows = sum(len(found) for found in state.scans)
        counters = read_counters()
        return Sample(
            ops=len(state.probes),
            wall_s=get_wall,
            end_to_end={
                "p50_latency_s": percentile(latencies, 50),
                "p99_latency_s": percentile(latencies, 99),
                "wall_scan_rows_per_s": rows / scan_wall,
            },
            layer={
                "storage.cache.hit_rate": hit_rate(
                    counters["store.block_cache_hits"],
                    counters["store.block_cache_misses"]),
                "storage.cache.evictions":
                    counters["store.block_cache_evictions"],
                "storage.filter_skips": counters["store.filter_skips"],
                "storage.blocks_decoded_per_get": ratio(
                    counters["store.block_cache_misses"], len(state.probes)
                ),
                "storage.range_decodes_per_scan": ratio(
                    counters["store.range_block_decodes"], len(state.ranges)
                ),
                "storage.run_count": len(state.runs),
                "workloads.arrivals.count": len(state.probes),
            },
            fingerprint=sha((state.gets, rows)),
        )

    def verify(self, state, sample, first):
        problems = []
        tiers = {int(run.get("tier", 0)) for run in state.runs}
        if len(state.runs) < 4 or len(tiers) < 2:
            problems.append(
                f"state is {len(state.runs)} runs over tiers "
                f"{sorted(tiers)}; want >= 4 runs over >= 2 tiers"
            )
        wrong = sum(
            got != state.oracle.get(key)
            for key, got in zip(state.probes, state.gets)
        )
        live = sorted(state.oracle)
        for (start, end), found in zip(state.ranges, state.scans):
            expected = live[
                bisect.bisect_left(live, start):bisect.bisect_right(live, end)
            ]
            if [(key, entry.value) for key, entry in found] != [
                (key, state.oracle[key]) for key in expected
            ]:
                wrong += 1
        if wrong:
            problems.append(f"{wrong} gets/scans differ from the dict oracle")
            sample.failed += wrong
        return problems

    def close(self, state):
        state.backend.close()


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Frontdoor("frontdoor_steady", 400.0, 20.0, 1.0, reps_per_10s=11),
        Frontdoor("frontdoor_overload", 2400.0, 5.0, 0.5, reps_per_10s=16),
        Ordering("ordering_bft", "pbft", 7, reps_per_10s=8),
        Ordering("ordering_cft", "raft", 5, reps_per_10s=13),
        ExecParallel(),
        DurableCommit(),
        PagedRead(),
    )
}
