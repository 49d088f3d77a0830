"""Shared infrastructure for the sharded/clustered systems (section 2.3.4).

"Permissioned blockchain systems mainly use clustering to improve
scalability. Nodes are partitioned into fault-tolerant clusters where
each cluster processes (or at least orders) a disjoint set of
transactions."

This module wires the pieces every system in this package shares: one
simulation, one WAN network whose regions are the clusters, one
consensus cluster per shard, a per-shard store and ledger, and a
*port* node per cluster through which cross-cluster protocol traffic
flows (and is therefore charged WAN latency and counted as messages).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.common.errors import ConfigError, ValidationError
from repro.common.metrics import RunResult
from repro.common.types import Transaction, TxType
from repro.consensus import PROTOCOLS, ConsensusCluster
from repro.execution.conflict_index import KeyLockIndex
from repro.execution.contracts import ContractRegistry
from repro.execution.rwsets import RWSet, execute_with_capture
from repro.ledger.chain import Blockchain
from repro.ledger.store import StateStore, Version
from repro.sim.core import Simulation
from repro.sim.network import LanLatency, Network, WanLatency
from repro.sim.node import Node


@dataclass
class ShardedConfig:
    """Deployment knobs shared by all sharded systems."""

    n_clusters: int = 4
    nodes_per_cluster: int = 4
    protocol: str = "pbft"
    trusted_hardware: bool = False
    #: One-way latency between any two distinct clusters (seconds).
    wan_latency: float = 0.05
    seed: int = 0
    arrival_rate: float | None = 1000.0
    max_time: float = 600.0

    def __post_init__(self) -> None:
        if self.n_clusters < 1:
            raise ConfigError("need at least one cluster")


class ClusterPort(Node):
    """A cluster's endpoint for cross-cluster protocol messages.

    Cross-shard coordination (2PC votes, flattened consensus rounds,
    hierarchical forwarding) flows port-to-port over the WAN, so each
    hop pays inter-region latency and appears in the message counts.
    """

    def __init__(self, node_id, sim, network, handler) -> None:
        super().__init__(node_id, sim, network)
        self._handler = handler

    def on_message(self, src: str, message: object) -> None:
        self._handler(src, message)


class ShardedSystem:
    """Base class for ResilientDB, AHL, SharPer and Saguaro."""

    name = "sharded"

    def __init__(
        self,
        registry: ContractRegistry,
        shard_of_key: Callable[[str], str],
        config: ShardedConfig | None = None,
    ) -> None:
        self.config = config or ShardedConfig()
        self.registry = registry
        self.shard_of_key = shard_of_key
        self.sim = Simulation(seed=self.config.seed)
        self.shards = [f"shard{i}" for i in range(self.config.n_clusters)]
        self._wan = WanLatency(
            region_of={},
            matrix=self._wan_matrix(),
            lan=LanLatency(),
        )
        self.network = Network(self.sim, latency=self._wan)
        protocol_cls, byzantine = PROTOCOLS[self.config.protocol]
        self.clusters: dict[str, ConsensusCluster] = {}
        self.stores: dict[str, StateStore] = {}
        self.ledgers: dict[str, Blockchain] = {}
        self.heights: dict[str, int] = {}
        self.ports: dict[str, ClusterPort] = {}
        for shard in self.shards:
            cluster = ConsensusCluster(
                protocol_cls,
                n=self.config.nodes_per_cluster,
                byzantine=byzantine,
                sim=self.sim,
                network=self.network,
                id_prefix=f"{shard}-n",
                decide_listener=self._make_listener(shard),
                trusted_hardware=self.config.trusted_hardware,
            )
            self.clusters[shard] = cluster
            for node_id in cluster.config.replica_ids:
                self._wan.assign(node_id, shard)
            port = ClusterPort(
                f"{shard}-port", self.sim, self.network,
                handler=self._make_port_handler(shard),
            )
            self._wan.assign(port.node_id, shard)
            self.ports[shard] = port
            self.stores[shard] = StateStore()
            self.ledgers[shard] = Blockchain()
            self.heights[shard] = 0
        self._tx_by_id: dict[str, Transaction] = {}
        self._submit_times: dict[str, float] = {}
        self._commit_times: dict[str, float] = {}
        self._cross_ids: set[str] = set()
        self._aborted: dict[str, str] = {}
        self._pending: list[Transaction] = []
        # Per-shard no-wait lock tables: conflict probes are O(keys
        # touched), release O(keys held) — no per-tx table scans.
        self._locks: dict[str, KeyLockIndex] = {
            s: KeyLockIndex() for s in self.shards
        }
        self._exec_free: dict[str, float] = {s: 0.0 for s in self.shards}
        self._ran = False

    def _wan_matrix(self) -> dict[tuple[str, str], float]:
        matrix = {}
        for i in range(self.config.n_clusters):
            for j in range(i + 1, self.config.n_clusters):
                matrix[(f"shard{i}", f"shard{j}")] = self.config.wan_latency
        return matrix

    def _make_listener(self, shard: str):
        reference = f"{shard}-n0"

        def listener(node_id: str, sequence: int, value: Any) -> None:
            if node_id == reference:
                self._on_cluster_decide(shard, value)

        return listener

    def _make_port_handler(self, shard: str):
        def handler(src: str, message: object) -> None:
            self._on_port_message(shard, src, message)

        return handler

    # -- submission & run -----------------------------------------------------

    def submit(self, tx: Transaction) -> None:
        if not tx.involved:
            raise ValidationError("sharded systems need tx.involved set")
        unknown = tx.involved - set(self.shards)
        if unknown:
            raise ValidationError(f"unknown shards: {unknown}")
        self._tx_by_id[tx.tx_id] = tx
        self._pending.append(tx)

    def run(self) -> RunResult:
        if self._ran:
            raise ConfigError("a sharded system runs exactly once")
        self._ran = True
        interval = (
            1.0 / self.config.arrival_rate if self.config.arrival_rate else 0.0
        )
        at = 0.0
        for tx in self._pending:
            self._submit_times[tx.tx_id] = at
            if len(tx.involved) > 1:
                self._cross_ids.add(tx.tx_id)

            def arrive(t=tx) -> None:
                self._route(t)

            self.sim.schedule_at(at, arrive)
            at += interval
        total = len(self._pending)
        horizon = self.config.max_time
        while self.sim.now < horizon:
            if len(self._commit_times) + len(self._aborted) >= total:
                break
            before = self.sim.now
            processed = self.sim.run(until=min(horizon, self.sim.now + 0.5))
            if processed == 0 and self.sim.now == before:
                break
        return self._build_result()

    # -- execution helpers --------------------------------------------------------

    def claim_shard_executor(self, shard: str, cost: float) -> float:
        """Occupy ``shard``'s execution pipeline for ``cost`` simulated
        seconds; returns the completion time. This is the per-shard
        capacity that makes sharding scale: K shards execute K disjoint
        streams concurrently, while a single-ledger design funnels every
        transaction through one pipeline."""
        start = max(self.sim.now, self._exec_free[shard])
        self._exec_free[shard] = start + cost
        return self._exec_free[shard]

    def commit_intra(self, shard: str, tx: Transaction) -> None:
        """Standard intra-shard commit path shared by the sharded-ledger
        systems: charge the shard's executor, then (in FIFO order) check
        locks, execute, apply, and append to the shard's ledger."""
        done_at = self.claim_shard_executor(shard, self.registry.cost(tx.contract))

        def finish() -> None:
            touched = {op.key for op in tx.declared_ops}
            if self._locks[shard].conflicts(touched):
                self.abort(tx, "lock_conflict")
                return
            rwset = self.execute_on_shards(tx, [shard])
            if not rwset.ok:
                self.abort(tx, "business_rule")
                return
            self.apply_writes(shard, rwset.writes)
            self.append_to_ledger(shard, tx)
            self.commit(tx)

        self.sim.schedule_at(done_at, finish)

    def execute_on_shards(self, tx: Transaction, shards: list[str]) -> RWSet:
        """Run the contract against the union view of ``shards``.

        Each shard contributes an O(1) copy-on-write snapshot, so the
        execution reads a stable cut of every shard's state even while
        later decisions commit into the live stores.
        """
        view = _ShardUnionView(
            {s: self.stores[s].snapshot() for s in shards}, self.shard_of_key
        )
        return execute_with_capture(self.registry, tx, view)

    def apply_writes(self, shard: str, writes: dict[str, Any]) -> None:
        """Apply the writes that belong to ``shard``."""
        owned = {
            key: value
            for key, value in writes.items()
            if self.shard_of_key(key) == shard
        }
        if not owned:
            return
        self.heights[shard] += 1
        self.stores[shard].apply_writes(
            owned, Version(height=self.heights[shard], tx_index=0)
        )

    def append_to_ledger(self, shard: str, tx: Transaction) -> None:
        ledger = self.ledgers[shard]
        ledger.append(ledger.next_block([tx], timestamp=self.sim.now))

    def commit(self, tx: Transaction) -> None:
        if tx.tx_id not in self._commit_times:
            self._commit_times[tx.tx_id] = self.sim.now

    def abort(self, tx: Transaction, reason: str) -> None:
        if tx.tx_id not in self._aborted and tx.tx_id not in self._commit_times:
            self._aborted[tx.tx_id] = reason
            self.sim.metrics.incr(f"shard.abort.{reason}")

    # -- subclass hooks ---------------------------------------------------------------

    def _route(self, tx: Transaction) -> None:
        """A transaction arrived; send it into the architecture."""
        raise NotImplementedError

    def _on_cluster_decide(self, shard: str, value: Any) -> None:
        """``shard``'s local consensus decided ``value``."""
        raise NotImplementedError

    def _on_port_message(self, shard: str, src: str, message: object) -> None:
        """Cross-cluster message arrived at ``shard``'s port."""
        raise NotImplementedError

    # -- results ---------------------------------------------------------------------------

    def _build_result(self) -> RunResult:
        result = RunResult(system=self.name)
        last = 0.0
        intra_lat: list[float] = []
        cross_lat: list[float] = []
        for tx_id, commit_time in self._commit_times.items():
            result.committed += 1
            latency = commit_time - self._submit_times[tx_id]
            result.latencies.record(latency)
            (cross_lat if tx_id in self._cross_ids else intra_lat).append(latency)
            last = max(last, commit_time)
        result.aborted = len(self._aborted) + (
            len(self._pending) - len(self._commit_times) - len(self._aborted)
        )
        result.duration = last if last > 0 else self.sim.now
        result.messages = int(self.sim.metrics.get("net.messages"))
        result.extra = {
            "intra_mean_latency": (
                sum(intra_lat) / len(intra_lat) if intra_lat else 0.0
            ),
            "cross_mean_latency": (
                sum(cross_lat) / len(cross_lat) if cross_lat else 0.0
            ),
            "cross_committed": float(len(cross_lat)),
        }
        result.extra.update(
            {
                key: val
                for key, val in self.sim.metrics.snapshot().items()
                if key.startswith("shard.")
            }
        )
        return result


class _ShardUnionView:
    """Read view routing each key to its owning shard's snapshot."""

    def __init__(
        self, stores: dict[str, Any], shard_of_key: Callable[[str], str]
    ) -> None:
        self._stores = stores
        self._shard_of_key = shard_of_key

    def get_versioned(self, key: str):
        shard = self._shard_of_key(key)
        store = self._stores.get(shard)
        if store is None:
            store = next(iter(self._stores.values()))
        return store.get_versioned(key)
