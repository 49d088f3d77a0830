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

It also holds the cross-shard commit steps the sharded-ledger designs
share: at each involved shard, lock the keys it owns (no-wait) and
later apply or roll back (:class:`ShardedSystem`), and the
coordinator-driven 2PC/2PL of AHL and Saguaro, which differ only in
the cluster that coordinates (:class:`CoordinatedShardedSystem`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.common.driver import RunDriver, TxRecord
from repro.common.errors import ConfigError, ValidationError
from repro.common.types import Transaction
from repro.consensus import PROTOCOLS, ConsensusCluster
from repro.execution.conflict_index import KeyLockIndex
from repro.execution.contracts import ContractRegistry
from repro.execution.rwsets import RWSet, RoutedView, execute_with_capture
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


class ShardedSystem(RunDriver):
    """Base class for ResilientDB, AHL, SharPer and Saguaro."""

    name = "sharded"
    extra_prefixes = ("shard.",)
    abort_metric = "shard.abort."

    def __init__(
        self,
        registry: ContractRegistry,
        shard_of_key: Callable[[str], str],
        config: ShardedConfig | None = None,
    ) -> None:
        super().__init__()
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
        #: Every cluster and its port by name: the shards, then any
        #: coordinator clusters a design adds with :meth:`_add_cluster`.
        self.clusters: dict[str, ConsensusCluster] = {}
        self.ports: dict[str, ClusterPort] = {}
        self.stores: dict[str, StateStore] = {}
        self.ledgers: dict[str, Blockchain] = {}
        self.heights: dict[str, int] = {}
        for shard in self.shards:
            self._add_cluster(shard)
            self.stores[shard] = StateStore()
            self.ledgers[shard] = Blockchain()
            self.heights[shard] = 0
        # Per-shard no-wait lock tables: conflict probes are O(keys
        # touched), release O(keys held) — no per-tx table scans.
        self._locks: dict[str, KeyLockIndex] = {
            s: KeyLockIndex() for s in self.shards
        }
        self._exec_free: dict[str, float] = {s: 0.0 for s in self.shards}
        #: Writes of each cross-shard tx decided to commit, applied shard
        #: by shard in :meth:`apply_or_roll_back`.
        self._cross_writes: dict[str, dict[str, Any]] = {}

    def _add_cluster(self, name: str) -> None:
        """Build cluster ``name``: its consensus replicas and its port,
        all in WAN region ``name``."""
        protocol_cls, byzantine = PROTOCOLS[self.config.protocol]
        cluster = ConsensusCluster(
            protocol_cls,
            n=self.config.nodes_per_cluster,
            byzantine=byzantine,
            sim=self.sim,
            network=self.network,
            id_prefix=f"{name}-n",
            decide_listener=self._make_listener(name),
            trusted_hardware=self.config.trusted_hardware,
        )
        self.clusters[name] = cluster
        for node_id in cluster.config.replica_ids:
            self._wan.assign(node_id, name)
        port = ClusterPort(
            f"{name}-port", self.sim, self.network,
            handler=self._make_port_handler(name),
        )
        self._wan.assign(port.node_id, name)
        self.ports[name] = port

    def _wan_matrix(self) -> dict[tuple[str, str], float]:
        matrix = {}
        for i in range(self.config.n_clusters):
            for j in range(i + 1, self.config.n_clusters):
                matrix[(f"shard{i}", f"shard{j}")] = self.config.wan_latency
        return matrix

    def _make_listener(self, name: str):
        reference = f"{name}-n0"

        def listener(node_id: str, sequence: int, value: Any) -> None:
            if node_id == reference:
                self._on_cluster_decide(name, value)

        return listener

    def _make_port_handler(self, name: str):
        def handler(src: str, message: object) -> None:
            self._on_port_message(name, src, message)

        return handler

    # -- submission -------------------------------------------------------------

    def submit(self, tx: Transaction) -> None:
        if not tx.involved:
            raise ValidationError("sharded systems need tx.involved set")
        unknown = tx.involved - set(self.shards)
        if unknown:
            raise ValidationError(f"unknown shards: {unknown}")
        super().submit(tx)

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
                self._mark_aborted(tx, "lock_conflict")
                return
            rwset = self.execute_on_shards(tx, [shard])
            if not rwset.ok:
                self._mark_aborted(tx, "business_rule")
                return
            self.apply_writes(shard, rwset.writes)
            self.append_to_ledger(shard, tx)
            self._mark_committed(tx)

        self.sim.schedule_at(done_at, finish)

    def execute_on_shards(self, tx: Transaction, shards: list[str]) -> RWSet:
        """Run the contract against the routed view of ``shards``.

        Each shard contributes an O(1) copy-on-write snapshot, so the
        execution reads a stable cut of every shard's state even while
        later decisions commit into the live stores. A tx that reads or
        writes a key owned by a shard outside ``shards`` fails: none of
        them could apply that write, so committing would drop it.
        """
        view = RoutedView(
            {s: self.stores[s].snapshot() for s in shards}, self.shard_of_key
        )
        rwset = execute_with_capture(self.registry, tx, view)
        if any(self.shard_of_key(key) not in shards
               for key in (*rwset.reads, *rwset.writes)):
            return RWSet(tx_id=tx.tx_id, reads=rwset.reads, ok=False,
                         cost=rwset.cost)
        return rwset

    # -- cross-shard steps at one shard ------------------------------------------

    def lock_owned_keys(self, shard: str, tx: Transaction) -> bool:
        """No-wait 2PL at ``shard``: lock the keys of ``tx`` it owns.
        Returns the shard's vote — False when one is already locked."""
        touched = {
            op.key
            for op in tx.declared_ops
            if self.shard_of_key(op.key) == shard
        }
        locks = self._locks[shard]
        if locks.conflicts(touched):
            return False
        locks.acquire(touched, tx.tx_id)
        return True

    def apply_or_roll_back(self, shard: str, tx: Transaction, commit: bool) -> None:
        """Finish cross-shard ``tx`` at ``shard``: on commit apply its
        writes there and append it to the shard's ledger; either way
        release the locks it holds there."""
        if commit:
            self.apply_writes(shard, self._cross_writes[tx.tx_id])
            self.append_to_ledger(shard, tx)
        self._locks[shard].release(tx.tx_id)

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

    # -- subclass hooks ---------------------------------------------------------------

    def _on_cluster_decide(self, name: str, value: Any) -> None:
        """Cluster ``name``'s local consensus decided ``value``."""
        raise NotImplementedError

    def _on_port_message(self, name: str, src: str, message: object) -> None:
        """Cross-cluster message arrived at cluster ``name``'s port."""
        raise NotImplementedError

    # -- results ---------------------------------------------------------------------------

    def _extra(self, committed: list[TxRecord]) -> dict[str, float]:
        intra_lat: list[float] = []
        cross_lat: list[float] = []
        for record in committed:
            cross = len(record.tx.involved) > 1
            (cross_lat if cross else intra_lat).append(record.latency)
        return {
            "intra_mean_latency": (
                sum(intra_lat) / len(intra_lat) if intra_lat else 0.0
            ),
            "cross_mean_latency": (
                sum(cross_lat) / len(cross_lat) if cross_lat else 0.0
            ),
            "cross_committed": float(len(cross_lat)),
            **super()._extra(committed),
        }



# -- coordinator-driven 2PC/2PL (AHL, Saguaro) ---------------------------------


@dataclass(frozen=True)
class Prepare:
    tx_id: str
    size_bytes: int = 640


@dataclass(frozen=True)
class Vote:
    tx_id: str
    shard: str
    ok: bool
    size_bytes: int = 128


@dataclass(frozen=True)
class Decision:
    tx_id: str
    commit: bool
    size_bytes: int = 640


@dataclass(frozen=True)
class Done:
    tx_id: str
    shard: str
    size_bytes: int = 128


class CoordinatedShardedSystem(ShardedSystem):
    """Sharded ledger whose cross-shard txs commit by 2PC/2PL driven by
    a coordinator cluster; a design names it in :meth:`coordinator_for`.

    The coordinator orders BEGIN and sends PREPARE to every involved
    shard. Each shard orders the PREPARE, locks the keys it owns
    (no-wait) and votes. The coordinator orders the verdict, executes
    the tx on a commit verdict and sends the DECISION. Each shard orders
    it, applies or rolls back, releases its locks and reports DONE; the
    tx commits once every involved shard is done.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._coordinator_of: dict[str, str] = {}
        self._votes: dict[str, dict[str, bool]] = {}
        self._done: dict[str, set[str]] = {}

    def coordinator_for(self, tx: Transaction) -> str:
        """The cluster that coordinates cross-shard ``tx`` (called once,
        when it arrives)."""
        raise NotImplementedError

    def _ingest(self, record: TxRecord) -> None:
        tx = record.tx
        if len(tx.involved) == 1:
            shard = next(iter(tx.involved))
            self.clusters[shard].submit(("intra", tx.tx_id))
            self.sim.metrics.incr("shard.intra_submitted")
            return
        coordinator = self.coordinator_for(tx)
        self._coordinator_of[tx.tx_id] = coordinator
        self.clusters[coordinator].submit(("begin", tx.tx_id))
        self.sim.metrics.incr("shard.cross_submitted")

    def _on_cluster_decide(self, name: str, value: Any) -> None:
        kind, tx_id = value
        tx = self._tx_by_id[tx_id]
        if kind == "intra":
            self.commit_intra(name, tx)
        # At an involved shard.
        elif kind == "prepare":
            ok = self.lock_owned_keys(name, tx)
            self._to_coordinator(name, Vote(tx_id=tx_id, shard=name, ok=ok))
        elif kind in ("apply", "rollback"):
            self.apply_or_roll_back(name, tx, commit=kind == "apply")
            self._to_coordinator(name, Done(tx_id=tx_id, shard=name))
        # At the coordinator.
        elif kind == "begin":
            self._to_involved(name, tx, Prepare(tx_id=tx_id))
        elif kind == "decide-commit":
            rwset = self.execute_on_shards(tx, sorted(tx.involved))
            if rwset.ok:
                self._cross_writes[tx_id] = rwset.writes
            else:
                self._mark_aborted(tx, "business_rule")
            self._to_involved(name, tx, Decision(tx_id=tx_id, commit=rwset.ok))
        elif kind == "decide-abort":
            self._mark_aborted(tx, "lock_conflict")
            self._to_involved(name, tx, Decision(tx_id=tx_id, commit=False))

    def _on_port_message(self, name: str, src: str, message: object) -> None:
        if isinstance(message, Prepare):
            self.clusters[name].submit(("prepare", message.tx_id))
        elif isinstance(message, Decision):
            kind = "apply" if message.commit else "rollback"
            self.clusters[name].submit((kind, message.tx_id))
        elif isinstance(message, Vote):
            tx = self._tx_by_id[message.tx_id]
            votes = self._votes.setdefault(message.tx_id, {})
            votes[message.shard] = message.ok
            if set(votes) != tx.involved:
                return
            # The verdict itself is ordered by the coordinator cluster (it
            # must survive coordinator faults).
            verdict = "decide-commit" if all(votes.values()) else "decide-abort"
            self.clusters[name].submit((verdict, message.tx_id))
        elif isinstance(message, Done):
            tx = self._tx_by_id[message.tx_id]
            done = self._done.setdefault(message.tx_id, set())
            done.add(message.shard)
            if done == tx.involved and message.tx_id in self._cross_writes:
                self._mark_committed(tx)
                self.sim.metrics.incr("shard.cross_commits")

    def _to_coordinator(self, shard: str, message: Vote | Done) -> None:
        coordinator = self._coordinator_of[message.tx_id]
        self.ports[shard].send(f"{coordinator}-port", message)

    def _to_involved(
        self, coordinator: str, tx: Transaction, message: Prepare | Decision
    ) -> None:
        for shard in sorted(tx.involved):
            self.ports[coordinator].send(f"{shard}-port", message)
