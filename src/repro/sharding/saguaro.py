"""Saguaro (Amiri et al., 2021) — hierarchical wide-area sharding.

Paper section 2.3.4: "nodes are organized in a hierarchical structure
following the wide area network infrastructure from edge devices to
edge, fog, and cloud servers ... At the lower level, Saguaro, similar to
SharPer, maintains a shard of the blockchain ledger on each cluster.
Saguaro, however, benefits from the hierarchical structure of the
network in the processing of cross-shard transactions. For each
cross-shard transaction, the internal cluster with the minimum total
distance from the involved clusters, i.e., the lowest common ancestor of
all involved clusters, is chosen as the coordinator resulting in lower
latency."

Topology modelled: leaf (edge) clusters own the shards; ``fanout``
consecutive leaves share a *fog* cluster; one *cloud* cluster roots the
tree. Link latencies grow with level, and the latency between any two
regions is the tree-path sum. Cross-shard transactions run the same
2PC shape as AHL — but coordinated by the LCA cluster, so transactions
between nearby shards never pay cloud-level round trips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.common.errors import ConfigError
from repro.common.driver import TxRecord
from repro.common.types import Transaction
from repro.consensus import PROTOCOLS, ConsensusCluster
from repro.sharding.ahl import Decision, Done, Prepare, Vote
from repro.sharding.clusters import ClusterPort, ShardedConfig, ShardedSystem


@dataclass
class SaguaroConfig(ShardedConfig):
    """Saguaro adds the tree shape and per-level link latencies."""

    fanout: int = 2
    #: One-way leaf <-> fog latency (metro distance).
    fog_latency: float = 0.01
    #: One-way fog <-> cloud latency (continental distance).
    cloud_latency: float = 0.04

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.fanout < 1:
            raise ConfigError("fanout must be >= 1")


class SaguaroSystem(ShardedSystem):
    """Saguaro: edge shards with LCA-coordinated cross-shard 2PC."""

    name = "saguaro"

    def __init__(self, registry, shard_of_key, config=None) -> None:
        config = config or SaguaroConfig()
        if not isinstance(config, SaguaroConfig):
            raise ConfigError("SaguaroSystem requires a SaguaroConfig")
        super().__init__(registry, shard_of_key, config)
        self.config: SaguaroConfig
        # Build the internal (fog + cloud) clusters.
        protocol_cls, byzantine = PROTOCOLS[config.protocol]
        self._fog_of: dict[str, str] = {}
        fog_names = []
        for index, shard in enumerate(self.shards):
            fog = f"fog{index // config.fanout}"
            self._fog_of[shard] = fog
            if fog not in fog_names:
                fog_names.append(fog)
        self.internal: dict[str, ConsensusCluster] = {}
        self.internal_ports: dict[str, ClusterPort] = {}
        for name in fog_names + ["cloud"]:
            cluster = ConsensusCluster(
                protocol_cls,
                n=config.nodes_per_cluster,
                byzantine=byzantine,
                sim=self.sim,
                network=self.network,
                id_prefix=f"{name}-n",
                decide_listener=self._make_internal_listener(name),
                trusted_hardware=config.trusted_hardware,
            )
            self.internal[name] = cluster
            for node_id in cluster.config.replica_ids:
                self._wan.assign(node_id, name)
            port = ClusterPort(
                f"{name}-port", self.sim, self.network,
                handler=self._make_coordinator_handler(name),
            )
            self._wan.assign(port.node_id, name)
            self.internal_ports[name] = port
        self._install_tree_latencies(fog_names)
        self._votes: dict[str, dict[str, bool]] = {}
        self._done: dict[str, set[str]] = {}
        self._cross_writes: dict[str, dict[str, Any]] = {}
        self._coordinator_of: dict[str, str] = {}

    # -- topology ---------------------------------------------------------------

    def _install_tree_latencies(self, fog_names: list[str]) -> None:
        """Latency between regions = sum of tree-path link latencies."""
        config = self.config
        matrix = self._wan.matrix
        for shard, fog in self._fog_of.items():
            matrix[(shard, fog)] = config.fog_latency
            matrix[(shard, "cloud")] = config.fog_latency + config.cloud_latency
        for fog in fog_names:
            matrix[(fog, "cloud")] = config.cloud_latency
            for other in fog_names:
                if fog < other:
                    matrix[(fog, other)] = 2 * config.cloud_latency
        # Leaf-to-leaf via the tree.
        for a in self.shards:
            for b in self.shards:
                if a < b:
                    if self._fog_of[a] == self._fog_of[b]:
                        matrix[(a, b)] = 2 * config.fog_latency
                    else:
                        matrix[(a, b)] = 2 * (
                            config.fog_latency + config.cloud_latency
                        )

    def lca_of(self, shards: set[str]) -> str:
        """Lowest common ancestor cluster of the involved shards."""
        fogs = {self._fog_of[s] for s in shards}
        if len(fogs) == 1:
            return next(iter(fogs))
        return "cloud"

    # -- routing -------------------------------------------------------------------

    def _ingest(self, record: TxRecord) -> None:
        tx = record.tx
        if len(tx.involved) == 1:
            shard = next(iter(tx.involved))
            self.clusters[shard].submit(("intra", tx.tx_id))
            self.sim.metrics.incr("shard.intra_submitted")
            return
        coordinator = self.lca_of(set(tx.involved))
        self._coordinator_of[tx.tx_id] = coordinator
        self.internal[coordinator].submit(("begin", tx.tx_id))
        self.sim.metrics.incr("shard.cross_submitted")
        self.sim.metrics.incr(
            "shard.coordinated_by_fog" if coordinator != "cloud"
            else "shard.coordinated_by_cloud"
        )

    # -- leaf decisions ------------------------------------------------------------------

    def _on_cluster_decide(self, shard: str, value: Any) -> None:
        kind, tx_id = value
        tx = self._tx_by_id[tx_id]
        if kind == "intra":
            self.commit_intra(shard, tx)
        elif kind == "prepare":
            self._prepare_locally(shard, tx)
        elif kind == "apply":
            self._apply_locally(shard, tx, commit=True)
        elif kind == "rollback":
            self._apply_locally(shard, tx, commit=False)

    def _prepare_locally(self, shard: str, tx: Transaction) -> None:
        touched = {
            op.key
            for op in tx.declared_ops
            if self.shard_of_key(op.key) == shard
        }
        locks = self._locks[shard]
        ok = not locks.conflicts(touched)
        if ok:
            locks.acquire(touched, tx.tx_id)
        coordinator = self._coordinator_of[tx.tx_id]
        self.ports[shard].send(
            f"{coordinator}-port", Vote(tx_id=tx.tx_id, shard=shard, ok=ok)
        )

    def _apply_locally(self, shard: str, tx: Transaction, commit: bool) -> None:
        if commit:
            self.apply_writes(shard, self._cross_writes.get(tx.tx_id, {}))
            self.append_to_ledger(shard, tx)
        self._locks[shard].release(tx.tx_id)
        coordinator = self._coordinator_of[tx.tx_id]
        self.ports[shard].send(
            f"{coordinator}-port", Done(tx_id=tx.tx_id, shard=shard)
        )

    # -- coordinator (LCA) side -------------------------------------------------------------

    def _make_internal_listener(self, name: str):
        reference = f"{name}-n0"

        def listener(node_id: str, sequence: int, value: Any) -> None:
            if node_id != reference:
                return
            self._on_internal_decide(name, value)

        return listener

    def _on_internal_decide(self, name: str, value: Any) -> None:
        kind, tx_id = value[0], value[1]
        tx = self._tx_by_id[tx_id]
        port = self.internal_ports[name]
        if kind == "begin":
            self._votes[tx_id] = {}
            for shard in sorted(tx.involved):
                port.send(f"{shard}-port", Prepare(tx_id=tx_id))
        elif kind == "decide-commit":
            rwset = self.execute_on_shards(tx, sorted(tx.involved))
            commit = rwset.ok
            if commit:
                self._cross_writes[tx_id] = rwset.writes
                self._done[tx_id] = set()
            else:
                self._mark_aborted(tx, "business_rule")
            for shard in sorted(tx.involved):
                port.send(f"{shard}-port", Decision(tx_id=tx_id, commit=commit))
        elif kind == "decide-abort":
            self._mark_aborted(tx, "lock_conflict")
            for shard in sorted(tx.involved):
                port.send(f"{shard}-port", Decision(tx_id=tx_id, commit=False))

    def _make_coordinator_handler(self, name: str):
        def handler(src: str, message: object) -> None:
            if isinstance(message, Vote):
                tx = self._tx_by_id[message.tx_id]
                votes = self._votes.setdefault(message.tx_id, {})
                votes[message.shard] = message.ok
                if set(votes) != tx.involved:
                    return
                verdict = (
                    "decide-commit" if all(votes.values()) else "decide-abort"
                )
                self.internal[name].submit((verdict, message.tx_id))
            elif isinstance(message, Done):
                tx = self._tx_by_id[message.tx_id]
                done = self._done.setdefault(message.tx_id, set())
                done.add(message.shard)
                if done == tx.involved and message.tx_id in self._cross_writes:
                    self._mark_committed(tx)
                    self.sim.metrics.incr("shard.cross_commits")

        return handler

    def _on_port_message(self, shard: str, src: str, message: object) -> None:
        if isinstance(message, Prepare):
            self.clusters[shard].submit(("prepare", message.tx_id))
        elif isinstance(message, Decision):
            kind = "apply" if message.commit else "rollback"
            self.clusters[shard].submit((kind, message.tx_id))
