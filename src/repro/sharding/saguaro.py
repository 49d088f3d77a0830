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
regions is the tree-path sum. Cross-shard transactions run AHL's 2PC
(:class:`~repro.sharding.clusters.CoordinatedShardedSystem`) — but
coordinated by the LCA cluster, so transactions between nearby shards
never pay cloud-level round trips.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.common.types import Transaction
from repro.sharding.clusters import CoordinatedShardedSystem, ShardedConfig


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


class SaguaroSystem(CoordinatedShardedSystem):
    """Saguaro: edge shards with LCA-coordinated cross-shard 2PC."""

    name = "saguaro"

    def __init__(self, registry, shard_of_key, config=None) -> None:
        config = config or SaguaroConfig()
        if not isinstance(config, SaguaroConfig):
            raise ConfigError("SaguaroSystem requires a SaguaroConfig")
        super().__init__(registry, shard_of_key, config)
        self.config: SaguaroConfig
        # The internal (fog + cloud) clusters that coordinate.
        self._fog_of: dict[str, str] = {}
        fog_names = []
        for index, shard in enumerate(self.shards):
            fog = f"fog{index // config.fanout}"
            self._fog_of[shard] = fog
            if fog not in fog_names:
                fog_names.append(fog)
        for name in fog_names + ["cloud"]:
            self._add_cluster(name)
        self._install_tree_latencies(fog_names)

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

    def coordinator_for(self, tx: Transaction) -> str:
        coordinator = self.lca_of(set(tx.involved))
        self.sim.metrics.incr(
            "shard.coordinated_by_fog" if coordinator != "cloud"
            else "shard.coordinated_by_cloud"
        )
        return coordinator
