"""ResilientDB / GeoBFT (Gupta et al., VLDB 2020) — single-ledger clustering.

Paper section 2.3.4: "ResilientDB uses a topological-aware clustering
approach and partitions the network into local fault-tolerant clusters
to minimize the cost of global communication. All clusters, however,
replicate the entire ledger on every node and, at every round, each
cluster locally establishes consensus on a single transaction and then
multicasts the locally-replicated transaction to other clusters. All
clusters then execute all transactions of that round in a predetermined
order. Since all transactions are executed by all clusters there is no
concept of intra- and cross-shard transactions."

Modelled exactly that way: transactions are assigned to clusters
round-robin; each cluster orders its stream locally (cheap LAN
consensus), certified transactions are multicast cluster-to-cluster
(one WAN hop each), and the global execution order interleaves the
clusters' streams round by round — round *k* contains the *k*-th
transaction of every cluster, executed in cluster-index order, on the
single fully replicated state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.common.driver import TxRecord
from repro.common.types import Transaction
from repro.execution.rwsets import execute_with_capture
from repro.ledger.chain import Blockchain
from repro.ledger.store import StateStore, Version
from repro.sharding.clusters import ShardedSystem


@dataclass(frozen=True)
class GlobalShare:
    """A locally ordered transaction certified to the other clusters."""

    tx_id: str
    cluster: str
    round: int
    size_bytes: int = 768


class ResilientDbSystem(ShardedSystem):
    """ResilientDB: clustered ordering over one fully replicated ledger."""

    name = "resilientdb"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # One global state and ledger: every cluster replicates everything.
        self.global_store = StateStore()
        self.global_ledger = Blockchain()
        self._global_height = 0
        self._next_cluster = 0
        self._local_round: dict[str, int] = {s: 0 for s in self.shards}
        #: shard -> round -> (tx id, time every port has received it).
        self._shares: dict[str, dict[int, str]] = {s: {} for s in self.shards}
        self._share_arrivals: dict[tuple[str, int], set[str]] = {}
        self._expected: dict[str, int] = {s: 0 for s in self.shards}
        self._exec_round = 0
        # Single execution pipeline: every cluster executes every
        # transaction, so the whole system has one logical executor —
        # the scalability ceiling of the single-ledger design.
        self._global_exec_free = 0.0

    def submit(self, tx: Transaction) -> None:  # noqa: D102 - see base
        # No intra/cross distinction: assign clusters round-robin.
        shard = self.shards[self._next_cluster % len(self.shards)]
        super().submit(replace(tx, involved=frozenset({shard})))
        self._next_cluster += 1
        self._expected[shard] += 1

    # -- pipeline -------------------------------------------------------------

    def _ingest(self, record: TxRecord) -> None:
        shard = next(iter(record.tx.involved))
        self.clusters[shard].submit(record.tx.tx_id)

    def _on_cluster_decide(self, shard: str, value: Any) -> None:
        round_ = self._local_round[shard]
        self._local_round[shard] += 1
        share = GlobalShare(tx_id=value, cluster=shard, round=round_)
        # Global multicast: the expensive step of the single-ledger design.
        for other in self.shards:
            if other != shard:
                self.ports[shard].send(f"{other}-port", share)
        self._record_share(shard, share)

    def _on_port_message(self, shard: str, src: str, message: object) -> None:
        if isinstance(message, GlobalShare):
            self._record_share(shard, message)

    def _record_share(self, at_shard: str, share: GlobalShare) -> None:
        key = (share.cluster, share.round)
        arrivals = self._share_arrivals.setdefault(key, set())
        arrivals.add(at_shard)
        self._shares[share.cluster][share.round] = share.tx_id
        if len(arrivals) == len(self.shards):
            self._try_execute_rounds()

    def _round_complete(self, round_: int) -> bool:
        for shard in self.shards:
            if round_ >= self._expected[shard]:
                continue  # this cluster has no more transactions
            arrivals = self._share_arrivals.get((shard, round_), set())
            if len(arrivals) < len(self.shards):
                return False
        return True

    def _try_execute_rounds(self) -> None:
        while self._round_complete(self._exec_round) and any(
            self._exec_round < self._expected[s] for s in self.shards
        ):
            round_ = self._exec_round
            self._exec_round += 1
            cost = sum(
                self.registry.cost(self._tx_by_id[tx_id].contract)
                for shard in self.shards
                if (tx_id := self._shares[shard].get(round_)) is not None
            )
            start = max(self.sim.now, self._global_exec_free)
            self._global_exec_free = start + cost
            self.sim.schedule_at(
                self._global_exec_free,
                lambda r=round_: self._execute_round(r),
            )

    def _execute_round(self, round_: int) -> None:
        """Execute round ``round_`` in the predetermined cluster order."""
        batch: list[Transaction] = []
        for shard in self.shards:
            tx_id = self._shares[shard].get(round_)
            if tx_id is None:
                continue
            tx = self._tx_by_id[tx_id]
            batch.append(tx)
            rwset = execute_with_capture(self.registry, tx, self.global_store)
            if rwset.ok:
                self._global_height += 1
                self.global_store.apply_writes(
                    rwset.writes, Version(self._global_height, 0)
                )
                self._mark_committed(tx)
            else:
                self._mark_aborted(tx, "business_rule")
        if batch:
            self.global_ledger.append(
                self.global_ledger.next_block(batch, timestamp=self.sim.now)
            )
            self.sim.metrics.incr("shard.global_rounds")
