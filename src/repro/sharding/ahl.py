"""AHL (Dang et al., SIGMOD 2019) — coordinator-based sharding.

Paper section 2.3.4, three modelled ingredients:

* **Committee safety math** — nodes are *randomly* assigned to
  committees, so safety is probabilistic: a committee fails when a third
  or more of its members are malicious. :func:`committee_failure_probability`
  computes the hypergeometric tail the paper's "at least 80 nodes
  (instead of ~600 in OmniLedger)" figure comes from, and
  :func:`min_committee_size` inverts it (benchmark E7).
* **Trusted hardware** — attested messages make equivocation impossible,
  so committees need only ``2f + 1`` members instead of ``3f + 1``
  (``trusted_hardware=True`` in the cluster config).
* **Coordinator-based 2PC/2PL** — cross-shard transactions are driven by
  an extra *reference committee*: it orders a BEGIN, sends PREPAREs to
  the involved committees (each anchoring a lock through its own local
  consensus), collects votes, orders the global COMMIT/ABORT decision,
  and distributes it — the "large number of intra- and cross-cluster
  communication phases" the Discussion paragraph charges this design
  with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.common.errors import ConfigError
from repro.common.driver import TxRecord
from repro.common.types import Transaction
from repro.consensus import PROTOCOLS, ConsensusCluster
from repro.sharding.clusters import ClusterPort, ShardedSystem


# -- committee-safety calculator (pure math, used by benchmark E7) ----------


def committee_failure_probability(
    total_nodes: int, byzantine_nodes: int, committee_size: int,
    resilience: float = 1.0 / 3.0,
) -> float:
    """P[a random committee draws >= resilience * size malicious nodes].

    Hypergeometric tail: committees are sampled without replacement from
    ``total_nodes`` of which ``byzantine_nodes`` are malicious.
    """
    if committee_size > total_nodes:
        raise ConfigError("committee larger than the population")
    threshold = math.ceil(committee_size * resilience)
    total = math.comb(total_nodes, committee_size)
    probability = 0.0
    for bad in range(threshold, committee_size + 1):
        good = committee_size - bad
        if bad > byzantine_nodes or good > total_nodes - byzantine_nodes:
            continue
        probability += (
            math.comb(byzantine_nodes, bad)
            * math.comb(total_nodes - byzantine_nodes, good)
            / total
        )
    return probability


def min_committee_size(
    total_nodes: int, byzantine_fraction: float, epsilon: float = 2 ** -20,
    resilience: float = 1.0 / 3.0,
) -> int:
    """Smallest committee with failure probability below ``epsilon``.

    With trusted hardware the resilience threshold rises from 1/3 to
    1/2, which is how AHL shrinks its committees.
    """
    byzantine = int(total_nodes * byzantine_fraction)
    for size in range(3, total_nodes + 1):
        if committee_failure_probability(
            total_nodes, byzantine, size, resilience
        ) < epsilon:
            return size
    return total_nodes


# -- the AHL system -----------------------------------------------------------


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


class AhlSystem(ShardedSystem):
    """AHL: sharded ledger, reference committee coordinating 2PC/2PL."""

    name = "ahl"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        protocol_cls, byzantine = PROTOCOLS[self.config.protocol]
        # The extra set of nodes the decentralized designs avoid.
        self.reference = ConsensusCluster(
            protocol_cls,
            n=self.config.nodes_per_cluster,
            byzantine=byzantine,
            sim=self.sim,
            network=self.network,
            id_prefix="refcom-n",
            decide_listener=self._on_reference_decide,
            trusted_hardware=self.config.trusted_hardware,
        )
        for node_id in self.reference.config.replica_ids:
            self._wan.assign(node_id, "refcom")
        self.ref_port = ClusterPort(
            "refcom-port", self.sim, self.network, handler=self._on_ref_port
        )
        self._wan.assign("refcom-port", "refcom")
        for shard in self.shards:
            self._wan.matrix[(shard, "refcom")] = self.config.wan_latency
        self._votes: dict[str, dict[str, bool]] = {}
        self._done: dict[str, set[str]] = {}
        self._cross_writes: dict[str, dict[str, Any]] = {}

    # -- routing ----------------------------------------------------------------

    def _ingest(self, record: TxRecord) -> None:
        tx = record.tx
        if len(tx.involved) == 1:
            shard = next(iter(tx.involved))
            self.clusters[shard].submit(("intra", tx.tx_id))
            self.sim.metrics.incr("shard.intra_submitted")
        else:
            # Cross-shard: hand the transaction to the reference committee.
            self.reference.submit(("begin", tx.tx_id))
            self.sim.metrics.incr("shard.cross_submitted")

    # -- shard-local decisions -----------------------------------------------------

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
        """2PL acquire (no-wait) anchored by local consensus; vote back."""
        touched = {
            op.key
            for op in tx.declared_ops
            if self.shard_of_key(op.key) == shard
        }
        locks = self._locks[shard]
        ok = not locks.conflicts(touched)
        if ok:
            locks.acquire(touched, tx.tx_id)
        self.ports[shard].send(
            "refcom-port", Vote(tx_id=tx.tx_id, shard=shard, ok=ok)
        )

    def _apply_locally(self, shard: str, tx: Transaction, commit: bool) -> None:
        if commit:
            writes = self._cross_writes.get(tx.tx_id, {})
            self.apply_writes(shard, writes)
            self.append_to_ledger(shard, tx)
        self._locks[shard].release(tx.tx_id)
        self.ports[shard].send("refcom-port", Done(tx_id=tx.tx_id, shard=shard))

    # -- reference committee -----------------------------------------------------------

    def _on_reference_decide(self, node_id: str, sequence: int, value: Any) -> None:
        if node_id != "refcom-n0":
            return
        kind, payload = value[0], value[1]
        tx = self._tx_by_id[payload]
        if kind == "begin":
            self._votes[tx.tx_id] = {}
            for shard in sorted(tx.involved):
                self.ref_port.send(f"{shard}-port", Prepare(tx_id=tx.tx_id))
        elif kind == "decide-commit":
            rwset = self.execute_on_shards(tx, sorted(tx.involved))
            if rwset.ok:
                self._cross_writes[tx.tx_id] = rwset.writes
                self._done[tx.tx_id] = set()
                for shard in sorted(tx.involved):
                    self.ref_port.send(
                        f"{shard}-port", Decision(tx_id=tx.tx_id, commit=True)
                    )
            else:
                self._mark_aborted(tx, "business_rule")
                for shard in sorted(tx.involved):
                    self.ref_port.send(
                        f"{shard}-port", Decision(tx_id=tx.tx_id, commit=False)
                    )
        elif kind == "decide-abort":
            self._mark_aborted(tx, "lock_conflict")
            for shard in sorted(tx.involved):
                self.ref_port.send(
                    f"{shard}-port", Decision(tx_id=tx.tx_id, commit=False)
                )

    def _on_ref_port(self, src: str, message: object) -> None:
        if isinstance(message, Vote):
            tx = self._tx_by_id[message.tx_id]
            votes = self._votes.setdefault(message.tx_id, {})
            votes[message.shard] = message.ok
            if set(votes) != tx.involved:
                return
            # The commit/abort decision itself is ordered by the
            # reference committee (it must survive coordinator faults).
            verdict = "decide-commit" if all(votes.values()) else "decide-abort"
            self.reference.submit((verdict, message.tx_id))
        elif isinstance(message, Done):
            tx = self._tx_by_id[message.tx_id]
            done = self._done.setdefault(message.tx_id, set())
            done.add(message.shard)
            if done == tx.involved and message.tx_id in self._cross_writes:
                self._mark_committed(tx)
                self.sim.metrics.incr("shard.cross_commits")

    # -- ports of the shards -------------------------------------------------------------

    def _on_port_message(self, shard: str, src: str, message: object) -> None:
        if isinstance(message, Prepare):
            self.clusters[shard].submit(("prepare", message.tx_id))
        elif isinstance(message, Decision):
            kind = "apply" if message.commit else "rollback"
            self.clusters[shard].submit((kind, message.tx_id))
