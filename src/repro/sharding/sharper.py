"""SharPer (Amiri et al., SIGMOD 2021) — decentralized flattened sharding.

Paper section 2.3.4: "SharPer processes cross-shard transactions in a
decentralized manner among the involved clusters (without requiring a
reference committee) using decentralized flattened consensus protocols"
and "is able to process cross-shard transactions with non-overlapping
clusters in parallel".

Modelled protocol:

* **intra-shard** — the owning cluster orders the transaction through
  its own (message-level) consensus and executes it.
* **cross-shard** — the lowest-indexed involved cluster initiates a
  flattened round: CROSS-PROPOSE fans out to the involved clusters'
  ports (one WAN hop); each involved cluster anchors the transaction in
  its local log via consensus and locks the touched keys; ACKs return to
  the initiator (second WAN hop); once every involved cluster has
  anchored, the initiator executes and fans out CROSS-APPLY (third WAN
  hop). Three WAN exchanges and one consensus round per involved
  cluster — fewer phases than AHL's coordinator-based 2PC, and
  non-overlapping transactions proceed fully in parallel.

Conflicting transactions use no-wait locking: whoever finds a key locked
votes abort, and the initiator releases the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.common.driver import TxRecord
from repro.common.types import Transaction
from repro.sharding.clusters import ShardedSystem


@dataclass(frozen=True)
class CrossPropose:
    tx_id: str
    initiator: str
    size_bytes: int = 640


@dataclass(frozen=True)
class CrossAck:
    tx_id: str
    shard: str
    ok: bool
    size_bytes: int = 128


@dataclass(frozen=True)
class CrossApply:
    tx_id: str
    commit: bool
    size_bytes: int = 640


class SharPerSystem(ShardedSystem):
    """SharPer: sharded ledger with flattened cross-shard consensus."""

    name = "sharper"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._acks: dict[str, dict[str, bool]] = {}
        self._cross_writes: dict[str, dict[str, Any]] = {}

    # -- routing ------------------------------------------------------------

    def _ingest(self, record: TxRecord) -> None:
        tx = record.tx
        if len(tx.involved) == 1:
            shard = next(iter(tx.involved))
            self.clusters[shard].submit(("intra", tx.tx_id))
            self.sim.metrics.incr("shard.intra_submitted")
        else:
            initiator = min(tx.involved)
            self._acks[tx.tx_id] = {}
            message = CrossPropose(tx_id=tx.tx_id, initiator=initiator)
            for shard in sorted(tx.involved):
                self.ports[initiator].send(f"{shard}-port", message)
            self.sim.metrics.incr("shard.cross_submitted")

    # -- local decisions ------------------------------------------------------

    def _on_cluster_decide(self, shard: str, value: Any) -> None:
        kind, tx_id = value
        tx = self._tx_by_id[tx_id]
        if kind == "intra":
            self.commit_intra(shard, tx)
        elif kind == "cross-anchor":
            self._anchor_cross(shard, tx)

    def _anchor_cross(self, shard: str, tx: Transaction) -> None:
        """Local consensus anchored the cross-shard tx in this shard's
        log; lock its keys and ACK the initiator."""
        touched = {
            op.key
            for op in tx.declared_ops
            if self.shard_of_key(op.key) == shard
        }
        locks = self._locks[shard]
        ok = not locks.conflicts(touched)
        if ok:
            locks.acquire(touched, tx.tx_id)
        initiator = min(tx.involved)
        self.ports[shard].send(
            f"{initiator}-port", CrossAck(tx_id=tx.tx_id, shard=shard, ok=ok)
        )

    # -- port traffic -------------------------------------------------------------

    def _on_port_message(self, shard: str, src: str, message: object) -> None:
        if isinstance(message, CrossPropose):
            # Anchor through this cluster's own consensus (the flattened
            # protocol's per-cluster quorum).
            self.clusters[shard].submit(("cross-anchor", message.tx_id))
        elif isinstance(message, CrossAck):
            self._collect_ack(message)
        elif isinstance(message, CrossApply):
            self._apply_cross(shard, message)

    def _collect_ack(self, message: CrossAck) -> None:
        tx = self._tx_by_id[message.tx_id]
        acks = self._acks.setdefault(message.tx_id, {})
        acks[message.shard] = message.ok
        if set(acks) != tx.involved:
            return
        initiator = min(tx.involved)
        commit = all(acks.values())
        rwset = None
        if commit:
            rwset = self.execute_on_shards(tx, sorted(tx.involved))
            commit = rwset.ok
        outcome = CrossApply(tx_id=tx.tx_id, commit=commit)
        for shard in sorted(tx.involved):
            self.ports[initiator].send(f"{shard}-port", outcome)
        if commit:
            assert rwset is not None
            self._cross_writes[tx.tx_id] = rwset.writes
            self._mark_committed(tx)
            self.sim.metrics.incr("shard.cross_commits")
        else:
            reason = "lock_conflict" if rwset is None else "business_rule"
            self._mark_aborted(tx, reason)

    def _apply_cross(self, shard: str, message: CrossApply) -> None:
        tx = self._tx_by_id[message.tx_id]
        if message.commit:
            writes = self._cross_writes.get(message.tx_id, {})
            self.apply_writes(shard, writes)
            self.append_to_ledger(shard, tx)
        self._locks[shard].release(message.tx_id)
