"""Multi-channel Hyperledger Fabric (paper sections 2.3.1 and 2.3.4).

"A multi-channel Hyperledger Fabric consists of multiple channels where
each channel has its own set of enterprises. ... Different channels are
completely separated and access neither the blockchain ledger nor the
blockchain state of other channels. Different channels still might share
the same set of orderer nodes."

Modelled here:

* every channel owns a ledger and a state store, replicated only on its
  member enterprises;
* one shared ordering cluster orders the transactions of *all* channels
  (values are tagged with their channel);
* cross-channel transactions — which the paper says need "a trusted
  channel among the participants or an atomic commit protocol" — run a
  two-phase commit driven by the trusted ordering service: a PREPARE
  record is ordered in every involved channel (locking the touched
  keys), then a COMMIT record applies the writes. Intra-channel
  transactions that hit a locked key abort, which is part of the cost
  the paper attributes to cross-view processing.

The same class doubles as the paper's section 2.3.4 observation that
channels "can be used to shard the system and data as well": give every
enterprise its own channel and the channels are shards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.common.driver import RunDriver, TxRecord
from repro.common.errors import ConfigError, ValidationError
from repro.common.types import Transaction
from repro.consensus import PROTOCOLS, ConsensusCluster
from repro.execution.conflict_index import KeyLockIndex
from repro.execution.contracts import ContractRegistry
from repro.execution.rwsets import execute_with_capture
from repro.ledger.chain import Blockchain
from repro.ledger.store import StateStore, Version
from repro.sim.core import Simulation
from repro.sim.network import LanLatency


@dataclass
class ChannelConfig:
    """Deployment knobs for a multi-channel network."""

    orderers: int = 4
    protocol: str = "raft"  # Fabric's production ordering service
    seed: int = 0
    max_time: float = 600.0
    arrival_rate: float | None = 2000.0


@dataclass
class Channel:
    """One channel: members, ledger, state — invisible to non-members."""

    name: str
    members: frozenset[str]
    ledger: Blockchain = field(default_factory=Blockchain)
    store: StateStore = field(default_factory=StateStore)
    #: Keys a prepared cross-channel tx holds until its commit record.
    locks: KeyLockIndex = field(default_factory=KeyLockIndex)
    height: int = 0


class MultiChannelFabric(RunDriver):
    """A Fabric network with multiple channels and one ordering service."""

    name = "multichannel-fabric"
    extra_prefixes = ("channels.",)

    def __init__(
        self,
        channels: dict[str, set[str]],
        registry: ContractRegistry,
        config: ChannelConfig | None = None,
    ) -> None:
        if not channels:
            raise ConfigError("need at least one channel")
        super().__init__()
        self.config = config or ChannelConfig()
        self.registry = registry
        self.sim = Simulation(seed=self.config.seed)
        protocol_cls, byzantine = PROTOCOLS[self.config.protocol]
        self.cluster = ConsensusCluster(
            protocol_cls,
            n=self.config.orderers,
            byzantine=byzantine,
            sim=self.sim,
            latency=LanLatency(),
            decide_listener=self._on_decide,
        )
        self._reference = self.cluster.config.replica_ids[0]
        self.channels: dict[str, Channel] = {
            name: Channel(name=name, members=frozenset(members))
            for name, members in channels.items()
        }
        self._tx_channels: dict[str, list[str]] = {}
        self._prepared: dict[str, set[str]] = {}  # tx -> channels prepared
        self._cross_writes: dict[str, dict[str, dict[str, Any]]] = {}

    # -- submission ------------------------------------------------------------

    def submit(self, tx: Transaction, channels: list[str]) -> None:
        """Submit ``tx`` to one channel (normal) or several (cross-channel)."""
        unknown = [c for c in channels if c not in self.channels]
        if unknown:
            raise ValidationError(f"unknown channels: {unknown}")
        if not channels:
            raise ValidationError("a transaction needs at least one channel")
        super().submit(tx)
        self._tx_channels[tx.tx_id] = list(channels)

    def _ingest(self, record: TxRecord) -> None:
        tx_id = record.tx.tx_id
        channels = self._tx_channels[tx_id]
        if len(channels) == 1:
            value = ("tx", channels[0], tx_id)
        else:
            value = ("prepare", tuple(sorted(channels)), tx_id)
        self.cluster.submit(value, via=self._reference)

    # -- ordered records -------------------------------------------------------------

    def _on_decide(self, node_id: str, sequence: int, value: Any) -> None:
        if node_id != self._reference:
            return
        kind = value[0]
        if kind == "tx":
            self._apply_single(value[1], value[2])
        elif kind == "prepare":
            self._apply_prepare(list(value[1]), value[2])
        elif kind == "commit":
            self._apply_commit(list(value[1]), value[2])

    def _apply_single(self, channel_name: str, tx_id: str) -> None:
        channel = self.channels[channel_name]
        tx = self._tx_by_id[tx_id]
        if channel.locks.conflicts(op.key for op in tx.declared_ops):
            self._mark_aborted(tx, "locked_by_2pc")
            self.sim.metrics.incr("channels.lock_aborts")
            return
        rwset = execute_with_capture(self.registry, tx, channel.store)
        if not rwset.ok:
            self._mark_aborted(tx, "business_rule")
            return
        channel.height += 1
        channel.store.apply_writes(
            rwset.writes, Version(height=channel.height, tx_index=0)
        )
        block = channel.ledger.next_block(
            [tx], timestamp=self.sim.now, proposer=self._reference
        )
        channel.ledger.append(block)
        self._mark_committed(tx)
        self.sim.metrics.incr("channels.intra_commits")

    def _apply_prepare(self, channel_names: list[str], tx_id: str) -> None:
        tx = self._tx_by_id[tx_id]
        touched = {op.key for op in tx.declared_ops}
        # Vote: every involved channel must be lock-free on the keys.
        for name in channel_names:
            if self.channels[name].locks.conflicts(touched):
                self._mark_aborted(tx, "2pc_lock_conflict")
                self.sim.metrics.incr("channels.2pc_aborts")
                return
        # Execute against the union view of the involved channels.
        view = _UnionView([self.channels[n].store for n in channel_names])
        rwset = execute_with_capture(self.registry, tx, view)
        if not rwset.ok:
            self._mark_aborted(tx, "business_rule")
            return
        per_channel: dict[str, dict[str, Any]] = {n: {} for n in channel_names}
        for key, val in rwset.writes.items():
            for name in channel_names:
                # Writes replicate to every involved channel: the data a
                # cross-channel tx touches is public among participants.
                per_channel[name][key] = val
        self._cross_writes[tx_id] = per_channel
        for name in channel_names:
            self.channels[name].locks.acquire(touched, tx_id)
        self._prepared[tx_id] = set(channel_names)
        self.sim.metrics.incr("channels.2pc_prepares")
        # Second phase: the trusted orderer orders the commit record.
        self.cluster.submit(
            ("commit", tuple(sorted(channel_names)), tx_id), via=self._reference
        )

    def _apply_commit(self, channel_names: list[str], tx_id: str) -> None:
        if tx_id not in self._prepared:
            return
        tx = self._tx_by_id[tx_id]
        writes = self._cross_writes.pop(tx_id, {})
        for name in channel_names:
            channel = self.channels[name]
            channel.height += 1
            channel.store.apply_writes(
                writes.get(name, {}), Version(height=channel.height, tx_index=0)
            )
            block = channel.ledger.next_block(
                [tx], timestamp=self.sim.now, proposer=self._reference
            )
            channel.ledger.append(block)
            channel.locks.release(tx_id)
        del self._prepared[tx_id]
        self._mark_committed(tx)
        self.sim.metrics.incr("channels.cross_commits")

    # -- audits --------------------------------------------------------------------------

    def visible_transactions(self, enterprise: str) -> set[str]:
        """Every transaction id replicated to ``enterprise``'s peers —
        the union of the ledgers of its channels (confidentiality audit)."""
        visible: set[str] = set()
        for channel in self.channels.values():
            if enterprise in channel.members:
                visible |= {
                    tx.tx_id for tx in channel.ledger.all_transactions()
                }
        return visible

    def ledger_copies_of(self, tx_id: str) -> int:
        """How many enterprise ledgers hold this transaction (storage
        overhead of replicating per channel membership)."""
        copies = 0
        for channel in self.channels.values():
            if channel.ledger.find_transaction(tx_id) is not None:
                copies += len(channel.members)
        return copies


class _UnionView:
    """Read view over several channel stores (first hit wins)."""

    def __init__(self, stores: list[StateStore]) -> None:
        self._stores = stores

    def get_versioned(self, key: str):
        for store in self._stores:
            if key in store:
                return store.get_versioned(key)
        return self._stores[0].get_versioned(key)
