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

from repro.common.errors import ConfigError, ValidationError
from repro.common.metrics import RunResult
from repro.common.types import Transaction
from repro.consensus import PROTOCOLS, ConsensusCluster
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
    locked_keys: dict[str, str] = field(default_factory=dict)  # key -> tx id
    height: int = 0


class MultiChannelFabric:
    """A Fabric network with multiple channels and one ordering service."""

    def __init__(
        self,
        channels: dict[str, set[str]],
        registry: ContractRegistry,
        config: ChannelConfig | None = None,
    ) -> None:
        if not channels:
            raise ConfigError("need at least one channel")
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
        self._tx_by_id: dict[str, Transaction] = {}
        self._tx_channels: dict[str, list[str]] = {}
        self._submit_times: dict[str, float] = {}
        self._commit_times: dict[str, float] = {}
        self._aborted: dict[str, str] = {}
        self._pending: list[tuple[Transaction, list[str]]] = []
        self._prepared: dict[str, set[str]] = {}  # tx -> channels prepared
        self._cross_writes: dict[str, dict[str, dict[str, Any]]] = {}
        self._ran = False

    # -- submission ------------------------------------------------------------

    def submit(self, tx: Transaction, channels: list[str]) -> None:
        """Submit ``tx`` to one channel (normal) or several (cross-channel)."""
        unknown = [c for c in channels if c not in self.channels]
        if unknown:
            raise ValidationError(f"unknown channels: {unknown}")
        if not channels:
            raise ValidationError("a transaction needs at least one channel")
        self._tx_by_id[tx.tx_id] = tx
        self._tx_channels[tx.tx_id] = list(channels)
        self._pending.append((tx, list(channels)))

    def run(self) -> RunResult:
        if self._ran:
            raise ConfigError("a MultiChannelFabric runs exactly once")
        self._ran = True
        interval = (
            1.0 / self.config.arrival_rate if self.config.arrival_rate else 0.0
        )
        at = 0.0
        for tx, channels in self._pending:
            self._submit_times[tx.tx_id] = at
            if len(channels) == 1:
                record = ("tx", channels[0], tx.tx_id)
            else:
                record = ("prepare", tuple(sorted(channels)), tx.tx_id)

            def arrive(r=record) -> None:
                self.cluster.submit(r, via=self._reference)

            self.sim.schedule_at(at, arrive)
            at += interval
        horizon = self.config.max_time
        total = len(self._pending)
        while self.sim.now < horizon:
            if len(self._commit_times) + len(self._aborted) >= total:
                break
            before = self.sim.now
            processed = self.sim.run(until=min(horizon, self.sim.now + 0.5))
            if processed == 0 and self.sim.now == before:
                break
        return self._build_result()

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
        touched = {op.key for op in tx.declared_ops}
        if touched & set(channel.locked_keys):
            self._aborted[tx_id] = "locked_by_2pc"
            self.sim.metrics.incr("channels.lock_aborts")
            return
        rwset = execute_with_capture(self.registry, tx, channel.store)
        if not rwset.ok:
            self._aborted[tx_id] = "business_rule"
            return
        channel.height += 1
        channel.store.apply_writes(
            rwset.writes, Version(height=channel.height, tx_index=0)
        )
        block = channel.ledger.next_block(
            [tx], timestamp=self.sim.now, proposer=self._reference
        )
        channel.ledger.append(block)
        self._commit_times[tx_id] = self.sim.now
        self.sim.metrics.incr("channels.intra_commits")

    def _apply_prepare(self, channel_names: list[str], tx_id: str) -> None:
        tx = self._tx_by_id[tx_id]
        touched = {op.key for op in tx.declared_ops}
        # Vote: every involved channel must be lock-free on the keys.
        for name in channel_names:
            channel = self.channels[name]
            if touched & set(channel.locked_keys):
                self._aborted[tx_id] = "2pc_lock_conflict"
                self.sim.metrics.incr("channels.2pc_aborts")
                return
        # Execute against the union view of the involved channels.
        view = _UnionView([self.channels[n].store for n in channel_names])
        rwset = execute_with_capture(self.registry, tx, view)
        if not rwset.ok:
            self._aborted[tx_id] = "business_rule"
            return
        per_channel: dict[str, dict[str, Any]] = {n: {} for n in channel_names}
        for key, val in rwset.writes.items():
            for name in channel_names:
                # Writes replicate to every involved channel: the data a
                # cross-channel tx touches is public among participants.
                per_channel[name][key] = val
        self._cross_writes[tx_id] = per_channel
        for name in channel_names:
            channel = self.channels[name]
            for key in touched:
                channel.locked_keys[key] = tx_id
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
            for key, locker in list(channel.locked_keys.items()):
                if locker == tx_id:
                    del channel.locked_keys[key]
        del self._prepared[tx_id]
        self._commit_times[tx_id] = self.sim.now
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

    def _build_result(self) -> RunResult:
        result = RunResult(system="multichannel-fabric")
        last = 0.0
        for tx_id, commit_time in self._commit_times.items():
            result.committed += 1
            result.latencies.record(commit_time - self._submit_times[tx_id])
            last = max(last, commit_time)
        result.aborted = len(self._aborted)
        unresolved = (
            len(self._pending) - len(self._commit_times) - len(self._aborted)
        )
        result.aborted += unresolved
        result.duration = last if last > 0 else self.sim.now
        result.messages = int(self.sim.metrics.get("net.messages"))
        result.extra = {
            key: val
            for key, val in self.sim.metrics.snapshot().items()
            if key.startswith("channels.")
        }
        return result


class _UnionView:
    """Read view over several channel stores (first hit wins)."""

    def __init__(self, stores: list[StateStore]) -> None:
        self._stores = stores

    def get_versioned(self, key: str):
        for store in self._stores:
            if key in store:
                return store.get_versioned(key)
        return self._stores[0].get_versioned(key)
