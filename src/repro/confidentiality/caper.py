"""Caper (Amiri et al., VLDB 2019) — confidentiality through views.

Paper section 2.3.1: in Caper "each enterprise orders and executes its
internal transactions locally while cross-enterprise transactions are
public and visible to every enterprise. ... the blockchain ledger is a
directed acyclic graph ... not maintained by any node. In fact, each
enterprise maintains its own local view of the ledger including its
internal and all cross-enterprise transactions."

Modelled faithfully:

* every enterprise runs its own *local* consensus cluster that orders
  only its internal transactions — other enterprises never see them;
* one *global* consensus cluster (one orderer per enterprise) orders
  cross-enterprise transactions;
* the logical DAG ledger (:class:`repro.ledger.dag.CaperDag`) exists
  only for audits; at runtime each enterprise materialises exactly its
  :meth:`view`;
* each enterprise's state store holds only keys it owns plus results of
  cross-enterprise transactions it participates in — the leakage audit
  (:meth:`leakage_report`) checks that no foreign internal data ever
  lands anywhere it should not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.common.driver import RunDriver, TxRecord
from repro.common.errors import ConfigError, ValidationError
from repro.common.types import Transaction, TxType
from repro.consensus import PROTOCOLS, ConsensusCluster
from repro.execution.contracts import ContractRegistry
from repro.execution.rwsets import RoutedView, execute_with_capture
from repro.ledger.dag import CaperDag
from repro.ledger.store import StateStore, Version
from repro.sim.core import Simulation
from repro.sim.network import LanLatency


@dataclass
class CaperConfig:
    """Deployment knobs for a Caper network."""

    nodes_per_enterprise: int = 4
    local_protocol: str = "pbft"
    global_protocol: str = "pbft"
    #: One-way latency between enterprises (global consensus runs across
    #: organisations, i.e. over the WAN; local consensus stays on a LAN).
    wan_latency: float = 0.02
    seed: int = 0
    max_time: float = 600.0
    arrival_rate: float | None = 2000.0


def key_owner(key: str) -> str | None:
    """Ownership convention: ``<kind>:<enterprise>[:...]`` keys belong to
    the named enterprise; anything else is public."""
    parts = key.split(":")
    if len(parts) >= 2:
        return parts[1]
    return None


class CaperSystem(RunDriver):
    """A Caper network over a set of enterprises."""

    name = "caper"

    def __init__(
        self,
        enterprises: list[str],
        registry: ContractRegistry,
        config: CaperConfig | None = None,
    ) -> None:
        if len(enterprises) < 2:
            raise ConfigError("Caper needs at least two enterprises")
        super().__init__()
        self.enterprises = list(enterprises)
        self.registry = registry
        self.config = config or CaperConfig()
        self.sim = Simulation(seed=self.config.seed)
        self.dag = CaperDag(self.enterprises)
        self.stores: dict[str, StateStore] = {
            e: StateStore() for e in self.enterprises
        }
        # Local ordering: one cluster per enterprise.
        local_cls, local_byz = PROTOCOLS[self.config.local_protocol]
        self._local_clusters: dict[str, ConsensusCluster] = {}
        for enterprise in self.enterprises:
            self._local_clusters[enterprise] = ConsensusCluster(
                local_cls,
                n=self.config.nodes_per_enterprise,
                byzantine=local_byz,
                sim=self.sim,
                latency=LanLatency(),
                id_prefix=f"{enterprise}-n",
                decide_listener=self._make_local_listener(enterprise),
            )
        # Global ordering: one representative orderer per enterprise.
        global_cls, global_byz = PROTOCOLS[self.config.global_protocol]
        global_n = max(len(self.enterprises), 4 if global_byz else 3)
        self._global_cluster = ConsensusCluster(
            global_cls,
            n=global_n,
            byzantine=global_byz,
            sim=self.sim,
            latency=LanLatency(
                base=self.config.wan_latency,
                jitter=self.config.wan_latency / 5,
            ),
            id_prefix="g",
            decide_listener=self._on_global_decide,
        )
        self._seq: dict[str, int] = {e: 0 for e in self.enterprises}
        self._global_seq = 0

    # -- submission -----------------------------------------------------------

    def submit(self, tx: Transaction) -> None:
        if tx.tx_type not in (TxType.INTERNAL, TxType.CROSS_ENTERPRISE):
            raise ValidationError(
                "Caper transactions must be INTERNAL or CROSS_ENTERPRISE"
            )
        if tx.tx_type is TxType.INTERNAL and tx.submitter not in self.stores:
            raise ValidationError(f"unknown enterprise: {tx.submitter}")
        super().submit(tx)

    def _ingest(self, record: TxRecord) -> None:
        tx = record.tx
        if tx.tx_type is TxType.INTERNAL:
            self._local_clusters[tx.submitter].submit(tx.tx_id)
            self.sim.metrics.incr("caper.local_submissions")
        else:
            self._global_cluster.submit(tx.tx_id)
            self.sim.metrics.incr("caper.global_submissions")

    # -- decisions ---------------------------------------------------------------

    def _make_local_listener(self, enterprise: str):
        reference = f"{enterprise}-n0"

        def listener(node_id: str, sequence: int, value: Any) -> None:
            if node_id != reference:
                return
            self._commit_internal(enterprise, self._tx_by_id[value])

        return listener

    def _on_global_decide(self, node_id: str, sequence: int, value: Any) -> None:
        if node_id != "g0":
            return
        self._commit_cross(self._tx_by_id[value])

    def _commit_internal(self, enterprise: str, tx: Transaction) -> None:
        store = self.stores[enterprise]
        rwset = execute_with_capture(self.registry, tx, store)
        self.sim.metrics.incr("caper.local_decisions")
        if not rwset.ok:
            self._mark_aborted(tx, "business_rule")
            return
        version = Version(height=self._seq[enterprise], tx_index=0)
        self._seq[enterprise] += 1
        store.apply_writes(rwset.writes, version)
        self.dag.add_internal(enterprise, tx)
        self._mark_committed(tx)

    def _commit_cross(self, tx: Transaction) -> None:
        involved = sorted(tx.involved) or list(self.enterprises)
        view = RoutedView(
            {e: self.stores[e] for e in involved if e in self.stores}, key_owner
        )
        rwset = execute_with_capture(self.registry, tx, view)
        self.sim.metrics.incr("caper.global_decisions")
        if not rwset.ok:
            self._mark_aborted(tx, "business_rule")
            return
        self._global_seq += 1
        version = Version(height=1_000_000 + self._global_seq, tx_index=0)
        # Writes land on the owning enterprise's store; public keys are
        # replicated to every involved enterprise.
        for key, value in rwset.writes.items():
            owner = key_owner(key)
            targets = [owner] if owner in self.stores else involved
            for target in targets:
                if target in self.stores:
                    self.stores[target].apply_writes({key: value}, version)
        self.dag.add_cross(tx)
        self._mark_committed(tx)

    # -- views and audits --------------------------------------------------------

    def view(self, enterprise: str):
        """The only ledger this enterprise materialises."""
        return self.dag.view(enterprise)

    def leakage_report(self) -> dict[str, list[str]]:
        """Internal transactions visible outside their enterprise.

        An empty report is the confidentiality property: enterprise A's
        view must contain no internal transaction of enterprise B, and
        A's store must hold no key owned by B unless a cross-enterprise
        transaction involving A wrote it.
        """
        leaks: dict[str, list[str]] = {}
        for enterprise in self.enterprises:
            found = [
                vertex.tx.tx_id
                for vertex in self.view(enterprise)
                if vertex.enterprise not in (enterprise, None)
            ]
            if found:
                leaks[enterprise] = found
        return leaks

    def _extra(self, committed: list[TxRecord]) -> dict[str, float]:
        return {
            "local_decisions": self.sim.metrics.get("caper.local_decisions"),
            "global_decisions": self.sim.metrics.get("caper.global_decisions"),
        }
