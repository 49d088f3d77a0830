"""Client → gateway → ordering → commit: the end-to-end path, wired.

:class:`GatewayRun` puts the admission tier of :mod:`repro.gateway.core`
in front of any architecture from ``repro.core.SYSTEMS`` and drives it
with an open-loop schedule from
:class:`~repro.workloads.openloop.OpenLoopWorkload`:

* every arrival fires at its own Poisson timestamp on the system's
  simulator (replacing the system's fixed-interval arrival scheduler),
* each submission carries a real client signature (HMAC scheme, clients
  enrolled lazily at first sight) which the gateway pre-checks through
  the shared :class:`~repro.crypto.sigcache.SignatureCache`,
* admitted batches feed the architecture's own ingest path, and the
  system's decide/commit/abort transitions are observed to stamp the
  ``order``/``commit`` legs of the latency ledger and to release the
  gateway's in-flight window.

The result is one :class:`GatewayReport` carrying end-to-end percentile
latencies, goodput, and a complete shed/abort/timeout accounting —
``arrivals == committed + aborted + shed + timeouts`` always, which is
the "nothing is silently lost" invariant the DST gateway target audits
under crash and partition faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.common.errors import ConfigError
from repro.common.types import Transaction
from repro.core import SYSTEMS, SystemConfig
from repro.crypto.signatures import HmacSignatureScheme, MembershipService
from repro.gateway.core import Gateway, GatewayConfig
from repro.gateway.ledger import LatencyLedger, LatencyReport
from repro.workloads.openloop import Arrival, OpenLoopWorkload


@dataclass
class GatewayReport:
    """One end-to-end gateway experiment cell."""

    system: str
    offered_tps: float
    latency: LatencyReport
    gateway_counters: dict[str, int] = field(default_factory=dict)
    sheds: dict[str, int] = field(default_factory=dict)
    fingerprint: str = ""
    extra: dict[str, Any] = field(default_factory=dict)

    def to_row(self) -> dict[str, Any]:
        row: dict[str, Any] = {
            "system": self.system,
            "offered_tps": round(self.offered_tps, 1),
        }
        row.update(self.latency.to_row())
        return row

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "system": self.system,
            "offered_tps": round(self.offered_tps, 2),
            "latency": self.latency.to_jsonable(),
            "gateway": dict(sorted(self.gateway_counters.items())),
            "sheds": dict(sorted(self.sheds.items())),
            "fingerprint": self.fingerprint,
            "extra": {
                key: round(value, 6) if isinstance(value, float) else value
                for key, value in sorted(self.extra.items())
            },
        }


class GatewayRun:
    """One deterministic open-loop run against one architecture."""

    def __init__(
        self,
        architecture: str,
        workload: OpenLoopWorkload,
        gateway_config: GatewayConfig | None = None,
        system_config: SystemConfig | None = None,
        membership: MembershipService | None = None,
    ) -> None:
        if architecture not in SYSTEMS:
            raise ConfigError(
                f"unknown architecture {architecture!r}; "
                f"choose from {sorted(SYSTEMS)}"
            )
        self.architecture = architecture
        self.workload = workload
        self.gateway_config = gateway_config or GatewayConfig()
        self.system_config = system_config or SystemConfig()
        self.membership = membership or MembershipService(
            scheme=HmacSignatureScheme()
        )
        self.ledger = LatencyLedger()
        self._arrivals: list[Arrival] = workload.arrivals()
        self._ran = False

        self.system = SYSTEMS[architecture](self.system_config)
        self.gateway = Gateway(
            self.system.sim,
            self.gateway_config,
            sink=self._ingest_batch,
            ledger=self.ledger,
            membership=self.membership,
            on_shed=self._on_shed,
        )
        self._install_hooks()

    @property
    def arrivals(self) -> list[Arrival]:
        return self._arrivals

    # -- system hooks -------------------------------------------------------

    def _install_hooks(self) -> None:
        """Observe the system's lifecycle transitions without changing
        them: arrivals now come through the gateway, ordered blocks and
        terminal states stamp the latency ledger."""
        system = self.system
        system._schedule_arrivals = self._schedule_gateway_arrivals

        inner_decided = system._on_block_decided

        def on_block_decided(txs: list[Transaction]) -> None:
            now = system.sim.now
            for tx in txs:
                self.ledger.ordered(tx.tx_id, now)
            inner_decided(txs)

        system._on_block_decided = on_block_decided

        inner_commit = system._mark_committed

        def mark_committed(tx: Transaction) -> None:
            record = system.record(tx.tx_id)
            already = record.resolved
            inner_commit(tx)
            if not already and record.committed:
                self.ledger.committed(tx.tx_id, system.sim.now)
                self.gateway.resolve(tx.tx_id)

        system._mark_committed = mark_committed

        inner_abort = system._mark_aborted

        def mark_aborted(tx: Transaction, reason: str) -> None:
            record = system.record(tx.tx_id)
            already = record.resolved
            inner_abort(tx, reason)
            if already:
                return
            self.gateway.resolve(tx.tx_id)
            trace = self.ledger.trace(tx.tx_id)
            if trace.terminal:
                return  # gateway shed; system-side bookkeeping only
            if reason == "unresolved":
                # _build_result closing the run: the tx was admitted but
                # never reached a decision before the horizon.
                trace.status = "timeout"
                trace.reason = trace.reason or "horizon"
            else:
                self.ledger.aborted(tx.tx_id, reason, system.sim.now)

        system._mark_aborted = mark_aborted

    def _schedule_gateway_arrivals(self) -> None:
        for arrival in self._arrivals:
            record = self.system.record(arrival.tx.tx_id)
            record.submitted_at = arrival.time
            self.system.sim.schedule_at(
                arrival.time, self._fire_arrival, arrival
            )

    def _fire_arrival(self, arrival: Arrival) -> None:
        signature = self._sign(arrival)
        self.gateway.submit(arrival.tx, signature)

    def _sign(self, arrival: Arrival) -> bytes:
        if not self.membership.is_member(arrival.client):
            try:
                self.membership.register(arrival.client)
            except Exception:
                # Revoked mid-run by a churn test: sign with stale key.
                pass
        digest = arrival.tx.digest().encode()
        try:
            signature = self.membership.sign(arrival.client, digest)
        except Exception:
            signature = b"\x00" * 8
        if not arrival.sig_valid:
            signature = b"forged:" + signature[:8]
        return signature

    # -- gateway callbacks --------------------------------------------------

    def _ingest_batch(self, batch: list[Transaction]) -> None:
        for tx in batch:
            self.system._ingest(self.system.record(tx.tx_id))

    def _on_shed(self, tx: Transaction, reason: str) -> None:
        # Resolve the system-side record so the run can drain; the
        # dotted metric keeps sheds visible in RunResult.extra too.
        self.system._mark_aborted(tx, f"gw_{reason.replace('-', '_')}")

    # -- driving ------------------------------------------------------------

    def run(self) -> GatewayReport:
        if self._ran:
            raise ConfigError("a GatewayRun instance runs exactly once")
        self._ran = True
        for arrival in self._arrivals:
            self.system.submit(arrival.tx)
        result = self.system.run()
        self.ledger.finalize(self.system.sim.now)
        latency = self.ledger.report()
        cache = self.membership.cache_stats
        extra = dict(result.extra)
        extra["sigcache.hits"] = cache["hits"]
        extra["sigcache.misses"] = cache["misses"]
        return GatewayReport(
            system=self.architecture,
            offered_tps=self.workload.config.offered_load,
            latency=latency,
            gateway_counters=dict(self.gateway.counters),
            sheds=self.gateway.shed_counts(),
            fingerprint=self.ledger.fingerprint(),
            extra=extra,
        )
