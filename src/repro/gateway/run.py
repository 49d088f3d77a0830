"""Client → gateway → ordering → commit: the end-to-end path, wired.

:class:`GatewayRun` puts the admission tier of :mod:`repro.gateway.core`
in front of any architecture from ``repro.core.SYSTEMS`` and drives it
with an open-loop schedule from
:class:`~repro.workloads.openloop.OpenLoopWorkload`. It is the system's
front (:class:`~repro.common.driver.Front`) and replaces none of its
methods:

* :meth:`GatewayRun.open` fires every arrival at its own Poisson
  timestamp on the system's simulator,
* each submission carries a real client signature (HMAC scheme, clients
  enrolled lazily at first sight) which the gateway pre-checks through
  the shared :class:`~repro.crypto.sigcache.SignatureCache`,
* admitted batches feed the architecture's own ingest path, a shed
  resolves its record through the driver with status ``shed``, and
  :meth:`GatewayRun.resolved` frees the gateway's in-flight slot of each
  record the driver resolves.

The result is one :class:`GatewayReport` over the system's records
(:class:`~repro.common.driver.TxRecord`): end-to-end percentile
latencies, goodput, and a complete shed/abort/timeout accounting —
``arrivals == committed + aborted + shed + timeouts`` always, which is
the "nothing is silently lost" invariant the DST gateway target audits
under crash and partition faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.common.driver import TxRecord
from repro.common.errors import ConfigError, CryptoError
from repro.core import SYSTEMS, SystemConfig
from repro.crypto.signatures import HmacSignatureScheme, MembershipService
from repro.gateway.core import Gateway, GatewayConfig
from repro.gateway.ledger import LatencyReport, fingerprint, latency_report
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
        self._arrivals: list[Arrival] = workload.arrivals()
        self._ran = False

        self.system = SYSTEMS[architecture](self.system_config)
        self.gateway = Gateway(
            self.system.sim,
            self.gateway_config,
            sink=self._ingest_batch,
            membership=self.membership,
            on_shed=self._on_shed,
        )

    @property
    def arrivals(self) -> list[Arrival]:
        return self._arrivals

    @property
    def ledger(self) -> Iterable[TxRecord]:
        """Every arrival's record: its stamps, status and reason."""
        return self.system.records()

    # -- the system's front -------------------------------------------------

    def open(self, records: list[TxRecord]) -> None:
        """Fire each arrival at the gateway at its own time."""
        schedule_at = self.system.sim.schedule_at
        for arrival, record in zip(self._arrivals, records):
            schedule_at(arrival.time, self._fire_arrival, arrival, record)

    def resolved(self, record: TxRecord) -> None:
        self.gateway.release(record)

    def _fire_arrival(self, arrival: Arrival, record: TxRecord) -> None:
        self.gateway.submit(record, self._sign(arrival))

    def _sign(self, arrival: Arrival) -> bytes:
        if not self.membership.is_member(arrival.client):
            try:
                self.membership.register(arrival.client)
            except CryptoError:
                pass  # revoked mid-run by a churn test: sign with stale key
        signature = self.membership.sign(
            arrival.client, arrival.tx.digest().encode()
        )
        if not arrival.sig_valid:
            signature = b"forged:" + signature[:8]
        return signature

    # -- gateway callbacks --------------------------------------------------

    def _ingest_batch(self, batch: list[TxRecord]) -> None:
        for record in batch:
            self.system._ingest(record)

    def _on_shed(self, record: TxRecord, reason: str) -> None:
        self.system.resolve(record, "shed", reason)

    # -- driving ------------------------------------------------------------

    def run(self) -> GatewayReport:
        if self._ran:
            raise ConfigError("a GatewayRun instance runs exactly once")
        self._ran = True
        for arrival in self._arrivals:
            self.system.submit(arrival.tx)
        result = self.system.run(front=self)
        cache = self.membership.cache_stats
        extra = dict(result.extra)
        extra["sigcache.hits"] = cache["hits"]
        extra["sigcache.misses"] = cache["misses"]
        return GatewayReport(
            system=self.architecture,
            offered_tps=self.workload.config.offered_load,
            latency=latency_report(self.ledger),
            gateway_counters=dict(self.gateway.counters),
            sheds=self.gateway.shed_counts(),
            fingerprint=fingerprint(self.ledger),
            extra=extra,
        )
