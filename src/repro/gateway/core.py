"""The front-door admission tier: the client-facing edge of a peer.

Every deployed permissioned system puts a gateway between clients and
the ordering service (Fabric's peer gateway service, Diem's JSON-RPC
front end, the API servers the end-to-end comparison of Geyer et al.
(arXiv:2311.15433) drives its load through). This module models that
tier *inside* the deterministic simulator, so overload behaviour is a
measurable, reproducible experiment instead of an ops anecdote:

* **Signature pre-check** — a forged or revoked submission is rejected
  at the edge via :class:`~repro.crypto.signatures.MembershipService`
  (whose :class:`~repro.crypto.sigcache.SignatureCache` makes repeat
  verdicts cheap) before it costs ordering or execution work.
* **Per-client token buckets** — rate ``rate`` tokens/s, capacity
  ``burst``; a client exceeding its budget gets an explicit
  ``rate-limited`` rejection carrying ``retry_after`` (the backpressure
  signal), never a silent drop.
* **Bounded queues + overload shedding** — at most ``queue_capacity``
  admitted transactions may wait for a batch and at most
  ``max_in_flight`` may be unresolved inside the system; beyond either
  bound the gateway sheds with ``queue-full`` / ``overloaded``. Bounded
  queues are what keep tail latency finite at saturation: goodput
  plateaus and the excess is *counted*, the E22 gate's knee shape.
* **Batcher** — admitted transactions are assembled into batches of
  ``batch_size`` (or after ``batch_interval``) and released to a sink —
  the ingest path of any :class:`~repro.common.driver.RunDriver`.

The gateway takes and releases records
(:class:`~repro.common.driver.TxRecord`) and stamps their ``submit`` and
``admit`` legs and retry ``attempts``. It holds no RNG: given the same
arrival schedule on the same virtual clock, every admit/shed decision,
stamp, and batch boundary is identical — the property the
byte-identical fingerprint gate asserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.common.driver import TxRecord
from repro.common.errors import ConfigError
from repro.execution.pipeline import ExecutionPipeline

#: Rejection reasons the gateway can emit. A shed always carries one.
SHED_REASONS = ("bad-signature", "rate-limited", "queue-full", "overloaded")

#: Reasons worth a client retry (a bad signature never becomes valid).
RETRYABLE_REASONS = frozenset({"rate-limited", "queue-full", "overloaded"})


@dataclass
class GatewayConfig:
    """Admission-tier knobs.

    Attributes:
        rate: Token-bucket refill rate per client (tx/s).
        burst: Token-bucket capacity per client (max burst size).
        queue_capacity: Max admitted transactions waiting for a batch
            (including those still paying ``admit_cost``).
        max_in_flight: Max admitted-but-unresolved transactions inside
            the backing system (the end-to-end admission window).
        batch_size: Transactions per released batch.
        batch_interval: Max time a partial batch waits before release.
        admit_cost: Modelled CPU seconds the gateway spends admitting
            one transaction (signature check, dedup, routing).
        admission_lanes: Parallel admission lanes sharing that work.
        verify_signatures: Pre-check client signatures at the edge.
        max_retries: Client-side retries after a retryable rejection
            (0 = open-loop measurement mode: every shed is final).
        retry_backoff: Base delay before a retry; the gateway's
            ``retry_after`` hint is honoured when larger.
    """

    rate: float = 100.0
    burst: float = 10.0
    queue_capacity: int = 256
    max_in_flight: int = 1024
    batch_size: int = 50
    batch_interval: float = 0.05
    admit_cost: float = 0.00002
    admission_lanes: int = 4
    verify_signatures: bool = True
    max_retries: int = 0
    retry_backoff: float = 0.05

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ConfigError("gateway rate must be positive")
        if self.burst < 1:
            raise ConfigError("gateway burst must be >= 1 token")
        if self.queue_capacity < 1:
            raise ConfigError("queue_capacity must be >= 1")
        if self.max_in_flight < 1:
            raise ConfigError("max_in_flight must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.batch_interval <= 0:
            raise ConfigError("batch_interval must be positive")
        if self.admit_cost < 0:
            raise ConfigError("admit_cost must be non-negative")
        if self.admission_lanes < 1:
            raise ConfigError("admission_lanes must be >= 1")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be non-negative")
        if self.retry_backoff <= 0:
            raise ConfigError("retry_backoff must be positive")


class TokenBucket:
    """Lazily refilled token bucket; rate/burst shared via the config."""

    __slots__ = ("tokens", "refilled_at")

    def __init__(self, burst: float, now: float) -> None:
        self.tokens = burst
        self.refilled_at = now

    def refill(self, now: float, rate: float, burst: float) -> None:
        elapsed = now - self.refilled_at
        if elapsed > 0:
            self.tokens = min(burst, self.tokens + elapsed * rate)
            self.refilled_at = now


@dataclass(frozen=True)
class AdmissionDecision:
    """What the gateway told the client, loudly."""

    admitted: bool
    reason: str | None = None
    retry_after: float | None = None
    will_retry: bool = False


class Gateway:
    """Deterministic request-admission front door on a virtual clock.

    ``sink(batch)`` is called with the records of each released batch —
    in system integration that forwards each one into the driver's
    ingest path; standalone tests pass a collector. ``on_shed(record,
    reason)`` resolves each finally-shed record, once, after retries (if
    any) are exhausted; by default the gateway marks the record ``shed``
    itself.
    """

    def __init__(
        self,
        sim,
        config: GatewayConfig,
        sink: Callable[[list[TxRecord]], None],
        membership=None,
        on_shed: Callable[[TxRecord, str], None] | None = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self._sink = sink
        self._membership = membership
        self._on_shed = on_shed or _mark_shed
        self._buckets: dict[str, TokenBucket] = {}
        self._queue: list[TxRecord] = []  # admitted, awaiting a batch
        self._in_admission = 0  # admitted, still paying admit_cost
        self._in_flight = 0  # admitted, unresolved in the system
        self._admitted_ids: set[str] = set()
        self._batch_timer = None
        self._admission = ExecutionPipeline(depth=config.admission_lanes)
        # Telemetry (the queue-bound invariant tests read these).
        self.counters = {
            "arrivals": 0,
            "admitted": 0,
            "batches": 0,
            "retries": 0,
            "shed.bad-signature": 0,
            "shed.rate-limited": 0,
            "shed.queue-full": 0,
            "shed.overloaded": 0,
        }
        self.max_queued_seen = 0
        self.max_in_flight_seen = 0

    # -- client API ---------------------------------------------------------

    def submit(
        self,
        record: TxRecord,
        signature: bytes | None = None,
        _retries_left: int | None = None,
    ) -> AdmissionDecision:
        """One submission attempt at ``sim.now``; sheds loudly or admits."""
        now = self.sim.now
        tx = record.tx
        if _retries_left is None:
            self.counters["arrivals"] += 1
            record.submit = now
            _retries_left = self.config.max_retries

        if self.config.verify_signatures and self._membership is not None:
            if signature is None or not self._membership.verify(
                tx.submitter, tx.digest().encode(), signature
            ):
                return self._shed(record, "bad-signature", None, 0, signature)

        bucket = self._buckets.get(tx.submitter)
        if bucket is None:
            bucket = self._buckets[tx.submitter] = TokenBucket(
                self.config.burst, now
            )
        else:
            bucket.refill(now, self.config.rate, self.config.burst)
        if bucket.tokens < 1.0:
            retry_after = (1.0 - bucket.tokens) / self.config.rate
            return self._shed(
                record, "rate-limited", retry_after, _retries_left, signature
            )

        pending = len(self._queue) + self._in_admission
        if pending >= self.config.queue_capacity:
            return self._shed(
                record, "queue-full", self.config.batch_interval,
                _retries_left, signature,
            )
        if self._in_flight >= self.config.max_in_flight:
            return self._shed(
                record, "overloaded", self.config.batch_interval,
                _retries_left, signature,
            )

        # Admitted: consume the token and book admission-lane time; the
        # transaction joins the batch queue when its admission work is
        # done (stamped then — admit latency includes lane queueing).
        bucket.tokens -= 1.0
        self.counters["admitted"] += 1
        self._admitted_ids.add(record.tx_id)
        self._in_flight += 1
        self._in_admission += 1
        if self._in_flight > self.max_in_flight_seen:
            self.max_in_flight_seen = self._in_flight
        ready_at = self._admission.claim(now, self.config.admit_cost)
        self.sim.schedule_at(ready_at, self._enqueue_admitted, record)
        return AdmissionDecision(admitted=True)

    def release(self, record: TxRecord) -> None:
        """``record`` reached a terminal status — if it was admitted,
        free its slot in the in-flight window."""
        if record.tx_id in self._admitted_ids:
            self._admitted_ids.discard(record.tx_id)
            self._in_flight -= 1

    # -- shedding / retry ---------------------------------------------------

    def _shed(
        self,
        record: TxRecord,
        reason: str,
        retry_after: float | None,
        retries_left: int,
        signature: bytes | None,
    ) -> AdmissionDecision:
        if reason in RETRYABLE_REASONS and retries_left > 0:
            delay = max(self.config.retry_backoff, retry_after or 0.0)
            self.counters["retries"] += 1
            record.attempts += 1
            self.sim.schedule(
                delay, self.submit, record, signature, retries_left - 1
            )
            return AdmissionDecision(
                admitted=False, reason=reason,
                retry_after=retry_after, will_retry=True,
            )
        if record.terminal:
            raise ConfigError(f"shed after terminal state for {record.tx_id}")
        self.counters[f"shed.{reason}"] += 1
        self._on_shed(record, reason)
        return AdmissionDecision(
            admitted=False, reason=reason, retry_after=retry_after
        )

    # -- batcher ------------------------------------------------------------

    def _enqueue_admitted(self, record: TxRecord) -> None:
        self._in_admission -= 1
        if record.terminal:
            raise ConfigError(f"admit after terminal state for {record.tx_id}")
        record.admit = self.sim.now
        record.status = "admitted"
        self._queue.append(record)
        if len(self._queue) > self.max_queued_seen:
            self.max_queued_seen = len(self._queue)
        if len(self._queue) >= self.config.batch_size:
            self._release_batch()
        elif self._batch_timer is None:
            self._batch_timer = self.sim.schedule(
                self.config.batch_interval, self._release_partial
            )

    def _release_partial(self) -> None:
        self._batch_timer = None
        if self._queue:
            self._release_batch()

    def _release_batch(self) -> None:
        batch, self._queue = (
            self._queue[: self.config.batch_size],
            self._queue[self.config.batch_size:],
        )
        if self._batch_timer is not None:
            self._batch_timer.cancel()
            self._batch_timer = None
        if self._queue:
            self._batch_timer = self.sim.schedule(
                self.config.batch_interval, self._release_partial
            )
        self.counters["batches"] += 1
        self._sink(batch)

    def flush(self) -> None:
        """Release any partial batch immediately (end-of-run drain)."""
        if self._queue:
            self._release_batch()

    # -- telemetry ----------------------------------------------------------

    @property
    def queued(self) -> int:
        return len(self._queue) + self._in_admission

    @property
    def in_flight(self) -> int:
        return self._in_flight

    def shed_counts(self) -> dict[str, int]:
        return {
            reason: self.counters[f"shed.{reason}"]
            for reason in SHED_REASONS
        }


def _mark_shed(record: TxRecord, reason: str) -> None:
    record.status = "shed"
    record.reason = reason
