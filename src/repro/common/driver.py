"""The open-loop run driver every system family shares, and the one
record each transaction leaves behind.

The core architectures, the four sharded designs, Caper, multi-channel
Fabric, SEPAR and Quorum all run a workload the same way: submitted
transactions arrive ``1 / arrival_rate`` apart in submit order, the
simulation advances in 0.5 s slices until every transaction is resolved
or the horizon passes, and the submit, commit and abort times become one
:class:`~repro.common.metrics.RunResult`. :class:`RunDriver` is that
loop. A family keeps only what is its own: how an arrival enters its
pipeline (:meth:`RunDriver._ingest`) and which counters it reports
(:meth:`RunDriver._extra`).

Each submitted transaction has exactly one :class:`TxRecord`: the
stamps of its path — **submit**, **admit** (a front door accepted it),
**order** (consensus decided the block holding it), **commit** — and
exactly one terminal status, set by the first resolution:

* ``committed`` — its effects are final;
* ``aborted`` — the *system* rejected it; ``reason`` says why;
* ``shed`` — a front door rejected it before it entered the system;
* ``timeout`` — still unresolved when the horizon closed (reason
  ``horizon``), so "silently lost" cannot happen.

Arrivals reach a family through one seam. ``run()`` fires them at the
fixed interval above; ``run(front=...)`` hands the records to a
:class:`Front` instead (the gateway of :mod:`repro.gateway`), which
schedules them itself and is told of every terminal status.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Protocol

from repro.common.errors import ConfigError
from repro.common.metrics import RunResult

#: Statuses a record may end in (exactly one, exactly once).
TERMINAL_STATUSES = frozenset({"committed", "aborted", "shed", "timeout"})


@dataclass(slots=True)
class TxRecord:
    """Stamps and status of one submitted transaction.

    ``tx`` is whatever the family submits — a
    :class:`~repro.common.types.Transaction`, a SEPAR claim, a Quorum
    private transfer — as long as it carries a ``tx_id``. Stamps are
    virtual times; ``admit`` stays None without a front door and
    ``order`` where the family does not stamp it. ``status`` is
    ``pending`` (``admitted`` once a front door accepts it) until the
    first resolution.
    """

    tx: Any
    submit: float = 0.0
    admit: float | None = None
    order: float | None = None
    commit: float | None = None
    status: str = "pending"
    reason: str | None = None
    attempts: int = 1

    @property
    def tx_id(self) -> str:
        return self.tx.tx_id

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATUSES

    @property
    def committed(self) -> bool:
        return self.status == "committed"

    @property
    def latency(self) -> float:
        """Submit-to-commit time of a committed transaction."""
        return self.commit - self.submit


class Front(Protocol):
    """What stands between the clients and a :class:`RunDriver`."""

    def open(self, records: list[TxRecord]) -> None:
        """Schedule the arrival of every record, in submit order."""

    def resolved(self, record: TxRecord) -> None:
        """``record`` just reached its terminal status."""


class RunDriver:
    """Base of every system family: submit, drive, resolve, summarise.

    A subclass sets ``self.sim`` and ``self.config`` (which must carry
    ``arrival_rate`` and ``max_time``), queues work through
    :meth:`submit`, implements :meth:`_ingest`, and reports each outcome
    through :meth:`_mark_committed` or :meth:`_mark_aborted`.
    """

    name = "abstract"
    #: Counter-name prefixes :meth:`_extra` copies into ``RunResult.extra``.
    extra_prefixes: tuple[str, ...] = ()
    #: Counter bumped as ``<abort_metric><reason>`` per non-commit
    #: (``unresolved`` for a timeout); None = none.
    abort_metric: str | None = None

    def __init__(self) -> None:
        self._records: dict[str, TxRecord] = {}
        self._tx_by_id: dict[str, Any] = {}
        self._committed: list[TxRecord] = []  # in commit order
        self._unresolved = 0
        self._front: Front | None = None
        self._ran = False

    # -- client side ------------------------------------------------------

    def submit(self, tx: Any) -> None:
        """Queue ``tx`` for the run (call before :meth:`run`)."""
        if self._ran:
            raise ConfigError("submit() after run() is not supported")
        if tx.tx_id in self._records:
            raise ConfigError(f"duplicate transaction id: {tx.tx_id}")
        self._records[tx.tx_id] = TxRecord(tx=tx)
        self._tx_by_id[tx.tx_id] = tx
        self._unresolved += 1

    def run(self, front: Front | None = None) -> RunResult:
        """Simulate the whole run and summarise it. ``front`` schedules
        the arrivals in place of the fixed interval."""
        if self._ran:
            raise ConfigError("a system instance runs exactly once")
        self._ran = True
        self._front = front
        if front is None:
            self._schedule_arrivals()
        else:
            front.open(list(self._records.values()))
        horizon = self.config.max_time
        while self._unresolved and self.sim.now < horizon:
            before = self.sim.now
            processed = self.sim.run(
                until=min(horizon, before + 0.5), max_events=5_000_000
            )
            if processed == 0 and self.sim.now == before:
                break  # drained
        return self._build_result()

    def _schedule_arrivals(self) -> None:
        rate = self.config.arrival_rate
        interval = 1.0 / rate if rate else 0.0
        at = 0.0
        for record in self._records.values():
            record.submit = at
            self.sim.schedule_at(
                at + self._arrival_delay(record.tx), self._ingest, record
            )
            at += interval

    # -- outcomes -----------------------------------------------------------

    def resolve(
        self, record: TxRecord, status: str, reason: str | None = None
    ) -> None:
        """Give ``record`` its terminal ``status``. The first resolution
        wins; later ones are ignored."""
        if record.terminal:
            return
        record.status = status
        record.reason = reason
        self._unresolved -= 1
        if status == "committed":
            record.commit = self.sim.now
            self._committed.append(record)
        elif self.abort_metric is not None:
            suffix = "unresolved" if status == "timeout" else reason
            self.sim.metrics.incr(self.abort_metric + suffix)
        if self._front is not None:
            self._front.resolved(record)

    def _mark_committed(self, tx: Any) -> None:
        self.resolve(self._records[tx.tx_id], "committed")

    def _mark_aborted(self, tx: Any, reason: str) -> None:
        self.resolve(self._records[tx.tx_id], "aborted", reason)

    def record(self, tx_id: str) -> TxRecord:
        """The record of one submitted transaction."""
        return self._records[tx_id]

    def records(self) -> Iterable[TxRecord]:
        """Every submitted transaction's record, in submit order."""
        return self._records.values()

    def committed_tx_ids(self) -> set[str]:
        """Ids of every transaction committed so far (the set the
        ledger-linkage and serializability invariants audit)."""
        return {record.tx.tx_id for record in self._committed}

    # -- family hooks ---------------------------------------------------------

    def _arrival_delay(self, tx: Any) -> float:
        """Time between a transaction's submit slot and its arrival."""
        return 0.0

    def _ingest(self, record: TxRecord) -> None:
        """A client transaction arrived; route it into the pipeline."""
        raise NotImplementedError

    def _extra(self, committed: list[TxRecord]) -> dict[str, float]:
        """``RunResult.extra``: the counters under :attr:`extra_prefixes`."""
        return {
            key: value
            for key, value in self.sim.metrics.snapshot().items()
            if key.startswith(self.extra_prefixes)
        }

    # -- result ---------------------------------------------------------------

    def _build_result(self) -> RunResult:
        for record in self._records.values():
            if not record.terminal:
                self.resolve(record, "timeout", "horizon")
        committed = self._committed
        metrics = self.sim.metrics
        result = RunResult(
            system=self.name,
            committed=len(committed),
            aborted=len(self._records) - len(committed),
            messages=int(metrics.get("net.messages")),
            bytes_sent=int(metrics.get("net.bytes")),
            extra=self._extra(committed),
        )
        result.latencies.extend(record.latency for record in committed)
        last_commit = max((r.commit for r in committed), default=0.0)
        result.duration = last_commit if last_commit > 0 else self.sim.now
        return result
