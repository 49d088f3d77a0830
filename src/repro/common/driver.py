"""The open-loop run driver every system family shares.

The core architectures, the four sharded designs, Caper, multi-channel
Fabric, SEPAR and Quorum all run a workload the same way: submitted
transactions arrive ``1 / arrival_rate`` apart in submit order, the
simulation advances in 0.5 s slices until every transaction is resolved
or the horizon passes, and the submit, commit and abort times become one
:class:`~repro.common.metrics.RunResult`. :class:`RunDriver` is that
loop. A family keeps only what is its own: how an arrival enters its
pipeline (:meth:`RunDriver._ingest`) and which counters it reports
(:meth:`RunDriver._extra`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.common.errors import ConfigError
from repro.common.metrics import RunResult


@dataclass
class TxRecord:
    """Book-keeping for one submitted transaction.

    ``tx`` is whatever the family submits — a
    :class:`~repro.common.types.Transaction`, a SEPAR claim, a Quorum
    private transfer — as long as it carries a ``tx_id``.
    """

    tx: Any
    submitted_at: float = 0.0
    resolved: bool = False
    committed: bool = False
    commit_time: float = 0.0

    @property
    def latency(self) -> float:
        """Submit-to-commit time of a committed transaction."""
        return self.commit_time - self.submitted_at


class RunDriver:
    """Base of every system family: submit, drive, resolve, summarise.

    A subclass sets ``self.sim`` and ``self.config`` (which must carry
    ``arrival_rate`` and ``max_time``), queues work through
    :meth:`submit`, implements :meth:`_ingest`, and reports each outcome
    through :meth:`_mark_committed` or :meth:`_mark_aborted` — the first
    resolution of a transaction wins, later ones are ignored.
    """

    name = "abstract"
    #: Counter-name prefixes :meth:`_extra` copies into ``RunResult.extra``.
    extra_prefixes: tuple[str, ...] = ()
    #: Counter bumped as ``<abort_metric><reason>`` per abort; None = none.
    abort_metric: str | None = None

    def __init__(self) -> None:
        self._records: dict[str, TxRecord] = {}
        self._tx_by_id: dict[str, Any] = {}
        self._committed: list[TxRecord] = []  # in commit order
        self._unresolved = 0
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

    def run(self) -> RunResult:
        """Simulate the whole run and summarise it."""
        if self._ran:
            raise ConfigError("a system instance runs exactly once")
        self._ran = True
        self._schedule_arrivals()
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
            record.submitted_at = at
            self.sim.schedule_at(
                at + self._arrival_delay(record.tx), self._ingest, record
            )
            at += interval

    # -- outcomes -----------------------------------------------------------

    def _mark_committed(self, tx: Any) -> None:
        record = self._records[tx.tx_id]
        if record.resolved:
            return
        record.resolved = record.committed = True
        record.commit_time = self.sim.now
        self._committed.append(record)
        self._unresolved -= 1

    def _mark_aborted(self, tx: Any, reason: str) -> None:
        record = self._records[tx.tx_id]
        if record.resolved:
            return
        record.resolved = True
        self._unresolved -= 1
        if self.abort_metric is not None:
            self.sim.metrics.incr(self.abort_metric + reason)

    def record(self, tx_id: str) -> TxRecord:
        """The book-keeping of one submitted transaction."""
        return self._records[tx_id]

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
            if not record.resolved:
                self._mark_aborted(record.tx, "unresolved")
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
        last_commit = max((r.commit_time for r in committed), default=0.0)
        result.duration = last_commit if last_commit > 0 else self.sim.now
        return result
