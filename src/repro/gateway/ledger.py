"""The latency report and fingerprint behind the E22 experiments.

End-to-end latency methodology (Geyer et al., arXiv:2311.15433): every
client request is stamped at each pipeline stage — submit, admit, order,
commit — on its :class:`~repro.common.driver.TxRecord`, and the report
derives p50/p95/p99 latency and goodput from the stamp deltas instead of
trusting any single counter. Every record ends in exactly one terminal
status (committed, aborted, shed or timeout), so the report's tallies
sum to the arrivals — the accounting the DST gateway target audits.

The records are deterministic: stamps come off the virtual clock, ids
off the workload's deterministic naming, and :func:`fingerprint` hashes
their canonical JSON — same-seed runs (serial or forked-parallel) must
produce byte-identical fingerprints.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.common.driver import TxRecord
from repro.common.metrics import LatencyRecorder

#: Stamps are rounded to this many decimals in the canonical JSON so it
#: stays readable; 9 decimals ≈ nanosecond resolution, far below any
#: modelled delay, so rounding never merges two stamps.
STAMP_DECIMALS = 9


@dataclass
class LatencyReport:
    """Percentiles + goodput summary derived from one run's records."""

    arrivals: int = 0
    admitted: int = 0
    committed: int = 0
    aborted: int = 0
    timeouts: int = 0
    sheds: dict[str, int] = field(default_factory=dict)
    duration: float = 0.0
    p50: float = 0.0
    p95: float = 0.0
    p99: float = 0.0
    mean: float = 0.0
    admit_p99: float = 0.0
    goodput_tps: float = 0.0

    @property
    def shed_total(self) -> int:
        return sum(self.sheds.values())

    def to_row(self) -> dict[str, Any]:
        return {
            "arrivals": self.arrivals,
            "admitted": self.admitted,
            "committed": self.committed,
            "aborted": self.aborted,
            "shed": self.shed_total,
            "timeouts": self.timeouts,
            "goodput_tps": round(self.goodput_tps, 2),
            "p50_latency": round(self.p50, 5),
            "p95_latency": round(self.p95, 5),
            "p99_latency": round(self.p99, 5),
        }

    def to_jsonable(self) -> dict[str, Any]:
        out = self.to_row()
        out["mean_latency"] = round(self.mean, 6)
        out["admit_p99"] = round(self.admit_p99, 6)
        out["duration"] = round(self.duration, 6)
        out["sheds"] = dict(sorted(self.sheds.items()))
        return out


def latency_report(records: Iterable[TxRecord]) -> LatencyReport:
    """Tally and percentiles over every record of one run."""
    report = LatencyReport()
    end_to_end = LatencyRecorder()
    admit_lat = LatencyRecorder()
    first_submit, last_event = None, 0.0
    for record in records:
        report.arrivals += 1
        if first_submit is None or record.submit < first_submit:
            first_submit = record.submit
        last_event = max(last_event, record.submit)
        if record.admit is not None:
            report.admitted += 1
            admit_lat.record(max(0.0, record.admit - record.submit))
            last_event = max(last_event, record.admit)
        if record.status == "committed":
            report.committed += 1
            end_to_end.record(max(0.0, record.commit - record.submit))
            last_event = max(last_event, record.commit)
        elif record.status == "aborted":
            report.aborted += 1
        elif record.status == "shed":
            reason = record.reason or "unknown"
            report.sheds[reason] = report.sheds.get(reason, 0) + 1
        elif record.status == "timeout":
            report.timeouts += 1
    report.duration = (
        last_event - first_submit if first_submit is not None else 0.0
    )
    if end_to_end:
        report.p50 = end_to_end.percentile(50)
        report.p95 = end_to_end.percentile(95)
        report.p99 = end_to_end.percentile(99)
        report.mean = end_to_end.mean()
    if admit_lat:
        report.admit_p99 = admit_lat.percentile(99)
    if report.duration > 0:
        report.goodput_tps = report.committed / report.duration
    return report


def _stamp(value: float) -> float:
    return round(float(value), STAMP_DECIMALS)


def _canonical(record: TxRecord) -> dict[str, Any]:
    out: dict[str, Any] = {
        "tx_id": record.tx_id,
        "client": record.tx.submitter,
        "submit": _stamp(record.submit),
        "status": record.status,
    }
    for name in ("admit", "order", "commit"):
        value = getattr(record, name)
        if value is not None:
            out[name] = _stamp(value)
    if record.reason is not None:
        out["reason"] = record.reason
    if record.attempts != 1:
        out["attempts"] = record.attempts
    return out


def fingerprint(records: Iterable[TxRecord]) -> str:
    """SHA-256 over the canonical JSON of ``records`` — in submit order
    (ties broken by tx id), every stamp rounded to
    :data:`STAMP_DECIMALS` — the byte-identity gate."""
    canonical = json.dumps(
        [
            _canonical(record)
            for record in sorted(records, key=lambda r: (r.submit, r.tx_id))
        ],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()
