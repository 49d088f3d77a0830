"""Cross-protocol resilience engine: fault regimes as sweepable cases.

The paper organises its consensus survey around failure models — crash
protocols (Paxos, Raft) need ``n = 2f + 1`` while Byzantine protocols
(PBFT, HotStuff, Tendermint, IBFT) need ``n = 3f + 1`` (§2.2) — and its
Discussion claims are about behaviour under faults: quorum resilience,
leader-failure recovery, partition tolerance. This module turns those
regimes into deterministic benchmark cases:

* ``crash:k`` — crash ``k`` replicas at the fault instant, no recovery.
  At equal cluster size the CFT quorum (majority) survives more crashes
  than the BFT quorum (``2f + 1`` of ``3f + 1``): with ``N = 7``, CFT
  protocols recover from 3 crashes where BFT protocols stall.
* ``partition:d`` — a partition window of ``d`` seconds isolating three
  replicas. The four-replica majority holds a CFT quorum (so Paxos/Raft
  keep committing through the window) but not a BFT quorum (so the BFT
  protocols stall — safely — until the heal).
* ``loss:p`` — a :meth:`FaultPlan.drop_messages` window dropping each
  message with probability ``p`` for :data:`LOSS_WINDOW` seconds;
  every protocol's retry machinery recovers once the window closes, at
  a time-to-recover that grows with ``p``.

Every case is a pure function of its case string (protocol, regime,
intensity, fixed seed), so serial and parallel sweeps produce identical
rows — the PR-1 determinism guarantee extends to fault runs.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.common.errors import ConfigError
from repro.consensus import PROTOCOLS, ConsensusCluster
from repro.consensus.monitors import (
    ConflictingCommitMonitor,
    guarded_run_until_decided,
)
from repro.sim.faults import FaultPlan

#: Cluster size: the smallest n where CFT and BFT crash tolerance
#: visibly diverge (CFT majority quorum 4 survives 3 crashes; the BFT
#: quorum of 5 survives only 2).
CLUSTER_SIZE = 7

#: Values submitted before the fault instant / injected mid-fault.
TXS_BEFORE = 4
TXS_DURING = 4

#: Virtual time of fault onset; mid-fault load arrives shortly after.
FAULT_START = 1.0
SUBMIT_DURING_AT = 1.5

SEED = 2021

#: Default intensity grids per regime.
CRASH_COUNTS = (0, 1, 2, 3)
PARTITION_DURATIONS = (2.0, 5.0)
LOSS_RATES = (0.0, 0.1, 0.25)

#: Length of the message-loss window (seconds of virtual time). Loss is
#: windowed, not permanent: unbounded uniform loss can wedge a
#: view-change forever (votes scatter across views while timeouts back
#: off), which measures the tail of a retry policy rather than the
#: paper's claim that protocols resume once the network stabilises.
LOSS_WINDOW = 2.0

#: Clients retransmit undelivered requests at this cadence (virtual
#: seconds), as in PBFT's client protocol. Without retries a partition
#: can eat the only copy of a request the minority ever sees: the
#: majority decides it during the window, goes quiet, and the healed
#: minority — with nothing pending — never probes for catch-up.
RETRY_EVERY = 2.0

#: Virtual-second budget for a case (stalled cases run to this deadline).
RUN_TIMEOUT = 40.0


def crash_tolerance(protocol: str, n: int = CLUSTER_SIZE) -> int:
    """Crashes the protocol's quorum survives at cluster size ``n``.

    For crash protocols this is the classical ``f`` of ``n = 2f + 1``;
    for Byzantine protocols the quorum ``2f + 1`` (of ``n = 3f + 1``)
    tolerates ``n - quorum`` *benign* crashes — the paper's resilience
    gap between the two fault models.
    """
    _, byzantine = PROTOCOLS[protocol]
    if byzantine:
        f = (n - 1) // 3
        return n - (2 * f + 1)
    return (n - 1) // 2


def resilience_cases(
    protocols: Iterable[str] | None = None,
    crash_counts: Iterable[int] = CRASH_COUNTS,
    partition_durations: Iterable[float] = PARTITION_DURATIONS,
    loss_rates: Iterable[float] = LOSS_RATES,
) -> list[str]:
    """The full case grid as ``protocol/regime/intensity`` strings."""
    cases = []
    for protocol in protocols or sorted(PROTOCOLS):
        if protocol not in PROTOCOLS:
            raise ConfigError(f"unknown protocol: {protocol}")
        for k in crash_counts:
            cases.append(f"{protocol}/crash/{int(k)}")
        for duration in partition_durations:
            cases.append(f"{protocol}/partition/{duration}")
        for rate in loss_rates:
            cases.append(f"{protocol}/loss/{rate}")
    return cases


def run_case(case: str) -> dict[str, Any]:
    """Run one fault case, returning a flat benchmark row.

    Deterministic: the row depends only on the case string and the
    module constants.
    """
    try:
        protocol, regime, raw_intensity = case.split("/")
        cls, byzantine = PROTOCOLS[protocol]
    except (ValueError, KeyError):
        raise ConfigError(f"malformed resilience case: {case!r}") from None
    intensity = float(raw_intensity)

    cluster = ConsensusCluster(
        cls, n=CLUSTER_SIZE, byzantine=byzantine, seed=SEED
    )
    monitor = ConflictingCommitMonitor()
    cluster.add_monitor(monitor)
    decide_times: list[float] = []
    cluster._decide_listener = lambda _nid, _seq, _val: decide_times.append(
        cluster.sim.now
    )

    plan = FaultPlan()
    fault_end = FAULT_START
    if regime == "crash":
        count = int(intensity)
        if count:
            plan.crash(
                FAULT_START, *[f"r{i}" for i in range(count)]
            )
        fault_end = RUN_TIMEOUT
    elif regime == "partition":
        # Minority side holds the initial leader (r0); the majority of
        # four is a CFT quorum but not a BFT one.
        plan.partition_window(
            FAULT_START,
            FAULT_START + intensity,
            [["r3", "r4", "r5", "r6"], ["r0", "r1", "r2"]],
        )
        fault_end = FAULT_START + intensity
    elif regime == "loss":
        if intensity > 0:
            plan.drop_messages(
                FAULT_START,
                FAULT_START + LOSS_WINDOW,
                probability=intensity,
            )
        fault_end = FAULT_START + LOSS_WINDOW
    else:
        raise ConfigError(f"unknown fault regime: {regime}")
    plan.apply_to_cluster(cluster)

    def submit_with_retry(value: str) -> None:
        # PBFT-style client: retransmit until every live correct replica
        # holds the decision. A fire-and-forget submit can vanish into a
        # partition window — the majority decides it, goes quiet, and
        # the healed minority never learns it is behind.
        live = [r for r in cluster.correct_replicas() if not r.crashed]
        if live and all(value in r.decided for r in live):
            return
        cluster.replicas["r6"].submit(value)
        cluster.sim.schedule(RETRY_EVERY, submit_with_retry, value)

    total = TXS_BEFORE + TXS_DURING
    for i in range(TXS_BEFORE):
        submit_with_retry(f"{protocol}-pre-{i}")
    for i in range(TXS_DURING):
        cluster.sim.schedule_at(
            SUBMIT_DURING_AT, submit_with_retry, f"{protocol}-mid-{i}"
        )

    outcome = guarded_run_until_decided(
        cluster, total, timeout=RUN_TIMEOUT, stall_after=5.0
    )

    correct = cluster.correct_replicas()
    committed = min((len(r.decided) for r in correct), default=0)
    last_decide = max(decide_times, default=0.0)
    time_to_recover = (
        round(last_decide - FAULT_START, 4) if outcome.decided else None
    )
    during = sum(
        1 for t in decide_times if FAULT_START <= t < fault_end
    )
    # A stalled run pays for its whole budget: measuring throughput to
    # the last pre-fault decide would make a wedged cluster look fast.
    duration = last_decide if outcome.decided and last_decide > 0 else RUN_TIMEOUT
    return {
        "case": case,
        "protocol": protocol,
        "fault_model": "byzantine" if byzantine else "crash",
        "regime": regime,
        "intensity": intensity,
        "crash_tolerance": crash_tolerance(protocol),
        "recovered": outcome.decided,
        "time_to_recover": time_to_recover,
        "committed": committed,
        "decided_during_fault": during,
        "throughput": round(committed / duration, 2),
        "safety_ok": bool(
            monitor.ok and cluster.agreement_holds() and not outcome.violations
        ),
        "stall_reason": (
            outcome.diagnostic.reason if outcome.diagnostic else ""
        ),
        "messages": cluster.message_count(),
    }

