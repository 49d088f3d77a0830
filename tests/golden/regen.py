"""Golden consensus digests: one committed digest per (protocol, seed, plan).

``consensus_digests.json`` pins the *virtual* behaviour of the ordering
tier across commits: every replica's decided log, every decide time,
the message and byte totals, the event count and the final clock. A PR
that only changes how fast the code runs leaves the file untouched; a
PR that moves a row must say so.

Regenerate (from the repo root)::

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path

from repro.consensus import PROTOCOLS, ConsensusCluster
from repro.core import SystemConfig
from repro.crypto.digests import sha256_hex
from repro.gateway import GatewayConfig, GatewayRun
from repro.sim.faults import FaultPlan
from repro.sim.network import LanLatency
from repro.workloads.openloop import (
    OpenLoopConfig,
    OpenLoopWorkload,
    ramp_steady_burst,
)

GOLDEN_FILE = Path(__file__).with_name("consensus_digests.json")

SEEDS = (1, 11)
PLANS = ("retries", "chaos")
PROPOSALS = 24
HORIZON = 40.0


def run_consensus(protocol: str, seed: int, plan: str) -> ConsensusCluster:
    """One small ordering run in which every client retries.

    Each value is submitted through the first live replica, again 0.3 s
    later through ``r1`` (usually already decided by then) and a third
    time through ``r2`` long after the last decision. The ``chaos`` plan
    also crashes ``r0`` mid-stream and restarts it, so the leader role
    moves and ``r0`` learns what it missed through catch-up gossip.
    """
    replica_cls, byzantine = PROTOCOLS[protocol]
    cluster = ConsensusCluster(
        replica_cls, n=4 if byzantine else 3, byzantine=byzantine,
        seed=seed, latency=LanLatency(),
    )
    sim = cluster.sim
    if plan == "chaos":
        FaultPlan().crash(2.2, "r0").recover(6.0, "r0").apply(
            sim, cluster.network, cluster.replicas
        )
    for index in range(PROPOSALS):
        value = (f"p{index:03d}",)
        at = 2.0 + 0.02 * index
        sim.schedule_at(at, cluster.submit, value)
        sim.schedule_at(at + 0.3, cluster.submit, value, "r1")
        sim.schedule_at(HORIZON - 10.0, cluster.submit, value, "r2")
    sim.run(until=HORIZON)
    return cluster


def consensus_digest(cluster: ConsensusCluster) -> str:
    sim = cluster.sim
    return sha256_hex(repr((
        [(rid, r.decided) for rid, r in cluster.replicas.items()],
        sorted(cluster._decide_times.items()),
        sim.metrics.get("net.messages"),
        sim.metrics.get("net.bytes"),
        sim.events_processed,
        sim.now,
    )))


def gateway_fingerprint() -> str:
    workload = OpenLoopWorkload(OpenLoopConfig(
        clients=2_000, invalid_fraction=0.01,
        phases=ramp_steady_burst(300.0, steady=0.5), seed=11,
    ))
    run = GatewayRun(
        "xov", workload,
        gateway_config=GatewayConfig(batch_size=20),
        system_config=SystemConfig(
            orderers=4, protocol="pbft", block_size=20, seed=11,
            max_time=workload.config.duration + 30.0,
        ),
    )
    return run.run().fingerprint


def consensus_row(protocol: str, seed: int, plan: str) -> str:
    return consensus_digest(run_consensus(protocol, seed, plan))


#: Row name -> thunk computing that row's digest.
ROWS = {
    f"{protocol}/seed{seed}/{plan}": partial(consensus_row, protocol, seed, plan)
    for protocol in PROTOCOLS for seed in SEEDS for plan in PLANS
}
ROWS["gateway/xov-pbft/seed11"] = gateway_fingerprint


if __name__ == "__main__":
    table = {name: compute() for name, compute in ROWS.items()}
    GOLDEN_FILE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(table)} rows to {GOLDEN_FILE}")
