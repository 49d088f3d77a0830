"""Golden digests: committed digests of seeded runs, one file per tier.

``consensus_digests.json`` pins the *virtual* behaviour of the ordering
tier across commits: every replica's decided log, every decide time,
the message and byte totals, the event count and the final clock.
``storage_digests.json`` pins the durable tier the same way, two rows
per (mode, seed): ``state`` covers what was committed and how many
bytes each sink wrote, ``checksums`` only the run files' content
checksums — so a change of on-disk encoding that moves no size, root or
byte total shows as ``checksums`` rows moving and ``state`` rows not.
``systems_digests.json`` pins every architecture in ``core.SYSTEMS``
over both ordering fault models: what each block committed, the final
state root, the result row with its ``abort.``/``exec.``/``order.``
counters, and the message, byte and clock totals. A PR that only
changes how fast the code runs leaves every file untouched; a PR that
moves a row must say so.

Regenerate (from the repo root)::

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import json
from functools import cache, partial
from pathlib import Path

from repro.consensus import PROTOCOLS, ConsensusCluster
from repro.core import SYSTEMS, SystemConfig
from repro.crypto.digests import sha256_hex
from repro.gateway import GatewayConfig, GatewayRun
from repro.ledger.store import STORE_COUNTERS
from repro.sim.faults import FaultPlan
from repro.sim.network import LanLatency
from repro.storage import DurableCluster, SnapshotStore, state_root
from repro.workloads import KvWorkload
from repro.workloads.openloop import (
    OpenLoopConfig,
    OpenLoopWorkload,
    ramp_steady_burst,
)

CONSENSUS_FILE = Path(__file__).with_name("consensus_digests.json")
STORAGE_FILE = Path(__file__).with_name("storage_digests.json")
SYSTEMS_FILE = Path(__file__).with_name("systems_digests.json")

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


#: Durable-cluster configurations, by row name.
DURABLE_MODES = {
    "materialized": {},
    "paged": {"paged": True},
    "paged-tiered-budget": {
        "paged": True, "compaction": "tiered", "overlay_budget_bytes": 256,
    },
}
WRITE_SINKS = ("spill_bytes_written", "compaction_bytes_written",
               "wal_bytes_written")


@cache
def durable_digests(mode: str, seed: int) -> dict[str, str]:
    """One small durable-cluster run: ``d0`` crashes mid-stream and
    recovers (in the paged modes it serves from run files from then on,
    collapsing onto every later spill), ``d1`` never stops.

    Transactions are digested as (contract, args), as in the systems
    rows. A durable tx id hashes (seed, index), not the process-global
    sequence number, so the compressed WAL byte total — like run rows,
    state roots and the other sinks — depends on the seed alone.
    """
    before = {sink: STORE_COUNTERS[sink] for sink in WRITE_SINKS}
    cluster = DurableCluster(n=2, txs=60, seed=seed, **DURABLE_MODES[mode])
    FaultPlan().crash(2.9, "d0").recover(3.9, "d0").apply(
        cluster.sim, cluster.network, cluster.nodes
    )
    caught_up = cluster.run(timeout=30.0, min_time=5.0)
    manifests = {
        node_id: SnapshotStore(backend).read_manifest() or {}
        for node_id, backend in sorted(cluster.backends.items())
    }
    state = (
        caught_up,
        cluster.durable_audit(),
        [(tx.contract, tx.args) for block in cluster.chain
         for tx in block.transactions],
        [
            (node_id, node.tail.height, state_root(node.store),
             node.recoveries, node.last_recovery and (
                 node.last_recovery.replayed, node.last_recovery.torn,
                 node.last_recovery.resync))
            for node_id, node in sorted(cluster.nodes.items())
        ],
        [
            (node_id, manifest.get("snapshot_height"),
             manifest.get("state_root"),
             [(run["rows"], run["bytes"], run["tier"])
              for run in manifest.get("runs", ())])
            for node_id, manifest in manifests.items()
        ],
        [STORE_COUNTERS[sink] - before[sink] for sink in WRITE_SINKS],
    )
    checksums = [
        (node_id, [run["checksum"] for run in manifest.get("runs", ())])
        for node_id, manifest in manifests.items()
    ]
    return {"state": sha256_hex(repr(state)),
            "checksums": sha256_hex(repr(checksums))}


def durable_row(mode: str, seed: int, part: str) -> str:
    return durable_digests(mode, seed)[part]


#: Ordering protocols the architecture rows run over: one crash, one
#: Byzantine fault model.
SYSTEM_PROTOCOLS = ("pbft", "raft")


def systems_row(system: str, protocol: str, seed: int) -> str:
    """One architecture over a small contended KV workload.

    Committed transactions are digested as (contract, args) per block,
    for the same reason as the durable rows: tx ids carry a
    process-global sequence number.
    """
    txs = KvWorkload(n_keys=24, theta=0.9, read_fraction=0.2,
                     rmw_fraction=0.6, seed=seed).generate(60)
    architecture = SYSTEMS[system](SystemConfig(
        protocol=protocol, block_size=10, seed=seed,
    ))
    for tx in txs:
        architecture.submit(tx)
    result = architecture.run()
    committed = architecture.committed_tx_ids()
    return sha256_hex(repr((
        [[(tx.contract, tx.args) for tx in block.transactions
          if tx.tx_id in committed] for block in architecture.ledger],
        state_root(architecture.store),
        result.to_row(),
        sorted(result.extra.items()),
        result.messages,
        result.bytes_sent,
        architecture.sim.now,
    )))


#: Golden file -> {row name -> thunk computing that row's digest}.
FILES = {
    CONSENSUS_FILE: {
        **{
            f"{protocol}/seed{seed}/{plan}":
                partial(consensus_row, protocol, seed, plan)
            for protocol in PROTOCOLS for seed in SEEDS for plan in PLANS
        },
        "gateway/xov-pbft/seed11": gateway_fingerprint,
    },
    STORAGE_FILE: {
        f"durable/{mode}/seed{seed}/{part}":
            partial(durable_row, mode, seed, part)
        for mode in DURABLE_MODES for seed in SEEDS
        for part in ("state", "checksums")
    },
    SYSTEMS_FILE: {
        f"{system}/{protocol}/seed{seed}":
            partial(systems_row, system, protocol, seed)
        for system in SYSTEMS for protocol in SYSTEM_PROTOCOLS
        for seed in SEEDS
    },
}
ROWS = {
    name: compute for rows in FILES.values() for name, compute in rows.items()
}


def load_golden() -> dict[str, str]:
    """Every committed row, over all golden files."""
    return {
        name: digest
        for path in FILES
        for name, digest in json.loads(path.read_text()).items()
    }


if __name__ == "__main__":
    for path, rows in FILES.items():
        table = {name: compute() for name, compute in rows.items()}
        path.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(table)} rows to {path}")
