"""Multi-node crash/restart drill against real files.

``python -m repro recover --data-dir DIR`` runs :func:`restart_drill`:
the simulated durable cluster proves recovery under a chaos schedule,
and this drill proves it on an :class:`OsBackend`, process-death model
and all.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Any

from repro.execution.contracts import standard_registry
from repro.ledger.store import STORE_COUNTERS
from repro.storage.backend import OsBackend
from repro.storage.codec import state_root
from repro.storage.durable import (
    DurableLedger,
    build_canonical_chain,
    release_data_dir,
    resolve_data_dir,
)

#: Fsync policy every drill node commits under.
DRILL_POLICY = "group:2"


def restart_drill(
    data_dir: str | Path,
    *,
    nodes: int,
    txs: int,
    seed: int,
    crashes_per_node: int,
    snapshot_interval: int,
    paged: bool,
    tiered: bool,
    overlay_budget: int,
) -> dict[str, Any]:
    """Crash and restart ``nodes`` durable nodes on real files under
    ``data_dir``; the report's ``all_match`` says whether every node
    recovered the canonical chain.

    One seeded schedule drives the nodes, each against its own
    subdirectory: every node commits the canonical chain through
    :meth:`DurableLedger.apply_block` (spilling snapshots every
    ``snapshot_interval`` blocks, plus any ``overlay_budget`` byte
    budget), crashes at ``crashes_per_node`` seeded block heights
    (dropping the open handles, exactly the process-death model),
    recovers with a *fresh* ledger — replaying its WAL tail and
    garbage-collecting orphaned run files — and resumes from the
    recovered height. The report carries per-node replay/orphan-GC
    telemetry and the bytes each sink (WAL, spill, compaction) wrote per
    committed tx; a node matches iff it ends with the canonical tip hash
    and the no-crash serial state root. A re-run into the same directory
    wipes the node directories first, so it reports the same thing.
    """
    compaction = "tiered" if tiered else "full"

    def make_ledger(backend) -> DurableLedger:
        return DurableLedger(
            backend,
            policy=DRILL_POLICY,
            snapshot_interval=snapshot_interval,
            paged=paged,
            compaction=compaction,
            overlay_budget_bytes=overlay_budget,
        )

    base_dir = resolve_data_dir(data_dir)
    chain = build_canonical_chain(txs, seed)
    committed_txs = max(1, sum(len(block) for block in chain))
    # One seeded schedule: every node's crash heights come from this
    # RNG, so the whole drill is a pure function of (seed, txs, nodes).
    rng = random.Random(seed + 0xD121)
    crashes_per_node = max(0, min(crashes_per_node, chain.height - 1))
    reports: list[dict[str, Any]] = []
    held_dirs = [base_dir]
    try:
        for i in range(max(1, nodes)):
            node_dir = resolve_data_dir(base_dir / f"node{i}")
            held_dirs.append(node_dir)
            backend = OsBackend(node_dir)
            for name in backend.list():  # a re-run starts from scratch
                backend.delete(name)
            crash_heights = sorted(
                rng.sample(range(1, chain.height), crashes_per_node)
            ) if crashes_per_node else []
            ledger = make_ledger(backend)
            registry = standard_registry()
            budget_spills_before = STORE_COUNTERS["budget_spills"]
            sinks_before = {
                sink: STORE_COUNTERS[f"{sink}_bytes_written"]
                for sink in ("wal", "spill", "compaction")
            }
            pending = list(crash_heights)
            telemetry = {
                "recoveries": 0, "replayed": 0, "orphans_removed": 0,
                "torn": False, "resync": False,
            }
            root = ""
            while ledger.tail.height < chain.height:
                block = chain.block(ledger.tail.height + 1)
                root = ledger.apply_block(block, registry)
                if pending and block.height == pending[0]:
                    pending.pop(0)
                    ledger.backend.simulate_crash()
                    ledger = make_ledger(OsBackend(node_dir))
                    result = ledger.recover(standard_registry)
                    registry = standard_registry()
                    telemetry["recoveries"] += 1
                    telemetry["replayed"] += result.replayed
                    telemetry["orphans_removed"] += result.orphans_removed
                    telemetry["torn"] = telemetry["torn"] or result.torn
                    telemetry["resync"] = (
                        telemetry["resync"] or result.resync
                    )
            ledger.flush()
            # Final restart: the post-drill state must be recoverable
            # too, and the recovered store is what gets audited.
            ledger.backend.simulate_crash()
            final = make_ledger(OsBackend(node_dir)).recover(
                standard_registry
            )
            reports.append({
                "node": f"node{i}",
                "data_dir": str(node_dir),
                "crash_heights": crash_heights,
                **telemetry,
                "final_replayed": final.replayed,
                "final_orphans_removed": final.orphans_removed,
                "budget_spills": (
                    STORE_COUNTERS["budget_spills"] - budget_spills_before
                ),
                # What each sink wrote, crash re-commits included, per
                # committed transaction.
                "bytes_per_tx": {
                    sink: round((STORE_COUNTERS[f"{sink}_bytes_written"]
                                 - before) / committed_txs, 2)
                    for sink, before in sinks_before.items()
                },
                "recovered_height": final.tail.height,
                "tip_matches": final.tail.tip_hash() == chain.tip_hash(),
                # With ``paged`` this walks every key through the paged
                # read path — the strongest oracle equivalence check.
                "state_root_matches": state_root(final.store) == root,
            })
        return {
            "data_dir": str(base_dir),
            "blocks": chain.height,
            "paged": paged,
            "compaction": compaction,
            "overlay_budget_bytes": overlay_budget,
            "nodes": reports,
            "all_match": all(
                node["tip_matches"] and node["state_root_matches"]
                for node in reports
            ),
        }
    finally:
        for directory in held_dirs:
            release_data_dir(directory)
