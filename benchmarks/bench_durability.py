"""Experiment E21 — durability gate: fsync policy vs commit tps, and
recovery time vs WAL-tail length.

Three grids over the :mod:`repro.storage` tier:

* **Fsync-policy grid** (real files, :class:`OsBackend` in a temp
  directory) — the same canonical chain committed under ``per-block``,
  ``group:4`` and ``async``. Records wall commit tps and the measured
  fsync count per policy. Gate: fsync counts strictly ordered
  (per-block >= group >= async), and after a clean shutdown every
  policy recovers the identical tip hash and state root — the
  policy buys throughput by widening the *crash* loss window, never by
  corrupting what it does persist.
* **Recovery grid** (deterministic :class:`MemoryBackend`) — one chain,
  power-failed under ``per-block`` at several snapshot intervals, so
  the WAL tail a restart must replay grows from a few records to the
  whole chain. Gate: replayed records == tail length exactly, the
  modelled restart delay (the one the chaos engine charges as virtual
  time) grows monotonically with the tail, and every recovery lands on
  the serial oracle's exact root.
* **Determinism grid** — the same seeded chaos run (torn-disk profile,
  crash + recover mid-stream) executed twice; tips, state roots and
  recovery telemetry must be byte-identical.

``--smoke`` runs reduced sizes of all three gates — the CI guard.
Run standalone::

    PYTHONPATH=src python benchmarks/bench_durability.py [--smoke]
"""

import json
import sys
import tempfile
import time
from pathlib import Path

from repro.bench import print_table
from repro.consensus.monitors import MONITOR_REGISTRY
from repro.execution.contracts import standard_registry
from repro.simtest.plan import FaultSpec, PlanSpec
from repro.storage import (
    STORAGE_COUNTERS,
    DurableCluster,
    DurableLedger,
    MemoryBackend,
    OsBackend,
    build_canonical_chain,
    state_root,
)

POLICIES = ["per-block", "group:4", "async"]
POLICY_TXS = 400
RECOVERY_TXS = 80
RECOVERY_INTERVALS = [4, 8, 16, 64]
SMOKE_POLICY_TXS = 60
SMOKE_RECOVERY_TXS = 24
SMOKE_INTERVALS = [3, 6, 24]

#: The chaos engine's modelled restart cost (mirrors DurableNode).
BASE_RECOVERY_DELAY = 0.05
PER_RECORD_DELAY = 0.01

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_durability.json"


def commit_chain(ledger, chain):
    """Commit ``chain`` through the durable commit path
    (``DurableLedger.apply_block``). Returns the per-height state roots."""
    registry = standard_registry()
    roots = {0: state_root(ledger.store)}
    for height in range(1, chain.height + 1):
        roots[height] = ledger.apply_block(chain.block(height), registry)
    return roots


# -- fsync-policy grid (real files) -------------------------------------------


def run_policy_cell(policy: str, txs: int, seed: int = 21) -> dict:
    chain = build_canonical_chain(txs=txs, seed=seed)
    with tempfile.TemporaryDirectory(prefix="repro-dur-") as tmp:
        backend = OsBackend(tmp)
        ledger = DurableLedger(backend, policy=policy, snapshot_interval=8)
        fsyncs_before = STORAGE_COUNTERS["fsyncs"]
        started = time.perf_counter()
        roots = commit_chain(ledger, chain)
        wall = time.perf_counter() - started
        fsyncs = STORAGE_COUNTERS["fsyncs"] - fsyncs_before
        ledger.flush()  # clean shutdown: every policy persists its tail
        backend.simulate_crash()
        recovered = DurableLedger(
            OsBackend(tmp), policy=policy, snapshot_interval=8
        )
        result = recovered.recover(standard_registry)
        recovered.backend.close()
        backend.close()
        return {
            "policy": policy,
            "blocks": chain.height,
            "txs": txs,
            "fsyncs": fsyncs,
            "wall_seconds": round(wall, 4),
            "commit_tps": round(txs / wall, 1) if wall > 0 else 0.0,
            "recovered_height": result.tail.height,
            # Tx ids carry a process-global sequence number, so block
            # hashes are only comparable against the *same* chain —
            # never across cells. Fold the comparison in here.
            "tip_matches": result.tail.tip_hash() == chain.tip_hash(),
            "state_root": state_root(result.store),
            "oracle_root": roots[chain.height],
            "full_height": result.tail.height == chain.height,
        }


def run_policy_grid(txs: int = POLICY_TXS) -> list[dict]:
    return [run_policy_cell(policy, txs) for policy in POLICIES]


def check_policy_grid(rows: list[dict]) -> list[str]:
    failures = []
    for row in rows:
        where = f"policy {row['policy']}"
        if not row["full_height"]:
            failures.append(
                f"{where}: clean shutdown recovered only height "
                f"{row['recovered_height']} of {row['blocks']}"
            )
        if row["state_root"] != row["oracle_root"]:
            failures.append(f"{where}: recovered root diverges from oracle")
        if not row["tip_matches"]:
            failures.append(f"{where}: recovered tip != canonical chain tip")
    if len({row["state_root"] for row in rows}) != 1:
        failures.append("policy grid: state roots differ across policies")
    by_policy = {row["policy"]: row["fsyncs"] for row in rows}
    if not (
        by_policy["per-block"] >= by_policy["group:4"] >= by_policy["async"]
    ):
        failures.append(
            f"policy grid: fsync counts not ordered "
            f"per-block({by_policy['per-block']}) >= "
            f"group:4({by_policy['group:4']}) >= async({by_policy['async']})"
        )
    if by_policy["per-block"] <= by_policy["async"]:
        failures.append(
            "policy grid: per-block did not fsync more than async — the "
            "policies are not being exercised"
        )
    return failures


# -- recovery-time grid (deterministic backend) --------------------------------


def run_recovery_cell(snapshot_interval: int, txs: int, seed: int = 23) -> dict:
    chain = build_canonical_chain(txs=txs, seed=seed)
    backend = MemoryBackend()
    ledger = DurableLedger(
        backend, policy="per-block", snapshot_interval=snapshot_interval
    )
    roots = commit_chain(ledger, chain)
    ledger.power_fail()
    expected_tail = ledger.tail_record_count()
    started = time.perf_counter()
    result = ledger.recover(standard_registry)
    wall = time.perf_counter() - started
    return {
        "snapshot_interval": snapshot_interval,
        "blocks": chain.height,
        "snapshot_height": result.snapshot_height,
        "wal_tail_records": expected_tail,
        "replayed": result.replayed,
        "modelled_delay_s": round(
            BASE_RECOVERY_DELAY + PER_RECORD_DELAY * result.replayed, 4
        ),
        "recover_wall_seconds": round(wall, 4),
        "recovered_height": result.tail.height,
        "root_matches_oracle": state_root(result.store)
        == roots[result.tail.height],
        "full_height": result.tail.height == chain.height,
    }


def run_recovery_grid(
    txs: int = RECOVERY_TXS, intervals=None
) -> list[dict]:
    return [
        run_recovery_cell(interval, txs)
        for interval in (intervals or RECOVERY_INTERVALS)
    ]


def check_recovery_grid(rows: list[dict]) -> list[str]:
    failures = []
    for row in rows:
        where = f"recovery@interval={row['snapshot_interval']}"
        if row["replayed"] != row["wal_tail_records"]:
            failures.append(
                f"{where}: replayed {row['replayed']} but the WAL tail "
                f"holds {row['wal_tail_records']} records"
            )
        if row["replayed"] != row["blocks"] - row["snapshot_height"]:
            failures.append(
                f"{where}: tail length is not blocks - snapshot_height"
            )
        if not row["full_height"]:
            failures.append(f"{where}: per-block recovery lost blocks")
        if not row["root_matches_oracle"]:
            failures.append(f"{where}: recovered root diverges from oracle")
    # Larger intervals leave longer tails: replay work and the modelled
    # restart delay must both grow monotonically.
    for prev, cur in zip(rows, rows[1:]):
        if cur["replayed"] < prev["replayed"]:
            failures.append(
                "recovery grid: replayed records not monotone in "
                "snapshot interval"
            )
        if cur["modelled_delay_s"] < prev["modelled_delay_s"]:
            failures.append("recovery grid: modelled delay not monotone")
    return failures


# -- same-seed determinism -----------------------------------------------------


def chaos_fingerprint(seed: int = 5, txs: int = 12) -> dict:
    cluster = DurableCluster(
        n=3, txs=txs, seed=seed,
        fault_profile={"partial_write": 0.35, "bit_flip": 0.25},
    )
    monitor = MONITOR_REGISTRY["durable-recovery"]()
    cluster.add_monitor(monitor)
    PlanSpec((
        FaultSpec(kind="crash", time=0.9, node="d0"),
        FaultSpec(kind="recover", time=1.6, node="d0"),
    )).build().apply(cluster.sim, cluster.network)
    decided = cluster.run(timeout=30.0, min_time=1.7)
    # Tx ids carry a process-global sequence, so raw hashes differ even
    # between identical runs; normalise every hash against this run's
    # own canonical chain. State roots are hash-free and compare as-is.
    return {
        "decided": decided,
        "violations": monitor.violations + cluster.durable_audit(),
        "tips_canonical": {
            node_id: node.tail.tip_hash() == cluster.chain.tip_hash()
            for node_id, node in sorted(cluster.nodes.items())
        },
        "roots": {
            node_id: state_root(node.store)
            for node_id, node in sorted(cluster.nodes.items())
        },
        "recoveries": [
            {
                **{k: v for k, v in event.items() if k != "tip_hash"},
                "tip_canonical": event["tip_hash"]
                == cluster.chain.block(event["height"]).block_hash,
            }
            for event in monitor.recoveries
        ],
    }


def run_determinism(seed: int = 5, txs: int = 12) -> dict:
    first = chaos_fingerprint(seed, txs)
    second = chaos_fingerprint(seed, txs)
    return {
        "seed": seed,
        "decided": first["decided"],
        "violations": first["violations"],
        "tips_canonical": first["tips_canonical"],
        "recoveries": first["recoveries"],
        "replays_identical": first == second,
    }


def check_determinism(row: dict) -> list[str]:
    failures = []
    if not row["decided"]:
        failures.append("determinism: chaos run did not catch up")
    if row["violations"]:
        failures.append(f"determinism: violations {row['violations']}")
    if not row["replays_identical"]:
        failures.append(
            "determinism: same-seed chaos replays diverged — the storage "
            "fault injection is not deterministic"
        )
    return failures


# -- full run + gate ----------------------------------------------------------


def run_durability(write_json: bool = True) -> dict:
    report = {
        "experiment": "E21",
        "policies": POLICIES,
        "policy_txs": POLICY_TXS,
        "recovery_txs": RECOVERY_TXS,
        "recovery_intervals": RECOVERY_INTERVALS,
        "policy_grid": run_policy_grid(),
        "recovery_grid": run_recovery_grid(),
        "determinism": run_determinism(),
    }
    if write_json:
        JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def check_gate(report: dict) -> list[str]:
    return (
        check_policy_grid(report["policy_grid"])
        + check_recovery_grid(report["recovery_grid"])
        + check_determinism(report["determinism"])
    )


# -- smoke mode (CI guard) ----------------------------------------------------


def run_smoke() -> int:
    failures = check_policy_grid(run_policy_grid(SMOKE_POLICY_TXS))
    failures += check_recovery_grid(
        run_recovery_grid(SMOKE_RECOVERY_TXS, SMOKE_INTERVALS)
    )
    failures += check_determinism(run_determinism(txs=10))
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        "durability smoke: fsync ordering + clean-shutdown equivalence, "
        "recovery replay == WAL tail with monotone modelled delay, "
        "same-seed chaos replay identical OK"
    )
    return 0


def test_durability_smoke():
    """Pytest entry: the cheap core of the ``--smoke`` CI guard."""
    assert (
        check_recovery_grid(run_recovery_grid(SMOKE_RECOVERY_TXS, SMOKE_INTERVALS))
        + check_determinism(run_determinism(txs=10))
    ) == []


if __name__ == "__main__":
    if "--smoke" in sys.argv[1:]:
        raise SystemExit(run_smoke())
    started = time.perf_counter()
    report = run_durability()
    print_table(
        [
            {k: v for k, v in row.items()
             if k not in ("state_root", "oracle_root")}
            for row in report["policy_grid"]
        ],
        title=f"E21 fsync policy vs commit tps ({POLICY_TXS}-tx chain, "
        "real files)",
    )
    print_table(
        report["recovery_grid"],
        title=f"E21 recovery time vs WAL-tail length ({RECOVERY_TXS}-tx "
        "chain, per-block)",
    )
    problems = check_gate(report)
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        raise SystemExit(1)
    print(
        "durability gate: fsync ordering, clean-shutdown equivalence "
        "across policies, replay == tail, monotone modelled delay, "
        f"same-seed determinism OK [{time.perf_counter() - started:.1f}s]"
    )
