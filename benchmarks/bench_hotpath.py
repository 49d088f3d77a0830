"""Experiment E18 — protocol hot-path scaling (COW snapshots + crypto caches).

The pre-overhaul state store copied every entry on ``snapshot()``, so
XOV-family endorsement — one snapshot per transaction — cost O(state)
per transaction and throughput degraded linearly with world-state size.
The copy-on-write store plus the FastFabric-style verification cache
and Merkle memoization make the hot path O(touched data) instead.

This file measures that end to end:

* **Throughput grid** — wall-clock tx/sec of the E1 (OX/OXII/XOV) and
  E2 (Fabric family) workloads with the state pre-populated to 1k, 10k
  and 100k keys; the pre-overhaul baseline is replayed through
  :class:`~repro.ledger.store.EagerCopyStateStore` on the same seeds.
  The gate: current / baseline >= 2x at 100k keys on both workloads.
* **Snapshot-cost probe** — per-snapshot wall time at each state size;
  copy-on-write must be flat (O(1)) while the eager baseline grows.
* **Per-subsystem counters** — snapshot entries copied, signature
  verifies performed vs. cached, Merkle nodes hashed vs. served from
  cache (``repro.bench.profiling.hotpath_counters``).

``--smoke`` runs the CI guard instead: serial-vs-parallel row identity
and the O(1)-snapshot counter check — nonzero exit on any regression
(the E1/E2 paper shapes are claims in ``repro.bench.claims``, checked
by tier-1). Run standalone::

    PYTHONPATH=src python benchmarks/bench_hotpath.py [--smoke]
"""

import json
import os
import sys
import time
from pathlib import Path

from repro.bench import (
    hotpath_counters,
    print_table,
    reset_hotpath_counters,
    sweep,
    sweep_parallel,
)
from repro.core import SYSTEMS, SystemConfig
from repro.ledger.store import EagerCopyStateStore, StateStore, Version
from repro.workloads import KvWorkload

STATE_SIZES = [1_000, 10_000, 100_000]
N_TXS = 300

#: Architecture set per workload family (E1 / E2 definitions).
E1_SYSTEMS = ["ox", "oxii", "xov"]
E2_SYSTEMS = ["xov", "fastfabric", "fabricpp", "fabricsharp", "xox"]

#: Cells the >= 2x wall-clock gate is asserted on (the XOV-family
#: architectures whose per-transaction snapshot the overhaul removed).
GATE = [("E1", "xov"), ("E2", "fastfabric")]
GATE_SPEEDUP = 2.0
GATE_STATE = 100_000

#: Snapshot-probe repetitions per state size.
PROBE_SNAPSHOTS = 200


def _workload(family: str, n_keys: int):
    """The E1/E2 transaction mix over an ``n_keys`` key space."""
    if family == "E1":
        generator = KvWorkload(
            n_keys=n_keys, theta=0.6, read_fraction=0.2, rmw_fraction=0.7,
            seed=11,
        )
    else:
        generator = KvWorkload(
            n_keys=n_keys, theta=0.8, read_fraction=0.45, rmw_fraction=0.3,
            seed=13,
        )
    return generator.generate(N_TXS)


def _prepopulate(store, n_keys: int) -> None:
    """Install the workload's key space at a genesis version."""
    version = Version(height=0, tx_index=0)
    for i in range(n_keys + 1):
        store.put(f"k{i}", 0, version)
    store.snapshot()  # seal/compact so measurement starts from steady state


def run_cell(family: str, name: str, n_keys: int, eager: bool) -> dict:
    """One grid cell: run ``name`` over the family workload at ``n_keys``
    pre-populated keys, returning wall/modelled throughput + counters."""
    config = SystemConfig(block_size=50, seed=21 if family == "E1" else 23)
    system = SYSTEMS[name](config)
    system.store = EagerCopyStateStore() if eager else StateStore()
    _prepopulate(system.store, n_keys)
    for tx in _workload(family, n_keys):
        system.submit(tx)
    reset_hotpath_counters()
    start = time.perf_counter()
    result = system.run()
    wall = time.perf_counter() - start
    counters = hotpath_counters()
    return {
        "workload": family,
        "system": name,
        "state_keys": n_keys,
        "store": "eager" if eager else "cow",
        "committed": result.committed,
        "wall_seconds": round(wall, 4),
        "wall_tps": round(result.committed / wall, 1) if wall else 0.0,
        "modelled_tps": result.to_row()["throughput_tps"],
        "snapshot_entries_copied": counters["store.snapshot_entries_copied"],
        "snapshots_taken": counters["store.snapshots_taken"],
        "sig_verified": int(result.extra.get("exec.sig_verified", 0)),
        "sig_cached": int(result.extra.get("exec.sig_cached", 0)),
        "merkle_nodes_hashed": counters["merkle.nodes_hashed"],
        "merkle_root_cache_hits": counters["merkle.root_cache_hits"],
    }


def run_snapshot_probe() -> dict:
    """Per-snapshot wall cost at each state size, both store kinds.

    The copy-on-write numbers must be flat in state size (O(1)); the
    eager baseline grows roughly linearly. ``cow_copied`` must be 0 —
    the COW path never copies an entry on snapshot.
    """
    probe: dict = {"cow_ns": {}, "eager_ns": {}, "cow_copied": 0}
    for n_keys in STATE_SIZES:
        for eager in (False, True):
            store = EagerCopyStateStore() if eager else StateStore()
            _prepopulate(store, n_keys)
            reset_hotpath_counters()
            start = time.perf_counter()
            for _ in range(PROBE_SNAPSHOTS):
                store.snapshot()
            per_snap = (time.perf_counter() - start) / PROBE_SNAPSHOTS
            kind = "eager_ns" if eager else "cow_ns"
            probe[kind][str(n_keys)] = round(per_snap * 1e9, 1)
            if not eager:
                probe["cow_copied"] += hotpath_counters()[
                    "store.snapshot_entries_copied"
                ]
    return probe


def run_hotpath(write_json: bool = True) -> dict:
    """The full grid + probe; writes ``BENCH_hotpath.json`` at the root."""
    rows = []
    for family, systems in (("E1", E1_SYSTEMS), ("E2", E2_SYSTEMS)):
        for n_keys in STATE_SIZES:
            for name in systems:
                rows.append(run_cell(family, name, n_keys, eager=False))
    for family, name in GATE:
        for n_keys in STATE_SIZES:
            rows.append(run_cell(family, name, n_keys, eager=True))
    probe = run_snapshot_probe()

    def cell(family, name, n_keys, store):
        return next(
            r for r in rows
            if r["workload"] == family and r["system"] == name
            and r["state_keys"] == n_keys and r["store"] == store
        )

    gate = {}
    for family, name in GATE:
        for n_keys in STATE_SIZES:
            baseline = cell(family, name, n_keys, "eager")
            current = cell(family, name, n_keys, "cow")
            gate[f"{family}/{name}@{n_keys}"] = {
                "baseline_wall_tps": baseline["wall_tps"],
                "current_wall_tps": current["wall_tps"],
                "speedup": round(
                    current["wall_tps"] / max(baseline["wall_tps"], 1e-9), 2
                ),
            }
    report = {
        "n_txs": N_TXS,
        "state_sizes": STATE_SIZES,
        "gate_speedup_required": GATE_SPEEDUP,
        "gate": gate,
        "snapshot_cost": probe,
        "rows": rows,
    }
    if write_json:
        path = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"
        path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def check_gate(report: dict) -> list[str]:
    """Acceptance checks over a full report; returns failure messages."""
    failures = []
    for family, name in GATE:
        entry = report["gate"][f"{family}/{name}@{GATE_STATE}"]
        if entry["speedup"] < GATE_SPEEDUP:
            failures.append(
                f"{family}/{name}@{GATE_STATE}: wall speedup "
                f"{entry['speedup']}x < required {GATE_SPEEDUP}x"
            )
    probe = report["snapshot_cost"]
    if probe["cow_copied"] != 0:
        failures.append(
            f"COW snapshot copied {probe['cow_copied']} entries (expected 0)"
        )
    # O(1): the COW snapshot at 100k keys must not cost meaningfully more
    # than at 1k (generous 5x tolerance for timer noise on ~us probes).
    small = probe["cow_ns"][str(STATE_SIZES[0])]
    large = probe["cow_ns"][str(STATE_SIZES[-1])]
    if large > 5 * max(small, 200.0):
        failures.append(
            f"COW snapshot cost grew with state size: {small}ns -> {large}ns"
        )
    return failures


# -- smoke mode (CI guard) ----------------------------------------------------


def check_parallel_identity() -> list[str]:
    """Bench rows must be byte-identical serial vs. forked-parallel."""
    def runner(theta):
        from repro.bench import run_architecture

        workload = KvWorkload(n_keys=5000, theta=theta, read_fraction=0.2,
                              rmw_fraction=0.7, seed=11)
        return run_architecture(
            "xov", workload.generate(N_TXS), SystemConfig(block_size=50, seed=21)
        )

    thetas = [0.0, 0.9]
    saved = os.environ.pop("REPRO_BENCH_WORKERS", None)
    try:
        serial = sweep("skew", thetas, runner)
    finally:
        if saved is not None:
            os.environ["REPRO_BENCH_WORKERS"] = saved
    parallel = sweep_parallel("skew", thetas, runner, workers=2)
    if json.dumps(serial, sort_keys=True) != json.dumps(parallel, sort_keys=True):
        return ["serial and parallel sweeps produced different rows"]
    return []


def check_snapshot_counters() -> list[str]:
    """COW snapshots must copy zero entries at any state size."""
    failures = []
    for n_keys in (1_000, 10_000):
        row = run_cell("E1", "xov", n_keys, eager=False)
        if row["snapshot_entries_copied"] != 0:
            failures.append(
                f"COW run at {n_keys} keys copied "
                f"{row['snapshot_entries_copied']} snapshot entries"
            )
        if row["committed"] == 0:
            failures.append(f"COW run at {n_keys} keys committed nothing")
    return failures


def run_smoke() -> int:
    failures = check_parallel_identity() + check_snapshot_counters()
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("hotpath smoke: parallel identity, O(1) snapshots OK")
    return 0


def test_hotpath_smoke():
    """Pytest entry: the same guard CI runs via ``--smoke``."""
    assert check_parallel_identity() + check_snapshot_counters() == []


if __name__ == "__main__":
    if "--smoke" in sys.argv[1:]:
        raise SystemExit(run_smoke())
    report = run_hotpath()
    print_table(report["rows"], title="E18: hot-path scaling grid")
    print(json.dumps({k: v for k, v in report.items() if k != "rows"}, indent=2))
    problems = check_gate(report)
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        raise SystemExit(1)
    print(f"hotpath gate: >= {GATE_SPEEDUP}x at {GATE_STATE} keys OK")
