"""Experiment E24 — memory-bounded paged storage: the compaction gate.

Three grids over :mod:`repro.storage.snapshots` / :mod:`~.paged`:

* **Ledger grid** — one seeded write stream (overwrites, deletes,
  skewless churn over a bounded keyspace) driven through a
  :class:`SpillBuffer` + :class:`SnapshotStore` under every
  (compaction policy × overlay byte budget) cell. Budgeted cells spill
  the overlay as soon as its deterministic byte estimate crosses the
  budget; every cell also spills on a fixed interval (the stand-in for
  the snapshot interval). Gates: resident overlay bytes stay bounded
  by the budget (+ one entry of slack) under a sustained 10k+ write
  stream while the unbounded control's peak sails past every budget;
  tiered compaction's cumulative bytes written are strictly below the
  full-merge policy's **at byte-identical final state**; and the paged
  read path over each cell's final run set matches the materialized
  oracle key for key.
* **Scan grid** — synthetic multi-run states at 10x-apart sizes probed
  with fixed narrow key ranges through ``PagedStateStore.scan``.
  Gates: every range byte-identical to the materialized oracle's scan,
  and the block-decode count stays O(blocks-in-range) — flat within a
  constant cap while the total block count grows >= 10x.
* **Determinism** — the ledger grid computed twice must be
  byte-identical (wall-clock-free cells), per (policy, budget) cell.

``--smoke`` runs reduced sizes of every gate — the CI guard.
Run standalone::

    PYTHONPATH=src python benchmarks/bench_state_compaction.py [--smoke]
"""

import json
import random
import sys
import time
from pathlib import Path

from repro.bench import print_table
from repro.bench.profiling import reset_hotpath_counters
from repro.ledger.store import STORE_COUNTERS, StateStore, Version
from repro.storage import (
    STORAGE_TIER_COMPACTIONS,
    BlockCache,
    MemoryBackend,
    PagedStateStore,
    SnapshotStore,
    SpillBuffer,
    state_root,
)
from repro.storage.codec import entry_to_row
from repro.storage.snapshots import RunWriter, run_name

WRITES = 12_000
KEYSPACE = 3_000
BUDGETS = [8 * 1024, 32 * 1024]  # plus the unbounded (0) control
SPILL_INTERVAL = 2_000  # writes per interval spill (snapshot stand-in)
DELETE_RATE = 0.05
SCAN_BULK = [4_000, 40_000]  # 10x block growth
SCAN_RUNS = 4
SCAN_RANGE_WIDTH = 48

SMOKE_WRITES = 2_500
SMOKE_KEYSPACE = 800
SMOKE_BUDGETS = [4 * 1024, 16 * 1024]
SMOKE_INTERVAL = 800
SMOKE_BULK = [1_000, 10_000]

#: A budgeted cell may overshoot by at most the one write that tripped
#: the check — entry overhead + key + a short value, comfortably < 256B.
BUDGET_SLACK_BYTES = 256
#: Narrow-range scans decode at most a couple of blocks per run per
#: range, independent of total state size — the O(blocks-in-range) gate.
SCAN_DECODE_CAP_PER_RANGE = 4 * SCAN_RUNS

JSON_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_state_compaction.json"
)


# -- the seeded write stream ---------------------------------------------------


def write_stream(writes: int, keyspace: int, seed: int):
    """Deterministic churn: overwrites dominate, a few deletes."""
    rng = random.Random(seed)
    for i in range(writes):
        key = f"key{rng.randrange(keyspace):07d}"
        if rng.random() < DELETE_RATE:
            yield i, key, None
        else:
            yield i, key, f"v{i}-{'x' * (i % 13)}"


def entry_fingerprint(store, key: str) -> str:
    """Canonical JSON of one lookup — the byte-for-byte unit."""
    entry = store.get_versioned(key)
    return json.dumps(
        [entry.value, entry.version.height, entry.version.tx_index],
        sort_keys=True, separators=(",", ":"),
    )


# -- ledger grid: (policy x budget) cells --------------------------------------


def run_ledger_cell(
    policy: str, budget_bytes: int, writes: int, keyspace: int,
    interval: int, seed: int = 41,
) -> dict:
    """One write stream through spill + compaction under one cell."""
    backend = MemoryBackend()
    store = SnapshotStore(backend, policy=policy)
    reset_hotpath_counters()
    spill = SpillBuffer()
    manifest: dict = {"runs": [], "next_run_id": 1}
    budget_spills = interval_spills = 0
    since_spill = 0
    for i, key, value in write_stream(writes, keyspace, seed):
        if value is None:
            spill.mark_deleted(key)
        else:
            spill.put(key, value, Version(1, i))
        since_spill += 1
        over_budget = 0 < budget_bytes <= spill.resident_bytes
        due = since_spill >= interval
        if over_budget or due:
            manifest = store.spill(spill, manifest)
            spill = SpillBuffer()
            since_spill = 0
            if over_budget and not due:
                budget_spills += 1
            else:
                interval_spills += 1
    if since_spill:
        manifest = store.spill(spill, manifest)
    entries = list(manifest.get("runs", ()))
    oracle = store.load_state(manifest)
    paged = PagedStateStore(backend, entries, BlockCache(32 * 1024))
    paged_rows = [
        (key, entry.value, entry.version.height, entry.version.tx_index)
        for key, entry in paged.scan()
    ]
    oracle_rows = [
        (key, entry.value, entry.version.height, entry.version.tx_index)
        for key, entry in oracle.scan()
    ]
    return {
        "policy": policy,
        "budget_bytes": budget_bytes,
        "writes": writes,
        "runs": len(entries),
        "tiers": [int(e.get("tier", 0)) for e in entries],
        "budget_spills": budget_spills,
        "interval_spills": interval_spills,
        "overlay_peak_bytes": STORE_COUNTERS["overlay_resident_peak"],
        "spill_bytes": STORE_COUNTERS["spill_bytes_written"],
        "compaction_bytes": STORE_COUNTERS["compaction_bytes_written"],
        "tier_compactions": dict(sorted(STORAGE_TIER_COMPACTIONS.items())),
        "live_keys": len(oracle_rows),
        "state_root": state_root(oracle),
        "paged_matches": paged_rows == oracle_rows,
    }


def run_ledger_grid(
    writes: int = WRITES, keyspace: int = KEYSPACE,
    budgets=None, interval: int = SPILL_INTERVAL,
) -> list[dict]:
    rows = []
    for policy in ("full", "tiered"):
        for budget in [0] + list(budgets or BUDGETS):
            rows.append(
                run_ledger_cell(policy, budget, writes, keyspace, interval)
            )
    return rows


def check_ledger_grid(rows: list[dict]) -> list[str]:
    failures = []
    unbounded_peak = min(
        row["overlay_peak_bytes"] for row in rows if not row["budget_bytes"]
    )
    for row in rows:
        where = f"ledger[{row['policy']}@{row['budget_bytes']}]"
        if not row["paged_matches"]:
            failures.append(
                f"{where}: paged scan diverged from the materialized oracle"
            )
        if row["budget_bytes"]:
            cap = row["budget_bytes"] + BUDGET_SLACK_BYTES
            if row["overlay_peak_bytes"] > cap:
                failures.append(
                    f"{where}: overlay peak {row['overlay_peak_bytes']}B "
                    f"exceeds budget+slack ({cap}B) — not bounded"
                )
            if row["budget_spills"] == 0:
                failures.append(
                    f"{where}: the budget never forced a spill — the "
                    "bound is vacuous"
                )
            if unbounded_peak <= row["budget_bytes"]:
                failures.append(
                    f"{where}: the unbounded control peaked at only "
                    f"{unbounded_peak}B — the budget does not bind"
                )
    by_budget: dict[int, dict[str, dict]] = {}
    for row in rows:
        by_budget.setdefault(row["budget_bytes"], {})[row["policy"]] = row
    write_amp_pairs = 0
    for budget, pair in sorted(by_budget.items()):
        full, tiered = pair.get("full"), pair.get("tiered")
        if not full or not tiered:
            continue
        where = f"ledger[budget={budget}]"
        if full["state_root"] != tiered["state_root"]:
            failures.append(
                f"{where}: tiered and full final states diverge — the "
                "write-amp comparison is meaningless"
            )
        if full["compaction_bytes"] == 0:
            # The unbounded control spills too few runs for the full
            # policy to ever merge — no write-amp to compare there.
            continue
        write_amp_pairs += 1
        if tiered["compaction_bytes"] >= full["compaction_bytes"]:
            failures.append(
                f"{where}: tiered compaction wrote "
                f"{tiered['compaction_bytes']}B, not below full's "
                f"{full['compaction_bytes']}B — no write-amp win"
            )
        if not tiered["tier_compactions"]:
            failures.append(f"{where}: tiered cell ran no band merges")
    if not write_amp_pairs:
        failures.append(
            "ledger grid: no cell ever triggered a full-policy merge — "
            "the write-amp gate is vacuous"
        )
    return failures


# -- scan grid: decode work vs state size --------------------------------------


def build_scan_state(backend, keys: int, runs: int, seed: int) -> list[dict]:
    """A spill history: run 1 writes everything, later runs overwrite
    slices and tombstone a few keys (which scans must mask)."""
    rng = random.Random(seed)
    entries = []
    writer = RunWriter(backend, run_name(1), keys)
    for i in range(keys):
        writer.add(entry_to_row(f"key{i:07d}", f"v1-{i}", Version(1, i)))
    entries.append(writer.finish())
    for run_id in range(2, runs + 1):
        touched = sorted(rng.sample(range(keys), max(1, keys // 16)))
        writer = RunWriter(backend, run_name(run_id), len(touched))
        for index, i in enumerate(touched):
            if rng.random() < 0.1:
                row = entry_to_row(f"key{i:07d}", None, Version(-1, -1))
            else:
                row = entry_to_row(
                    f"key{i:07d}", f"v{run_id}-{i}", Version(run_id, index)
                )
            writer.add(row)
        entries.append(writer.finish())
    return entries


def scan_ranges(small_keys: int) -> list[tuple[str, str]]:
    """Fixed narrow ranges that exist at every bulk size (all bases
    land inside the smallest keyspace)."""
    bases = [0, small_keys // 3, small_keys - SCAN_RANGE_WIDTH - 1]
    return [
        (f"key{base:07d}", f"key{base + SCAN_RANGE_WIDTH:07d}")
        for base in bases
    ]


def run_scan_cell(
    keys: int, ranges: list[tuple[str, str]], seed: int = 43
) -> dict:
    backend = MemoryBackend()
    entries = build_scan_state(backend, keys, SCAN_RUNS, seed)
    manifest = {"runs": entries, "next_run_id": SCAN_RUNS + 1}
    oracle = SnapshotStore(backend).load_state(manifest)
    paged = PagedStateStore(backend, entries, BlockCache(64 * 1024))
    total_blocks = sum(run.block_count() for run in paged._runs)
    reset_hotpath_counters()
    mismatches = 0
    rows_scanned = 0
    for start, end in ranges:
        got = [
            (key, entry.value, entry.version.height, entry.version.tx_index)
            for key, entry in paged.scan(start, end)
        ]
        want = [
            (key, entry.value, entry.version.height, entry.version.tx_index)
            for key, entry in oracle.scan(start, end)
        ]
        rows_scanned += len(want)
        if got != want:
            mismatches += 1
    # Degenerate shapes must agree too: empty and point ranges.
    probe = ranges[0][0]
    empty_agree = (
        list(paged.scan("key9999998", "key9999999"))
        == list(oracle.scan("key9999998", "key9999999"))
    )
    point_agree = (
        [key for key, _ in paged.scan(probe, probe)]
        == [key for key, _ in oracle.scan(probe, probe)]
    )
    return {
        "keys": keys,
        "total_blocks": total_blocks,
        "ranges": len(ranges),
        "rows_scanned": rows_scanned,
        "range_mismatches": mismatches,
        "empty_and_point_agree": empty_agree and point_agree,
        "range_block_decodes": STORE_COUNTERS["range_block_decodes"],
        "decode_cap": SCAN_DECODE_CAP_PER_RANGE * len(ranges),
    }


def run_scan_grid(bulks=None) -> list[dict]:
    sizes = list(bulks or SCAN_BULK)
    ranges = scan_ranges(min(sizes))
    return [run_scan_cell(keys, ranges) for keys in sizes]


def check_scan_grid(rows: list[dict]) -> list[str]:
    failures = []
    for row in rows:
        where = f"scan[keys={row['keys']}]"
        if row["range_mismatches"]:
            failures.append(
                f"{where}: {row['range_mismatches']} ranges returned "
                "different rows through the paged path"
            )
        if not row["empty_and_point_agree"]:
            failures.append(f"{where}: empty/point ranges disagree")
        if row["rows_scanned"] == 0:
            failures.append(f"{where}: the ranges matched no rows — the "
                            "scan gate is vacuous")
        if row["range_block_decodes"] > row["decode_cap"]:
            failures.append(
                f"{where}: {row['range_block_decodes']} block decodes "
                f"(> cap {row['decode_cap']}) — scan work is scaling "
                "with state size"
            )
    if len(rows) >= 2:
        small, large = rows[0], rows[-1]
        if large["total_blocks"] < 5 * small["total_blocks"]:
            failures.append(
                "scan grid: block count did not grow enough to test "
                f"independence ({small['total_blocks']} -> "
                f"{large['total_blocks']})"
            )
    return failures


# -- same-seed determinism -----------------------------------------------------


def run_determinism(
    writes: int, keyspace: int, budgets, interval: int
) -> dict:
    first = run_ledger_grid(writes, keyspace, budgets, interval)
    second = run_ledger_grid(writes, keyspace, budgets, interval)
    return {
        "writes": writes,
        "cells": len(first),
        "replays_identical": first == second,
    }


def check_determinism(row: dict) -> list[str]:
    if not row["replays_identical"]:
        return [
            "determinism: same-seed ledger grids diverged — spill or "
            "compaction is not deterministic"
        ]
    return []


# -- full run + gate ----------------------------------------------------------


def run_state_compaction(write_json: bool = True) -> dict:
    report = {
        "experiment": "E24",
        "writes": WRITES,
        "keyspace": KEYSPACE,
        "budgets": BUDGETS,
        "spill_interval": SPILL_INTERVAL,
        "scan_bulk": SCAN_BULK,
        "ledger_grid": run_ledger_grid(),
        "scan_grid": run_scan_grid(),
        "determinism": run_determinism(
            WRITES // 4, KEYSPACE // 4, [b // 4 for b in BUDGETS],
            SPILL_INTERVAL // 4,
        ),
    }
    if write_json:
        JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def check_gate(report: dict) -> list[str]:
    return (
        check_ledger_grid(report["ledger_grid"])
        + check_scan_grid(report["scan_grid"])
        + check_determinism(report["determinism"])
    )


# -- smoke mode (CI guard) ----------------------------------------------------


def smoke_failures() -> list[str]:
    failures = check_ledger_grid(run_ledger_grid(
        SMOKE_WRITES, SMOKE_KEYSPACE, SMOKE_BUDGETS, SMOKE_INTERVAL
    ))
    failures += check_scan_grid(run_scan_grid(SMOKE_BULK))
    return failures


def run_smoke() -> int:
    failures = smoke_failures()
    failures += check_determinism(run_determinism(
        SMOKE_WRITES // 2, SMOKE_KEYSPACE // 2, SMOKE_BUDGETS,
        SMOKE_INTERVAL // 2,
    ))
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        "state-compaction smoke: overlay bytes bounded by budget, tiered "
        "write-amp below full at identical state, range decodes flat "
        "across 10x blocks, same-seed replay identical OK"
    )
    return 0


def test_state_compaction_smoke():
    """Pytest entry: the cheap core of the ``--smoke`` CI guard."""
    assert smoke_failures() == []


if __name__ == "__main__":
    if "--smoke" in sys.argv[1:]:
        raise SystemExit(run_smoke())
    started = time.perf_counter()
    report = run_state_compaction()
    ledger_view = [
        {k: v for k, v in row.items()
         if k not in ("tiers", "tier_compactions", "state_root")}
        for row in report["ledger_grid"]
    ]
    print_table(
        ledger_view,
        title=f"E24 spill + compaction grid ({WRITES} writes, "
        f"{KEYSPACE} keys)",
    )
    print_table(
        report["scan_grid"],
        title="E24 indexed range scans (decode work vs 10x block growth)",
    )
    problems = check_gate(report)
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        raise SystemExit(1)
    print(
        "state-compaction gate: bounded overlay bytes, tiered < full "
        "write bytes at identical state, O(blocks-in-range) scans, "
        f"same-seed determinism OK [{time.perf_counter() - started:.1f}s]"
    )
