"""Experiment E23 — larger-than-RAM state: the paged read path gate.

Three grids over :mod:`repro.storage.paged`:

* **Equivalence grid** — a synthetic multi-run state (overwrites and
  tombstones across runs, like a life of spills) opened both ways:
  fully materialized (``SnapshotStore.load_state``, the oracle) and
  paged (``PagedStateStore``). Uniform and Zipf probe mixes; every
  probed key must return **byte-identical** canonical JSON (value and
  MVCC version) through both paths, on states well past the cache
  budget.
* **Cache sweep** — the same Zipf/uniform probe sequences against
  ascending block-cache budgets. Gate: hit rate strictly improving
  with budget on both mixes, resident bytes never exceeding the
  budget, and the budget actually binding (evictions happen below the
  largest cache).
* **Recovery grid** — a real chain committed on top of synthetic bulk
  state, power-failed, recovered both ways while the bulk grows 10x.
  Gate: paged recovery replays exactly the WAL tail at every size, its
  decode work (cache misses) stays bounded by a constant independent
  of state size, and at the largest size the paged restart is
  wall-clock faster than the materialized one (which must rebuild the
  whole state). Wall times are reported but only that one robust
  comparison is gated — the deterministic decode counters carry the
  O(WAL tail) claim.

Same-seed determinism: the equivalence grid is computed twice and the
wall-free fingerprints must match byte-for-byte.

``--smoke`` runs reduced sizes of every gate — the CI guard.
Run standalone::

    PYTHONPATH=src python benchmarks/bench_state_paging.py [--smoke]
"""

import json
import random
import sys
import time
from pathlib import Path

from repro.bench import print_table
from repro.execution.contracts import standard_registry
from repro.ledger.store import STORE_COUNTERS, Version, reset_store_counters
from repro.storage import (
    BlockCache,
    DurableLedger,
    MemoryBackend,
    PagedStateStore,
    SnapshotStore,
    build_canonical_chain,
)
from repro.storage.codec import entry_to_row
from repro.storage.snapshots import RunWriter, run_name
from repro.workloads.openloop import ScalableZipfSampler

KEYS = 40_000
PROBES = 4_000
RUNS = 4
ZIPF_THETA = 0.9
CACHE_BUDGETS = [32 * 1024, 128 * 1024, 512 * 1024]
RECOVERY_BULK = [5_000, 50_000]  # 10x growth
#: 27 blocks at 2 txs each: snapshot_interval=4 leaves a 3-record WAL
#: tail, so the replay gate is never vacuous.
RECOVERY_TXS = 54

SMOKE_KEYS = 4_000
SMOKE_PROBES = 800
SMOKE_CACHES = [8 * 1024, 32 * 1024, 128 * 1024]
SMOKE_BULK = [1_000, 10_000]

#: Paged recovery + WAL replay must never decode more blocks than this,
#: whatever the snapshot size — the deterministic O(WAL tail) gate.
RECOVERY_DECODE_CAP = 64

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_state_paging.json"


# -- synthetic multi-run states ------------------------------------------------


def build_run_set(backend, keys: int, runs: int, seed: int) -> list[dict]:
    """A believable spill history: run 1 writes everything; later runs
    overwrite slices and delete a few keys (tombstones that must mask)."""
    rng = random.Random(seed)
    entries = []
    writer = RunWriter(backend, run_name(1), keys)
    for i in range(keys):
        writer.add(entry_to_row(f"key{i:07d}", f"v1-{i}", Version(1, i)))
    entries.append(writer.finish())
    for run_id in range(2, runs + 1):
        touched = sorted(
            rng.sample(range(keys), max(1, keys // (runs * 4)))
        )
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


def probe_keys(keys: int, probes: int, theta: float, seed: int) -> list[str]:
    sampler = ScalableZipfSampler(keys, theta, random.Random(seed))
    return [f"key{sampler.sample():07d}" for _ in range(probes)]


def entry_bytes(store, key: str) -> str:
    """Canonical JSON of one lookup — the byte-for-byte comparison unit."""
    entry = store.get_versioned(key)
    return json.dumps(
        [entry.value, entry.version.height, entry.version.tx_index],
        sort_keys=True, separators=(",", ":"),
    )


# -- equivalence grid ----------------------------------------------------------


def run_equivalence_cell(
    mix: str, theta: float, keys: int, probes: int, seed: int = 29
) -> dict:
    backend = MemoryBackend()
    entries = build_run_set(backend, keys, RUNS, seed)
    manifest = {"runs": entries, "next_run_id": RUNS + 1}
    oracle = SnapshotStore(backend).load_state(manifest)
    cache = BlockCache(CACHE_BUDGETS[0])  # smallest budget: max paging
    paged = PagedStateStore(backend, entries, cache)
    reset_store_counters()
    sequence = probe_keys(keys, probes, theta, seed + 1)
    mismatches = sum(
        entry_bytes(paged, key) != entry_bytes(oracle, key)
        for key in sequence
    )
    # Absent keys and tombstoned keys must agree too.
    tomb_agree = all(
        entry_bytes(paged, key) == entry_bytes(oracle, key)
        for key in [f"key{keys + i:07d}" for i in range(64)]
    )
    return {
        "mix": mix,
        "theta": theta,
        "keys": keys,
        "probes": probes,
        "state_bytes": sum(e["bytes"] for e in entries),
        "cache_bytes": cache.budget_bytes,
        "byte_mismatches": mismatches,
        "absent_keys_agree": tomb_agree,
        "filter_skips": STORE_COUNTERS["filter_skips"],
        "cache_evictions": STORE_COUNTERS["block_cache_evictions"],
        "oracle_len_matches": len(paged) == len(oracle),
    }


def run_equivalence_grid(keys: int = KEYS, probes: int = PROBES) -> list[dict]:
    return [
        run_equivalence_cell("uniform", 0.0, keys, probes),
        run_equivalence_cell("zipf", ZIPF_THETA, keys, probes),
    ]


def check_equivalence_grid(rows: list[dict]) -> list[str]:
    failures = []
    for row in rows:
        where = f"equivalence[{row['mix']}]"
        if row["byte_mismatches"]:
            failures.append(
                f"{where}: {row['byte_mismatches']} probes returned "
                "different bytes through the paged path"
            )
        if not row["absent_keys_agree"]:
            failures.append(f"{where}: absent-key probes disagree")
        if not row["oracle_len_matches"]:
            failures.append(f"{where}: live-key counts diverge")
        if row["state_bytes"] <= row["cache_bytes"]:
            failures.append(
                f"{where}: state ({row['state_bytes']}B) does not exceed "
                f"the cache budget ({row['cache_bytes']}B) — not paging"
            )
        if row["cache_evictions"] == 0:
            failures.append(f"{where}: cache never evicted — not paging")
    return failures


# -- cache sweep ---------------------------------------------------------------


def run_cache_cell(
    mix: str, theta: float, budget: int, keys: int, probes: int,
    seed: int = 31,
) -> dict:
    backend = MemoryBackend()
    entries = build_run_set(backend, keys, RUNS, seed)
    paged = PagedStateStore(backend, entries, BlockCache(budget))
    sequence = probe_keys(keys, probes, theta, seed + 2)
    reset_store_counters()
    for key in sequence:
        paged.get(key)
    hits = STORE_COUNTERS["block_cache_hits"]
    misses = STORE_COUNTERS["block_cache_misses"]
    return {
        "mix": mix,
        "cache_bytes": budget,
        "probes": probes,
        "hits": hits,
        "misses": misses,
        "hit_rate": round(hits / (hits + misses), 4) if hits + misses else 0.0,
        "evictions": STORE_COUNTERS["block_cache_evictions"],
        "resident_bytes": paged.cache.resident_bytes,
        "within_budget": paged.cache.resident_bytes <= budget,
    }


def run_cache_grid(
    keys: int = KEYS, probes: int = PROBES, budgets=None
) -> list[dict]:
    rows = []
    for mix, theta in (("uniform", 0.0), ("zipf", ZIPF_THETA)):
        for budget in budgets or CACHE_BUDGETS:
            rows.append(run_cache_cell(mix, theta, budget, keys, probes))
    return rows


def check_cache_grid(rows: list[dict]) -> list[str]:
    failures = []
    for row in rows:
        if not row["within_budget"]:
            failures.append(
                f"cache[{row['mix']}@{row['cache_bytes']}]: resident "
                f"{row['resident_bytes']}B exceeds the byte budget"
            )
    for mix in ("uniform", "zipf"):
        series = [row for row in rows if row["mix"] == mix]
        for prev, cur in zip(series, series[1:]):
            if cur["hit_rate"] <= prev["hit_rate"]:
                failures.append(
                    f"cache[{mix}]: hit rate not strictly improving "
                    f"({prev['cache_bytes']}B: {prev['hit_rate']} -> "
                    f"{cur['cache_bytes']}B: {cur['hit_rate']})"
                )
        if series and series[0]["evictions"] == 0:
            failures.append(
                f"cache[{mix}]: smallest budget never evicted — the sweep "
                "is not exercising the cache"
            )
    return failures


# -- recovery grid -------------------------------------------------------------


def run_recovery_cell(bulk_keys: int, txs: int, seed: int = 37) -> dict:
    """Bulk synthetic state + a real chain on top, crashed and recovered
    both ways. The bulk is installed *before* the chain commits, so the
    recorded per-block roots cover it and the WAL tail replays cleanly
    under the materialized path's root checks."""
    backend = MemoryBackend()
    ledger = DurableLedger(backend, policy="per-block", snapshot_interval=4)
    chain = build_canonical_chain(txs=txs, seed=seed)
    for i in range(bulk_keys):
        key, value = f"bulk{i:07d}", f"b{i}"
        ledger.store.put(key, value, Version(0, i))
        ledger.spill.put(key, value, Version(0, i))
    registry = standard_registry()
    for height in range(1, chain.height + 1):
        ledger.apply_block(chain.block(height), registry)
    ledger.flush()
    backend.simulate_crash()

    tail = DurableLedger(
        backend, policy="per-block", snapshot_interval=4
    ).tail_record_count()

    started = time.perf_counter()
    materialized = DurableLedger(
        backend, policy="per-block", snapshot_interval=4
    ).recover(standard_registry)
    materialized_wall = time.perf_counter() - started

    reset_store_counters()
    started = time.perf_counter()
    paged = DurableLedger(
        backend, policy="per-block", snapshot_interval=4, paged=True
    ).recover(standard_registry)
    paged_wall = time.perf_counter() - started
    decoded = STORE_COUNTERS["block_cache_misses"]
    snapshot_blocks = sum(
        run.block_count() for run in paged.store._runs
    ) if isinstance(paged.store, PagedStateStore) else 0
    return {
        "bulk_keys": bulk_keys,
        "blocks": chain.height,
        "wal_tail_records": tail,
        "paged_replayed": paged.replayed,
        "materialized_replayed": materialized.replayed,
        "snapshot_blocks": snapshot_blocks,
        "recovery_blocks_decoded": decoded,
        "paged_wall_s": round(paged_wall, 4),
        "materialized_wall_s": round(materialized_wall, 4),
        "tips_match": paged.tail.tip_hash() == materialized.tail.tip_hash(),
        "heights_match": paged.tail.height
        == materialized.tail.height
        == chain.height,
        "is_paged_store": isinstance(paged.store, PagedStateStore),
    }


def run_recovery_grid(bulks=None, txs: int = RECOVERY_TXS) -> list[dict]:
    return [
        run_recovery_cell(bulk, txs) for bulk in (bulks or RECOVERY_BULK)
    ]


def check_recovery_grid(rows: list[dict]) -> list[str]:
    failures = []
    for row in rows:
        where = f"recovery[bulk={row['bulk_keys']}]"
        if not row["is_paged_store"]:
            failures.append(f"{where}: paged=True did not return a "
                            "PagedStateStore")
        if not row["heights_match"] or not row["tips_match"]:
            failures.append(f"{where}: paged and materialized recoveries "
                            "disagree on the chain")
        if row["wal_tail_records"] == 0:
            failures.append(
                f"{where}: WAL tail is empty — the replay gate is vacuous "
                "(grow the chain past the last snapshot boundary)"
            )
        if row["paged_replayed"] != row["wal_tail_records"]:
            failures.append(
                f"{where}: paged replay ({row['paged_replayed']}) != WAL "
                f"tail ({row['wal_tail_records']})"
            )
        if row["recovery_blocks_decoded"] > RECOVERY_DECODE_CAP:
            failures.append(
                f"{where}: paged recovery decoded "
                f"{row['recovery_blocks_decoded']} blocks "
                f"(> cap {RECOVERY_DECODE_CAP}) — decode work is scaling "
                "with snapshot size"
            )
    if len(rows) >= 2:
        small, large = rows[0], rows[-1]
        if large["snapshot_blocks"] < 5 * small["snapshot_blocks"]:
            failures.append(
                "recovery grid: snapshot did not grow enough to test "
                f"independence ({small['snapshot_blocks']} -> "
                f"{large['snapshot_blocks']} blocks)"
            )
        # The one wall-clock gate, taken where the gap is widest: with
        # 10x the state, a restart that materializes everything cannot
        # beat one that opens footers only.
        if large["paged_wall_s"] >= large["materialized_wall_s"]:
            failures.append(
                "recovery grid: at the largest state the paged restart "
                f"({large['paged_wall_s']}s) was not faster than the "
                f"materialized one ({large['materialized_wall_s']}s)"
            )
    return failures


# -- same-seed determinism -----------------------------------------------------


def run_determinism(keys: int, probes: int) -> dict:
    first = run_equivalence_grid(keys, probes)
    second = run_equivalence_grid(keys, probes)
    return {
        "keys": keys,
        "replays_identical": first == second,
    }


def check_determinism(row: dict) -> list[str]:
    if not row["replays_identical"]:
        return [
            "determinism: same-seed equivalence grids diverged — the "
            "paged read path is not deterministic"
        ]
    return []


# -- full run + gate ----------------------------------------------------------


def run_state_paging(write_json: bool = True) -> dict:
    report = {
        "experiment": "E23",
        "keys": KEYS,
        "probes": PROBES,
        "zipf_theta": ZIPF_THETA,
        "cache_budgets": CACHE_BUDGETS,
        "recovery_bulk": RECOVERY_BULK,
        "equivalence_grid": run_equivalence_grid(),
        "cache_grid": run_cache_grid(),
        "recovery_grid": run_recovery_grid(),
        "determinism": run_determinism(KEYS // 4, PROBES // 4),
    }
    if write_json:
        JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def check_gate(report: dict) -> list[str]:
    return (
        check_equivalence_grid(report["equivalence_grid"])
        + check_cache_grid(report["cache_grid"])
        + check_recovery_grid(report["recovery_grid"])
        + check_determinism(report["determinism"])
    )


# -- smoke mode (CI guard) ----------------------------------------------------


def run_smoke() -> int:
    failures = check_equivalence_grid(
        run_equivalence_grid(SMOKE_KEYS, SMOKE_PROBES)
    )
    failures += check_cache_grid(
        run_cache_grid(SMOKE_KEYS, SMOKE_PROBES, SMOKE_CACHES)
    )
    failures += check_recovery_grid(
        run_recovery_grid(SMOKE_BULK, txs=30)
    )
    failures += check_determinism(
        run_determinism(SMOKE_KEYS // 4, SMOKE_PROBES // 4)
    )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        "state-paging smoke: paged==materialized bytes (uniform+zipf), "
        "hit rate strictly improving with budget, recovery decode work "
        "flat across 10x state, same-seed replay identical OK"
    )
    return 0


def test_state_paging_smoke(run_once):
    """Pytest entry: the cheap core of the ``--smoke`` CI guard."""
    def guard():
        return (
            check_equivalence_grid(
                run_equivalence_grid(SMOKE_KEYS, SMOKE_PROBES)
            )
            + check_cache_grid(
                run_cache_grid(SMOKE_KEYS, SMOKE_PROBES, SMOKE_CACHES)
            )
            + check_recovery_grid(run_recovery_grid(SMOKE_BULK, txs=30))
        )

    assert run_once(guard) == []


if __name__ == "__main__":
    if "--smoke" in sys.argv[1:]:
        raise SystemExit(run_smoke())
    started = time.perf_counter()
    report = run_state_paging()
    print_table(
        report["equivalence_grid"],
        title=f"E23 paged vs materialized equivalence ({KEYS} keys)",
    )
    print_table(
        report["cache_grid"],
        title="E23 block-cache sweep (hit rate vs byte budget)",
    )
    print_table(
        report["recovery_grid"],
        title="E23 recovery work vs snapshot size (10x growth)",
    )
    problems = check_gate(report)
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        raise SystemExit(1)
    print(
        "state-paging gate: byte equivalence on uniform+zipf, strictly "
        "monotone hit rate, bounded recovery decode work, same-seed "
        f"determinism OK [{time.perf_counter() - started:.1f}s]"
    )
