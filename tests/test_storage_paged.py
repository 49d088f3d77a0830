"""The paged read path: blocked run files, key filters, the LRU block
cache, tombstone resolution across tiers, orphan-run GC, and the
rejection of every run format but the current one."""

import json

import pytest

from repro.common.errors import StorageError
from repro.execution.contracts import standard_registry
from repro.ledger.store import STORE_COUNTERS, Version, reset_store_counters
from repro.storage import (
    DurableLedger,
    MemoryBackend,
    SnapshotStore,
    build_canonical_chain,
    state_root,
)
from repro.storage.codec import (
    KeyFilter,
    checksum,
    decode_block_rows,
    entry_to_row,
)
from repro.storage.paged import BlockCache, PagedRun, PagedStateStore
from repro.storage.snapshots import (
    MANIFEST_NAME,
    RUN_FORMAT,
    RunWriter,
    run_name,
)


def write_run(backend, run_id, items, block_bytes=128):
    """One blocked run of (key, value, height) items, tiny blocks so
    multi-block behaviour shows up at test scale."""
    writer = RunWriter(backend, run_name(run_id), len(items), block_bytes)
    for index, (key, value) in enumerate(sorted(items)):
        writer.add(entry_to_row(key, value, Version(run_id, index)))
    return writer.finish()


def manifest_for(*entries):
    return {"runs": list(entries), "next_run_id": len(entries) + 1}


# -- the key filter ------------------------------------------------------------


def test_key_filter_has_no_false_negatives_and_round_trips():
    keys = [f"k{i:04d}" for i in range(500)]
    flt = KeyFilter.sized_for(len(keys))
    for key in keys:
        flt.add(key)
    pairs = [KeyFilter.hash_pair(key) for key in keys]
    assert all(flt.might_contain(pair) for pair in pairs)
    again = KeyFilter.from_dict(flt.to_dict())
    assert all(again.might_contain(pair) for pair in pairs)
    assert again.to_dict() == flt.to_dict()


def test_key_filter_rules_out_most_absent_keys():
    flt = KeyFilter.sized_for(200)
    for i in range(200):
        flt.add(f"present{i}")
    false_positives = sum(
        flt.might_contain(KeyFilter.hash_pair(f"absent{i}"))
        for i in range(1000)
    )
    # ~3% expected at 8 bits/key, k=4; 10% is a generous determinism-safe
    # bound (the hash seeds are fixed, so this never flakes).
    assert false_positives < 100


def test_key_filter_rejects_malformed_dict():
    with pytest.raises(StorageError):
        KeyFilter.from_dict({"m": 64, "k": 4, "bits": "zz"})
    with pytest.raises(StorageError):
        KeyFilter.from_dict({"m": 128, "k": 4, "bits": "00"})


# -- the blocked run format ----------------------------------------------------


def test_blocked_run_round_trips_through_snapshot_store():
    backend = MemoryBackend()
    items = [(f"k{i:03d}", i) for i in range(100)]
    entry = write_run(backend, 1, items)
    assert entry["format"] == RUN_FORMAT
    assert entry["rows"] == 100
    rows = SnapshotStore(backend).read_run(entry)
    assert [(row[0], row[1]) for row in rows] == sorted(items)


def test_run_writer_rejects_out_of_order_keys():
    backend = MemoryBackend()
    writer = RunWriter(backend, run_name(1), 2)
    writer.add(entry_to_row("b", 1, Version(1, 0)))
    with pytest.raises(StorageError):
        writer.add(entry_to_row("a", 2, Version(1, 1)))


def test_corrupt_block_detected_by_paged_lookup():
    backend = MemoryBackend()
    entry = write_run(backend, 1, [(f"k{i:03d}", i) for i in range(100)])
    name = entry["name"]
    # Flip one byte inside the first data block (offset 0 is row data).
    raw = bytearray(backend.read(name))
    raw[4] ^= 0xFF
    backend._files[name].content = raw
    run = PagedRun(backend, entry)  # footer is intact — open succeeds
    with pytest.raises(StorageError):
        run.lookup("k000", KeyFilter.hash_pair("k000"), BlockCache())


def test_corrupt_footer_fails_at_open():
    backend = MemoryBackend()
    entry = write_run(backend, 1, [("a", 1), ("b", 2)])
    raw = bytearray(backend.read(entry["name"]))
    raw[-6] ^= 0x01  # inside the trailer
    backend._files[entry["name"]].content = raw
    with pytest.raises(StorageError):
        PagedRun(backend, entry)


def reseal_block(backend, entry, index, payload):
    """Overwrite one block of a run with ``payload`` (same length) and
    re-seal index, footer and manifest entry around it — what a writer
    that framed blocks wrongly would have produced."""
    name = entry["name"]
    blocks = PagedRun(backend, entry).blocks
    spec = blocks[index]
    assert len(payload) == spec["len"]
    raw = bytearray(backend.read(name))
    raw[spec["off"]:spec["off"] + spec["len"]] = payload
    data_end = blocks[-1]["off"] + blocks[-1]["len"]
    footer = json.loads(raw[data_end:-12])  # 12 = the fixed trailer
    footer["blocks"][index]["sum"] = checksum(payload)
    footer_bytes = json.dumps(
        footer, sort_keys=True, separators=(",", ":")
    ).encode()
    assert len(footer_bytes) == len(raw) - 12 - data_end
    raw[data_end:-12] = footer_bytes
    backend.replace(name, bytes(raw))
    return dict(entry, checksum=checksum(footer_bytes))


def test_unframed_block_with_a_valid_checksum_is_an_error_not_a_miss():
    backend = MemoryBackend()
    entry = write_run(backend, 1, [(f"k{i:03d}", i) for i in range(100)])
    spec = PagedRun(backend, entry).blocks[1]
    rows = decode_block_rows(
        backend.read_range(entry["name"], spec["off"], spec["len"]), "test"
    )
    # The same rows as the JSON list format v2 wrote: same length,
    # valid JSON, checksum re-sealed — and no frame to search.
    unframed = json.dumps(rows, sort_keys=True, separators=(",", ":")).encode()
    entry = reseal_block(backend, entry, 1, unframed)
    store = PagedStateStore(backend, [entry])
    assert store.get("k000") == 0  # another block: still served
    with pytest.raises(StorageError, match="unframed"):
        store.get(rows[0][0])
    with pytest.raises(StorageError, match="unframed"):
        list(store.scan())
    with pytest.raises(StorageError, match="unframed"):
        SnapshotStore(backend).read_run(entry)
    # Not UTF-8 is the same class of error.
    entry = reseal_block(backend, entry, 1, b"\xff" * spec["len"])
    with pytest.raises(StorageError, match="undecodable"):
        PagedStateStore(backend, [entry]).get(rows[0][0])


@pytest.mark.parametrize("old_format", [1, 2, None])
def test_older_run_formats_are_rejected_by_name(old_format):
    """One run format: an entry naming any other — or none, as the
    pre-blocking v1 entries did — is refused on the paged and on the
    materialized path."""
    backend = MemoryBackend()
    entry = write_run(backend, 1, [("a", 1), ("b", 2)])
    entry["format"] = old_format
    if old_format is None:
        del entry["format"]
    with pytest.raises(StorageError, match="unknown run format"):
        PagedStateStore(backend, [entry])
    snapshots = SnapshotStore(backend)
    with pytest.raises(StorageError, match="unknown run format"):
        snapshots.read_run(entry)
    with pytest.raises(StorageError, match="unknown run format"):
        snapshots.load_state(manifest_for(entry))


@pytest.mark.parametrize("paged", [True, False])
def test_node_holding_an_older_format_directory_resyncs_to_the_oracle(paged):
    from repro.storage import DurableCluster

    cluster = DurableCluster(n=2, txs=40, seed=3, paged=paged)
    node, backend = cluster.nodes["d0"], cluster.backends["d0"]

    def downgrade():
        snapshots = SnapshotStore(backend)
        manifest = snapshots.read_manifest()
        runs = [dict(entry, format=2) for entry in manifest["runs"]]
        snapshots.write_manifest(dict(manifest, runs=runs))

    cluster.sim.schedule_at(2.9, node.crash)
    cluster.sim.schedule_at(3.0, downgrade)
    cluster.sim.schedule_at(3.9, node.recover)
    assert cluster.run(timeout=30.0, min_time=5.0)
    assert node.last_recovery.resync
    assert node.last_recovery.snapshot_height == 0
    assert cluster.durable_audit() == []  # tip and root equal the oracle's


# -- paged lookups -------------------------------------------------------------


def test_paged_lookup_newest_run_wins():
    backend = MemoryBackend()
    old = write_run(backend, 1, [("a", "old"), ("b", "only-old")])
    new = write_run(backend, 2, [("a", "new")])
    store = PagedStateStore(backend, [old, new])
    assert store.get("a") == "new"
    assert store.get("b") == "only-old"
    assert store.get("c") is None


def test_paged_lookup_decodes_only_the_hit_block():
    backend = MemoryBackend()
    entry = write_run(backend, 1, [(f"k{i:04d}", i) for i in range(200)])
    assert len(PagedRun(backend, entry).blocks) > 3
    reset_store_counters()
    store = PagedStateStore(backend, [entry])
    assert store.get("k0150") == 150
    assert STORE_COUNTERS["block_cache_misses"] == 1  # exactly one block
    assert store.get("k0150") == 150
    assert STORE_COUNTERS["block_cache_hits"] == 1  # now cached


def test_filter_skips_runs_that_cannot_hold_the_key():
    backend = MemoryBackend()
    runs = [
        write_run(backend, run_id, [(f"r{run_id}-{i}", i) for i in range(20)])
        for run_id in (1, 2, 3)
    ]
    reset_store_counters()
    store = PagedStateStore(backend, runs)
    assert store.get("r1-5") == 5
    # Lookup walks newest→oldest: runs 3 and 2 must be filtered out
    # without a single block read.
    assert STORE_COUNTERS["filter_skips"] == 2
    assert STORE_COUNTERS["block_cache_misses"] == 1


def test_overlay_writes_supersede_runs():
    backend = MemoryBackend()
    entry = write_run(backend, 1, [("a", 1), ("b", 2)])
    store = PagedStateStore(backend, [entry])
    store.put("a", 99, Version(5, 0))
    assert store.get("a") == 99
    assert store.get_versioned("a").version == Version(5, 0)
    store.snapshot()  # seal the head — sealed overlays must still win
    assert store.get("a") == 99


def test_paged_len_and_keys_merge_all_tiers():
    backend = MemoryBackend()
    old = write_run(backend, 1, [("a", 1), ("b", 2), ("c", 3)])
    new = write_run(backend, 2, [("b", None)])  # tombstone for b
    store = PagedStateStore(backend, [old, new])
    store.put("d", 4, Version(3, 0))
    assert sorted(store.keys()) == ["a", "c", "d"]
    assert len(store) == 3
    store.delete("a")
    assert len(store) == 2  # incremental bookkeeping after lazy count
    assert sorted(store.keys()) == ["c", "d"]


# -- tombstones across tiers (the cross-tier semantics capsule) ----------------


def test_tombstone_across_tiers_resolves_through_paged_lookup():
    """Run 1 writes k; run 2 deletes it; the unsealed overlay re-writes
    it. Every intermediate view must be correct, and compaction must
    cancel the tombstone at the bottom tier only."""
    backend = MemoryBackend()
    run1 = write_run(backend, 1, [("k", "v1"), ("keep", "x")])
    run2 = write_run(backend, 2, [("k", None)])  # delete in a newer run

    # Tier view 1: tombstone in run 2 masks run 1.
    store = PagedStateStore(backend, [run1, run2])
    assert store.get("k") is None
    assert "k" not in store
    assert store.get("keep") == "x"

    # Tier view 2: an unsealed overlay re-write wins over the tombstone.
    store.put("k", "v3", Version(9, 0))
    assert store.get("k") == "v3"
    assert sorted(store.keys()) == ["k", "keep"]

    # And after sealing, still.
    store.snapshot()
    assert store.get("k") == "v3"

    # Compaction of the two runs: the tombstone cancels at the bottom
    # tier — "k" is gone from disk entirely, not written as a marker.
    snapshots = SnapshotStore(backend)
    manifest = snapshots.compact(manifest_for(run1, run2))
    (merged_entry,) = manifest["runs"]
    merged_rows = snapshots.read_run(merged_entry)
    assert [row[0] for row in merged_rows] == ["keep"]

    # The live paged store rebases onto the compacted run set; its
    # overlay re-write still supersedes.
    store.rebase(manifest["runs"])
    assert store.get("k") == "v3"
    assert store.get("keep") == "x"


def test_tombstone_not_at_bottom_survives_compaction_semantics():
    """A delete of a key only present in the overlay tier must not
    resurrect it when runs are compacted underneath."""
    backend = MemoryBackend()
    run1 = write_run(backend, 1, [("x", 1)])
    store = PagedStateStore(backend, [run1])
    store.delete("x")
    assert store.get("x") is None
    # Compaction below does not involve the overlay tombstone.
    manifest = SnapshotStore(backend).compact(manifest_for(run1))
    store.rebase(manifest["runs"])
    assert store.get("x") is None  # overlay tombstone still masks disk


# -- the block cache -----------------------------------------------------------


def test_block_cache_evicts_lru_within_budget():
    backend = MemoryBackend()
    entry = write_run(backend, 1, [(f"k{i:04d}", "v" * 40) for i in range(200)])
    run = PagedRun(backend, entry)
    sizes = [spec["len"] for spec in run.blocks]
    cache = BlockCache(budget_bytes=sizes[0] + sizes[1] + 1)  # fits ~2
    reset_store_counters()
    for index in range(len(run.blocks)):
        cache.get(run, index)
    assert STORE_COUNTERS["block_cache_evictions"] >= len(run.blocks) - 2
    assert cache.resident_bytes <= cache.budget_bytes
    # Oldest blocks were evicted; re-reading one is a miss again.
    misses = STORE_COUNTERS["block_cache_misses"]
    cache.get(run, 0)
    assert STORE_COUNTERS["block_cache_misses"] == misses + 1


def test_block_cache_keeps_an_oversized_block():
    backend = MemoryBackend()
    entry = write_run(backend, 1, [("a", "v" * 500)], block_bytes=64)
    run = PagedRun(backend, entry)
    cache = BlockCache(budget_bytes=8)  # smaller than any block
    reset_store_counters()
    pair = KeyFilter.hash_pair("a")
    assert run.lookup("a", pair, cache)[1] == "v" * 500
    assert len(cache) == 1  # kept despite the budget — no thrash
    assert run.lookup("a", pair, cache)[1] == "v" * 500
    assert STORE_COUNTERS["block_cache_misses"] == 1
    assert STORE_COUNTERS["block_cache_hits"] == 1
    assert STORE_COUNTERS["block_cache_evictions"] == 0


def test_drop_run_purges_cache_entries():
    backend = MemoryBackend()
    entry = write_run(backend, 1, [("a", 1)])
    run = PagedRun(backend, entry)
    cache = BlockCache()
    cache.get(run, 0)
    assert len(cache) == 1
    cache.drop_runs([run.name])
    assert len(cache) == 0
    assert cache.resident_bytes == 0


def test_rebase_keeps_surviving_runs_open_and_cached():
    """A rebase that keeps run A and drops run B serves A's next get as
    a cache hit without re-opening A, and cannot serve B."""
    backend = MemoryBackend()
    run_a = write_run(backend, 1, [(f"a{i:03d}", i) for i in range(40)])
    run_b = write_run(backend, 2, [(f"b{i:03d}", i) for i in range(40)])
    store = PagedStateStore(backend, [run_a, run_b])
    assert store.get("a007") == 7 and store.get("b007") == 7
    opened_a = store._runs[0]
    run_c = write_run(backend, 3, [("c000", 0)])
    backend.delete(run_b["name"])
    reset_store_counters()
    store.rebase([run_a, run_c])
    assert store._runs[0] is opened_a  # not re-opened: no footer read
    assert store.run_names() == [run_a["name"], run_c["name"]]
    assert all(name != run_b["name"] for name, _index in store.cache._entries)
    assert store.get("a007") == 7
    assert STORE_COUNTERS["block_cache_hits"] == 1
    assert STORE_COUNTERS["block_cache_misses"] == 0
    assert store.get("b007") is None
    assert store.get("c000") == 0
    # The same name under another checksum is another run: re-opened,
    # and nothing cached under the name survives.
    recycled = write_run(backend, 1, [("a007", "rewritten")])
    store.rebase([recycled, run_c])
    assert store._runs[0] is not opened_a
    assert store.get("a007") == "rewritten"


# -- streaming compaction ------------------------------------------------------


def test_streaming_compaction_matches_merged_semantics():
    backend = MemoryBackend()
    run1 = write_run(backend, 1, [(f"k{i:02d}", f"old{i}") for i in range(30)])
    run2 = write_run(
        backend, 2,
        [(f"k{i:02d}", f"new{i}") for i in range(0, 30, 2)]
        + [(f"k{i:02d}", None) for i in range(1, 30, 4)],
    )
    snapshots = SnapshotStore(backend)
    manifest = snapshots.compact(manifest_for(run1, run2))
    (entry,) = manifest["runs"]
    rows = snapshots.read_run(entry)
    expected = {}
    for i in range(30):
        expected[f"k{i:02d}"] = f"old{i}"
    for i in range(0, 30, 2):
        expected[f"k{i:02d}"] = f"new{i}"
    for i in range(1, 30, 4):
        expected.pop(f"k{i:02d}")
    assert {row[0]: row[1] for row in rows} == expected
    assert [row[0] for row in rows] == sorted(expected)  # sorted output
    # Old run files are gone; only manifest + merged run remain.
    assert backend.list() == [MANIFEST_NAME, entry["name"]]


# -- orphan-run garbage collection ---------------------------------------------


def test_recovery_garbage_collects_orphaned_runs():
    backend = MemoryBackend()
    chain, store, _ = commit_chain_through(
        DurableLedger(backend, snapshot_interval=2), txs=16, seed=7
    )
    # Plant two orphans: a fully-written leaked run (crash between
    # compaction's manifest swap and its delete loop) and a partial one
    # (crash mid-run-write). Both are durable on disk yet unreferenced.
    backend.append(run_name(900), b'[["zz","leak",1,0]]')
    backend.append(run_name(901), b'{"partial')
    backend.fsync(run_name(900))
    backend.fsync(run_name(901))
    backend.simulate_crash()

    result = DurableLedger(backend, snapshot_interval=2).recover(
        standard_registry
    )
    assert result.orphans_removed == 2
    assert not backend.exists(run_name(900))
    assert not backend.exists(run_name(901))
    assert not result.resync
    assert result.tail.height == chain.height
    assert state_root(result.store) == state_root(store)


# -- paged recovery equivalence ------------------------------------------------


def commit_chain_through(ledger, txs=40, seed=11):
    chain = build_canonical_chain(txs, seed)
    registry = standard_registry()
    root = ""
    for height in range(1, chain.height + 1):
        root = ledger.apply_block(chain.block(height), registry)
    ledger.flush()
    return chain, ledger.store, root


def test_every_spill_collapses_a_paged_store():
    """Once recovery hands the ledger a paged store, each commit that
    spills must leave it with no overlays: the new run set covers them."""
    backend = MemoryBackend()
    config = dict(
        snapshot_interval=3, paged=True, compaction="tiered",
        overlay_budget_bytes=192,
    )
    chain = build_canonical_chain(txs=60, seed=5)
    first = DurableLedger(backend, **config)
    for height in range(1, 8):
        first.apply_block(chain.block(height), standard_registry())
    first.flush()
    backend.simulate_crash()
    ledger = DurableLedger(backend, **config)
    ledger.recover(standard_registry)
    assert isinstance(ledger.store, PagedStateStore)
    registry = standard_registry()
    spills = 0
    for height in range(8, chain.height + 1):
        ledger.apply_block(chain.block(height), registry)
        if ledger.snapshots.read_manifest()["snapshot_height"] == height:
            spills += 1
            assert ledger.store.overlay_entries() == 0, f"height {height}"
    assert spills >= 3



@pytest.mark.parametrize("seed", [1, 2, 3])
def test_paged_recovery_equals_materialized_oracle(seed):
    backend = MemoryBackend()
    chain, live, root = commit_chain_through(
        DurableLedger(backend, snapshot_interval=3), seed=seed
    )
    backend.simulate_crash()
    materialized = DurableLedger(backend, snapshot_interval=3).recover(
        standard_registry
    )
    paged = DurableLedger(
        backend, snapshot_interval=3, paged=True
    ).recover(standard_registry)
    assert isinstance(paged.store, PagedStateStore)
    assert not isinstance(materialized.store, PagedStateStore)
    assert paged.tail.tip_hash() == materialized.tail.tip_hash()
    assert paged.replayed == materialized.replayed
    for key in sorted(materialized.store.keys()):
        assert paged.store.get_versioned(key) == (
            materialized.store.get_versioned(key)
        )
    assert sorted(paged.store.keys()) == sorted(materialized.store.keys())
    assert state_root(paged.store) == root


def test_paged_recovery_resyncs_on_truncated_run():
    backend = MemoryBackend()
    commit_chain_through(DurableLedger(backend, snapshot_interval=2))
    backend.simulate_crash()
    manifest = SnapshotStore(backend).read_manifest()
    victim = manifest["runs"][0]["name"]
    # Chop the file: the footer (at the end) is destroyed, which the
    # O(index) paged open must detect and demote to a full resync.
    raw = backend.read(victim)
    backend.replace(victim, raw[: len(raw) // 2])
    result = DurableLedger(backend, paged=True).recover(standard_registry)
    assert result.resync
    assert result.tail.height == 0
    assert backend.list() == []  # wiped for peer catch-up


def test_paged_chaos_scenario_is_clean():
    """The durable chaos target with flags=("paged",): crash + recover
    under the simulator, serial-oracle audit through the paged store."""
    from repro.simtest.plan import FaultSpec, PlanSpec
    from repro.simtest.scenarios import ScenarioSpec, run_scenario

    scenario = ScenarioSpec(
        target="durable", n=3, txs=12, seed=4, flags=("paged",)
    )
    victim = scenario.replica_ids[0]
    plan = PlanSpec((
        FaultSpec(kind="crash", time=0.9, node=victim),
        FaultSpec(kind="recover", time=1.6, node=victim),
    ))
    result = run_scenario(scenario, plan)
    assert result.decided
    assert result.violations == []


# -- indexed range scans -------------------------------------------------------


def test_paged_scan_merges_runs_overlays_and_tombstones():
    backend = MemoryBackend()
    old = write_run(backend, 1, [("a", 1), ("b", 2), ("c", 3), ("e", 5)])
    new = write_run(backend, 2, [("b", None), ("c", 30)])  # delete + rewrite
    store = PagedStateStore(backend, [old, new])
    store.put("d", 4, Version(3, 0))
    store.delete("e")
    rows = [(key, entry.value) for key, entry in store.scan()]
    assert rows == [("a", 1), ("c", 30), ("d", 4)]
    # Versions survive: run rows and overlay entries alike.
    versions = dict(
        (key, entry.version) for key, entry in store.scan()
    )
    assert versions["c"] == Version(2, 1)
    assert versions["d"] == Version(3, 0)
    # Bounded, half-open-ish, and empty windows.
    assert [k for k, _ in store.scan("b", "d")] == ["c", "d"]
    assert [k for k, _ in store.scan(None, "a")] == ["a"]
    assert [k for k, _ in store.scan("x", None)] == []
    assert store.keys() == ["a", "c", "d"]  # keys() now sorted


def test_paged_scan_matches_materialized_oracle():
    backend = MemoryBackend()
    items = [(f"k{i:04d}", i) for i in range(150)]
    old = write_run(backend, 1, items)
    new = write_run(
        backend, 2,
        [(f"k{i:04d}", None if i % 30 == 0 else i * 100)
         for i in range(0, 150, 5)],
    )
    paged = PagedStateStore(backend, [old, new])
    oracle = SnapshotStore(backend).load_state(manifest_for(old, new))
    for start, end in ((None, None), ("k0010", "k0049"), ("k0140", None)):
        got = [
            (k, e.value, e.version) for k, e in paged.scan(start, end)
        ]
        want = [
            (k, e.value, e.version) for k, e in oracle.scan(start, end)
        ]
        assert got == want, f"range ({start}, {end}) diverged"


def test_scan_decodes_only_intersecting_blocks():
    backend = MemoryBackend()
    entry = write_run(backend, 1, [(f"k{i:04d}", i) for i in range(300)])
    run = PagedRun(backend, entry)
    total_blocks = run.block_count()
    assert total_blocks > 5
    store = PagedStateStore(backend, [entry])
    reset_store_counters()
    narrow = list(store.scan("k0100", "k0120"))
    assert [k for k, _ in narrow] == [f"k{i:04d}" for i in range(100, 121)]
    assert 0 < STORE_COUNTERS["range_block_decodes"] < total_blocks // 2
    reset_store_counters()
    assert len(list(store.scan())) == 300
    assert STORE_COUNTERS["range_block_decodes"] == total_blocks


def test_paged_store_collapse_drops_overlays_and_keeps_reads():
    backend = MemoryBackend()
    base = write_run(backend, 1, [("a", 1), ("b", 2)])
    store = PagedStateStore(backend, [base])
    store.put("c", 3, Version(2, 0))
    store.snapshot()
    store.delete("b")
    assert store.overlay_entries() == 2
    # Spill the same committed delta into run 2, then collapse onto it
    # — exactly what the durable node does after a snapshot.
    delta = write_run(backend, 2, [("b", None), ("c", 3)])
    store.collapse([base, delta])
    assert store.overlay_entries() == 0
    assert store.get("a") == 1
    assert store.get("b") is None
    assert store.get("c") == 3
    assert [k for k, _ in store.scan()] == ["a", "c"]


# -- the (policy x budget x seed) equivalence matrix ---------------------------


def recovered_via(backend, paged, compaction="full"):
    return DurableLedger(
        backend, snapshot_interval=3, compaction=compaction, paged=paged
    ).recover(standard_registry)


@pytest.mark.parametrize("compaction", ["full", "tiered"])
@pytest.mark.parametrize("budget", [0, 192])
@pytest.mark.parametrize("seed", [5, 9])
def test_policy_budget_matrix_paged_equals_materialized(
    compaction, budget, seed
):
    """Every (compaction policy, overlay budget, seed) cell: crash,
    recover both ways, and the paged store must match the materialized
    oracle and the live pre-crash root byte for byte."""
    backend = MemoryBackend()
    chain, live, root = commit_chain_through(
        DurableLedger(
            backend, snapshot_interval=3, compaction=compaction,
            overlay_budget_bytes=budget,
        ),
        seed=seed,
    )
    backend.simulate_crash()
    materialized = recovered_via(backend, paged=False, compaction=compaction)
    paged = recovered_via(backend, paged=True, compaction=compaction)
    assert isinstance(paged.store, PagedStateStore)
    assert paged.tail.tip_hash() == materialized.tail.tip_hash()
    assert paged.replayed == materialized.replayed
    assert sorted(paged.store.keys()) == sorted(materialized.store.keys())
    for key in materialized.store.keys():
        assert paged.store.get_versioned(key) == (
            materialized.store.get_versioned(key)
        )
    assert state_root(paged.store) == root
    assert state_root(materialized.store) == root


@pytest.mark.parametrize("budget", [0, 192])
def test_tiered_state_is_byte_identical_to_full(budget):
    """Same chain, same budget: the tiered and full-merge policies must
    land the exact same recovered state (values and MVCC versions)."""
    def final_state(compaction):
        backend = MemoryBackend()
        commit_chain_through(
            DurableLedger(
                backend, snapshot_interval=3, compaction=compaction,
                overlay_budget_bytes=budget,
            ),
            seed=13,
        )
        backend.simulate_crash()
        result = recovered_via(backend, paged=True, compaction=compaction)
        return {
            key: result.store.get_versioned(key)
            for key in result.store.keys()
        }

    assert final_state("full") == final_state("tiered")


def test_overlay_budget_forces_mid_interval_spills():
    """With a huge snapshot interval and a tiny budget, snapshots must
    still happen — driven by the byte budget, counted as such."""
    backend = MemoryBackend()
    before = STORE_COUNTERS["budget_spills"]
    commit_chain_through(
        DurableLedger(
            backend, snapshot_interval=100, overlay_budget_bytes=256,
        )
    )
    assert STORE_COUNTERS["budget_spills"] > before
    manifest = SnapshotStore(backend).read_manifest()
    assert manifest is not None and manifest["runs"]

    # The unbudgeted control never snapshots inside the same interval.
    control = MemoryBackend()
    commit_chain_through(DurableLedger(control, snapshot_interval=100))
    assert SnapshotStore(control).read_manifest() is None
