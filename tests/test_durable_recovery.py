"""Crash-restart recovery: WAL replay + snapshot load equivalence, the
two-tier corruption model (truncate-and-repair vs full resync), the
deferred timer re-arm semantics, data_dir validation, and chaos runs
where recovered nodes must end byte-identical to the serial oracle."""

import json
from dataclasses import asdict

import pytest

from repro import cli
from repro.common.errors import ConfigError, LedgerError, StorageError
from repro.consensus.monitors import MONITOR_REGISTRY
from repro.execution.contracts import standard_registry
from repro.ledger.store import STORE_COUNTERS, StateStore
from repro.sim.core import Simulation
from repro.sim.network import Network
from repro.sim.node import Node
from repro.simtest.fuzzer import FuzzConfig, assert_plan_holds, run_fuzz
from repro.simtest.plan import FaultSpec, PlanSpec
from repro.simtest.scenarios import ScenarioSpec, run_scenario
from repro.storage import (
    STORAGE_COUNTERS,
    DurableCluster,
    DurableLedger,
    FaultProfile,
    MemoryBackend,
    OsBackend,
    SpillBuffer,
    build_canonical_chain,
    release_data_dir,
    resolve_data_dir,
    state_root,
)
from repro.storage.snapshots import MANIFEST_NAME


def commit_chain(ledger, chain, upto=None):
    """Commit ``chain`` (through height ``upto``) via the ledger's one
    commit path; returns the per-height state roots."""
    registry = standard_registry()
    roots = {0: state_root(ledger.store)}
    for height in range(1, (chain.height if upto is None else upto) + 1):
        roots[height] = ledger.apply_block(chain.block(height), registry)
    return roots


# -- ledger-level crash/recover ------------------------------------------------


@pytest.mark.parametrize("policy", ["per-block", "group:2", "async"])
@pytest.mark.parametrize("snapshot_interval", [2, 3, 10])
def test_recover_matches_serial_prefix(policy, snapshot_interval):
    backend = MemoryBackend()
    chain = build_canonical_chain(txs=14, seed=9)
    ledger = DurableLedger(
        backend, policy=policy, snapshot_interval=snapshot_interval
    )
    roots = commit_chain(ledger, chain)
    ledger.power_fail()
    result = ledger.recover(standard_registry)
    # Whatever the fsync policy lost, what survives is an exact prefix.
    assert 0 <= result.tail.height <= chain.height
    assert not result.resync
    if result.tail.height > 0:
        assert result.tail.tip_hash() == chain.block(result.tail.height).block_hash
    assert state_root(result.store) == roots[result.tail.height]


def test_per_block_policy_loses_nothing():
    backend = MemoryBackend()
    chain = build_canonical_chain(txs=14, seed=4)
    ledger = DurableLedger(backend, policy="per-block", snapshot_interval=3)
    roots = commit_chain(ledger, chain)
    ledger.power_fail()
    result = ledger.recover(standard_registry)
    assert result.tail.height == chain.height
    assert result.tail.tip_hash() == chain.tip_hash()
    assert state_root(result.store) == roots[chain.height]
    assert result.replayed == chain.height - result.snapshot_height


def test_recovered_spill_buffer_covers_replayed_tail():
    """Replayed WAL writes must land in the fresh spill buffer, or the
    next snapshot would silently omit them."""
    backend = MemoryBackend()
    chain = build_canonical_chain(txs=14, seed=9)
    ledger = DurableLedger(backend, policy="per-block", snapshot_interval=3)
    commit_chain(ledger, chain)
    ledger.power_fail()
    result = ledger.recover(standard_registry)
    assert result.replayed > 0, "pick params so the WAL tail is non-empty"
    root = state_root(result.store)
    ledger.snapshot(result.tail.head, root, result.spill)
    manifest = ledger.snapshots.read_manifest()
    assert manifest["snapshot_height"] == result.tail.height
    loaded = ledger.snapshots.load_state(manifest)
    assert loaded.as_dict() == result.store.as_dict()
    assert state_root(loaded) == root


def test_torn_tail_is_repaired_and_recovery_is_idempotent():
    torn_seen = False
    for seed in range(25):
        backend = MemoryBackend(
            FaultProfile(seed=seed, partial_write=1.0, bit_flip=0.5)
        )
        chain = build_canonical_chain(txs=14, seed=7)
        ledger = DurableLedger(backend, policy="async", snapshot_interval=4)
        roots = commit_chain(ledger, chain)
        ledger.power_fail()
        first = ledger.recover(standard_registry)
        torn_seen = torn_seen or first.torn
        assert state_root(first.store) == roots[first.tail.height]
        # The repair truncated the torn bytes in place: a second restart
        # replays clean and lands on the same tip.
        second = ledger.recover(standard_registry)
        assert not second.torn
        assert second.tail.height == first.tail.height
        assert second.tail.tip_hash() == first.tail.tip_hash()
    assert torn_seen, "no torn tail in 25 seeds — test is vacuous"


def test_corrupt_snapshot_run_forces_full_resync():
    backend = MemoryBackend()
    chain = build_canonical_chain(txs=14, seed=3)
    ledger = DurableLedger(backend, policy="per-block", snapshot_interval=3)
    commit_chain(ledger, chain)
    manifest = ledger.snapshots.read_manifest()
    name = manifest["runs"][0]["name"]
    payload = bytearray(backend.read(name))
    payload[len(payload) // 2] ^= 0x10
    backend.replace(name, bytes(payload))
    ledger.power_fail()
    result = ledger.recover(standard_registry)
    # The snapshot tier is discredited end to end: wipe, restart from
    # genesis, let peer catch-up rebuild (nothing stale may survive).
    assert result.resync
    assert result.tail.height == 0
    assert state_root(result.store) == state_root(StateStore())
    assert backend.list() == []


def test_undecodable_record_resyncs_so_later_appends_survive():
    """A CRC-valid record that does not decode discredits the local log.
    Stopping in front of it without a truncate let every later append
    land behind it, to be dropped again by the next restart."""
    backend = MemoryBackend()
    chain = build_canonical_chain(txs=14, seed=9)
    ledger = DurableLedger(backend, policy="per-block", snapshot_interval=100)
    commit_chain(ledger, chain, upto=3)
    ledger.log.append(b"a CRC-valid record this build never wrote")
    before = dict(STORAGE_COUNTERS)
    ledger.power_fail()
    first = ledger.recover(standard_registry)
    assert first.resync and first.tail.height == 0
    assert STORAGE_COUNTERS["resyncs"] == before["resyncs"] + 1
    commit_chain(ledger, chain)  # the peer catch-up from genesis
    ledger.power_fail()
    second = ledger.recover(standard_registry)
    assert not second.resync
    assert second.tail.tip_hash() == chain.tip_hash()


def test_manifest_of_an_older_format_resyncs_counted():
    """An old data directory — here a v1 manifest with a whole-block
    anchor dict and an empty WAL tail — is wiped and refetched, not
    read as a header list and not silently restarted at genesis."""
    backend = MemoryBackend()
    chain = build_canonical_chain(txs=14, seed=9)
    ledger = DurableLedger(backend, policy="per-block", snapshot_interval=3)
    commit_chain(ledger, chain, upto=3)
    manifest = ledger.snapshots.read_manifest()
    assert manifest["snapshot_height"] == 3
    backend.replace(MANIFEST_NAME, json.dumps(dict(
        manifest, format="repro-manifest/v1",
        anchor={**asdict(chain.block(3).header), "transactions": []},
    )).encode())
    before = dict(STORAGE_COUNTERS)
    ledger.power_fail()
    result = ledger.recover(standard_registry)
    assert result.resync and result.tail.height == 0
    assert backend.list() == []
    assert STORAGE_COUNTERS["resyncs"] == before["resyncs"] + 1


#: WAL bytes per committed tx for ``wal_bytes_per_tx()`` when a record was
#: a sorted-key JSON dict per block (exact: every field has fixed length).
DICT_RECORD_BYTES_PER_TX = 192.56


def wal_bytes_per_tx(txs=200, block_txs=20):
    ledger = DurableLedger(
        MemoryBackend(), policy="per-block", snapshot_interval=10_000
    )
    before = STORE_COUNTERS["wal_bytes_written"]
    commit_chain(ledger, build_canonical_chain(txs, seed=5,
                                               block_txs=block_txs))
    return (STORE_COUNTERS["wal_bytes_written"] - before) / txs


def test_wal_record_bytes_per_tx_are_a_quarter_of_the_dict_record():
    assert wal_bytes_per_tx() <= DICT_RECORD_BYTES_PER_TX / 4


def test_manifest_size_does_not_depend_on_anchor_block_size():
    """The anchor is its header: a 200-tx anchor block costs the
    manifest what a 1-tx one does."""
    def manifest_bytes(anchor_txs):
        anchor = build_canonical_chain(
            anchor_txs, seed=5, block_txs=anchor_txs
        ).block(1)
        ledger = DurableLedger(MemoryBackend(), snapshot_interval=10)
        ledger.snapshot(anchor, "0" * 64, SpillBuffer())
        return ledger.backend.size(MANIFEST_NAME)

    assert manifest_bytes(1) == manifest_bytes(200)


def test_recover_on_empty_backend_is_genesis():
    ledger = DurableLedger(MemoryBackend())
    result = ledger.recover(standard_registry)
    assert result.tail.height == 0 and not result.torn and not result.resync


def test_os_backend_round_trip(tmp_path):
    data_dir = resolve_data_dir(tmp_path / "node0")
    try:
        chain = build_canonical_chain(txs=14, seed=5)
        ledger = DurableLedger(
            OsBackend(data_dir), policy="group:2", snapshot_interval=3
        )
        roots = commit_chain(ledger, chain)
        ledger.flush()
        ledger.backend.simulate_crash()  # drop open handles
        recovered = DurableLedger(
            OsBackend(data_dir), policy="group:2", snapshot_interval=3
        )
        result = recovered.recover(standard_registry)
        assert result.tail.height == chain.height
        assert result.tail.tip_hash() == chain.tip_hash()
        assert state_root(result.store) == roots[chain.height]
    finally:
        release_data_dir(data_dir)


# -- the one commit path: DurableLedger.apply_block ----------------------------


def test_apply_block_rejects_a_block_that_does_not_chain():
    chain = build_canonical_chain(txs=14, seed=9)
    fork = build_canonical_chain(txs=14, seed=10)
    ledger = DurableLedger(
        MemoryBackend(), policy="per-block", snapshot_interval=3
    )
    commit_chain(ledger, chain, upto=2)

    def observed():
        return (
            state_root(ledger.store), len(ledger.spill),
            ledger.tail.height, ledger.tail_record_count(),
        )

    before = observed()
    assert before[1] > 0, "the spill buffer must hold something to lose"
    # A height gap, then the right height on the wrong parent.
    for stray in (chain.block(4), fork.block(3)):
        with pytest.raises(LedgerError):
            ledger.apply_block(stray, standard_registry())
        assert observed() == before


def test_power_fail_drops_the_live_state_until_recover():
    chain = build_canonical_chain(txs=14, seed=9)
    reference = commit_chain(
        DurableLedger(MemoryBackend(), snapshot_interval=3), chain
    )
    ledger = DurableLedger(
        MemoryBackend(), policy="per-block", snapshot_interval=3
    )
    commit_chain(ledger, chain, upto=4)
    ledger.power_fail()
    assert ledger.tail is None and ledger.store is None
    assert ledger.spill is None
    with pytest.raises(AttributeError):
        ledger.apply_block(chain.block(5), standard_registry())
    result = ledger.recover(standard_registry)
    assert ledger.tail is result.tail and ledger.store is result.store
    assert ledger.spill is result.spill
    assert ledger.tail.height == 4
    registry = standard_registry()
    for height in range(5, chain.height + 1):
        root = ledger.apply_block(chain.block(height), registry)
    assert root == reference[chain.height]


def test_crash_inside_apply_block_recovers_pre_or_post_block():
    """Crash at every backend operation inside one ``apply_block`` that
    spills and then band-merges: a fresh ledger recovers the pre-block
    or the post-block tip with its root, never resyncs, and garbage-
    collects every run the crash left unreferenced."""
    chain = build_canonical_chain(txs=16, seed=3)
    config = dict(
        policy="per-block", snapshot_interval=2, compaction="tiered:2"
    )
    target = 4  # spills the second tier-0 run: a band merge follows
    reference = DurableLedger(MemoryBackend(), **config)
    roots = commit_chain(reference, chain, upto=target)
    manifest = reference.snapshots.read_manifest()
    assert [run["tier"] for run in manifest["runs"]] == [1]
    assert manifest["snapshot_height"] == target
    recovered_heights, orphans_collected = set(), 0
    for fail_after in range(200):
        backend = MemoryBackend()
        ledger = DurableLedger(backend, **config)
        commit_chain(ledger, chain, upto=target - 1)
        backend.fail_after_ops(fail_after)
        try:
            ledger.apply_block(chain.block(target), standard_registry())
        except StorageError:
            crashed = True
        else:
            crashed = False
        backend.fail_after_ops(None)
        if not crashed:
            break
        fresh = DurableLedger(backend, **config)
        result = fresh.recover(standard_registry)
        where = f"fail_after={fail_after}"
        assert not result.resync, where
        assert result.tail.height in (target - 1, target), where
        assert result.tail.tip_hash() == (
            chain.block(result.tail.height).block_hash
        ), where
        assert state_root(result.store) == roots[result.tail.height], where
        assert fresh.snapshots.orphan_runs(
            fresh.snapshots.read_manifest()
        ) == [], where
        recovered_heights.add(result.tail.height)
        orphans_collected += result.orphans_removed
    else:
        raise AssertionError("apply_block never completed")
    assert recovered_heights == {target - 1, target}
    assert orphans_collected > 0, "no crash ever left a partial run"


def test_recover_drill_on_real_files_is_clean_and_deterministic(
    tmp_path, capsys
):
    """``recover --data-dir``: two nodes on real files, each crashed and
    restarted twice under a byte budget; the same run twice into the
    same directory must report the same thing."""
    argv = [
        "recover", "--n", "2", "--txs", "40", "--data-dir", str(tmp_path),
        "--paged", "--tiered", "--overlay-budget", "256",
        "--snapshot-interval", "50", "--drill-crashes", "2",
    ]

    def drill():
        assert cli.main(argv) == 0
        summary = json.loads(capsys.readouterr().out)
        del summary["disk"]["data_dir"]
        for node in summary["disk"]["nodes"]:
            del node["data_dir"]
        return summary

    first = drill()
    assert first["disk"]["all_match"]
    assert len(first["disk"]["nodes"]) == 2
    for node in first["disk"]["nodes"]:
        assert node["recoveries"] == 2
        assert node["budget_spills"] > 0
        assert node["resync"] is False
        assert node["bytes_per_tx"]["wal"] > 0
        assert node["bytes_per_tx"]["spill"] > 0
    assert drill() == first


# -- deferred timer re-arm (recovery is not instantaneous) ---------------------


class _SlowRestartNode(Node):
    def __init__(self, node_id, sim, network):
        super().__init__(node_id, sim, network)
        self.delivered = []
        self.recovered_at = None

    def on_message(self, src, message):
        self.delivered.append(message)

    def recovery_delay(self):
        return 1.5

    def on_recover(self):
        self.recovered_at = self.sim.now


def test_recovery_delay_defers_rejoin_and_timer_rearm():
    sim = Simulation(seed=0)
    network = Network(sim)
    node = _SlowRestartNode("n0", sim, network)
    sim.schedule_at(1.0, node.crash)
    sim.schedule_at(2.0, node.recover)
    # Mid-replay the process exists but is not in service yet.
    sim.schedule_at(2.5, lambda: node.deliver("peer", "during-replay"))
    sim.schedule_at(4.0, lambda: node.deliver("peer", "after-replay"))
    sim.run(until=5.0)
    assert node.recovered_at == pytest.approx(3.5)  # 2.0 + replay 1.5
    assert node.delivered == ["after-replay"]


def test_crash_during_replay_aborts_the_restart():
    sim = Simulation(seed=0)
    network = Network(sim)
    node = _SlowRestartNode("n0", sim, network)
    sim.schedule_at(1.0, node.crash)
    sim.schedule_at(2.0, node.recover)
    sim.schedule_at(3.0, node.crash)  # dies again mid-replay
    sim.run(until=6.0)
    assert node.recovered_at is None and node.crashed
    # A later restart still completes.
    sim.schedule_at(7.0, node.recover)
    sim.run(until=10.0)
    assert node.recovered_at == pytest.approx(8.5)


def test_zero_delay_recovery_is_immediate():
    sim = Simulation(seed=0)
    network = Network(sim)

    class Instant(Node):
        def __init__(self, *a):
            super().__init__(*a)
            self.recovered_at = None

        def on_message(self, src, message):
            pass

        def on_recover(self):
            self.recovered_at = self.sim.now

    node = Instant("n0", sim, network)
    sim.schedule_at(1.0, node.crash)
    sim.schedule_at(2.0, node.recover)
    sim.run(until=3.0)
    assert node.recovered_at == pytest.approx(2.0)
    assert not node.recovering


# -- data_dir validation -------------------------------------------------------


def test_resolve_data_dir_rejects_bad_paths(tmp_path):
    with pytest.raises(ConfigError):
        resolve_data_dir("")
    with pytest.raises(ConfigError):
        resolve_data_dir("   ")
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("x")
    with pytest.raises(ConfigError):
        resolve_data_dir(not_a_dir)
    with pytest.raises(ConfigError):
        resolve_data_dir(tmp_path / "absent", create=False)


def test_resolve_data_dir_rejects_spelling_collisions(tmp_path):
    spelled = str(tmp_path / "wal")
    resolved = resolve_data_dir(spelled)
    try:
        # Same spelling again: fine (idempotent re-acquire).
        assert resolve_data_dir(spelled) == resolved
        # A second spelling of the same real directory would silently
        # share WAL segments between two nodes.
        alias = str(tmp_path / "x" / ".." / "wal")
        with pytest.raises(ConfigError):
            resolve_data_dir(alias)
    finally:
        release_data_dir(resolved)
    # Released: the alias spelling may now claim it.
    alias_dir = resolve_data_dir(str(tmp_path / "x" / ".." / "wal"))
    release_data_dir(alias_dir)


# -- chaos runs: recovery wired into the DST engine ----------------------------

CRASH_RECOVER_PLAN = PlanSpec((
    FaultSpec(kind="crash", time=0.9, node="d0"),
    FaultSpec(kind="crash", time=1.1, node="d1"),
    FaultSpec(kind="recover", time=1.6, node="d0"),
    FaultSpec(kind="recover", time=2.1, node="d1"),
))


@pytest.mark.parametrize(
    "flags", [(), ("torn-disk",), ("lying-disk",), ("torn-disk", "lying-disk")]
)
def test_chaos_recovery_matches_serial_oracle(flags):
    for seed in range(3):
        scenario = ScenarioSpec(
            target="durable", n=3, txs=12, seed=seed, flags=flags
        )
        assert_plan_holds(scenario, CRASH_RECOVER_PLAN)


def test_recovery_monitor_sees_the_restart_and_audit_is_exact():
    cluster = DurableCluster(
        n=3, txs=12, seed=0,
        fault_profile={"partial_write": 0.35, "bit_flip": 0.25},
    )
    monitor = MONITOR_REGISTRY["durable-recovery"]()
    cluster.add_monitor(monitor)
    PlanSpec((
        FaultSpec(kind="crash", time=0.9, node="d0"),
        FaultSpec(kind="recover", time=1.6, node="d0"),
    )).build().apply(cluster.sim, cluster.network)
    assert cluster.run(timeout=30.0, min_time=1.7)
    assert monitor.check() and monitor.violations == []
    assert cluster.durable_audit() == []
    assert len(monitor.recoveries) == 1
    assert cluster.nodes["d0"].recoveries == 1
    # Every node, including the restarted one, ends at the canonical tip
    # with the oracle's exact state root.
    oracle_root = state_root(cluster.serial_oracle())
    for node in cluster.nodes.values():
        assert node.tail.tip_hash() == cluster.chain.tip_hash()
        assert state_root(node.store) == oracle_root


def test_unrecovered_crash_is_down_not_behind():
    """Dropping the recover event must not fabricate a violation — else
    the shrinker would reduce every finding to a bare crash."""
    scenario = ScenarioSpec(target="durable", n=3, txs=12, seed=1)
    result = run_scenario(
        scenario,
        PlanSpec((FaultSpec(kind="crash", time=0.9, node="d0"),)),
    )
    assert result.ok and result.decided


def test_partition_heals_and_nodes_catch_up():
    scenario = ScenarioSpec(target="durable", n=3, txs=12, seed=2)
    plan = PlanSpec((
        FaultSpec(
            kind="partition", time=0.4, end=1.4,
            groups=(("d0", "orderer"), ("d1", "d2")),
        ),
    ))
    assert_plan_holds(scenario, plan)


def test_durable_fuzz_campaign_is_clean():
    scenario = ScenarioSpec(
        target="durable", n=3, txs=10, seed=0, flags=("torn-disk",)
    )
    report = run_fuzz(FuzzConfig(scenario=scenario, runs=6, seed=11))
    assert report.runs == 6
    assert report.violations == 0, report.failures
