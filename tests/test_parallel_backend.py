"""Tests for the process-pool wave execution backend.

The contract under test: ``ParallelExecutor`` must be indistinguishable
from :func:`~repro.execution.serial.execute_block_serially` — same
commit sets, abort decisions, captured read/write sets, and end state —
at every worker count, and must *degrade*, never wedge or corrupt, when
workers crash, hang, or transactions lie about their declared sets.
"""

import os
import pickle
import time

import pytest

from repro.common.errors import ConfigError, ExecutionError
from repro.common.types import Operation, OpType, Transaction
from repro.execution.conflict_index import wave_is_conflict_free
from repro.execution.contracts import ContractRegistry, standard_registry
from repro.execution import parallel_backend
from repro.execution.depgraph import build_dependency_graph, partition_wave
from repro.execution.parallel_backend import (
    EXEC_COUNTERS,
    ParallelExecutor,
    ReplicaStateView,
    block_effects_digest,
    declared_key_sets,
    execute_block_parallel,
    level_waves,
    pack_wave_tasks,
    reset_exec_counters,
    resolve_workers,
)
from repro.execution.rwsets import execute_with_capture
from repro.execution.serial import execute_block_serially
from repro.ledger.block import GENESIS_PREV_HASH, Block
from repro.ledger.store import StateStore, Version, VersionedValue
from repro.workloads import KvWorkload, SmallBankWorkload, smallbank_registry


def kv_block(n_txs, theta=0.4, seed=51):
    txs = KvWorkload(
        n_keys=2 * n_txs, theta=theta, read_fraction=0.2, rmw_fraction=0.6,
        seed=seed,
    ).generate(n_txs)
    return Block.create(
        height=1, prev_hash=GENESIS_PREV_HASH, transactions=txs
    )


def declared(*specs):
    return tuple(Operation(op_type, key) for op_type, key in specs)


def assert_equivalent(block, store_factory, registry_factory, workers):
    """Serial engine and parallel backend must be indistinguishable."""
    serial_store = store_factory()
    serial = execute_block_serially(block, serial_store, registry_factory())
    parallel_store = store_factory()
    with ParallelExecutor(
        registry_factory(), parallel_store, workers
    ) as executor:
        report = executor.execute_block(block)
    assert report.oracle_checked and report.oracle_matches
    assert report.fallback_waves == 0
    assert report.committed == serial.committed
    assert report.failed == serial.failed
    assert [r.digest() for r in report.rwsets] == [
        r.digest() for r in serial.rwsets
    ]
    assert parallel_store.as_dict() == serial_store.as_dict()
    assert report.state_digest == block_effects_digest(
        serial.rwsets, block.height
    )
    return report


class TestWorkerResolution:
    def test_explicit_workers_win_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "7")
        assert resolve_workers(2) == 2

    def test_env_honored(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "3")
        assert resolve_workers() == 3

    def test_unset_env_means_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_WORKERS", raising=False)
        assert resolve_workers() == 1
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "")
        assert resolve_workers() == 1

    @pytest.mark.parametrize("bad", ["0", "-3", "abc", "2.5"])
    def test_invalid_env_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_BENCH_WORKERS", bad)
        with pytest.raises(ConfigError, match="REPRO_BENCH_WORKERS"):
            resolve_workers()

    @pytest.mark.parametrize("bad", [0, -1, 2.5, True, "2"])
    def test_invalid_explicit_rejected(self, bad):
        with pytest.raises(ConfigError):
            resolve_workers(bad)

    def test_executor_sizes_pool_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "2")
        with ParallelExecutor(standard_registry(), StateStore()) as executor:
            assert executor.workers == 2
            assert executor.backend == "process-pool"


class TestEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_kv_row_identity_across_worker_counts(self, workers):
        assert_equivalent(
            kv_block(300), StateStore, standard_registry, workers
        )

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_smallbank_row_identity_across_worker_counts(self, workers):
        workload = SmallBankWorkload(n_customers=40, seed=53)
        setup = workload.setup_transactions()
        block = Block.create(
            height=1, prev_hash=GENESIS_PREV_HASH,
            transactions=workload.generate(300),
        )

        def seeded_store():
            store = StateStore()
            registry = smallbank_registry()
            for index, tx in enumerate(setup):
                rwset = execute_with_capture(registry, tx, store)
                if rwset.ok:
                    store.apply_writes(rwset.writes, Version(0, index))
            return store

        assert_equivalent(block, seeded_store, smallbank_registry, workers)

    def test_kv_10k_block_equivalence(self):
        assert_equivalent(
            kv_block(10_000, theta=0.2), StateStore, standard_registry, 2
        )

    def test_smallbank_10k_block_equivalence(self):
        workload = SmallBankWorkload(n_customers=2_000, seed=59)
        setup = workload.setup_transactions()
        block = Block.create(
            height=1, prev_hash=GENESIS_PREV_HASH,
            transactions=workload.generate(10_000),
        )

        def seeded_store():
            store = StateStore()
            registry = smallbank_registry()
            for index, tx in enumerate(setup):
                rwset = execute_with_capture(registry, tx, store)
                if rwset.ok:
                    store.apply_writes(rwset.writes, Version(0, index))
            return store

        assert_equivalent(block, seeded_store, smallbank_registry, 2)

    def test_business_rule_aborts_match_serial(self):
        # transfer aborts on insufficient funds; the decision must be
        # identical in the pool, the merge, and the oracle.
        txs = [
            Transaction.create(
                "kv_set", ("rich", 100),
                declared_ops=declared((OpType.WRITE, "rich")),
            ),
            Transaction.create(
                "transfer", ("rich", "a", 60),
                declared_ops=declared(
                    (OpType.READ_WRITE, "rich"), (OpType.READ_WRITE, "a")
                ),
            ),
            Transaction.create(
                "transfer", ("rich", "b", 60),
                declared_ops=declared(
                    (OpType.READ_WRITE, "rich"), (OpType.READ_WRITE, "b")
                ),
            ),
        ]
        block = Block.create(1, GENESIS_PREV_HASH, txs)
        report = assert_equivalent(block, StateStore, standard_registry, 2)
        assert report.committed == 2 and report.failed == 1

    def test_empty_block(self):
        block = Block.create(1, GENESIS_PREV_HASH, [])
        report = execute_block_parallel(
            block, StateStore(), standard_registry(), 2
        )
        assert report.committed == 0 and report.rwsets == []

    def test_one_shot_wrapper_matches_executor(self):
        block = kv_block(120)
        a = execute_block_parallel(
            block, StateStore(), standard_registry(), 2
        )
        with ParallelExecutor(standard_registry(), StateStore(), 2) as ex:
            b = ex.execute_block(block)
        assert a.state_digest == b.state_digest

    def test_state_digest_is_computed_on_first_read(self, monkeypatch):
        calls = []
        real = parallel_backend.block_effects_digest

        def counting(rwsets, height):
            calls.append(height)
            return real(rwsets, height)

        monkeypatch.setattr(
            parallel_backend, "block_effects_digest", counting
        )
        block = kv_block(60)
        with ParallelExecutor(
            standard_registry(), StateStore(), 2, check_oracle=False
        ) as executor:
            report = executor.execute_block(block)
        assert calls == []
        serial = execute_block_serially(
            block, StateStore(), standard_registry()
        )
        assert report.state_digest == real(serial.rwsets, 1)
        assert report.state_digest == report.state_digest
        assert calls == [1]

    def test_multi_block_delta_sync(self):
        # Block 2's reads depend on block 1's writes reaching the worker
        # replicas through the delta channel. At 3 lanes the round-robin
        # split of a 5-tx wave does not divide evenly.
        keys = [f"k{i % 5}" for i in range(25)]
        for workers in (2, 3):
            store = StateStore()
            with ParallelExecutor(
                standard_registry(), store, workers
            ) as executor:
                first = executor.execute_block(
                    Block.create(1, GENESIS_PREV_HASH, increments(keys))
                )
                second = executor.execute_block(
                    Block.create(2, "h1", increments(keys))
                )
            assert first.oracle_matches and second.oracle_matches
            assert store.get("k0") == 10


class TestIpcPayloads:
    def test_wave_payload_pickle_round_trip(self):
        txs = list(kv_block(8).transactions)
        tasks = pack_wave_tasks(range(len(txs)), txs)
        delta = [("k1", 41, 1, 0), ("k2", None, 1, 3), ("k3", {"a": 1}, 2, 7)]
        assert pickle.loads(pickle.dumps(tasks)) == tasks
        assert pickle.loads(pickle.dumps(delta)) == delta

    def test_result_row_pickle_round_trip(self):
        row = (
            4, True, {"k": Version(3, 1)}, {"k": 9, "gone": None}, [9], 0.001
        )
        assert pickle.loads(pickle.dumps(row)) == row

    def test_overlay_view_applies_pickled_delta(self):
        delta = pickle.loads(
            pickle.dumps([("a", 5, 2, 1), ("b", None, 2, 2)])
        )
        view = ReplicaStateView(StateStore().snapshot())
        view.apply_delta(delta)
        assert view.get_versioned("a") == VersionedValue(5, Version(2, 1))
        assert view.get("b", "missing") == "missing"

    def test_partition_wave_is_deterministic_and_total(self):
        wave = list(range(11))
        chunks = partition_wave(wave, 4)
        assert len(chunks) == 4
        assert sorted(i for chunk in chunks for i in chunk) == wave
        assert chunks == partition_wave(wave, 4)
        with pytest.raises(ExecutionError):
            partition_wave(wave, 0)

    def test_wave_conflict_check(self):
        a = Transaction.create(
            "increment", ("x",), declared_ops=declared((OpType.READ_WRITE, "x"))
        )
        b = Transaction.create(
            "increment", ("y",), declared_ops=declared((OpType.READ_WRITE, "y"))
        )
        c = Transaction.create(
            "kv_get", ("x",), declared_ops=declared((OpType.READ, "x"))
        )
        ka, kb, kc = declared_key_sets([a, b, c])
        assert wave_is_conflict_free([ka, kb])
        assert not wave_is_conflict_free([ka, kc])
        assert wave_is_conflict_free([kc, kc])


class RecordingConn:
    """A pool pipe that keeps every message the coordinator sends."""

    def __init__(self, conn):
        self.conn = conn
        self.sent = []

    def send(self, message):
        self.sent.append(message)
        self.conn.send(message)

    def __getattr__(self, name):
        return getattr(self.conn, name)


def record_messages(executor):
    executor._conns = [RecordingConn(conn) for conn in executor._conns]
    return executor._conns


def increments(keys):
    return [
        Transaction.create(
            "increment", (key,),
            declared_ops=declared((OpType.READ_WRITE, key)),
        )
        for key in keys
    ]


class TestIpcShape:
    def test_pool_forks_one_child_fewer_than_lanes(self):
        with ParallelExecutor(standard_registry(), StateStore(), 3) as ex:
            assert ex.workers == 3 and ex.pool_alive
            assert len(ex._procs) == 2

    def test_one_tx_wave_sends_nothing(self):
        # k0 twice: tx 6 waits for tx 0, so the block levels to a 6-tx
        # wave and a 1-tx tail wave, which the coordinator runs alone.
        txs = increments([f"k{i}" for i in range(6)] + ["k0"])
        block = Block.create(1, GENESIS_PREV_HASH, txs)
        assert level_waves(declared_key_sets(txs)) == [
            [0, 1, 2, 3, 4, 5], [6],
        ]
        reset_exec_counters()
        store = StateStore()
        with ParallelExecutor(standard_registry(), store, 2) as executor:
            (conn,) = record_messages(executor)
            report = executor.execute_block(block)
            assert report.oracle_matches and report.fallback_waves == 0
            assert EXEC_COUNTERS["waves_pooled"] == 2
            assert EXEC_COUNTERS["tasks_shipped"] == 3
            assert conn.sent == [
                ("wave", [], pack_wave_tasks([1, 3, 5], txs)),
            ]
            # Both waves' 7 writes wait for the next round.
            second = executor.execute_block(Block.create(
                2, "h1", increments([f"k{i}" for i in range(6)])
            ))
            assert second.oracle_matches
            assert len(conn.sent) == 2
            assert len(conn.sent[1][1]) == 7
        assert EXEC_COUNTERS["delta_entries_shipped"] == 7
        assert EXEC_COUNTERS["tasks_shipped"] == 6
        assert store.get("k0") == 3

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_each_write_reaches_each_child_once(self, workers):
        blocks = [
            kv_block(200),
            Block.create(2, "h1", list(kv_block(200, seed=52).transactions)),
        ]
        reset_exec_counters()
        with ParallelExecutor(
            standard_registry(), StateStore(), workers
        ) as executor:
            conns = record_messages(executor)
            reports = [executor.execute_block(block) for block in blocks]
            unshipped = list(executor._unshipped)
        committed = [
            (key, value, block.height, index)
            for block, report in zip(blocks, reports)
            for index, rwset in enumerate(report.rwsets) if rwset.ok
            for key, value in rwset.writes.items()
        ]
        assert len(conns) == workers - 1
        by_position = lambda entry: (entry[2], entry[3], entry[0])
        for conn in conns:
            received = [
                entry for message in conn.sent if message[0] == "wave"
                for entry in message[1]
            ]
            assert sorted(received + unshipped, key=by_position) == sorted(
                committed, key=by_position
            )
        assert EXEC_COUNTERS["delta_entries_shipped"] == (
            len(committed) - len(unshipped)
        ) * (workers - 1)


def assert_levels_match_graph(txs):
    """The one-pass leveller against the dependency-graph reference."""
    key_sets = declared_key_sets(txs)
    assert key_sets == [(tx.read_keys, tx.write_keys) for tx in txs]
    waves = level_waves(key_sets)
    assert waves == build_dependency_graph(txs).waves()
    for wave in waves:
        assert wave_is_conflict_free([key_sets[i] for i in wave])


class TestWaveLevelling:
    @pytest.mark.parametrize("n_keys", [10, 50, 500, 8000])
    @pytest.mark.parametrize("theta", [0, 0.2, 0.9, 1.2])
    def test_kv_waves_match_dependency_graph(self, n_keys, theta):
        for seed in range(4):
            for n_txs in (50, 500):
                assert_levels_match_graph(KvWorkload(
                    n_keys=n_keys, theta=theta, read_fraction=0.2,
                    rmw_fraction=0.6, seed=seed,
                ).generate(n_txs))

    @pytest.mark.parametrize("seed", [53, 59, 61])
    def test_smallbank_waves_match_dependency_graph(self, seed):
        workload = SmallBankWorkload(n_customers=40, seed=seed)
        assert_levels_match_graph(
            list(workload.setup_transactions()) + workload.generate(300)
        )

    def test_mixed_op_types_match_dependency_graph(self):
        R, W, RW = OpType.READ, OpType.WRITE, OpType.READ_WRITE
        specs = [
            [(W, "x")], [(R, "x")], [(R, "x"), (W, "y")], [(RW, "y")],
            [(R, "z")], [(W, "z"), (R, "x")], [(R, "y"), (R, "z")],
            [(RW, "x"), (RW, "z")], [(R, "w")], [(W, "w"), (W, "v")],
            [(R, "v"), (RW, "q")], [(R, "q")], [(R, "q")], [(W, "q")],
        ]
        txs = [
            Transaction.create("kv_get", (), declared_ops=declared(*ops))
            for ops in specs
        ]
        assert_levels_match_graph(txs)
        assert level_waves(declared_key_sets(txs)) == [
            [0, 4, 8], [1, 2, 5, 9], [3, 10], [6, 11, 12], [7, 13],
        ]

    def test_key_declared_twice_matches_dependency_graph(self):
        R, W, RW = OpType.READ, OpType.WRITE, OpType.READ_WRITE
        txs = [
            Transaction.create(
                "kv_get", (), declared_ops=declared((R, "x"), (W, "x"))
            ),
            Transaction.create(
                "kv_get", (), declared_ops=declared((RW, "x"), (RW, "x"))
            ),
            Transaction.create(
                "kv_get", (), declared_ops=declared((R, "y"), (R, "y"))
            ),
            Transaction.create(
                "kv_get", (), declared_ops=declared((W, "y"), (R, "x"))
            ),
        ]
        assert_levels_match_graph(txs)
        assert declared_key_sets(txs)[0] == ({"x"}, {"x"})
        assert level_waves(declared_key_sets(txs)) == [[0, 2], [1], [3]]

    def test_pool_path_names_tx_without_declared_ops(self):
        txs = [
            Transaction.create(
                "increment", ("x",),
                declared_ops=declared((OpType.READ_WRITE, "x")),
            ),
            Transaction.create("increment", ("y",)),
        ]
        with ParallelExecutor(standard_registry(), StateStore(), 2) as ex:
            assert ex.pool_alive
            with pytest.raises(ExecutionError, match=txs[1].tx_id):
                ex.execute_block(Block.create(1, GENESIS_PREV_HASH, txs))


class TestDegradation:
    def _block(self, contract, n=12):
        txs = [
            Transaction.create(
                contract, (f"k{i}",),
                declared_ops=declared((OpType.READ_WRITE, f"k{i}")),
            )
            for i in range(n)
        ]
        return Block.create(1, GENESIS_PREV_HASH, txs)

    def _registry(self, fn):
        registry = ContractRegistry()
        registry.register("haywire", fn)
        return registry

    def test_worker_crash_falls_back_to_inline(self):
        parent = os.getpid()

        def haywire(ctx, key):
            if os.getpid() != parent:
                os._exit(1)  # die only inside a pool worker
            ctx.put(key, 1)
            return 1

        reset_exec_counters()
        store = StateStore()
        with ParallelExecutor(
            self._registry(haywire), store, 2, wave_timeout=10.0
        ) as executor:
            report = executor.execute_block(self._block("haywire"))
        assert report.backend == "serial-degraded"
        assert report.fallback_waves >= 1
        assert report.committed == 12
        assert report.oracle_checked and report.oracle_matches
        assert store.get("k0") == 1
        assert EXEC_COUNTERS["wave_fallbacks"] >= 1
        assert EXEC_COUNTERS["pool_failures"] == 1

    def test_worker_timeout_falls_back_to_inline(self):
        parent = os.getpid()

        def haywire(ctx, key):
            if os.getpid() != parent:
                time.sleep(5.0)  # hang only inside a pool worker
            ctx.put(key, 1)
            return 1

        reset_exec_counters()
        store = StateStore()
        with ParallelExecutor(
            self._registry(haywire), store, 2, wave_timeout=0.2
        ) as executor:
            report = executor.execute_block(self._block("haywire"))
        assert report.backend == "serial-degraded"
        assert report.fallback_waves >= 1
        assert report.committed == 12
        assert report.oracle_matches
        assert EXEC_COUNTERS["pool_failures"] == 1

    def test_worker_exception_reruns_wave_with_pool_alive(self):
        parent = os.getpid()

        def haywire(ctx, key):
            if os.getpid() != parent:
                raise RuntimeError("not a business-rule abort")
            ctx.put(key, 1)
            return 1

        reset_exec_counters()
        store = StateStore()
        with ParallelExecutor(
            self._registry(haywire), store, 2
        ) as executor:
            report = executor.execute_block(self._block("haywire"))
            # The traceback reply keeps the pool consistent and alive.
            assert executor.pool_alive
        assert report.backend == "process-pool"
        assert report.fallback_waves >= 1
        assert report.committed == 12
        assert EXEC_COUNTERS["pool_failures"] == 0

    def test_conflicting_wave_runs_inline_with_pool_alive(
        self, monkeypatch
    ):
        # tx 1 reads what tx 0 writes, so the leveller separates them;
        # a leveller that put both in one wave must be caught by the
        # per-wave re-check and run serially, not shipped to the pool.
        txs = [
            Transaction.create(
                "kv_set", ("x", 5), declared_ops=declared((OpType.WRITE, "x"))
            ),
            Transaction.create(
                "increment", ("x",),
                declared_ops=declared((OpType.READ_WRITE, "x")),
            ),
        ] + [
            Transaction.create(
                "increment", (f"k{i}",),
                declared_ops=declared((OpType.READ_WRITE, f"k{i}")),
            )
            for i in range(6)
        ]
        block = Block.create(1, GENESIS_PREV_HASH, txs)
        monkeypatch.setattr(
            parallel_backend, "level_waves",
            lambda key_sets: [[0, 1], list(range(2, len(key_sets)))],
        )
        reset_exec_counters()
        store = StateStore()
        with ParallelExecutor(standard_registry(), store, 2) as executor:
            report = executor.execute_block(block)
            assert executor.pool_alive
        assert report.backend == "process-pool"
        assert report.n_waves == 2
        assert report.fallback_waves == 1
        assert EXEC_COUNTERS["wave_fallbacks"] == 1
        assert EXEC_COUNTERS["waves_pooled"] == 1
        # The coordinator runs half of the 6-tx wave itself.
        assert EXEC_COUNTERS["tasks_shipped"] == 3
        assert report.oracle_checked and report.oracle_matches
        serial_store = StateStore()
        serial = execute_block_serially(
            block, serial_store, standard_registry()
        )
        assert [r.digest() for r in report.rwsets] == [
            r.digest() for r in serial.rwsets
        ]
        assert store.as_dict() == serial_store.as_dict()
        assert store.get("x") == 6

    def test_coordinator_exception_propagates_with_pool_in_step(self):
        parent = os.getpid()

        def haywire(ctx, key):
            if os.getpid() == parent:
                raise RuntimeError("not a business-rule abort")
            ctx.put(key, 1)
            return 1

        registry = standard_registry()
        registry.register("haywire", haywire)
        reset_exec_counters()
        store = StateStore()
        with ParallelExecutor(
            registry, store, 2, check_oracle=False
        ) as executor:
            with pytest.raises(RuntimeError, match="business-rule"):
                executor.execute_block(self._block("haywire"))
            assert executor.pool_alive
            assert store.as_dict() == {}
            # A reply left unread in the pipe would be taken for this
            # block's and trip the oracle.
            executor.check_oracle = True
            clean = Block.create(
                2, "h1", increments([f"x{i}" for i in range(12)])
            )
            report = executor.execute_block(clean)
            assert executor.pool_alive
        assert report.backend == "process-pool"
        assert report.oracle_checked and report.oracle_matches
        assert report.fallback_waves == 0 and report.committed == 12
        assert EXEC_COUNTERS["pool_failures"] == 0

    def test_oracle_detects_undeclared_read(self):
        # Two "independent" txs by declaration, but the second secretly
        # reads the first one's write: serial order sees the write,
        # wave-parallel order cannot — the oracle must catch the lie.
        registry = ContractRegistry()

        def put_a(ctx):
            ctx.put("a", 1)
            return 1

        def sneaky(ctx):
            ctx.put("b", ctx.get("a", 0))
            return None

        registry.register("put_a", put_a)
        registry.register("sneaky", sneaky)
        txs = [
            Transaction.create(
                "put_a", (), declared_ops=declared((OpType.WRITE, "a"))
            ),
            Transaction.create(
                "sneaky", (), declared_ops=declared((OpType.WRITE, "b"))
            ),
        ]
        reset_exec_counters()
        with pytest.raises(ExecutionError, match="serial oracle"):
            execute_block_parallel(
                Block.create(1, GENESIS_PREV_HASH, txs), StateStore(),
                registry, 2,
            )
        assert EXEC_COUNTERS["oracle_mismatches"] == 1
