"""Integration tests for the seven transaction-processing architectures.

Beyond per-system correctness, this file encodes the paper's section
2.3.3 Discussion claims as executable assertions: OXII beats OX through
parallelism, contention hurts XOV, FastFabric speeds up validation,
reordering reduces aborts, XOX recovers invalidated transactions.
"""

import random

import pytest

from repro.common.errors import ConfigError
from repro.common.types import Operation, OpType, Transaction
from repro.core import SYSTEMS, SystemConfig

ALL_SYSTEMS = sorted(SYSTEMS)


def rmw(key):
    return Transaction.create(
        "increment", (key,), declared_ops=(Operation(OpType.READ_WRITE, key),)
    )


def blind_write(key, value):
    return Transaction.create(
        "kv_set", (key, value), declared_ops=(Operation(OpType.WRITE, key),)
    )


def read(key):
    return Transaction.create(
        "kv_get", (key,), declared_ops=(Operation(OpType.READ, key),)
    )


def uniform_workload(n=120, keys=3000, seed=0):
    rng = random.Random(seed)
    return [rmw(f"k{rng.randrange(keys)}") for _ in range(n)]


def contended_workload(n=120, hot_keys=3, seed=0):
    rng = random.Random(seed)
    txs = []
    for i in range(n):
        if rng.random() < 0.5:
            txs.append(blind_write(f"hot{rng.randrange(hot_keys)}", i))
        else:
            txs.append(read(f"hot{rng.randrange(hot_keys)}"))
    return txs


def run(name, txs, **config_kwargs):
    config = SystemConfig(block_size=40, seed=7, **config_kwargs)
    system = SYSTEMS[name](config)
    for tx in txs:
        system.submit(tx)
    return system, system.run()


@pytest.mark.parametrize("name", ALL_SYSTEMS)
class TestEverySystem:
    def test_commits_uniform_workload(self, name):
        _, result = run(name, uniform_workload())
        assert result.committed > 100  # near-zero conflicts
        assert result.throughput > 0

    def test_all_transactions_resolve(self, name):
        _, result = run(name, uniform_workload(n=80))
        assert result.committed + result.aborted == 80

    def test_ledger_holds_committed_transactions(self, name):
        system, result = run(name, uniform_workload(n=60))
        on_ledger = sum(1 for _ in system.ledger.all_transactions())
        assert on_ledger >= result.committed
        system.ledger.verify_chain()

    def test_state_reflects_committed_increments(self, name):
        txs = [rmw("shared") for _ in range(5)]
        system, result = run(name, txs)
        # Every committed increment is visible in final state.
        assert system.store.get("shared", 0) == result.committed

    def test_deterministic_across_runs(self, name):
        def one_run():
            _, result = run(name, uniform_workload(n=60, seed=3))
            return result.committed, result.aborted, result.duration

        assert one_run() == one_run()

    def test_latencies_recorded_per_commit(self, name):
        _, result = run(name, uniform_workload(n=50))
        assert len(result.latencies) == result.committed


class TestPaperClaims:
    def test_oxii_outperforms_ox_on_parallel_workload(self):
        """OX 'suffers from low performance due to the sequential
        execution of all transactions' (Discussion, 2.3.3)."""
        txs = uniform_workload(n=200)
        _, ox = run("ox", txs)
        _, oxii = run("oxii", uniform_workload(n=200))
        assert oxii.throughput > ox.throughput

    def test_oxii_degrades_to_serial_under_total_conflict(self):
        chain = [rmw("one-key") for _ in range(100)]
        _, oxii = run("oxii", chain)
        _, ox = run("ox", [rmw("one-key") for _ in range(100)])
        assert oxii.throughput == pytest.approx(ox.throughput, rel=0.35)

    def test_contention_hurts_xov_not_pessimistic(self):
        """XOV 'has to disregard the effects of conflicting transactions
        which negatively impacts the performance' (2.3.3)."""
        _, ox = run("ox", contended_workload())
        _, xov = run("xov", contended_workload())
        assert ox.abort_rate == 0.0
        assert xov.abort_rate > 0.2

    def test_xov_abort_rate_grows_with_contention(self):
        _, low = run("xov", uniform_workload())
        _, high = run("xov", contended_workload())
        assert high.abort_rate > low.abort_rate

    def test_fastfabric_throughput_gain_on_conflict_free(self):
        """FastFabric increases 'throughput for conflict-free transaction
        workloads' (2.3.3)."""
        _, xov = run("xov", uniform_workload(n=200))
        _, fast = run("fastfabric", uniform_workload(n=200))
        assert fast.throughput > xov.throughput

    def test_reordering_reduces_aborts(self):
        """Fabric++ reorders 'to reconcile the potential conflicts'."""
        _, xov = run("xov", contended_workload(seed=5))
        _, fpp = run("fabricpp", contended_workload(seed=5))
        assert fpp.abort_rate <= xov.abort_rate

    def test_fabricsharp_not_worse_than_fabricpp(self):
        """FabricSharp 'eliminates unnecessary aborts' vs Fabric++."""
        _, fpp = run("fabricpp", contended_workload(seed=6))
        _, sharp = run("fabricsharp", contended_workload(seed=6))
        assert sharp.abort_rate <= fpp.abort_rate + 0.02

    def test_xox_recovers_invalidated_transactions(self):
        """XOX re-executes 'transactions that are invalidated due to
        read-write conflicts' — deterministic contracts all commit."""
        _, xov = run("xov", [rmw("hot") for _ in range(40)])
        _, xox = run("xox", [rmw("hot") for _ in range(40)])
        assert xov.aborted > 0
        assert xox.aborted == 0

    def test_xox_pays_latency_for_recovery(self):
        _, xov = run("xov", contended_workload(seed=8))
        _, xox = run("xox", contended_workload(seed=8))
        assert xox.latencies.mean() >= xov.latencies.mean()


class TestSystemConfigValidation:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(protocol="pow")

    def test_zero_block_size_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(block_size=0)

    def test_zero_executors_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(executors=0)

    def test_run_is_single_shot(self):
        system = SYSTEMS["ox"](SystemConfig(seed=1))
        system.submit(rmw("k"))
        system.run()
        with pytest.raises(ConfigError):
            system.run()
        with pytest.raises(ConfigError):
            system.submit(rmw("j"))

    def test_duplicate_submission_rejected(self):
        system = SYSTEMS["ox"](SystemConfig(seed=1))
        tx = rmw("k")
        system.submit(tx)
        with pytest.raises(ConfigError):
            system.submit(tx)


class TestOrderingProtocolChoices:
    @pytest.mark.parametrize("protocol", ["pbft", "raft", "ibft", "hotstuff"])
    def test_ox_runs_over_any_ordering_protocol(self, protocol):
        system = SYSTEMS["ox"](
            SystemConfig(protocol=protocol, block_size=20, seed=2)
        )
        for tx in uniform_workload(n=40):
            system.submit(tx)
        result = system.run()
        assert result.committed == 40

    def test_partial_blocks_cut_by_timer(self):
        # 7 txs with block_size 50: only the interval timer can cut them.
        system = SYSTEMS["ox"](SystemConfig(block_size=50, seed=3))
        for tx in uniform_workload(n=7):
            system.submit(tx)
        result = system.run()
        assert result.committed == 7


class TestDecidedPayloads:
    def test_a_payload_decided_twice_is_applied_once(self):
        system = SYSTEMS["ox"](SystemConfig(seed=4))
        applied = []
        system._on_block_decided = applied.append
        txs = uniform_workload(n=3)
        for tx in txs:
            system.submit(tx)
        system._order_queue = [tx.tx_id for tx in txs]
        system._cut_block()
        payload = tuple(tx.tx_id for tx in txs)
        for sequence in (1, 2):  # the orderer delivers the batch twice
            system._on_decide(system._reference_orderer, sequence, payload)
        assert applied == [txs]
        assert system._payload_of == {}

    @pytest.mark.parametrize("name", ALL_SYSTEMS)
    def test_drained_run_holds_no_payloads(self, name):
        system, result = run(name, uniform_workload(n=60))
        assert result.committed + result.aborted == 60
        assert system._payload_of == {}
