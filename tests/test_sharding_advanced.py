"""Advanced sharding scenarios: trusted hardware end-to-end, parallel
non-overlapping cross-shard transactions, deeper Saguaro trees."""

import pytest

from repro.common.types import Operation, OpType, Transaction, TxType
from repro.sharding import (
    AhlSystem,
    SaguaroConfig,
    SaguaroSystem,
    ShardedConfig,
    SharPerSystem,
)
from repro.workloads import SmallBankWorkload, smallbank_registry


def build(cls, config, n_shards=4, seed=1):
    workload = SmallBankWorkload(
        n_customers=200, n_shards=n_shards, cross_shard_fraction=0.2,
        seed=seed,
    )

    def shard_of_key(key):
        return workload.shard_of(key.split(":")[1])

    return workload, cls(smallbank_registry(), shard_of_key, config)


class TestTrustedHardwareShards:
    def test_attested_committees_run_end_to_end(self):
        """AHL with trusted hardware: 2f+1 committees of 3 process the
        same workload that plain 3f+1 committees of 4 would need."""
        workload, system = build(
            AhlSystem,
            ShardedConfig(
                n_clusters=4, nodes_per_cluster=3,
                trusted_hardware=True, seed=2,
            ),
        )
        for tx in workload.setup_transactions() + workload.generate(80):
            system.submit(tx)
        result = system.run()
        assert result.committed >= 270

    def test_attested_committees_use_fewer_messages(self):
        def run(trusted, nodes):
            workload, system = build(
                AhlSystem,
                ShardedConfig(
                    n_clusters=2, nodes_per_cluster=nodes,
                    trusted_hardware=trusted, seed=3,
                ),
                n_shards=2,
            )
            for tx in workload.setup_transactions() + workload.generate(50):
                system.submit(tx)
            result = system.run()
            return result.messages, result.committed

        plain_msgs, plain_ok = run(False, 4)  # 3f+1 with f=1
        attested_msgs, attested_ok = run(True, 3)  # 2f+1 with f=1
        assert plain_ok == attested_ok
        assert attested_msgs < plain_msgs


class TestParallelCrossShard:
    def test_non_overlapping_cross_txs_proceed_in_parallel(self):
        """SharPer's claim: cross-shard txs over disjoint cluster sets do
        not serialize behind each other — two simultaneous cross txs on
        disjoint shard pairs finish in about one cross-tx time."""
        workload, system = build(
            SharPerSystem,
            # Staggered arrivals: deposits must land before the payments.
            ShardedConfig(n_clusters=4, seed=4, arrival_rate=20.0),
        )
        accounts = ["c10", "c60", "c110", "c160"]  # shards 0,1,2,3

        def payment(src, dst):
            return Transaction.create(
                "send_payment", (src, dst, 1),
                tx_type=TxType.CROSS_SHARD,
                declared_ops=(
                    Operation(OpType.READ_WRITE, f"checking:{src}"),
                    Operation(OpType.READ_WRITE, f"checking:{dst}"),
                ),
                involved={
                    workload.shard_of(src), workload.shard_of(dst)
                },
            )

        for customer in accounts:
            system.submit(Transaction.create(
                "deposit_checking", (customer, 100),
                tx_type=TxType.INTRA_SHARD,
                declared_ops=(
                    Operation(OpType.READ_WRITE, f"checking:{customer}"),
                ),
                involved={workload.shard_of(customer)},
            ))
        # Two cross txs over disjoint shard pairs (0-1 and 2-3).
        payments = [payment("c10", "c60"), payment("c110", "c160")]
        for tx in payments:
            system.submit(tx)
        result = system.run()
        assert result.committed == 6
        records = [system.record(tx.tx_id) for tx in payments]
        cross_latencies = sorted(r.latency for r in records if r.committed)
        assert len(cross_latencies) == 2
        # Parallel: the slower one takes at most ~40% longer than the
        # faster one, not 2x (which serialization would cause).
        assert cross_latencies[1] < 1.4 * cross_latencies[0]

    def test_overlapping_cross_txs_conflict_via_locks(self):
        workload, system = build(
            SharPerSystem, ShardedConfig(n_clusters=4, seed=5,
                                         arrival_rate=20.0),
        )
        src, dst = "c10", "c60"
        system.submit(Transaction.create(
            "deposit_checking", (src, 100),
            tx_type=TxType.INTRA_SHARD,
            declared_ops=(Operation(OpType.READ_WRITE, f"checking:{src}"),),
            involved={workload.shard_of(src)},
        ))
        for _ in range(2):  # same accounts: overlapping cross txs
            system.submit(Transaction.create(
                "send_payment", (src, dst, 1),
                tx_type=TxType.CROSS_SHARD,
                declared_ops=(
                    Operation(OpType.READ_WRITE, f"checking:{src}"),
                    Operation(OpType.READ_WRITE, f"checking:{dst}"),
                ),
                involved={workload.shard_of(src), workload.shard_of(dst)},
            ))
        result = system.run()
        # One wins; the other either aborts on the lock or commits after
        # release — but never both write concurrently.
        assert result.committed + result.aborted == 3
        assert system.stores[workload.shard_of(src)].get(
            f"checking:{src}"
        ) in (98, 99)


class TestDeeperSaguaro:
    def test_eight_leaves_two_levels_of_fog(self):
        workload, system = build(
            SaguaroSystem,
            SaguaroConfig(n_clusters=8, fanout=2, seed=6),
            n_shards=8,
        )
        for tx in workload.setup_transactions() + workload.generate(100):
            system.submit(tx)
        result = system.run()
        assert result.committed >= 280
        assert result.extra.get("shard.coordinated_by_fog", 0) > 0
        assert result.extra.get("shard.coordinated_by_cloud", 0) > 0

    def test_lca_selection(self):
        workload, system = build(
            SaguaroSystem, SaguaroConfig(n_clusters=4, fanout=2, seed=7),
        )
        assert system.lca_of({"shard0", "shard1"}) == "fog0"
        assert system.lca_of({"shard2", "shard3"}) == "fog1"
        assert system.lca_of({"shard0", "shard3"}) == "cloud"
        assert system.lca_of({"shard0", "shard1", "shard2"}) == "cloud"
