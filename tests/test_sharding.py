"""Tests for the scalability techniques (section 2.3.4): committee math
and the four clustered/sharded systems."""

import pytest

from repro.common.errors import ValidationError
from repro.common.types import Operation, OpType, Transaction, TxType
from repro.sharding import (
    AhlSystem,
    ResilientDbSystem,
    SaguaroConfig,
    SaguaroSystem,
    ShardedConfig,
    SharPerSystem,
    committee_failure_probability,
    min_committee_size,
)
from repro.workloads import SmallBankWorkload, smallbank_registry


class TestCommitteeSafetyMath:
    def test_probability_decreases_with_committee_size(self):
        probabilities = [
            committee_failure_probability(2000, 400, size)
            for size in (20, 40, 80)
        ]
        assert probabilities[0] > probabilities[1] > probabilities[2]

    def test_all_byzantine_population_always_fails(self):
        assert committee_failure_probability(100, 100, 10) == pytest.approx(1.0)

    def test_no_byzantine_population_never_fails(self):
        assert committee_failure_probability(100, 0, 10) == 0.0

    def test_committee_larger_than_population_rejected(self):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError):
            committee_failure_probability(10, 2, 11)

    def test_min_committee_size_monotone_in_epsilon(self):
        loose = min_committee_size(2000, 0.2, epsilon=2**-10)
        tight = min_committee_size(2000, 0.2, epsilon=2**-20)
        assert tight >= loose

    def test_trusted_hardware_shrinks_committees(self):
        """AHL's headline: raising the resilience threshold from 1/3 to
        1/2 (attested hardware) needs far fewer nodes per committee."""
        plain = min_committee_size(2000, 0.2, resilience=1 / 3)
        attested = min_committee_size(2000, 0.2, resilience=1 / 2)
        assert attested < plain


def make_system(cls, n_shards=4, cross=0.2, seed=1, n_txs=120, **cfg_kwargs):
    workload = SmallBankWorkload(
        n_customers=200, n_shards=n_shards, cross_shard_fraction=cross,
        seed=seed,
    )

    def shard_of_key(key):
        return workload.shard_of(key.split(":")[1])

    config_cls = SaguaroConfig if cls is SaguaroSystem else ShardedConfig
    system = cls(
        smallbank_registry(), shard_of_key,
        config_cls(n_clusters=n_shards, seed=seed, **cfg_kwargs),
    )
    txs = workload.setup_transactions() + workload.generate(n_txs)
    for tx in txs:
        system.submit(tx)
    return workload, system, txs


ALL_SHARDED = [SharPerSystem, AhlSystem, ResilientDbSystem, SaguaroSystem]


@pytest.mark.parametrize("cls", ALL_SHARDED)
class TestEveryShardedSystem:
    def test_resolves_whole_workload(self, cls):
        _, system, txs = make_system(cls)
        result = system.run()
        assert result.committed + result.aborted == len(txs)
        assert result.committed > len(txs) * 0.9

    def test_no_money_created_or_destroyed_by_payments(self, cls):
        """send_payment conserves total balance; only deposits/withdrawals
        change it — verified against committed deposits."""
        workload, system, txs = make_system(cls, n_txs=60, seed=3)
        system.run()
        if cls is ResilientDbSystem:
            stores = [system.global_store]
        else:
            stores = list(system.stores.values())
        total = sum(
            store.get(key, 0)
            for store in stores
            for key in store.keys()
            if key.startswith(("checking:", "savings:"))
        )
        expected = 0
        committed = system.committed_tx_ids()
        for tx in txs:
            if tx.tx_id not in committed:
                continue
            if tx.contract == "deposit_checking":
                expected += tx.args[1]
            elif tx.contract == "transact_savings":
                expected += tx.args[1]
            elif tx.contract == "write_check":
                expected -= tx.args[1]
        assert total == expected

    def test_deterministic(self, cls):
        def once():
            _, system, _ = make_system(cls, n_txs=40, seed=5)
            result = system.run()
            return result.committed, result.aborted, round(result.duration, 9)

        assert once() == once()


SHARDED_LEDGERS = [SharPerSystem, AhlSystem, SaguaroSystem]


class TestShardedLedgerSystems:
    @pytest.mark.parametrize("seed", [1, 11, 61])
    @pytest.mark.parametrize("cls", SHARDED_LEDGERS)
    def test_cross_txs_commit_on_every_involved_shard_or_none(self, cls, seed):
        """Cross-shard atomicity: a committed cross-shard tx is on every
        involved shard's ledger, an aborted one on none, and no lock is
        left held once the run is over."""
        _, system, txs = make_system(cls, cross=0.5, seed=seed)
        system.run()
        committed = system.committed_tx_ids()
        cross = [t for t in txs if t.tx_type is TxType.CROSS_SHARD]
        assert any(t.tx_id in committed for t in cross)
        assert any(t.tx_id not in committed for t in cross)
        for tx in cross:
            on = {shard for shard, ledger in system.ledgers.items()
                  if ledger.find_transaction(tx.tx_id)}
            assert on == (tx.involved if tx.tx_id in committed else set())
        assert all(len(locks) == 0 for locks in system._locks.values())

    @pytest.mark.parametrize("cls", SHARDED_LEDGERS)
    def test_tx_touching_a_shard_outside_involved_aborts(self, cls):
        """A payment declared on shard0 whose payee lives on shard1: no
        involved shard can apply the payee's write, so the tx must abort
        without side effects rather than commit and destroy the money."""
        _, system, _ = make_system(cls, n_shards=2, n_txs=0)
        payment = Transaction.create(
            "send_payment", ("c0", "c199", 10),
            tx_type=TxType.INTRA_SHARD,
            declared_ops=(Operation(OpType.READ_WRITE, "checking:c0"),
                          Operation(OpType.READ_WRITE, "checking:c199")),
            involved={"shard0"},
        )
        system.submit(payment)
        system.run()
        assert not system.record(payment.tx_id).committed
        assert system.stores["shard0"].get("checking:c0") == 10_000
        assert system.stores["shard1"].get("checking:c199") == 10_000

    def test_intra_shard_tx_stays_off_other_ledgers(self):
        _, system, txs = make_system(SharPerSystem, seed=8)
        system.run()
        committed = system.committed_tx_ids()
        intra = next(t for t in txs if len(t.involved) == 1
                     and t.tx_id in committed)
        home = next(iter(intra.involved))
        for shard, ledger in system.ledgers.items():
            found = ledger.find_transaction(intra.tx_id)
            assert (found is not None) == (shard == home)

    def test_cross_latency_exceeds_intra_latency(self):
        for cls in (SharPerSystem, AhlSystem, SaguaroSystem):
            _, system, _ = make_system(cls, cross=0.3, seed=9)
            result = system.run()
            assert (
                result.extra["cross_mean_latency"]
                > result.extra["intra_mean_latency"]
            ), cls.name

    def test_ahl_has_more_cross_phases_than_sharper(self):
        """Centralized 2PC needs 'a large number of intra- and
        cross-cluster communication phases' (Discussion 2.3.4)."""
        _, sharper, _ = make_system(SharPerSystem, cross=0.4, seed=10)
        _, ahl, _ = make_system(AhlSystem, cross=0.4, seed=10)
        r_sharper, r_ahl = sharper.run(), ahl.run()
        assert (
            r_ahl.extra["cross_mean_latency"]
            > r_sharper.extra["cross_mean_latency"]
        )

    def test_saguaro_fog_coordination_cheaper_than_cloud(self):
        workload, system, txs = make_system(
            SaguaroSystem, n_shards=4, cross=0.5, seed=11, n_txs=150
        )
        result = system.run()
        assert result.extra.get("shard.coordinated_by_fog", 0) > 0
        assert result.extra.get("shard.coordinated_by_cloud", 0) > 0
        # Latency split by coordinator level.
        fog_lat, cloud_lat = [], []
        for tx in txs:
            record = system.record(tx.tx_id)
            if len(tx.involved) < 2 or not record.committed:
                continue
            latency = record.latency
            if system.lca_of(set(tx.involved)) == "cloud":
                cloud_lat.append(latency)
            else:
                fog_lat.append(latency)
        assert fog_lat and cloud_lat
        assert sum(fog_lat) / len(fog_lat) < sum(cloud_lat) / len(cloud_lat)

    def test_resilientdb_has_no_cross_shard_concept(self):
        _, system, _ = make_system(ResilientDbSystem, cross=0.5, seed=12)
        result = system.run()
        assert result.extra["cross_committed"] == 0

    def test_resilientdb_replicates_everything_everywhere(self):
        _, system, txs = make_system(ResilientDbSystem, n_txs=40, seed=13)
        result = system.run()
        on_ledger = sum(1 for _ in system.global_ledger.all_transactions())
        assert on_ledger == result.committed

    def test_submit_requires_known_shards(self):
        _, system, _ = make_system(SharPerSystem, n_txs=0)
        with pytest.raises(ValidationError):
            system.submit(
                Transaction.create("balance", ("c1",), involved={"mars"})
            )
