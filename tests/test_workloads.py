"""Tests for the workload generators."""

import random

import pytest

from repro.common.errors import ConfigError
from repro.common.types import TxType
from repro.workloads import (
    CrowdworkWorkload,
    KvWorkload,
    SmallBankWorkload,
    SupplyChainWorkload,
    ZipfSampler,
)
from repro.workloads.crowdworking import FLSA_WEEKLY_CAP


class TestZipfSampler:
    def test_samples_stay_in_range(self):
        sampler = ZipfSampler(100, 0.9, random.Random(1))
        assert all(0 <= sampler.sample() < 100 for _ in range(1000))

    def test_theta_zero_is_roughly_uniform(self):
        sampler = ZipfSampler(10, 0.0, random.Random(2))
        counts = [0] * 10
        for _ in range(10_000):
            counts[sampler.sample()] += 1
        assert max(counts) < 2 * min(counts)

    def test_high_theta_concentrates_on_low_ranks(self):
        sampler = ZipfSampler(1000, 1.2, random.Random(3))
        hits = sum(1 for _ in range(2000) if sampler.sample() < 10)
        assert hits > 600  # head dominates

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigError):
            ZipfSampler(0, 0.5, random.Random(1))
        with pytest.raises(ConfigError):
            ZipfSampler(10, -1, random.Random(1))


class TestKvWorkload:
    def test_every_tx_declares_operations(self):
        for tx in KvWorkload(seed=1).generate(200):
            assert tx.declared_ops

    def test_read_fraction_respected(self):
        txs = KvWorkload(seed=2, read_fraction=1.0).generate(100)
        assert all(tx.contract == "read_many" for tx in txs)
        txs = KvWorkload(seed=2, read_fraction=0.0).generate(100)
        assert all(tx.contract != "read_many" for tx in txs)

    def test_rmw_fraction_splits_writes(self):
        txs = KvWorkload(
            seed=3, read_fraction=0.0, rmw_fraction=1.0
        ).generate(50)
        assert all(tx.contract == "increment" for tx in txs)

    def test_same_seed_same_stream(self):
        a = [tx.contract for tx in KvWorkload(seed=4).generate(50)]
        b = [tx.contract for tx in KvWorkload(seed=4).generate(50)]
        assert a == b

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ConfigError):
            KvWorkload(read_fraction=1.5)


class TestSmallBank:
    def test_setup_funds_every_customer(self):
        workload = SmallBankWorkload(n_customers=50, seed=1)
        assert len(workload.setup_transactions()) == 50

    def test_unsharded_txs_have_no_involved(self):
        workload = SmallBankWorkload(n_customers=50, n_shards=1, seed=2)
        assert all(not tx.involved for tx in workload.generate(50))

    def test_sharded_txs_are_labelled(self):
        workload = SmallBankWorkload(
            n_customers=100, n_shards=4, cross_shard_fraction=0.5, seed=3
        )
        txs = workload.generate(300)
        cross = [tx for tx in txs if tx.tx_type is TxType.CROSS_SHARD]
        intra = [tx for tx in txs if tx.tx_type is TxType.INTRA_SHARD]
        assert cross and intra
        assert all(len(tx.involved) == 2 for tx in cross)
        assert all(len(tx.involved) == 1 for tx in intra)

    def test_cross_fraction_zero_yields_no_cross(self):
        workload = SmallBankWorkload(
            n_customers=100, n_shards=4, cross_shard_fraction=0.0, seed=4
        )
        assert all(
            tx.tx_type is not TxType.CROSS_SHARD for tx in workload.generate(200)
        )

    def test_shard_assignment_is_stable_and_balanced(self):
        workload = SmallBankWorkload(n_customers=100, n_shards=4, seed=5)
        shards = [workload.shard_of(f"c{i}") for i in range(100)]
        assert shards == [workload.shard_of(f"c{i}") for i in range(100)]
        for shard in set(shards):
            assert shards.count(shard) == 25

    def test_payments_follow_shard_of_when_shards_are_uneven(self):
        """10 customers over 3 shards hold 4, 3 and 3: every cross-shard
        payment crosses shards, every intra-shard one stays home, and no
        customer pays itself."""
        for fraction in (0.0, 1.0):
            workload = SmallBankWorkload(
                n_customers=10, n_shards=3, cross_shard_fraction=fraction,
                payment_fraction=1.0, query_fraction=0.0, seed=6,
            )
            for tx in workload.generate(500):
                src, dst, _ = tx.args
                assert src != dst
                crosses = workload.shard_of(src) != workload.shard_of(dst)
                assert crosses == (fraction == 1.0)

    def test_every_shard_needs_two_customers(self):
        with pytest.raises(ConfigError):
            SmallBankWorkload(n_customers=5, n_shards=3)


class TestSupplyChain:
    def test_internal_fraction_one_is_all_internal(self):
        workload = SupplyChainWorkload(seed=1, internal_fraction=1.0)
        assert all(
            tx.tx_type is TxType.INTERNAL for tx in workload.generate(50)
        )

    def test_cross_txs_involve_two_enterprises(self):
        workload = SupplyChainWorkload(seed=2, internal_fraction=0.0)
        for tx in workload.generate(50):
            assert tx.tx_type is TxType.CROSS_ENTERPRISE
            assert len(tx.involved) == 2

    def test_setup_covers_all_enterprises_and_items(self):
        workload = SupplyChainWorkload(seed=3, items=5)
        setup = workload.setup_transactions()
        assert len(setup) == len(workload.enterprises) * (5 + 1)

    def test_needs_two_enterprises(self):
        with pytest.raises(ConfigError):
            SupplyChainWorkload(enterprises=["solo"])


class TestCrowdworking:
    def test_week_volume_tracks_pressure(self):
        workload = CrowdworkWorkload(workers=20, pressure=1.0, seed=1)
        claims = workload.generate_week()
        total = sum(claim.hours for claim in claims)
        assert total >= 20 * FLSA_WEEKLY_CAP

    def test_single_platform_workers_stay_home(self):
        workload = CrowdworkWorkload(
            workers=30, multi_platform_fraction=0.0, seed=2
        )
        platform_of = {}
        for claim in (workload.next_claim() for _ in range(500)):
            platform_of.setdefault(claim.worker, set()).add(claim.platform)
        assert all(len(p) == 1 for p in platform_of.values())

    def test_multi_platform_workers_roam(self):
        workload = CrowdworkWorkload(
            workers=10, multi_platform_fraction=1.0, platforms=3, seed=3
        )
        platforms = {claim.platform for claim in
                     (workload.next_claim() for _ in range(300))}
        assert len(platforms) == 3

    def test_claim_hours_positive(self):
        workload = CrowdworkWorkload(seed=4)
        assert all(
            workload.next_claim().hours >= 1 for _ in range(200)
        )
