"""Integration tests for the confidentiality techniques (section 2.3.1)."""

import pytest

from repro.common.errors import ValidationError
from repro.common.types import Transaction, TxType
from repro.confidentiality import (
    CaperConfig,
    CaperSystem,
    ChannelConfig,
    MultiChannelFabric,
    PrivateDataChannel,
)
from repro.workloads import SupplyChainWorkload, supply_chain_registry


def make_caper(internal_fraction=0.7, n_txs=80, seed=1):
    workload = SupplyChainWorkload(seed=seed, internal_fraction=internal_fraction)
    system = CaperSystem(
        workload.enterprises, supply_chain_registry(), CaperConfig(seed=seed)
    )
    txs = workload.setup_transactions() + workload.generate(n_txs)
    for tx in txs:
        system.submit(tx)
    return workload, system, txs


class TestCaper:
    def test_everything_commits(self):
        _, system, txs = make_caper()
        result = system.run()
        assert result.committed == len(txs)

    def test_no_confidentiality_leakage(self):
        _, system, _ = make_caper()
        system.run()
        assert system.leakage_report() == {}

    def test_views_are_partial_but_consistent(self):
        workload, system, txs = make_caper()
        system.run()
        assert system.dag.views_consistent()
        total = len(system.dag)
        for enterprise in workload.enterprises:
            view = system.view(enterprise)
            assert len(view) < total  # nobody holds the whole DAG
            foreign = [
                v for v in view if v.enterprise not in (enterprise, None)
            ]
            assert not foreign

    def test_internal_txs_use_local_consensus_only(self):
        _, system, _ = make_caper(internal_fraction=1.0, n_txs=40)
        result = system.run()
        assert result.extra["global_decisions"] == 0
        assert result.extra["local_decisions"] > 0

    def test_cross_txs_use_global_consensus(self):
        _, system, _ = make_caper(internal_fraction=0.0, n_txs=30)
        result = system.run()
        assert result.extra["global_decisions"] == 30

    def test_dag_verifies_after_run(self):
        _, system, _ = make_caper()
        system.run()
        system.dag.verify()

    def test_rejects_wrong_tx_types(self):
        _, system, _ = make_caper(n_txs=0)
        with pytest.raises(ValidationError):
            system.submit(Transaction.create("produce", ()))

    def test_cross_tx_state_lands_on_both_enterprises(self):
        workload = SupplyChainWorkload(seed=2)
        system = CaperSystem(
            workload.enterprises, supply_chain_registry(), CaperConfig(seed=2)
        )
        for tx in workload.setup_transactions():
            system.submit(tx)
        ship = Transaction.create(
            "ship",
            ("supplier", "retailer", "item0", 5),
            submitter="supplier",
            tx_type=TxType.CROSS_ENTERPRISE,
            involved={"supplier", "retailer"},
        )
        system.submit(ship)
        system.run()
        assert system.stores["supplier"].get("inv:supplier:item0") == 995
        assert system.stores["retailer"].get("inv:retailer:item0") == 1005


def make_channels(seed=1, internal_fraction=0.7, n_txs=80):
    workload = SupplyChainWorkload(seed=seed, internal_fraction=internal_fraction)
    channels = {e: {e} for e in workload.enterprises}
    system = MultiChannelFabric(
        channels, supply_chain_registry(), ChannelConfig(seed=seed)
    )
    for tx in workload.setup_transactions() + workload.generate(n_txs):
        if tx.tx_type is TxType.INTERNAL:
            system.submit(tx, [tx.submitter])
        else:
            system.submit(tx, sorted(tx.involved))
    return workload, system


class TestMultiChannelFabric:
    def test_intra_channel_txs_commit(self):
        _, system = make_channels(internal_fraction=1.0, n_txs=40)
        result = system.run()
        assert result.aborted == 0
        assert result.extra.get("channels.intra_commits", 0) > 0

    def test_cross_channel_txs_run_two_phase_commit(self):
        _, system = make_channels(internal_fraction=0.5)
        result = system.run()
        assert result.extra.get("channels.2pc_prepares", 0) > 0
        assert result.extra.get("channels.cross_commits", 0) > 0

    def test_members_see_only_their_channels(self):
        workload, system = make_channels()
        result = system.run()
        visible = system.visible_transactions("supplier")
        assert 0 < len(visible) < result.committed + 1 or result.committed == 0
        # A supplier-internal tx is invisible to the manufacturer.
        supplier_only = visible - system.visible_transactions("manufacturer")
        assert supplier_only

    def test_cross_channel_tx_replicated_to_both(self):
        workload, system = make_channels(internal_fraction=0.0, n_txs=20)
        system.run()
        cross = sorted(
            c for c in system.committed_tx_ids()
            if len(system.record(c).tx.involved) > 1
        )
        assert cross
        assert system.ledger_copies_of(cross[0]) >= 2

    def test_unknown_channel_rejected(self):
        _, system = make_channels(n_txs=0)
        with pytest.raises(ValidationError):
            system.submit(Transaction.create("produce", ()), ["ghost-channel"])


class TestPrivateDataCollections:
    @pytest.fixture()
    def channel(self):
        channel = PrivateDataChannel({"a", "b", "c"})
        channel.define_collection("ab", {"a", "b"})
        return channel

    def test_authorized_members_read_values(self, channel):
        channel.put_private("ab", "a", "price", 42)
        assert channel.get_private("ab", "a", "price") == 42
        assert channel.get_private("ab", "b", "price") == 42

    def test_outsider_cannot_read(self, channel):
        channel.put_private("ab", "a", "price", 42)
        with pytest.raises(ValidationError):
            channel.get_private("ab", "c", "price")

    def test_outsider_cannot_write(self, channel):
        with pytest.raises(ValidationError):
            channel.put_private("ab", "c", "price", 1)

    def test_hash_lands_on_shared_ledger(self, channel):
        channel.put_private("ab", "a", "price", 42)
        assert channel.on_ledger_hash("ab", "price") is not None

    def test_disclosure_verifies_against_ledger(self, channel):
        channel.put_private("ab", "a", "price", 42)
        value, salt = channel.disclose("ab", "b", "price")
        assert channel.verify_disclosure("ab", "price", value, salt)
        assert not channel.verify_disclosure("ab", "price", 43, salt)

    def test_salted_hash_resists_guessing(self, channel):
        """Without the salt, an outsider cannot confirm a guessed value."""
        channel.put_private("ab", "a", "price", 42)
        wrong_salt = "00" * 8
        assert not channel.verify_disclosure("ab", "price", 42, wrong_salt)

    def test_collection_needs_channel_members(self, channel):
        with pytest.raises(ValidationError):
            channel.define_collection("bad", {"a", "zed"})

    def test_storage_asymmetry(self, channel):
        """Members store values + hashes; outsiders store only hashes —
        the overhead the Discussion paragraph attributes to the
        cryptographic technique."""
        channel.put_private("ab", "a", "k1", 1)
        channel.put_private("ab", "b", "k2", 2)
        member_values, member_hashes = channel.bytes_stored_by("a")
        outsider_values, outsider_hashes = channel.bytes_stored_by("c")
        assert member_values == 2
        assert outsider_values == 0
        assert member_hashes == outsider_hashes == 2


class TestChannelsAsShards:
    """Paper section 2.3.4: "while channels are mainly introduced to
    enhance confidentiality, they can be used to shard the system and
    data as well" — per-enterprise channels process disjoint transaction
    streams independently."""

    def test_channel_count_scales_intra_channel_throughput(self):
        def run(n_channels):
            from repro.workloads import SupplyChainWorkload

            enterprises = [f"e{i}" for i in range(n_channels)]
            workload = SupplyChainWorkload(
                enterprises=enterprises, internal_fraction=1.0, seed=31
            )
            system = MultiChannelFabric(
                {e: {e} for e in enterprises},
                supply_chain_registry(),
                ChannelConfig(seed=31, arrival_rate=None),
            )
            txs = workload.setup_transactions() + workload.generate(120)
            for tx in txs:
                system.submit(tx, [tx.submitter])
            result = system.run()
            return result, len(txs)

        two, two_total = run(2)
        six, six_total = run(6)
        assert two.aborted == six.aborted == 0
        assert two.committed == two_total
        assert six.committed == six_total
        # The work spreads over more channels: the busiest channel's
        # ledger shrinks, which is the sharding effect.

    def test_channels_isolate_state_like_shards(self):
        system = MultiChannelFabric(
            {"e0": {"e0"}, "e1": {"e1"}},
            supply_chain_registry(),
            ChannelConfig(seed=32),
        )
        from repro.common.types import Operation, OpType

        tx = Transaction.create(
            "produce", ("e0", "item1", 5), submitter="e0",
            tx_type=TxType.INTERNAL,
            declared_ops=(
                Operation(OpType.READ_WRITE, "inv:e0:item1"),
            ),
            involved={"e0"},
        )
        system.submit(tx, ["e0"])
        system.run()
        assert system.channels["e0"].store.get("inv:e0:item1") == 5
        assert "inv:e0:item1" not in system.channels["e1"].store
