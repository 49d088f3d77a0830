"""The run driver every system family shares: one submit, one run.

Every family — core architectures, sharding, Caper, multi-channel
Fabric, SEPAR, Quorum — refuses a transaction id it already holds and
runs exactly once. Accepting a duplicate id used to schedule the tx
twice, so the run spun to the horizon and reported a phantom abort.
"""

import pytest

from repro.common.errors import ConfigError
from repro.common.types import Transaction, TxType
from repro.confidentiality import CaperSystem, MultiChannelFabric
from repro.core import SYSTEMS, SystemConfig
from repro.sharding import ShardedConfig, SharPerSystem
from repro.verifiability import QuorumSystem, SeparSystem, TokenAuthority
from repro.workloads import smallbank_registry, supply_chain_registry
from repro.workloads.crowdworking import WorkClaim


def core():
    system = SYSTEMS["ox"](SystemConfig(seed=1))
    return system, system.submit, Transaction.create("kv_set", ("k", 1))


def sharded():
    system = SharPerSystem(smallbank_registry(), lambda key: "shard0",
                           ShardedConfig(n_clusters=2, seed=1))
    tx = Transaction.create("deposit_checking", ("c0", 5),
                            tx_type=TxType.INTRA_SHARD, involved={"shard0"})
    return system, system.submit, tx


def _fund(enterprise):
    return Transaction.create("fund", (enterprise, 10), submitter=enterprise,
                              tx_type=TxType.INTERNAL, involved={enterprise})


def caper():
    system = CaperSystem(["a", "b"], supply_chain_registry())
    return system, system.submit, _fund("a")


def channels():
    system = MultiChannelFabric({"ch": {"a"}}, supply_chain_registry())
    return system, lambda tx: system.submit(tx, ["ch"]), _fund("a")


def separ():
    authority = TokenAuthority()
    system = SeparSystem(["p0", "p1"], authority)
    claim = SeparSystem.tokenize(WorkClaim("w0", "p0", "t", 2, 0),
                                 authority.issue("w0", 0, 2))
    return system, system.submit, claim


def quorum():
    system = QuorumSystem()
    return system, system.submit_public, Transaction.create("kv_set", ("k", 1))


FAMILIES = [core, sharded, caper, channels, separ, quorum]


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
def test_duplicate_id_raises_and_the_run_stays_clean(family):
    system, submit, tx = family()
    submit(tx)
    with pytest.raises(ConfigError, match="duplicate transaction id"):
        submit(tx)
    result = system.run()
    assert (result.committed, result.aborted) == (1, 0)
    assert system.sim.now < system.config.max_time


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
def test_a_second_run_raises(family):
    system, submit, tx = family()
    submit(tx)
    system.run()
    with pytest.raises(ConfigError):
        system.run()
