"""The decided-digest index in the consensus base.

``ConsensusReplica._decide`` is the only writer of ``_decided_at`` and
of ``_decided_digests``; every protocol answers "is this value already
decided?" with one set lookup. These tests pin (a) that the index is
exactly the digests of the decided values on every path that decides —
normal case, duplicate client submits, catch-up after a crash — and
(b) that digest work per decision no longer grows with the run's
length. No wall clock anywhere.
"""

import random

import pytest

from repro.consensus import PROTOCOLS, ConsensusCluster, base
from repro.consensus.base import digest_of
from repro.consensus.monitors import MONITOR_REGISTRY
from repro.sim.faults import FaultPlan
from repro.sim.network import LanLatency


def _cluster(protocol, n_bft, n_cft, seed):
    replica_cls, byzantine = PROTOCOLS[protocol]
    return ConsensusCluster(
        replica_cls, n=n_bft if byzantine else n_cft, byzantine=byzantine,
        seed=seed, latency=LanLatency(),
    )


@pytest.mark.parametrize("chaos", [False, True], ids=["retries", "chaos"])
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_index_matches_decided_values_and_retries_stay_closed(protocol, chaos):
    cluster = _cluster(protocol, 4, 3, seed=5)
    sim = cluster.sim
    if chaos:
        # r0 misses most of the stream and learns it through catch-up.
        FaultPlan().crash(2.2, "r0").recover(6.0, "r0").apply(
            sim, cluster.network, cluster.replicas
        )
    values = [(f"p{index:03d}",) for index in range(16)]
    for index, value in enumerate(values):
        sim.schedule_at(2.0 + 0.03 * index, cluster.submit, value)
        sim.schedule_at(2.4 + 0.03 * index, cluster.submit, value, "r1")
        # A late retransmission is what tells a laggard it is behind.
        sim.schedule_at(20.0, cluster.submit, value, "r2")
    sim.run(until=40.0)

    replicas = cluster.correct_replicas()
    assert len(replicas) == cluster.config.n
    for replica in replicas:
        assert set(values) <= set(replica.decided)
        assert replica._decided_digests == {
            digest_of(v) for v in replica._decided_at.values()
        }
    if chaos:
        assert not cluster.replica("r0")._catchup_vouches

    # Client retries of decided values, through every replica: nothing
    # is reopened and nothing is decided a second time.
    logs = {r.node_id: list(r.decided) for r in replicas}
    for replica in replicas:
        for value in values:
            replica.submit(value)
            assert digest_of(value) not in replica._requests
    sim.run(until=70.0)
    for replica in replicas:
        assert replica.decided == logs[replica.node_id]
        assert not replica._requests


@pytest.mark.parametrize("seed", [1, 11])
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_no_value_is_decided_twice_across_a_leader_crash(protocol, seed):
    """The golden chaos schedule under the ``decided-once`` monitor: the
    leader crashes with values in flight, and the new leader must put
    each back at its old sequence, never at a second one."""
    cluster = _cluster(protocol, 4, 3, seed=seed)
    monitor = MONITOR_REGISTRY["decided-once"]()
    cluster.add_monitor(monitor)
    sim = cluster.sim
    FaultPlan().crash(2.2, "r0").recover(6.0, "r0").apply(
        sim, cluster.network, cluster.replicas
    )
    for index in range(24):
        value = (f"p{index:03d}",)
        sim.schedule_at(2.0 + 0.02 * index, cluster.submit, value)
        sim.schedule_at(2.3 + 0.02 * index, cluster.submit, value, "r1")
        sim.schedule_at(30.0, cluster.submit, value, "r2")
    sim.run(until=40.0)
    assert all(len(r.decided) >= 24 for r in cluster.correct_replicas())
    assert monitor.ok, f"{monitor.registry_name}: {monitor.violations[:3]}"


def _digests_per_decision(protocol, proposals, monkeypatch):
    """stackbench's ordering shape: ``proposals`` one-value submits
    uniformly over ``proposals / 400`` virtual seconds after a 2 s
    settle, counting every ``digest_of`` evaluation in the cluster."""
    calls = 0

    def counting(value):
        nonlocal calls
        calls += 1
        return digest_of(value)

    for module in {cls.__module__ for cls, _ in PROTOCOLS.values()}:
        monkeypatch.setattr(f"{module}.digest_of", counting)
    monkeypatch.setattr(base, "digest_of", counting)

    cluster = _cluster(protocol, 7, 5, seed=11)
    sim = cluster.sim
    sim.run(until=2.0)
    rng = random.Random(11)
    for index, at in enumerate(
        sorted(2.0 + rng.random() * proposals / 400 for _ in range(proposals))
    ):
        sim.schedule_at(at, cluster.submit, (f"p{index:06d}",))
    assert cluster.run_until_decided(
        proposals, timeout=60.0, max_events=50_000_000
    )
    return calls / proposals


#: Ceiling on digest evaluations per decision where the protocol hashes
#: a value a fixed number of times (submit, forward, decide).
ABSOLUTE = {"pbft": 20, "raft": 20, "paxos": 20}


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_digest_work_per_decision_is_flat_in_run_length(protocol, monkeypatch):
    short = _digests_per_decision(protocol, 100, monkeypatch)
    long = _digests_per_decision(protocol, 400, monkeypatch)
    assert long <= 1.1 * short, (short, long)
    if protocol in ABSOLUTE:
        assert long <= ABSOLUTE[protocol], long
