"""Tier-1 perf smoke: catch gross simulator-core regressions fast.

These tests only guard against catastrophic regressions — an
accidental O(n) scan per event, a debug hook left enabled, a snapshot
that copies the state — so the wall-clock ceilings are ~50× looser
than observed performance (~800k events/sec on the event loop) and will
not flake on slow CI. Speed itself is measured by stackbench
(``benchmarks/stack``).
"""

import time

import pytest

from repro.crypto.sigcache import ModelledSigVerifier
from repro.ledger.store import StateStore, Version
from repro.sim.core import Simulation
from repro.sim.network import LanLatency, Network
from repro.sim.node import Node

EVENTS = 50_000
EVENT_LOOP_CEILING_SECONDS = 5.0
BROADCAST_CEILING_SECONDS = 5.0
#: Per-snapshot ceiling for a 100k-key store. Measured ~0.3us; an O(n)
#: regression would cost tens of milliseconds — 5000x headroom.
SNAPSHOT_CEILING_SECONDS = 0.002


def test_event_loop_50k_under_ceiling():
    sim = Simulation(seed=1)
    rng = sim.rng

    def tick():
        sim.schedule(rng.random() * 0.01, tick)

    for _ in range(500):
        sim.schedule(rng.random() * 0.01, tick)
    start = time.perf_counter()
    processed = sim.run(max_events=EVENTS)
    wall = time.perf_counter() - start
    assert processed == EVENTS
    assert wall < EVENT_LOOP_CEILING_SECONDS, (
        f"{EVENTS} events took {wall:.2f}s "
        f"({processed / wall:.0f} events/sec) — gross core regression"
    )
    assert sim.events_per_second > EVENTS / EVENT_LOOP_CEILING_SECONDS


class _Sink(Node):
    def on_message(self, src, message):
        pass


def test_broadcast_50k_sends_under_ceiling():
    sim = Simulation(seed=2)
    net = Network(sim, latency=LanLatency())
    nodes = [_Sink(f"n{i}", sim, net) for i in range(11)]
    rounds = EVENTS // 10
    sent = [0]

    def blast():
        nodes[0].broadcast("x")
        sent[0] += 10
        if sent[0] < EVENTS:
            sim.schedule(0.01, blast)

    sim.schedule(0.0, blast)
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    assert sent[0] == rounds * 10
    assert wall < BROADCAST_CEILING_SECONDS, (
        f"{EVENTS} sends took {wall:.2f}s — gross transport regression"
    )
    assert sim.metrics.get("net.messages") == EVENTS


@pytest.mark.perf
def test_snapshot_is_constant_time_in_state_size():
    """Snapshot creation must be O(1): per-snapshot wall time under a
    ceiling that any O(state) implementation busts by orders of
    magnitude at 100k keys."""
    store = StateStore()
    store.apply_writes({f"k{i}": i for i in range(100_000)}, Version(1, 0))
    store.snapshot()  # absorb the one-time seal/compaction of the load
    rounds = 200
    start = time.perf_counter()
    for height in range(rounds):
        store.snapshot()
        store.put("hot", height, Version(2 + height, 0))
    per_snapshot = (time.perf_counter() - start) / rounds
    assert per_snapshot < SNAPSHOT_CEILING_SECONDS, (
        f"snapshot of a 100k-key store took {per_snapshot * 1e6:.0f}us — "
        "snapshot creation is no longer O(1)"
    )


@pytest.mark.perf
def test_sig_cache_never_charges_verify_cost_twice():
    """The modelled verification ledger charges ``verify_cost`` exactly
    once per (signer, digest) pair — the FastFabric accounting rule."""
    ledger = ModelledSigVerifier(verify_cost=0.0005)
    assert ledger.charge("peer1", "digest-a") == 0.0005
    assert ledger.charge("peer1", "digest-a") == 0.0
    assert ledger.charge("peer2", "digest-a") == 0.0005  # other signer
    assert ledger.charge("peer1", "digest-b") == 0.0005  # other digest
    assert ledger.charge_batch(
        [("peer1", "digest-a"), ("peer2", "digest-a"), ("peer3", "digest-a")]
    ) == 0.0005  # only peer3 is first-sight
    assert ledger.verified == 4
    assert ledger.cached == 3
    # record() marks pairs as already paid for (verified at endorsement).
    ledger.record("peer9", "digest-z")
    assert ledger.charge("peer9", "digest-z") == 0.0
