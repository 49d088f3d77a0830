"""Front-door gateway tier: admission determinism, token-bucket
conservation, queue-bound invariants, retry/shed paths, batching, and
end-to-end stamp monotonicity (ROADMAP item 1, experiment family E22)."""

import random

import pytest

from repro.common.driver import TxRecord
from repro.common.errors import ConfigError
from repro.common.types import Operation, OpType, Transaction
from repro.core import SystemConfig
from repro.crypto.signatures import HmacSignatureScheme, MembershipService
from repro.gateway import Gateway, GatewayConfig, GatewayRun, latency_report
from repro.sim.core import Simulation
from repro.workloads.openloop import OpenLoopConfig, OpenLoopWorkload, Phase


def make_tx(i: int, client: str = "c0") -> Transaction:
    return Transaction(
        tx_id=f"t{i:06d}",
        contract="kv_set",
        args=(f"k{i}", i),
        submitter=client,
        declared_ops=(Operation(OpType.WRITE, f"k{i}"),),
    )


def make_record(i: int, client: str = "c0") -> TxRecord:
    return TxRecord(make_tx(i, client))


def make_gateway(sim: Simulation, batches: list, **overrides) -> Gateway:
    shed = []
    gateway = Gateway(
        sim,
        GatewayConfig(**overrides),
        sink=batches.append,
        on_shed=lambda record, reason: shed.append((record.tx_id, reason)),
    )
    gateway.shed_log = shed
    return gateway


def small_run(
    seed: int, architecture: str = "ox", max_time: float = 30.0
) -> GatewayRun:
    workload = OpenLoopWorkload(OpenLoopConfig(
        clients=1000,
        invalid_fraction=0.05,
        phases=(Phase("steady", 1.0, 300.0),),
        seed=seed,
    ))
    return GatewayRun(
        architecture,
        workload,
        gateway_config=GatewayConfig(
            rate=50.0, burst=5.0, queue_capacity=64, max_in_flight=128,
            batch_size=20,
        ),
        system_config=SystemConfig(
            block_size=20, seed=seed, max_time=max_time
        ),
    )


# -- admission determinism ----------------------------------------------------


def test_same_seed_runs_are_byte_identical():
    first = small_run(seed=7).run()
    second = small_run(seed=7).run()
    assert first.fingerprint == second.fingerprint
    assert first.to_jsonable() == second.to_jsonable()


def test_different_seeds_diverge():
    assert small_run(seed=7).run().fingerprint != \
        small_run(seed=8).run().fingerprint


# -- token-bucket conservation ------------------------------------------------


def test_token_bucket_conservation_per_client():
    """Under a randomized arrival schedule, no client may ever get more
    than burst + rate * window admissions — token conservation."""
    rate, burst, window = 10.0, 5.0, 8.0
    sim = Simulation(seed=0)
    batches: list = []
    gateway = make_gateway(
        sim, batches,
        rate=rate, burst=burst,
        queue_capacity=100_000, max_in_flight=100_000,
        batch_size=1000, batch_interval=5.0,
    )
    rng = random.Random(42)
    clients = [f"c{i}" for i in range(5)]
    records = []
    for i in range(600):
        record = make_record(i, rng.choice(clients))
        records.append(record)
        sim.schedule_at(rng.uniform(0.0, window), gateway.submit, record)
    sim.run()
    ceiling = burst + rate * window
    for client in clients:
        admitted = sum(
            1 for record in records
            if record.tx.submitter == client and record.admit is not None
        )
        assert admitted <= ceiling + 1e-9, (client, admitted, ceiling)
    assert gateway.counters["shed.rate-limited"] > 0  # the bound bit
    assert (
        gateway.counters["arrivals"]
        == gateway.counters["admitted"] + sum(gateway.shed_counts().values())
    )


# -- queue bounds under flood -------------------------------------------------


def test_queue_bounds_hold_under_flood():
    """An instantaneous flood from distinct clients can never push the
    batch queue or the in-flight window past their configured bounds;
    the excess is shed loudly, never queued silently."""
    sim = Simulation(seed=0)
    batches: list = []
    gateway = make_gateway(
        sim, batches,
        rate=1e6, burst=1e6,  # rate limiting out of the way
        queue_capacity=16, max_in_flight=32,
        batch_size=8, batch_interval=0.5,
    )
    for i in range(500):
        sim.schedule_at(
            i * 1e-6, gateway.submit, make_record(i, client=f"c{i}")
        )
    sim.run()
    assert gateway.max_queued_seen <= 16
    assert gateway.max_in_flight_seen <= 32
    sheds = gateway.shed_counts()
    assert sheds["queue-full"] + sheds["overloaded"] > 0
    assert gateway.counters["arrivals"] == 500
    assert (
        gateway.counters["admitted"] + sum(sheds.values()) == 500
    )
    assert len(gateway.shed_log) == sum(sheds.values())
    # Nobody resolved anything, so admissions are capped by the window.
    assert gateway.counters["admitted"] <= 32


# -- backpressure, retry and shed paths ---------------------------------------


def test_queue_full_rejection_carries_backpressure_signal():
    sim = Simulation(seed=0)
    gateway = make_gateway(
        sim, [],
        rate=1e6, burst=1e6, queue_capacity=1, max_in_flight=100,
        batch_size=50, batch_interval=0.25,
    )
    assert gateway.submit(make_record(0, "c0")).admitted
    decision = gateway.submit(make_record(1, "c1"))
    assert not decision.admitted
    assert decision.reason == "queue-full"
    assert decision.retry_after == pytest.approx(0.25)


def test_rate_limited_client_retries_and_eventually_admits():
    sim = Simulation(seed=0)
    batches: list = []
    gateway = make_gateway(
        sim, batches,
        rate=1.0, burst=1.0, queue_capacity=100, max_in_flight=100,
        batch_size=1, batch_interval=0.05,
        max_retries=3, retry_backoff=0.1,
    )
    first, second = make_record(0, "c0"), make_record(1, "c0")
    sim.schedule_at(0.0, gateway.submit, first)
    sim.schedule_at(0.0, gateway.submit, second)
    sim.run()
    assert gateway.counters["retries"] >= 1
    assert gateway.counters["admitted"] == 2
    assert second.attempts > 1
    assert gateway.shed_counts() == {
        "bad-signature": 0, "rate-limited": 0,
        "queue-full": 0, "overloaded": 0,
    }


def test_forged_and_revoked_signatures_shed_without_retry():
    membership = MembershipService(scheme=HmacSignatureScheme())
    membership.register("good")
    membership.register("gone")
    sim = Simulation(seed=0)
    gateway = Gateway(
        sim,
        GatewayConfig(max_retries=5),
        sink=lambda batch: None,
        membership=membership,
    )
    record = make_record(0, "good")
    signature = membership.sign("good", record.tx.digest().encode())
    assert gateway.submit(record, signature).admitted

    forged = make_record(1, "good")
    decision = gateway.submit(forged, b"forged")
    assert not decision.admitted and not decision.will_retry
    assert decision.reason == "bad-signature"
    assert (forged.status, forged.reason) == ("shed", "bad-signature")

    revoked = make_record(2, "gone")
    stale = membership.sign("gone", revoked.tx.digest().encode())
    membership.revoke("gone")
    decision = gateway.submit(revoked, stale)
    assert decision.reason == "bad-signature"
    assert gateway.counters["shed.bad-signature"] == 2


def revocation_run() -> GatewayRun:
    workload = OpenLoopWorkload(OpenLoopConfig(
        clients=50, phases=(Phase("steady", 1.0, 200.0),), seed=5,
    ))
    return GatewayRun(
        "ox", workload,
        gateway_config=GatewayConfig(rate=1e6, burst=1e6),
        system_config=SystemConfig(block_size=20, seed=5, max_time=30.0),
    )


def test_client_revoked_mid_run_is_shed_as_bad_signature():
    run = revocation_run()
    clients = [arrival.client for arrival in run.arrivals]
    client = max(set(clients), key=clients.count)
    times = [a.time for a in run.arrivals if a.client == client]
    cut = (times[0] + times[-1]) / 2
    run.system.sim.schedule_at(cut, run.membership.revoke, client)
    run.run()
    mine = [r for r in run.ledger if r.tx.submitter == client]
    after = [r for r in mine if r.submit > cut]
    assert after and all(
        (r.status, r.reason) == ("shed", "bad-signature") for r in after
    )
    assert all(r.reason != "bad-signature" for r in mine if r.submit < cut)


def test_a_signing_bug_propagates_instead_of_shedding():
    run = revocation_run()

    def broken_sign(identity, message):
        raise RuntimeError("signing bug")

    run.membership.sign = broken_sign
    with pytest.raises(RuntimeError, match="signing bug"):
        run.run()


# -- batching -----------------------------------------------------------------


def test_batcher_cuts_on_size_and_timer():
    sim = Simulation(seed=0)
    batches: list = []
    gateway = make_gateway(
        sim, batches,
        rate=1e6, burst=1e6, queue_capacity=100, max_in_flight=100,
        batch_size=3, batch_interval=0.2,
    )
    for i in range(7):
        sim.schedule_at(0.0, gateway.submit, make_record(i, client=f"c{i}"))
    sim.run()
    assert [len(batch) for batch in batches] == [3, 3, 1]
    assert gateway.counters["batches"] == 3


def test_flush_releases_partial_batch():
    sim = Simulation(seed=0)
    batches: list = []
    gateway = make_gateway(
        sim, batches,
        rate=1e6, burst=1e6, queue_capacity=100, max_in_flight=100,
        batch_size=50, batch_interval=60.0,
    )
    sim.schedule_at(0.0, gateway.submit, make_record(0, "c0"))
    sim.schedule_at(0.0, gateway.submit, make_record(1, "c1"))
    sim.run(until=1.0)
    assert batches == []
    gateway.flush()
    assert [len(batch) for batch in batches] == [2]


# -- end-to-end stamps and accounting -----------------------------------------


def test_stamps_are_monotone_and_accounting_conserved():
    run = small_run(seed=3)
    report = run.run()
    latency = report.latency
    assert latency.arrivals == len(run.arrivals) > 0
    assert latency.committed > 0
    assert (
        latency.committed + latency.aborted
        + latency.shed_total + latency.timeouts
        == latency.arrivals
    )
    for record in run.ledger:
        assert record.terminal
        if record.admit is not None:
            assert record.admit >= record.submit
        if record.status == "committed":
            assert (
                record.submit <= record.admit <= record.order <= record.commit
            )
        if record.status == "shed":
            assert record.reason in (
                "bad-signature", "rate-limited", "queue-full", "overloaded"
            )
    # The forged slice of the workload must show up as explicit sheds.
    assert latency.sheds.get("bad-signature", 0) > 0


def test_gateway_rejects_a_terminal_record():
    """Shedding or admitting a record that already reached a terminal
    status is an accounting bug: it must fail the run, not skew a
    percentile."""
    sim = Simulation(seed=0)
    gateway = Gateway(
        sim, GatewayConfig(rate=1.0, burst=1.0), sink=lambda batch: None
    )
    assert gateway.submit(make_record(0, "c0")).admitted
    shed = make_record(1, "c0")
    assert gateway.submit(shed).reason == "rate-limited"
    assert (shed.status, shed.reason) == ("shed", "rate-limited")
    with pytest.raises(ConfigError):
        gateway.submit(shed)  # shed again
    committed = make_record(2, "c1")
    assert gateway.submit(committed).admitted
    committed.status = "committed"
    with pytest.raises(ConfigError):
        sim.run()  # its admission work completes after the resolution


def test_latency_report_counts_leftovers_as_timeouts():
    """Records the driver closes at the horizon count as timeouts, and
    every arrival lands in exactly one tally."""
    records = [make_record(0), make_record(1), make_record(2)]
    records[0].admit = 0.2
    records[0].status, records[0].reason = "timeout", "horizon"
    records[1].status, records[1].reason = "timeout", "horizon"
    records[2].admit, records[2].commit = 0.1, 0.5
    records[2].status = "committed"
    report = latency_report(records)
    assert report.timeouts == 2 and report.arrivals == 3
    assert report.admitted == 2 and report.committed == 1
    assert report.p50 == pytest.approx(0.5)


def test_horizon_closes_admitted_records_as_timeouts():
    """A horizon that cuts the run short closes every admitted record
    still in flight as ``timeout``/``horizon``, counted once more under
    the system's ``abort.unresolved``."""
    run = small_run(seed=3, max_time=1.0)  # the arrivals span [0, 1)
    report = run.run()
    timeouts = [r for r in run.ledger if r.status == "timeout"]
    assert len(timeouts) == report.latency.timeouts > 0
    assert all(r.reason == "horizon" and r.admit for r in timeouts)
    assert report.extra["abort.unresolved"] == len(timeouts)


# -- the arrival seam ----------------------------------------------------------


class TinyFront:
    """The smallest front: every record through one gateway, 0.2 ms
    apart."""

    def __init__(self, system, config: GatewayConfig) -> None:
        self.system = system
        self.gateway = Gateway(
            system.sim, config, sink=self._ingest,
            on_shed=lambda record, reason: system.resolve(
                record, "shed", reason
            ),
        )

    def open(self, records) -> None:
        for i, record in enumerate(records):
            self.system.sim.schedule_at(i * 2e-4, self.gateway.submit, record)

    def resolved(self, record) -> None:
        self.gateway.release(record)

    def _ingest(self, batch) -> None:
        for record in batch:
            self.system._ingest(record)


def test_seam_fronts_a_family_outside_the_core_systems():
    """The gateway stands in front of SharPer, a sharded family, through
    ``run(front=...)``: every record ends terminal and the report's
    tallies sum to the arrivals."""
    from repro.sharding import ShardedConfig, SharPerSystem
    from repro.workloads import SmallBankWorkload, smallbank_registry

    workload = SmallBankWorkload(
        n_customers=100, n_shards=2, cross_shard_fraction=0.2, seed=4
    )
    system = SharPerSystem(
        smallbank_registry(),
        lambda key: workload.shard_of(key.split(":")[1]),
        ShardedConfig(n_clusters=2, seed=4),
    )
    for tx in workload.setup_transactions() + workload.generate(150):
        system.submit(tx)
    front = TinyFront(system, GatewayConfig(
        rate=1e6, burst=1e6, max_in_flight=10, batch_size=5,
    ))
    system.run(front=front)
    records = list(system.records())
    assert records and all(record.terminal for record in records)
    report = latency_report(records)
    assert report.arrivals == len(records)
    assert report.arrivals == (
        report.committed + report.aborted + report.shed_total
        + report.timeouts
    )
    assert report.committed > 0 and report.sheds.get("overloaded", 0) > 0
    assert front.gateway.in_flight == 0
