"""The benchmark's names: workloads, end-to-end metrics, per-layer metrics.

One table each, from which ``BENCHMARK.json`` (``run.py --manifest``
prints it, ``--check`` compares the committed file with it), the result
files and ``compare.py`` are all derived.
"""

from __future__ import annotations

from dataclasses import dataclass

from stackbench.tracing import LAYERS

#: Seconds one run measures (``--seconds``' default, and what the
#: driver passes).
RUN_SECONDS = 10

COMMAND = ["python3", "benchmarks/stack/run.py"]
PATHS = ["benchmarks/stack"]

#: ``name -> why it exists`` (one line each; the README says more).
WORKLOADS: dict[str, str] = {
    "frontdoor_steady": (
        "open-loop clients through gateway, PBFT, XOV endorse/validate "
        "below the knee: a per-tx cost added in any layer shows here"
    ),
    "frontdoor_overload": (
        "same path at 4x the knee: most arrivals are shed, so gateway "
        "admission dominates and core/execution do little"
    ),
    "ordering_bft": (
        "PBFT n=7, one consensus instance per proposal, no gateway or "
        "execution: consensus and the simulated network do all the work"
    ),
    "ordering_cft": (
        "same harness on Raft n=5: a consensus-base or simulator change "
        "moves both ordering workloads, a protocol fix moves one"
    ),
    "exec_parallel": (
        "compute-heavy KV blocks serially and through the process pool: "
        "the only real multi-core path, bypasses gateway and consensus"
    ),
    "durable_commit": (
        "write path on real files: execute, state root, WAL append, "
        "spill, tiered compaction, then restart recovery; state fits cache"
    ),
    "paged_read": (
        "read path on the same layer: Zipf point gets and range scans "
        "over a multi-run paged store 25x larger than its block cache"
    ),
}

SIM = ("frontdoor_steady", "frontdoor_overload", "ordering_bft", "ordering_cft")
ALL = tuple(WORKLOADS)

#: What a workload reports for an end-to-end metric it does not have
#: (a speed-up on a serial workload, an amplification where nothing is
#: written): the builder's contract wants every ``end_to_end`` metric
#: from every workload and never a zero.
NOT_APPLICABLE = 1


@dataclass(frozen=True)
class Metric:
    """One reported number; its value is the median over the run's passes.

    ``bound`` is the share of the baseline's median by which the metric
    may worsen before it counts as a regression — the one bound both
    ``BENCHMARK.json`` and ``compare.py`` use; per-layer metrics have
    none. ``workloads`` are the ones that measure it; the others report
    ``NOT_APPLICABLE``. On the workloads in ``exact`` the metric comes
    off the virtual clock or a byte count and must repeat exactly for
    one seed.
    """

    name: str
    unit: str
    better: str
    bound: float | None = None
    workloads: tuple[str, ...] = ALL
    exact: tuple[str, ...] = ()


#: Bounds are the smallest step of 5 % that is at least three times the
#: widest ten-seed spread (interquartile range over median) measured on
#: any workload at the seed commit, as the builder's contract asks, up
#: to its cap of 25 %. README.md has the spreads.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_tx_per_s", "tx/s", "higher", 0.25),
    Metric("ok_share", "ratio", "higher", 0.10, exact=ALL),
    Metric("p50_latency_s", "s", "lower", 0.25, exact=SIM),
    Metric("p99_latency_s", "s", "lower", 0.25, exact=SIM),
    Metric("virt_goodput_tps", "tx/s", "higher", 0.10, SIM, exact=SIM),
    Metric("pool_speedup", "x", "higher", 0.10, ("exec_parallel",)),
    Metric("wall_recoveries_per_s", "1/s", "higher", 0.20,
           ("durable_commit",)),
    Metric("write_amp", "ratio", "lower", 0.05, ("durable_commit",),
           exact=("durable_commit",)),
    Metric("space_amp", "ratio", "lower", 0.05, ("durable_commit",),
           exact=("durable_commit",)),
    Metric("wall_scan_rows_per_s", "rows/s", "higher", 0.25, ("paged_read",)),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)

_LAYER_SELF = tuple(
    Metric(f"{layer}.self_s", "s", "lower")
    for layer in LAYERS if layer != "workloads"
)

#: Per-layer metrics. A name ending in ``.busy_s`` / ``.self_s`` /
#: ``.count`` whose stem is a span name (or a layer name) is read off
#: the traced run; every other name is supplied by the workload.
PER_LAYER: tuple[Metric, ...] = (
    Metric("sim.events", "count", "lower"),
    Metric("sim.run.self_s", "s", "lower"),
    Metric("sim.events_per_wall_s", "1/s", "higher"),
    Metric("sim.network.messages", "count", "lower"),
    Metric("sim.network.bytes", "bytes", "lower"),
    Metric("sim.network.send.busy_s", "s", "lower"),
    Metric("consensus.on_message.count", "count", "lower"),
    Metric("consensus.on_message.busy_s", "s", "lower"),
    Metric("consensus.submit.busy_s", "s", "lower"),
    Metric("consensus.decisions", "count", "higher"),
    Metric("consensus.msgs_per_decision", "count", "lower"),
    Metric("consensus.view_changes", "count", "lower"),
    Metric("consensus.decide_spread_virt_s", "s", "lower"),
    Metric("gateway.submit.count", "count", "lower"),
    Metric("gateway.submit.self_s", "s", "lower"),
    Metric("gateway.admitted", "count", "higher"),
    Metric("gateway.shed.rate-limited", "count", "lower"),
    Metric("gateway.shed.queue-full", "count", "lower"),
    Metric("gateway.shed.overloaded", "count", "lower"),
    Metric("gateway.shed.bad-signature", "count", "lower"),
    Metric("gateway.retries", "count", "lower"),
    Metric("gateway.batches", "count", "lower"),
    Metric("gateway.txs_per_batch", "count", "higher"),
    Metric("gateway.admit_wait_virt_s", "s", "lower"),
    Metric("gateway.order_wait_virt_s", "s", "lower"),
    Metric("gateway.commit_wait_virt_s", "s", "lower"),
    Metric("crypto.sign.busy_s", "s", "lower"),
    Metric("crypto.verify.busy_s", "s", "lower"),
    Metric("crypto.verify.count", "count", "lower"),
    Metric("crypto.sigcache.hit_rate", "ratio", "higher"),
    Metric("crypto.merkle.nodes_hashed", "count", "lower"),
    Metric("crypto.merkle.leaf_cache_hit_rate", "ratio", "higher"),
    Metric("core.ingest.self_s", "s", "lower"),
    Metric("core.block_decided.self_s", "s", "lower"),
    Metric("core.blocks", "count", "lower"),
    Metric("core.txs_per_block", "count", "higher"),
    Metric("core.abort.mvcc", "count", "lower"),
    Metric("core.useful_share", "ratio", "higher"),
    Metric("execution.execute.count", "count", "lower"),
    Metric("execution.execute.busy_s", "s", "lower"),
    Metric("execution.validate.busy_s", "s", "lower"),
    Metric("execution.serial.wall_tx_per_s", "tx/s", "higher"),
    Metric("execution.pool.waves", "count", "lower"),
    Metric("execution.pool.tasks_shipped", "count", "lower"),
    Metric("execution.pool.delta_entries_shipped", "count", "lower"),
    Metric("execution.pool.start_s", "s", "lower"),
    Metric("execution.pool.efficiency", "ratio", "higher"),
    Metric("execution.pool.wave_fallbacks", "count", "lower"),
    Metric("execution.pool.failures", "count", "lower"),
    Metric("execution.oracle_mismatches", "count", "lower"),
    Metric("ledger.apply_writes.count", "count", "lower"),
    Metric("ledger.apply_writes.busy_s", "s", "lower"),
    Metric("ledger.snapshot.count", "count", "lower"),
    Metric("ledger.chain.append.busy_s", "s", "lower"),
    Metric("ledger.overlay_resident_peak_bytes", "bytes", "lower"),
    Metric("storage.state_root.busy_s", "s", "lower"),
    Metric("storage.wal.append.busy_s", "s", "lower"),
    Metric("storage.wal.bytes", "bytes", "lower"),
    Metric("storage.wal.fsyncs", "count", "lower"),
    Metric("storage.snapshot.busy_s", "s", "lower"),
    Metric("storage.spill.bytes", "bytes", "lower"),
    Metric("storage.compaction.bytes", "bytes", "lower"),
    Metric("storage.compaction.tier_merges", "count", "lower"),
    Metric("storage.budget_spills", "count", "lower"),
    Metric("storage.max_commit_bytes", "bytes", "lower"),
    Metric("storage.codec.encode.busy_s", "s", "lower"),
    Metric("storage.recover.busy_s", "s", "lower"),
    Metric("storage.recover.replayed_blocks", "count", "lower"),
    Metric("storage.recover.footers_opened", "count", "lower"),
    Metric("storage.get.busy_s", "s", "lower"),
    Metric("storage.scan.busy_s", "s", "lower"),
    Metric("storage.cache.hit_rate", "ratio", "higher"),
    Metric("storage.cache.evictions", "count", "lower"),
    Metric("storage.filter_skips", "count", "higher"),
    Metric("storage.blocks_decoded_per_get", "count", "lower"),
    Metric("storage.range_decodes_per_scan", "count", "lower"),
    Metric("storage.run_count", "count", "lower"),
    Metric("storage.codec.decode.busy_s", "s", "lower"),
    Metric("workloads.generate.busy_s", "s", "lower"),
    Metric("workloads.arrivals.count", "count", "higher"),
) + _LAYER_SELF + (
    Metric("bench.other.self_s", "s", "lower"),
    Metric("bench.timed_wall_s", "s", "lower"),
    Metric("bench.trace_overhead_share", "ratio", "lower"),
)


def benchmark_json() -> dict:
    """``BENCHMARK.json`` as the tables above describe it."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
