"""Command-line interface: explore the reproduction without writing code.

    python -m repro list                 # what can run
    python -m repro claims               # every paper claim, checked
    python -m repro quickstart           # Figure 1 in one command
    python -m repro compare --skew 0.9   # OX/OXII/XOV + Fabric family
    python -m repro consensus --n 7      # protocol comparison
    python -m repro shard --clusters 4   # the four sharded systems
    python -m repro resilience           # fault-injection sweep
    python -m repro gateway --loads 500,1000,2000   # open-loop latency
    python -m repro fuzz --protocol raft --runs 50 --seed 7
    python -m repro recover --torn-disk  # crash-restart a durable node
    python -m repro replay capsule.json  # re-run a saved failing schedule
    python -m repro explore --protocol pbft --budget 60
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.bench import (
    compare_systems,
    compare_systems_parallel,
    env_workers,
    print_table,
    profiled,
    run_architecture,
)
from repro.common.types import Transaction
from repro.consensus import PROTOCOLS, ConsensusCluster
from repro.core import SYSTEMS, OxSystem, SystemConfig
from repro.simtest import (
    FuzzConfig,
    ScenarioSpec,
    default_axes,
    explore,
    replay_capsule,
    replay_matches_expectation,
    run_fuzz,
    save_capsule,
)
from repro.sharding import (
    AhlSystem,
    ResilientDbSystem,
    SaguaroConfig,
    SaguaroSystem,
    ShardedConfig,
    SharPerSystem,
)
from repro.workloads import KvWorkload, SmallBankWorkload, smallbank_registry


def cmd_list(_args) -> None:
    print("architectures:", ", ".join(sorted(SYSTEMS)))
    print("consensus protocols:", ", ".join(sorted(PROTOCOLS)))
    print("sharded systems: sharper, ahl, saguaro, resilientdb")
    print("paper claims E1-E24: python -m repro claims")


def cmd_claims(_args) -> int:
    """Run every paper claim and print the claim-vs-measured table;
    exit 1 naming each shape that failed."""
    from repro.bench.claims import failures, render, run_claims

    results = run_claims()
    print(render(results))
    failed = failures(results)
    for line in failed:
        print(f"FAIL {line}", file=sys.stderr)
    return 1 if failed else 0


def cmd_quickstart(args) -> None:
    system = OxSystem(
        SystemConfig(orderers=5, protocol="pbft", block_size=20, seed=args.seed)
    )
    for i in range(args.txs):
        system.submit(Transaction.create("kv_set", (f"key{i}", i)))
    result = system.run()
    print_table([result.to_row()], title="Figure 1: five-node OX over PBFT")


def cmd_compare(args) -> None:
    def make_workload():
        return KvWorkload(
            n_keys=5000, theta=args.skew, read_fraction=0.3,
            rmw_fraction=0.5, seed=args.seed,
        ).generate(args.txs)

    def make_config():
        return SystemConfig(block_size=50, seed=args.seed)

    names = sorted(SYSTEMS)
    workers = args.workers or env_workers()
    if workers > 1:
        rows = compare_systems_parallel(
            names, make_workload, make_config, workers=workers
        )
    else:
        rows = compare_systems(names, make_workload, make_config)
    print_table(rows, title=f"architectures at Zipf skew {args.skew}")


def cmd_exec(args) -> int:
    """One block through the serial engine and the process-pool backend.

    Prints wall/modelled throughput side by side and verifies the two
    paths commit identical transaction sets with identical effects (the
    serial-oracle equivalence the backend enforces internally, plus an
    end-state comparison here). Worker count comes from ``--workers``,
    else $REPRO_BENCH_WORKERS (invalid values are rejected loudly).
    """
    from repro.execution import ParallelExecutor, resolve_workers
    from repro.execution.contracts import standard_registry
    from repro.execution.serial import execute_block_serially
    from repro.ledger.block import Block, GENESIS_PREV_HASH
    from repro.ledger.store import StateStore, Version

    workers = resolve_workers(args.workers if args.workers else None)
    if args.workload == "smallbank":
        workload = SmallBankWorkload(
            n_customers=max(2, args.txs // 5), seed=args.seed
        )
        registry_factory = smallbank_registry
        setup = workload.setup_transactions()
    else:
        workload = KvWorkload(
            n_keys=2 * args.txs, theta=args.skew, read_fraction=0.2,
            rmw_fraction=0.6, seed=args.seed,
        )
        registry_factory = standard_registry
        setup = []
    txs = workload.generate(args.txs)
    block = Block.create(
        height=1, prev_hash=GENESIS_PREV_HASH, transactions=txs
    )

    def seeded_store() -> StateStore:
        store = StateStore()
        registry = registry_factory()
        for index, tx in enumerate(setup):
            from repro.execution.rwsets import execute_with_capture

            rwset = execute_with_capture(registry, tx, store)
            if rwset.ok:
                store.apply_writes(rwset.writes, Version(0, index))
        return store

    import time as _time

    serial_store = seeded_store()
    start = _time.perf_counter()
    serial = execute_block_serially(block, serial_store, registry_factory())
    serial_wall = _time.perf_counter() - start

    parallel_store = seeded_store()
    with ParallelExecutor(
        registry_factory(), parallel_store, workers
    ) as executor:
        report = executor.execute_block(block)

    identical = serial_store.as_dict() == parallel_store.as_dict()
    rows = [
        {
            "backend": "serial",
            "workers": 1,
            "waves": "-",
            "wall_seconds": round(serial_wall, 4),
            "wall_tps": round(len(txs) / serial_wall, 1)
            if serial_wall > 0 else 0.0,
            "committed": serial.committed,
            "fallback_waves": 0,
        },
        {
            "backend": report.backend,
            "workers": report.workers,
            "waves": report.n_waves,
            "wall_seconds": round(report.wall_seconds, 4),
            "wall_tps": round(report.wall_tps, 1),
            "committed": report.committed,
            "fallback_waves": report.fallback_waves,
        },
    ]
    print_table(
        rows,
        title=f"{args.workload} block of {len(txs)} txs, "
        f"{workers} worker(s)",
    )
    print(
        "equivalence: oracle "
        + ("OK" if report.oracle_matches else "MISMATCH")
        + ", end state "
        + ("identical" if identical else "DIVERGED")
    )
    return 0 if (report.oracle_matches and identical) else 1


def cmd_consensus(args) -> None:
    rows = []
    for name in sorted(PROTOCOLS):
        cls, byzantine = PROTOCOLS[name]
        n = args.n if byzantine else max(3, args.n - 1)
        cluster = ConsensusCluster(cls, n=n, byzantine=byzantine,
                                   seed=args.seed)
        for i in range(args.txs):
            cluster.submit(f"{name}-{i}")
        ok = cluster.run_until_decided(args.txs, timeout=120)
        rows.append(
            {
                "protocol": name,
                "n": n,
                "fault_model": "byzantine" if byzantine else "crash",
                "decided": ok,
                "msgs_per_decision": round(
                    cluster.message_count() / max(1, args.txs), 1
                ),
            }
        )
    print_table(rows, title=f"consensus protocols ({args.txs} decisions)")


def cmd_resilience(args) -> None:
    from repro.bench.resilience import resilience_cases, sweep_resilience

    protocols = args.protocols.split(",") if args.protocols else None
    cases = resilience_cases(protocols)
    rows = sweep_resilience(cases, workers=args.workers or env_workers())
    display = [
        {
            "case": row["case"],
            "model": row["fault_model"],
            "recovered": row["recovered"],
            "t_recover": row["time_to_recover"]
            if row["time_to_recover"] is not None
            else "-",
            "committed": row["committed"],
            "during_fault": row["decided_during_fault"],
            "tput": row["throughput"],
            "safe": row["safety_ok"],
        }
        for row in rows
    ]
    print_table(
        display, title="resilience: crash / partition / loss fault regimes"
    )


def cmd_gateway(args) -> None:
    """Open-loop offered-load sweep through the front-door gateway.

    Each cell fires a Poisson arrival schedule (ramp + steady phases,
    Zipf-skewed clients) through the admission tier into one
    architecture and reports end-to-end p50/p95/p99 latency, goodput,
    and the shed accounting — push ``--loads`` past an architecture's
    capacity to see the saturation knee.
    """
    from repro.gateway import GatewayConfig, GatewayRun
    from repro.workloads.openloop import (
        OpenLoopConfig,
        OpenLoopWorkload,
        ramp_steady_burst,
    )

    names = (
        sorted(SYSTEMS) if args.systems == "all"
        else args.systems.split(",")
    )
    loads = [float(x) for x in args.loads.split(",")]
    rows = []
    for name in names:
        for load in loads:
            workload = OpenLoopWorkload(OpenLoopConfig(
                clients=args.clients,
                invalid_fraction=args.invalid,
                phases=ramp_steady_burst(load, steady=args.duration),
                seed=args.seed,
            ))
            run = GatewayRun(
                name,
                workload,
                gateway_config=GatewayConfig(
                    rate=args.client_rate,
                    burst=10.0,
                    queue_capacity=args.queue,
                    max_in_flight=args.in_flight,
                    max_retries=args.retries,
                ),
                system_config=SystemConfig(
                    seed=args.seed,
                    max_time=workload.config.duration + 60.0,
                ),
            )
            report = run.run()
            row = report.to_row()
            row["fingerprint"] = report.fingerprint[:12]
            rows.append(row)
    print_table(
        rows, title="end-to-end latency through the gateway (open loop)"
    )


_SHARD_SYSTEMS = {
    "sharper": SharPerSystem,
    "ahl": AhlSystem,
    "saguaro": SaguaroSystem,
    "resilientdb": ResilientDbSystem,
}


def cmd_shard(args) -> None:
    rows = []
    for name, cls in _SHARD_SYSTEMS.items():
        workload = SmallBankWorkload(
            n_customers=200, n_shards=args.clusters,
            cross_shard_fraction=args.cross, seed=args.seed,
        )

        def shard_of_key(key, wl=workload):
            return wl.shard_of(key.split(":")[1])

        config_cls = SaguaroConfig if name == "saguaro" else ShardedConfig
        system = cls(
            smallbank_registry(), shard_of_key,
            config_cls(n_clusters=args.clusters, seed=args.seed),
        )
        for tx in workload.setup_transactions() + workload.generate(args.txs):
            system.submit(tx)
        result = system.run()
        rows.append(
            {
                "system": name,
                "committed": result.committed,
                "throughput_tps": round(result.throughput, 1),
                "intra_latency": round(result.extra["intra_mean_latency"], 4),
                "cross_latency": round(result.extra["cross_mean_latency"], 4),
            }
        )
    print_table(
        rows,
        title=f"sharded systems ({args.clusters} clusters, "
        f"{args.cross:.0%} cross-shard)",
    )


def _scenario_from_args(args) -> ScenarioSpec:
    flags = []
    if getattr(args, "ghost_timers", False):
        flags.append("ghost-timers")
    if getattr(args, "torn_disk", False):
        flags.append("torn-disk")
    if getattr(args, "lying_disk", False):
        flags.append("lying-disk")
    if getattr(args, "paged", False):
        flags.append("paged")
    if getattr(args, "tiered", False):
        flags.append("tiered")
    if getattr(args, "spill", False):
        flags.append("spill")
    flags = tuple(flags)
    return ScenarioSpec(
        target=args.target,
        protocol=args.protocol,
        architecture=args.architecture,
        n=args.n,
        txs=args.txs,
        seed=0,  # per-run seeds come from the campaign master seed
        flags=flags,
    )


def _save_failure_capsules(failures, save_dir: str) -> list[str]:
    directory = Path(save_dir)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for failure in failures:
        capsule = failure["capsule"]
        seed = capsule["scenario"]["seed"]
        name = f"capsule-{capsule['scenario']['protocol']}-{seed}.json"
        paths.append(str(save_capsule(directory / name, capsule)))
    return paths


def cmd_fuzz(args) -> int:
    """Seeded fuzz campaign; output is byte-identical for equal args."""
    config = FuzzConfig(
        scenario=_scenario_from_args(args),
        runs=args.runs,
        seed=args.seed,
        max_faults=args.max_faults,
        shrink=not args.no_shrink,
    )
    report = run_fuzz(config)
    print(json.dumps(report.to_jsonable(), indent=2, sort_keys=True))
    if report.failures and args.save_dir:
        for path in _save_failure_capsules(report.failures, args.save_dir):
            print(f"saved: {path}", file=sys.stderr)
    return 1 if report.violations else 0


def cmd_explore(args) -> int:
    """Bounded deterministic sweep of the perturbation axes."""
    scenario = _scenario_from_args(args)
    axes = default_axes(scenario, density=args.density)
    report = explore(scenario, axes, budget=args.budget)
    print(json.dumps(report.to_jsonable(), indent=2, sort_keys=True))
    if report.failures and args.save_dir:
        for path in _save_failure_capsules(report.failures, args.save_dir):
            print(f"saved: {path}", file=sys.stderr)
    return 1 if report.violations else 0


def _disk_drill(args) -> dict:
    """Multi-node crash/restart drill against real files under
    ``--data-dir``.

    One seeded schedule drives ``--n`` independent durable nodes, each
    against its own subdirectory: every node commits the canonical
    chain through :meth:`DurableLedger.apply_block` on an :class:`OsBackend`
    (spilling snapshots on the configured interval, plus any overlay
    byte budget), crashes at seeded block heights (dropping the open
    handles, exactly the process-death model), recovers with a *fresh*
    ledger — replaying its WAL tail and garbage-collecting orphaned run
    files — and resumes from the recovered height. The report carries
    per-node replay/orphan-GC telemetry; the drill passes iff every
    node ends with the canonical tip hash and the no-crash serial
    state root.
    """
    import random as random_module

    from repro.execution.contracts import standard_registry
    from repro.ledger.store import STORE_COUNTERS
    from repro.storage import (
        DurableLedger,
        OsBackend,
        build_canonical_chain,
        release_data_dir,
        resolve_data_dir,
        state_root,
    )

    def make_ledger(backend) -> DurableLedger:
        return DurableLedger(
            backend,
            policy=args.policy,
            snapshot_interval=args.snapshot_interval,
            paged=args.paged,
            cache_bytes=args.cache_bytes,
            compaction=compaction,
            overlay_budget_bytes=args.overlay_budget,
        )

    base_dir = resolve_data_dir(args.data_dir)
    chain = build_canonical_chain(args.txs, args.seed)
    compaction = "tiered" if args.tiered else "full"
    # One seeded schedule: every node's crash heights come from this
    # RNG, so the whole drill is a pure function of (seed, txs, n).
    rng = random_module.Random(args.seed + 0xD121)
    crashes_per_node = max(0, min(args.drill_crashes, chain.height - 1))
    nodes: list[dict] = []
    held_dirs = [base_dir]
    try:
        for i in range(max(1, args.n)):
            node_dir = resolve_data_dir(base_dir / f"node{i}")
            held_dirs.append(node_dir)
            backend = OsBackend(node_dir)
            for name in backend.list():  # a re-run starts from scratch
                backend.delete(name)
            crash_heights = sorted(
                rng.sample(range(1, chain.height), crashes_per_node)
            ) if crashes_per_node else []
            ledger = make_ledger(backend)
            registry = standard_registry()
            budget_spills_before = STORE_COUNTERS["budget_spills"]
            pending = list(crash_heights)
            telemetry = {
                "recoveries": 0, "replayed": 0, "orphans_removed": 0,
                "torn": False, "resync": False,
            }
            root = ""
            while ledger.tail.height < chain.height:
                block = chain.block(ledger.tail.height + 1)
                root = ledger.apply_block(block, registry)
                if pending and block.height == pending[0]:
                    pending.pop(0)
                    ledger.backend.simulate_crash()
                    ledger = make_ledger(OsBackend(node_dir))
                    result = ledger.recover(standard_registry)
                    registry = standard_registry()
                    telemetry["recoveries"] += 1
                    telemetry["replayed"] += result.replayed
                    telemetry["orphans_removed"] += result.orphans_removed
                    telemetry["torn"] = telemetry["torn"] or result.torn
                    telemetry["resync"] = (
                        telemetry["resync"] or result.resync
                    )
            ledger.flush()
            # Final restart: the post-drill state must be recoverable
            # too, and the recovered store is what gets audited.
            ledger.backend.simulate_crash()
            final = make_ledger(OsBackend(node_dir)).recover(
                standard_registry
            )
            nodes.append({
                "node": f"node{i}",
                "data_dir": str(node_dir),
                "crash_heights": crash_heights,
                **telemetry,
                "final_replayed": final.replayed,
                "final_orphans_removed": final.orphans_removed,
                "budget_spills": (
                    STORE_COUNTERS["budget_spills"] - budget_spills_before
                ),
                "recovered_height": final.tail.height,
                "tip_matches": final.tail.tip_hash() == chain.tip_hash(),
                # With --paged this walks every key through the paged
                # read path — the strongest oracle equivalence check.
                "state_root_matches": state_root(final.store) == root,
            })
        return {
            "data_dir": str(base_dir),
            "blocks": chain.height,
            "paged": args.paged,
            "compaction": compaction,
            "overlay_budget_bytes": args.overlay_budget,
            "nodes": nodes,
            "all_match": all(
                node["tip_matches"] and node["state_root_matches"]
                for node in nodes
            ),
        }
    finally:
        for directory in held_dirs:
            release_data_dir(directory)


def cmd_recover(args) -> int:
    """Crash-restart recovery, end to end.

    Runs a seeded chaos schedule against a durable cluster — crash one
    node mid-stream, recover it, let it replay its WAL and catch back up
    — then audits the recovered ledger and state root against
    the no-crash serial oracle. With ``--data-dir`` it additionally
    runs a multi-node restart drill against real files: ``--n`` durable
    nodes, each crashed at seeded heights (``--drill-crashes`` per
    node) and restarted, with per-node WAL-replay and orphan-GC
    telemetry in the report. Exit 0 iff every audit is clean.
    """
    from repro.simtest.plan import FaultSpec, PlanSpec, _round
    from repro.simtest.scenarios import run_scenario

    flags = []
    if args.torn_disk:
        flags.append("torn-disk")
    if args.lying_disk:
        flags.append("lying-disk")
    if args.paged:
        flags.append("paged")
    if args.tiered:
        flags.append("tiered")
    if args.spill:
        flags.append("spill")
    scenario = ScenarioSpec(
        target="durable", n=args.n, txs=args.txs, seed=args.seed,
        flags=tuple(flags),
    )
    victim = scenario.replica_ids[0]
    plan = PlanSpec((
        FaultSpec(kind="crash", time=_round(args.crash_time), node=victim),
        FaultSpec(kind="recover", time=_round(args.recover_time),
                  node=victim),
    ))
    result = run_scenario(scenario, plan)
    summary = {
        "scenario": scenario.to_dict(),
        "plan": plan.to_jsonable(),
        "decided": result.decided,
        "committed_height": result.committed,
        "violations": result.violations,
    }
    ok = result.decided and not result.violations
    if args.data_dir:
        disk = _disk_drill(args)
        summary["disk"] = disk
        ok = ok and disk["all_match"]
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if ok else 1


def cmd_replay(args) -> int:
    """Re-run saved capsules; exit 0 iff every replay matches its
    ``expect`` field (violation capsules must still violate, clean
    capsules must still pass)."""
    exit_code = 0
    for path in args.capsules:
        result, capsule = replay_capsule(path)
        matched = replay_matches_expectation(result, capsule)
        expect = capsule.get("expect", "violation")
        got = "clean" if result.ok else "violation"
        status = "OK" if matched else "MISMATCH"
        print(f"{status}: {path} (expect={expect}, got={got})")
        for violation in result.violations:
            print("  " + violation.replace("\n", "\n  "))
        if not matched:
            exit_code = 1
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Permissioned blockchains (SIGMOD'21 tutorial) "
        "reproduction CLI",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="profile the command with cProfile and print the hotspots",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list runnable systems").set_defaults(
        fn=cmd_list
    )

    sub.add_parser(
        "claims", help="check every paper claim (E1-E24) and print the table"
    ).set_defaults(fn=cmd_claims)

    quickstart = sub.add_parser("quickstart", help="Figure 1 end to end")
    quickstart.add_argument("--txs", type=int, default=100)
    quickstart.add_argument("--seed", type=int, default=0)
    quickstart.set_defaults(fn=cmd_quickstart)

    compare = sub.add_parser("compare", help="compare the 7 architectures")
    compare.add_argument("--skew", type=float, default=0.9)
    compare.add_argument("--txs", type=int, default=200)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument(
        "--workers", type=int, default=0,
        help="fan systems out over N worker processes "
        "(default: $REPRO_BENCH_WORKERS, else serial)",
    )
    compare.set_defaults(fn=cmd_compare)

    exec_p = sub.add_parser(
        "exec",
        help="execute one block on the multi-core process-pool backend "
        "vs. the serial engine",
    )
    exec_p.add_argument("--txs", type=int, default=2000)
    exec_p.add_argument(
        "--workers", type=int, default=0,
        help="process-pool size (default: $REPRO_BENCH_WORKERS, else 1)",
    )
    exec_p.add_argument(
        "--workload", choices=("kv", "smallbank"), default="kv"
    )
    exec_p.add_argument("--skew", type=float, default=0.2)
    exec_p.add_argument("--seed", type=int, default=0)
    exec_p.set_defaults(fn=cmd_exec)

    consensus = sub.add_parser("consensus", help="compare the 6 protocols")
    consensus.add_argument("--n", type=int, default=4)
    consensus.add_argument("--txs", type=int, default=10)
    consensus.add_argument("--seed", type=int, default=0)
    consensus.set_defaults(fn=cmd_consensus)

    shard = sub.add_parser("shard", help="compare the 4 sharded systems")
    shard.add_argument("--clusters", type=int, default=4)
    shard.add_argument("--cross", type=float, default=0.15)
    shard.add_argument("--txs", type=int, default=150)
    shard.add_argument("--seed", type=int, default=0)
    shard.set_defaults(fn=cmd_shard)

    resilience = sub.add_parser(
        "resilience",
        help="sweep crash/partition/loss faults over the 6 protocols",
    )
    resilience.add_argument(
        "--protocols", default="",
        help="comma-separated subset (default: all six)",
    )
    resilience.add_argument(
        "--workers", type=int, default=0,
        help="fan fault cases out over N worker processes "
        "(default: $REPRO_BENCH_WORKERS, else serial)",
    )
    resilience.set_defaults(fn=cmd_resilience)

    gateway = sub.add_parser(
        "gateway",
        help="open-loop end-to-end latency through the admission tier",
    )
    gateway.add_argument(
        "--systems", default="ox",
        help="comma-separated architectures, or 'all'",
    )
    gateway.add_argument(
        "--loads", default="250,500,1000,2000",
        help="comma-separated offered loads (tx/s)",
    )
    gateway.add_argument("--duration", type=float, default=2.0,
                         help="steady-phase length per cell (sim seconds)")
    gateway.add_argument("--clients", type=int, default=100_000,
                         help="simulated client population")
    gateway.add_argument("--client-rate", type=float, default=100.0,
                         help="per-client token-bucket refill (tx/s)")
    gateway.add_argument("--queue", type=int, default=300,
                         help="gateway batch-queue capacity")
    gateway.add_argument("--in-flight", type=int, default=600,
                         help="gateway end-to-end admission window")
    gateway.add_argument("--retries", type=int, default=0,
                         help="client retries after a retryable shed")
    gateway.add_argument("--invalid", type=float, default=0.0,
                         help="fraction of forged-signature submissions")
    gateway.add_argument("--seed", type=int, default=0)
    gateway.set_defaults(fn=cmd_gateway)

    def add_scenario_args(p) -> None:
        p.add_argument(
            "--target",
            choices=("consensus", "system", "durable", "gateway"),
            default="consensus",
        )
        p.add_argument("--protocol", default="raft",
                       help="consensus protocol (and system orderer)")
        p.add_argument("--architecture", default="xov",
                       help="system architecture "
                       "(with --target system/gateway)")
        p.add_argument("--n", type=int, default=4, help="cluster size")
        p.add_argument("--txs", type=int, default=4)
        p.add_argument(
            "--ghost-timers", action="store_true",
            help="re-introduce the fixed ghost-timer kernel bug "
            "(regression target for the fuzzer itself)",
        )
        p.add_argument(
            "--torn-disk", action="store_true",
            help="durable target: inject partial writes and bit flips "
            "into the storage backend",
        )
        p.add_argument(
            "--lying-disk", action="store_true",
            help="durable target: fsyncs may report success without "
            "persisting",
        )
        p.add_argument(
            "--paged", action="store_true",
            help="durable target: recovery serves reads straight from "
            "blocked run files (paged store) instead of materializing",
        )
        p.add_argument(
            "--tiered", action="store_true",
            help="durable target: size-tiered band compaction instead "
            "of full merges",
        )
        p.add_argument(
            "--spill", action="store_true",
            help="durable target: tiny overlay byte budget forcing "
            "mid-interval snapshot spills",
        )
        p.add_argument(
            "--save-dir", default="",
            help="write a repro capsule per failure into this directory",
        )

    fuzz = sub.add_parser(
        "fuzz", help="seeded random fault-plan fuzzing with auto-shrink"
    )
    add_scenario_args(fuzz)
    fuzz.add_argument("--runs", type=int, default=50)
    fuzz.add_argument("--seed", type=int, default=0,
                      help="campaign master seed (fixes the whole run)")
    fuzz.add_argument("--max-faults", type=int, default=4)
    fuzz.add_argument("--no-shrink", action="store_true")
    fuzz.set_defaults(fn=cmd_fuzz)

    explore_p = sub.add_parser(
        "explore", help="bounded enumeration of schedule perturbations"
    )
    add_scenario_args(explore_p)
    explore_p.add_argument("--budget", type=int, default=100,
                           help="max plans to enumerate")
    explore_p.add_argument("--density", type=int, default=3,
                           help="crash-time samples per victim")
    explore_p.set_defaults(fn=cmd_explore)

    recover = sub.add_parser(
        "recover",
        help="crash-restart a durable node and audit WAL-replay recovery",
    )
    recover.add_argument("--n", type=int, default=3, help="durable nodes")
    recover.add_argument("--txs", type=int, default=12)
    recover.add_argument("--seed", type=int, default=0)
    recover.add_argument("--crash-time", type=float, default=0.9)
    recover.add_argument("--recover-time", type=float, default=1.6)
    recover.add_argument(
        "--torn-disk", action="store_true",
        help="inject partial writes and bit flips",
    )
    recover.add_argument(
        "--lying-disk", action="store_true",
        help="fsyncs may report success without persisting",
    )
    recover.add_argument(
        "--paged", action="store_true",
        help="recover into a paged store reading blocked run files "
        "directly (larger-than-RAM state path)",
    )
    recover.add_argument(
        "--tiered", action="store_true",
        help="size-tiered band compaction instead of full merges",
    )
    recover.add_argument(
        "--spill", action="store_true",
        help="tiny overlay byte budget forcing mid-interval spills "
        "(simulated cluster only; --data-dir uses --overlay-budget)",
    )
    recover.add_argument(
        "--cache-bytes", type=int, default=4 * 1024 * 1024,
        help="block-cache byte budget for --paged (default 4MB)",
    )
    recover.add_argument(
        "--data-dir", default="",
        help="also run the multi-node restart drill through real files "
        "in this directory (one subdirectory per node)",
    )
    recover.add_argument(
        "--policy", default="group:2",
        help="fsync policy for --data-dir: per-block, group:N, or async",
    )
    recover.add_argument("--snapshot-interval", type=int, default=3)
    recover.add_argument(
        "--overlay-budget", type=int, default=0,
        help="--data-dir drill: overlay byte budget; past it the ledger "
        "spills a snapshot early (0 = unbounded)",
    )
    recover.add_argument(
        "--drill-crashes", type=int, default=2,
        help="--data-dir drill: seeded crash/restart cycles per node",
    )
    recover.set_defaults(fn=cmd_recover)

    replay = sub.add_parser(
        "replay", help="re-run saved repro capsules and check expectations"
    )
    replay.add_argument("capsules", nargs="+", metavar="capsule.json")
    replay.set_defaults(fn=cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with profiled(enabled=args.profile):
        code = args.fn(args)
    return int(code or 0)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
