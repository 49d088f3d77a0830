"""Command-line interface: argparse over library calls.

    python -m repro list                 # what can run
    python -m repro claims               # every paper claim, checked
    python -m repro quickstart           # Figure 1 in one command
    python -m repro fuzz --protocol raft --runs 50 --seed 7
    python -m repro explore --protocol pbft --budget 60
    python -m repro recover --torn-disk  # crash-restart a durable node
    python -m repro replay capsule.json  # re-run a saved failing schedule

The architecture, protocol, sharding, fault-resilience, process-pool and
gateway comparisons are claims: ``claims`` runs and checks them all. To
see where a command spends its time, profile it:
``python -m cProfile -s cumulative -m repro claims``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.bench import print_table
from repro.common.types import Transaction
from repro.consensus import PROTOCOLS
from repro.core import SYSTEMS, OxSystem, SystemConfig
from repro.sharding import SYSTEMS as SHARDED_SYSTEMS
from repro.simtest import (
    FLAGS,
    TARGETS,
    FaultSpec,
    FuzzConfig,
    PlanSpec,
    ScenarioSpec,
    default_axes,
    explore,
    replay_capsule,
    replay_matches_expectation,
    run_fuzz,
    run_scenario,
    save_capsule,
)
from repro.storage import restart_drill

#: ``recover``'s chaos schedule: the first durable node crashes and
#: recovers at these virtual times.
RECOVER_CRASH_AT = 0.9
RECOVER_RESTART_AT = 1.6


def cmd_list(_args) -> None:
    from repro.bench.claims import CLAIMS

    print("architectures:", ", ".join(sorted(SYSTEMS)))
    print("consensus protocols:", ", ".join(sorted(PROTOCOLS)))
    print("sharded systems:", ", ".join(SHARDED_SYSTEMS))
    print(f"paper claims {CLAIMS[0].id}-{CLAIMS[-1].id} "
          f"({len(CLAIMS)}): python -m repro claims")


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


def _add_flag_args(parser, storage_only: bool = False) -> None:
    """One ``--<flag>`` switch per behaviour flag in the table."""
    for name, flag in FLAGS.items():
        if storage_only and not flag.storage:
            continue
        scope = "durable target: " if flag.storage and not storage_only else ""
        parser.add_argument(
            f"--{name}", action="store_true", help=scope + flag.help
        )


def _flags_from_args(args) -> tuple[str, ...]:
    """The behaviour flags switched on, in table order."""
    return tuple(
        name for name in FLAGS if getattr(args, name.replace("-", "_"), False)
    )


def _scenario_from_args(args) -> ScenarioSpec:
    return ScenarioSpec(
        target=args.target,
        protocol=args.protocol,
        architecture=args.architecture,
        n=args.n,
        txs=args.txs,
        seed=0,  # per-run seeds come from the campaign master seed
        flags=_flags_from_args(args),
    )


def _report(report, save_dir: str) -> int:
    """Print a fuzz/explore report, save a capsule per failure into
    ``save_dir``, and exit 1 on any violation."""
    print(json.dumps(report.to_jsonable(), indent=2, sort_keys=True))
    if report.failures and save_dir:
        directory = Path(save_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for failure in report.failures:
            capsule = failure["capsule"]
            seed = capsule["scenario"]["seed"]
            name = f"capsule-{capsule['scenario']['protocol']}-{seed}.json"
            path = save_capsule(directory / name, capsule)
            print(f"saved: {path}", file=sys.stderr)
    return 1 if report.violations else 0


def cmd_fuzz(args) -> int:
    """Seeded fuzz campaign; output is byte-identical for equal args."""
    config = FuzzConfig(
        scenario=_scenario_from_args(args),
        runs=args.runs,
        seed=args.seed,
        max_faults=args.max_faults,
        shrink=not args.no_shrink,
    )
    return _report(run_fuzz(config), args.save_dir)


def cmd_explore(args) -> int:
    """Bounded deterministic sweep of the perturbation axes."""
    scenario = _scenario_from_args(args)
    axes = default_axes(scenario, density=args.density)
    return _report(explore(scenario, axes, budget=args.budget), args.save_dir)


def cmd_recover(args) -> int:
    """Crash-restart recovery, end to end.

    Runs a seeded chaos schedule against a durable cluster — crash one
    node mid-stream, recover it, let it replay its WAL and catch back up
    — then audits the recovered ledger and state root against the
    no-crash serial oracle. With ``--data-dir`` it additionally runs
    :func:`repro.storage.restart_drill` on real files. Exit 0 iff every
    audit is clean.
    """
    scenario = ScenarioSpec(
        target="durable", n=args.n, txs=args.txs, seed=args.seed,
        flags=_flags_from_args(args),
    )
    victim = scenario.replica_ids[0]
    plan = PlanSpec((
        FaultSpec(kind="crash", time=RECOVER_CRASH_AT, node=victim),
        FaultSpec(kind="recover", time=RECOVER_RESTART_AT, node=victim),
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
        disk = restart_drill(
            args.data_dir,
            nodes=args.n,
            txs=args.txs,
            seed=args.seed,
            crashes_per_node=args.drill_crashes,
            snapshot_interval=args.snapshot_interval,
            paged=args.paged,
            tiered=args.tiered,
            overlay_budget=args.overlay_budget,
        )
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
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list runnable systems").set_defaults(
        fn=cmd_list
    )

    sub.add_parser(
        "claims", help="check every paper claim and print the table"
    ).set_defaults(fn=cmd_claims)

    quickstart = sub.add_parser("quickstart", help="Figure 1 end to end")
    quickstart.add_argument("--txs", type=int, default=100)
    quickstart.add_argument("--seed", type=int, default=0)
    quickstart.set_defaults(fn=cmd_quickstart)

    def add_scenario_args(p) -> None:
        p.add_argument("--target", choices=tuple(TARGETS), default="consensus")
        p.add_argument("--protocol", default="raft",
                       help="consensus protocol (and system orderer)")
        p.add_argument("--architecture", default="xov",
                       help="system architecture "
                       "(with --target system/gateway)")
        p.add_argument("--n", type=int, default=4, help="cluster size")
        p.add_argument("--txs", type=int, default=4)
        _add_flag_args(p)
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
    _add_flag_args(recover, storage_only=True)
    recover.add_argument(
        "--data-dir", default="",
        help="also run the multi-node restart drill through real files "
        "in this directory (one subdirectory per node)",
    )
    recover.add_argument("--snapshot-interval", type=int, default=3)
    recover.add_argument(
        "--overlay-budget", type=int, default=0,
        help="--data-dir drill: overlay byte budget; past it the ledger "
        "spills a snapshot early (0 = unbounded; --spill sets the "
        "simulated cluster's)",
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
    return int(args.fn(args) or 0)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
