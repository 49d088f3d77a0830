"""The DST engine itself: plan specs, scenario runs, fuzzer/explorer
determinism, and the ``python -m repro`` fuzz/replay/explore plumbing."""

import json

import pytest

from repro.bench.profiling import hotpath_counters, reset_hotpath_counters
from repro.cli import main
from repro.common.errors import ConfigError
from repro.simtest import (
    FaultSpec,
    FuzzConfig,
    PlanSpec,
    ScenarioSpec,
    capsule_from,
    default_axes,
    explore,
    random_plan,
    run_fuzz,
    run_scenario,
    save_capsule,
)
from repro.simtest.explorer import enumerate_plans
from repro.simtest.scenarios import FUZZABLE_ARCHITECTURES


class TestPlanSpec:
    def test_roundtrips_through_json(self):
        plan = PlanSpec((
            FaultSpec(kind="crash", time=0.5, node="r1"),
            FaultSpec(kind="partition", time=1.0, end=2.0,
                      groups=(("r0", "r1"), ("r2", "r3"))),
            FaultSpec(kind="drop", time=0.0, end=3.0, src="r0",
                      probability=0.25),
            FaultSpec(kind="duplicate", time=0.1, end=0.9, copies=2,
                      probability=0.5),
        ))
        wire = json.dumps(plan.to_jsonable())
        assert PlanSpec.from_jsonable(json.loads(wire)) == plan

    def test_invalid_specs_are_rejected(self):
        with pytest.raises(ConfigError):
            FaultSpec(kind="crash", time=0.0)  # no node
        with pytest.raises(ConfigError):
            FaultSpec(kind="drop", time=0.0)  # no window end
        with pytest.raises(ConfigError):
            FaultSpec(kind="meteor", time=0.0)

    def test_compiles_to_executable_fault_plan(self):
        plan = PlanSpec((
            FaultSpec(kind="crash", time=0.5, node="r1"),
            FaultSpec(kind="delay", time=0.0, end=1.0, extra=0.01),
        ))
        assert plan.build() is not plan.build(), "must be fresh per run"


class TestStepHook:
    def test_kernel_step_advances_one_event_at_a_time(self):
        from repro.sim.core import Simulation

        sim = Simulation(seed=0)
        fired = []
        for i in range(3):
            sim.schedule_at(0.1 * (i + 1), fired.append, i)
        assert sim.step() == 1 and fired == [0]
        assert sim.step(2) == 2 and fired == [0, 1, 2]
        assert sim.step() == 0  # queue drained
        assert sim.step(0) == 0

    def test_negative_step_limit_rejected(self):
        from repro.sim.core import Simulation

        with pytest.raises(ConfigError):
            Simulation(seed=0).step(-1)


class TestScenarioRunner:
    def test_fault_free_consensus_run_is_clean(self):
        result = run_scenario(
            ScenarioSpec(protocol="raft", n=4, txs=3, seed=5), PlanSpec()
        )
        assert result.ok and not result.violations

    def test_within_budget_crash_still_decides(self):
        plan = PlanSpec((FaultSpec(kind="crash", time=0.1, node="r0"),))
        result = run_scenario(
            ScenarioSpec(protocol="pbft", n=4, txs=3, seed=5), plan
        )
        assert result.ok, result.violations

    def test_system_target_runs_under_faults(self):
        plan = PlanSpec((
            FaultSpec(kind="delay", time=0.0, end=1.0, extra=0.01),
        ))
        result = run_scenario(
            ScenarioSpec(target="system", architecture="xov", txs=12,
                         seed=5),
            plan,
        )
        assert result.ok, result.violations
        assert result.committed > 0

    def test_unknown_target_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioSpec(target="cloud")

    def test_scenario_roundtrips(self):
        spec = ScenarioSpec(
            target="system", architecture="oxii", protocol="pbft",
            txs=8, seed=3, flags=(), invariants=(),
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_all_architectures_are_fuzzable(self):
        for arch in FUZZABLE_ARCHITECTURES:
            result = run_scenario(
                ScenarioSpec(target="system", architecture=arch, txs=8,
                             seed=2),
                PlanSpec(),
            )
            assert result.ok, (arch, result.violations)


class TestDeterminism:
    def test_fuzz_report_is_a_pure_function_of_config(self):
        config = FuzzConfig(
            scenario=ScenarioSpec(protocol="raft", n=4, txs=3, seed=0),
            runs=6, seed=7,
        )
        first = run_fuzz(config).to_jsonable()
        second = run_fuzz(config).to_jsonable()
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_random_plans_are_seed_deterministic(self):
        import random

        scenario = ScenarioSpec(protocol="pbft", n=4, txs=4, seed=0)
        a = random_plan(scenario, random.Random(99))
        b = random_plan(scenario, random.Random(99))
        assert a == b

    def test_random_plans_stay_within_crash_budget(self):
        import random

        scenario = ScenarioSpec(protocol="pbft", n=4, txs=4, seed=0)
        for plan_seed in range(40):
            plan = random_plan(scenario, random.Random(plan_seed))
            crashes = sum(1 for f in plan.faults if f.kind == "crash")
            assert crashes <= scenario.fault_budget
            submitter = scenario.replica_ids[-1]
            assert all(
                f.node != submitter
                for f in plan.faults
                if f.kind == "crash"
            )

    def test_explorer_enumeration_is_stable(self):
        scenario = ScenarioSpec(protocol="raft", n=4, txs=3, seed=0)
        axes = default_axes(scenario)
        first = [p.to_jsonable() for p in enumerate_plans(axes)]
        second = [p.to_jsonable() for p in enumerate_plans(axes)]
        assert first == second
        assert len(first) > 10

    def test_explore_clean_protocol_reports_no_violations(self):
        report = explore(
            ScenarioSpec(protocol="raft", n=4, txs=3, seed=1), budget=6
        )
        assert report.plans == 6
        assert report.violations == 0


#: One scenario per DST target, at the sizes the CLI defaults to.
TARGET_SCENARIOS = (
    ScenarioSpec(target="consensus", protocol="pbft"),
    ScenarioSpec(target="consensus", protocol="raft", n=5),
    ScenarioSpec(target="system", architecture="xov"),
    ScenarioSpec(target="durable"),
    ScenarioSpec(target="gateway", architecture="ox"),
)


def registered_nodes(scenario):
    """Every node id the target's world registers on its network, built
    directly rather than through the scenario tables under test."""
    from repro.consensus import PROTOCOLS, ConsensusCluster
    from repro.core import SYSTEMS, SystemConfig
    from repro.gateway import GatewayRun
    from repro.storage.durable import DurableCluster
    from repro.workloads.openloop import OpenLoopConfig, OpenLoopWorkload, Phase

    n = scenario.cluster_n
    if scenario.target == "consensus":
        cls, byzantine = PROTOCOLS[scenario.protocol]
        network = ConsensusCluster(cls, n=n, byzantine=byzantine).network
    elif scenario.target == "durable":
        network = DurableCluster(n=n, txs=4).network
    else:
        config = SystemConfig(orderers=n, protocol=scenario.protocol)
        if scenario.target == "system":
            system = SYSTEMS[scenario.architecture](config)
        else:
            workload = OpenLoopWorkload(OpenLoopConfig(
                clients=4, phases=(Phase("steady", 0.1, 10.0),),
            ))
            system = GatewayRun(
                scenario.architecture, workload, system_config=config
            ).system
        network = system.cluster.network
    return set(network.node_ids)


def assert_plan_fits_world(scenario, plan, nodes):
    for fault in plan.faults:
        if fault.kind in ("crash", "recover"):
            assert fault.node in scenario.crash_candidates, fault
        if fault.kind == "partition":
            members = [node for group in fault.groups for node in group]
            assert len(members) == len(set(members)), fault
            assert set(members) == nodes, (scenario.target, fault)


class TestTargetTables:
    def test_crash_candidates_spare_each_observer(self):
        consensus, _, system, durable, gateway = TARGET_SCENARIOS
        assert consensus.crash_candidates == ("r0", "r1", "r2")
        assert system.crash_candidates == ("r1", "r2", "r3")
        assert gateway.crash_candidates == ("r1", "r2", "r3")
        assert durable.crash_candidates == ("d0", "d1", "d2", "d3")
        assert durable.extra_nodes == ("orderer",)
        assert durable.always_recover and not system.always_recover

    @pytest.mark.parametrize("scenario", TARGET_SCENARIOS, ids=[
        "consensus-pbft", "consensus-raft-n5", "system-xov", "durable",
        "gateway-ox",
    ])
    def test_generated_plans_fit_the_registered_world(self, scenario):
        import random

        nodes = registered_nodes(scenario)
        assert set(scenario.replica_ids) | set(scenario.extra_nodes) == nodes
        for plan_seed in range(60):
            plan = random_plan(
                scenario, random.Random(plan_seed), max_faults=6
            )
            assert_plan_fits_world(scenario, plan, nodes)
        for plan in enumerate_plans(default_axes(scenario)):
            assert_plan_fits_world(scenario, plan, nodes)

    def test_durable_plans_always_recover(self):
        import random

        scenario = ScenarioSpec(target="durable")
        for plan_seed in range(40):
            plan = random_plan(scenario, random.Random(plan_seed))
            crashed = {f.node for f in plan.faults if f.kind == "crash"}
            recovered = {f.node for f in plan.faults if f.kind == "recover"}
            assert crashed == recovered

    def test_unknown_flag_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="behaviour flags"):
            ScenarioSpec(flags=("meteor",))

    def test_cli_offers_exactly_the_flag_table(self):
        from repro.cli import build_parser
        from repro.simtest import FLAGS

        parser = build_parser()
        fuzz = parser.parse_args(
            ["fuzz"] + [f"--{name}" for name in FLAGS]
        )
        assert all(getattr(fuzz, n.replace("-", "_")) for n in FLAGS)
        storage = [name for name, flag in FLAGS.items() if flag.storage]
        recover = parser.parse_args(
            ["recover"] + [f"--{name}" for name in storage]
        )
        assert all(getattr(recover, n.replace("-", "_")) for n in storage)
        with pytest.raises(SystemExit):
            parser.parse_args(["recover", "--ghost-timers"])

    def test_cli_offers_exactly_seven_subcommands(self):
        import argparse

        from repro.cli import build_parser

        parser = build_parser()
        (sub,) = [
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert set(sub.choices) == {
            "list", "claims", "quickstart", "fuzz", "explore", "recover",
            "replay",
        }
        assert "--profile" not in parser._option_string_actions
        with pytest.raises(SystemExit):
            parser.parse_args(["--profile", "list"])


class TestCli:
    def test_explore_durable_target_runs_clean(self, capsys):
        # Explorer partitions once omitted the durable orderer and
        # crashed with a ConfigError before the first plan ran.
        assert main(
            ["explore", "--target", "durable", "--budget", "12"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["plans"] == 12

    def test_durable_spill_campaign_writes_and_merges_runs(self, capsys):
        # CI's --paged --tiered --spill line: with fewer committed blocks
        # than the snapshot interval it would never write a run, and the
        # tiering flag would test nothing.
        reset_hotpath_counters()
        assert main([
            "fuzz", "--target", "durable", "--runs", "8", "--seed", "19",
            "--paged", "--tiered", "--spill", "--txs", "40",
        ]) == 0
        assert json.loads(capsys.readouterr().out)["violations"] == 0
        counters = hotpath_counters()
        assert counters["store.overlay_spills"] >= 1
        assert sum(
            count for name, count in counters.items()
            if name.startswith("store.tier_compactions.")
        ) >= 1

    def test_fuzz_command_is_byte_identical(self, capsys):
        argv = ["fuzz", "--protocol", "raft", "--runs", "5", "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["runs"] == 5

    def test_ghost_fuzz_finds_saves_and_replays(self, tmp_path, capsys):
        # The whole acceptance loop in miniature: fuzz with the
        # re-introduced bug, fail, save a capsule, replay it, match.
        save_dir = tmp_path / "caps"
        code = main([
            "fuzz", "--protocol", "pbft", "--runs", "12", "--seed", "7",
            "--ghost-timers", "--save-dir", str(save_dir),
        ])
        assert code == 1, "ghost-timer bug must be found"
        report = json.loads(capsys.readouterr().out)
        assert report["violations"] >= 1
        assert all(f["shrunk_faults"] <= 2 for f in report["failures"])
        capsules = sorted(save_dir.glob("*.json"))
        assert capsules
        assert main(["replay", str(capsules[0])]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "expect=violation" in out

    def test_replay_flags_expectation_mismatch(self, tmp_path, capsys):
        # A capsule that claims "violation" for a fault-free clean run
        # must make replay exit nonzero.
        capsule = capsule_from(
            ScenarioSpec(protocol="raft", n=4, txs=2, seed=1),
            PlanSpec(),
            expect="violation",
        )
        path = save_capsule(tmp_path / "bogus.json", capsule)
        assert main(["replay", str(path)]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_explore_command_runs_clean(self, capsys):
        code = main([
            "explore", "--protocol", "raft", "--budget", "4",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["plans"] == 4
