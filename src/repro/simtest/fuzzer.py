"""Random-walk fault-plan fuzzing over the deterministic simulator.

:func:`run_fuzz` composes, from a single master seed, a budgeted series
of (simulation seed, fault plan) pairs — each plan a random but
*within-budget* combination of crashes/recoveries, one partition
window, and message-level faults from the :class:`FaultPlan` vocabulary
— runs every pair under the registered safety monitors, and shrinks
each violation to a minimal repro capsule. The whole campaign is a pure
function of its :class:`FuzzConfig`: two invocations produce
byte-identical reports, which is what lets CI pin fuzz jobs to fixed
seed ranges.

"Within budget" matters: consensus scenarios assert liveness, so the
generator never schedules more simultaneous crashes than the fault
model tolerates, always heals partitions, and keeps message-fault
windows bounded — any violation it finds is therefore a genuine bug,
not an over-budget schedule legitimately stalling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.simtest.capsule import capsule_from
from repro.simtest.plan import FaultSpec, PlanSpec, _round
from repro.simtest.scenarios import ScenarioSpec, run_scenario, violates
from repro.simtest.shrink import shrink_plan


@dataclass(frozen=True)
class FuzzConfig:
    """One fuzz campaign: scenario template × run budget × master seed."""

    scenario: ScenarioSpec
    runs: int = 50
    seed: int = 0
    max_faults: int = 4
    horizon: float = 4.0
    shrink: bool = True
    max_failures: int = 5


@dataclass
class FuzzReport:
    """Deterministic campaign summary."""

    runs: int = 0
    violations: int = 0
    faults_injected: int = 0
    failures: list[dict[str, Any]] = field(default_factory=list)

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "runs": self.runs,
            "violations": self.violations,
            "faults_injected": self.faults_injected,
            "failures": self.failures,
        }


def random_plan(scenario: ScenarioSpec, rng: random.Random,
                max_faults: int = 4, horizon: float = 4.0) -> PlanSpec:
    """Compose one within-budget fault plan from ``rng``.

    Crash victims are the scenario's ``crash_candidates``, within its
    fault budget; every crash may (usually does, and with
    ``always_recover`` always does) come with a later recovery; at most
    one partition window is scheduled and always heals, with the
    scenario's ``extra_nodes`` folded into the first group because
    :meth:`~repro.sim.network.Network.partition` requires every
    registered node in exactly one group; message faults are windowed
    with bounded probability so they degrade rather than sever.
    """
    replicas = list(scenario.replica_ids)
    budget = scenario.fault_budget
    faults: list[FaultSpec] = []
    n_faults = rng.randint(1, max(1, max_faults))
    crash_candidates = list(scenario.crash_candidates)
    rng.shuffle(crash_candidates)
    crashed = 0
    partitioned = False
    for _ in range(n_faults):
        kind = rng.choice(
            ("crash", "partition", "drop", "delay", "duplicate", "reorder")
        )
        if kind == "crash" and crashed < budget and crash_candidates:
            victim = crash_candidates.pop()
            crashed += 1
            at = _round(rng.uniform(0.05, horizon * 0.6))
            faults.append(FaultSpec(kind="crash", time=at, node=victim))
            # Draw the coin even when recovery is forced: skipping it
            # would shift every later draw of a durable campaign.
            if rng.random() < 0.75 or scenario.always_recover:
                back = _round(rng.uniform(at + 0.2, horizon))
                faults.append(
                    FaultSpec(kind="recover", time=back, node=victim)
                )
        elif kind == "partition" and not partitioned and len(replicas) >= 2:
            partitioned = True
            start = _round(rng.uniform(0.0, horizon * 0.5))
            end = _round(rng.uniform(start + 0.3, horizon))
            cut = rng.randint(1, len(replicas) - 1)
            members = list(replicas)
            rng.shuffle(members)
            first = members[:cut] + list(scenario.extra_nodes)
            groups = (tuple(sorted(first)), tuple(sorted(members[cut:])))
            faults.append(
                FaultSpec(kind="partition", time=start, end=end, groups=groups)
            )
        elif kind in ("drop", "delay", "duplicate", "reorder"):
            start = _round(rng.uniform(0.0, horizon * 0.7))
            end = _round(rng.uniform(start + 0.2, horizon))
            src = rng.choice([None, rng.choice(replicas)])
            dst = rng.choice([None, rng.choice(replicas)])
            if kind == "drop":
                faults.append(FaultSpec(
                    kind="drop", time=start, end=end, src=src, dst=dst,
                    probability=_round(rng.uniform(0.05, 0.3)),
                ))
            elif kind == "delay":
                faults.append(FaultSpec(
                    kind="delay", time=start, end=end, src=src, dst=dst,
                    probability=_round(rng.uniform(0.2, 1.0)),
                    extra=_round(rng.uniform(0.005, 0.05)),
                ))
            elif kind == "duplicate":
                faults.append(FaultSpec(
                    kind="duplicate", time=start, end=end, src=src, dst=dst,
                    probability=_round(rng.uniform(0.1, 0.5)),
                    copies=rng.randint(1, 2),
                ))
            else:
                faults.append(FaultSpec(
                    kind="reorder", time=start, end=end, src=src, dst=dst,
                    extra=_round(rng.uniform(0.01, 0.1)),
                ))
    if not faults:
        faults.append(FaultSpec(
            kind="delay", time=0.0, end=_round(horizon / 2), extra=0.01
        ))
    faults.sort(key=lambda f: (f.time, f.kind, f.node or ""))
    return PlanSpec(tuple(faults))


def run_fuzz(config: FuzzConfig) -> FuzzReport:
    """Run the campaign; shrink and capture every violation found."""
    master = random.Random(config.seed)
    report = FuzzReport()
    for index in range(config.runs):
        run_seed = master.randrange(2**31)
        plan_rng = random.Random(master.randrange(2**31))
        scenario = config.scenario.with_seed(run_seed)
        plan = random_plan(
            scenario, plan_rng,
            max_faults=config.max_faults, horizon=config.horizon,
        )
        report.runs += 1
        report.faults_injected += len(plan)
        result = run_scenario(scenario, plan)
        if result.ok:
            continue
        report.violations += 1
        if len(report.failures) >= config.max_failures:
            continue
        shrunk = plan
        if config.shrink:
            shrunk = shrink_plan(plan, lambda p: violates(scenario, p))
        final = run_scenario(scenario, shrunk)
        report.failures.append({
            "run_index": index,
            "seed": run_seed,
            "original_faults": len(plan),
            "shrunk_faults": len(shrunk),
            "violations": final.violations or result.violations,
            "capsule": capsule_from(
                scenario, shrunk,
                violations=final.violations or result.violations,
            ),
        })
    return report


def assert_plan_holds(scenario: ScenarioSpec, plan: PlanSpec) -> None:
    """Test-facing entry point: run, and on violation shrink first, then
    fail with the minimal repro capsule in the assertion message.

    This is how the hypothesis property tests route their execution and
    shrinking through the DST engine: hypothesis supplies strategy
    values, the engine supplies deterministic running and *fault-level*
    shrinking (hypothesis only shrinks its own inputs).
    """
    import json

    result = run_scenario(scenario, plan)
    if result.ok:
        return
    shrunk = shrink_plan(plan, lambda p: violates(scenario, p))
    final = run_scenario(scenario, shrunk)
    capsule = capsule_from(
        scenario, shrunk, violations=final.violations or result.violations
    )
    raise AssertionError(
        "invariant violation (minimal repro capsule below; save it and "
        "run `python -m repro replay capsule.json`):\n"
        + json.dumps(capsule, indent=2, sort_keys=True)
    )
