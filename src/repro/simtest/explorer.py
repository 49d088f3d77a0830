"""Bounded enumeration of schedule perturbations.

Where the fuzzer samples, the explorer *sweeps*: the cartesian product
of crash time × victim × partition window × message-fault predicate —
each axis drawn from the :class:`~repro.sim.faults.FaultPlan`
vocabulary — enumerated in a deterministic order up to a plan budget.
This is the systematic half of the DST story (small schedules,
exhaustively), complementing the fuzzer's random walk (large schedules,
sampled); a cheap, idea-level cousin of the exhaustive interleaving
search in model checkers like TLC, made affordable by determinism.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.simtest.plan import FaultSpec, PlanSpec
from repro.simtest.scenarios import ScenarioSpec, run_scenario


@dataclass(frozen=True)
class ExplorationAxes:
    """The bounded perturbation space, one tuple per axis.

    ``None`` entries mean "this axis contributes nothing for this
    combination", so every axis always includes a no-op choice and the
    sweep covers single-fault schedules too.
    """

    crash_times: tuple[float, ...] = ()
    victims: tuple[str, ...] = ()
    #: (start, end, (group, group)) partition windows; None = none.
    partitions: tuple[tuple[float, float, tuple[tuple[str, ...], ...]] | None, ...] = (None,)
    #: (kind, start, end, src, dst, message_type, probability) message
    #: faults; None = none.
    message_faults: tuple[tuple[str, float, float, str | None, str | None, str | None, float] | None, ...] = (None,)
    #: Recovery delay applied after each crash (None = never recover).
    recover_after: float | None = 2.0


def default_axes(scenario: ScenarioSpec, density: int = 3) -> ExplorationAxes:
    """A sensible bounded sweep for ``scenario``.

    ``density`` controls how many crash times are sampled across the
    first few virtual seconds; victims are the scenario's
    ``crash_candidates`` (never an observation point), and the
    partition's first half also holds its ``extra_nodes``.
    """
    replicas = list(scenario.replica_ids)
    times = tuple(
        round(0.25 + i * (2.0 / max(1, density - 1)), 4)
        for i in range(density)
    )
    half = len(replicas) // 2
    partitions = (
        None,
        (0.5, 2.5, (tuple(replicas[:half]) + scenario.extra_nodes,
                    tuple(replicas[half:]))),
    )
    message_faults = (
        None,
        ("drop", 0.0, 2.0, None, replicas[0], None, 0.2),
        ("delay", 0.0, 3.0, None, None, None, 0.5),
    )
    return ExplorationAxes(
        crash_times=times,
        victims=scenario.crash_candidates,
        partitions=partitions,
        message_faults=message_faults,
    )


def enumerate_plans(axes: ExplorationAxes) -> Iterator[PlanSpec]:
    """Yield every combination of the axes as a concrete plan spec.

    Crash choices are (time × victim) plus the no-crash choice; plans
    that would be entirely empty are skipped.
    """
    crash_choices: list[tuple[float, str] | None] = [None]
    crash_choices.extend(
        (time, victim)
        for time in axes.crash_times
        for victim in axes.victims
    )
    for crash, partition, message in itertools.product(
        crash_choices, axes.partitions, axes.message_faults
    ):
        faults: list[FaultSpec] = []
        if crash is not None:
            time, victim = crash
            faults.append(FaultSpec(kind="crash", time=time, node=victim))
            if axes.recover_after is not None:
                faults.append(FaultSpec(
                    kind="recover",
                    time=round(time + axes.recover_after, 4),
                    node=victim,
                ))
        if partition is not None:
            start, end, groups = partition
            faults.append(FaultSpec(
                kind="partition", time=start, end=end, groups=groups
            ))
        if message is not None:
            kind, start, end, src, dst, message_type, probability = message
            faults.append(FaultSpec(
                kind=kind, time=start, end=end, src=src, dst=dst,
                message_type=message_type, probability=probability,
                extra=0.02 if kind in ("delay", "reorder") else 0.0,
            ))
        if not faults:
            continue
        faults.sort(key=lambda f: (f.time, f.kind, f.node or ""))
        yield PlanSpec(tuple(faults))


@dataclass
class ExploreReport:
    """Deterministic sweep summary."""

    plans: int = 0
    violations: int = 0
    failures: list[dict[str, Any]] = field(default_factory=list)

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "plans": self.plans,
            "violations": self.violations,
            "failures": self.failures,
        }


def explore(
    scenario: ScenarioSpec,
    axes: ExplorationAxes | None = None,
    budget: int = 100,
    max_failures: int = 5,
) -> ExploreReport:
    """Run up to ``budget`` enumerated perturbations of ``scenario``."""
    from repro.simtest.capsule import capsule_from

    axes = axes or default_axes(scenario)
    report = ExploreReport()
    for plan in itertools.islice(enumerate_plans(axes), budget):
        report.plans += 1
        result = run_scenario(scenario, plan)
        if result.ok:
            continue
        report.violations += 1
        if len(report.failures) < max_failures:
            report.failures.append({
                "plan": plan.to_jsonable(),
                "violations": result.violations,
                "capsule": capsule_from(
                    scenario, plan, violations=result.violations
                ),
            })
    return report
