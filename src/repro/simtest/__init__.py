"""Deterministic simulation testing (DST) for the reproduction.

In the style of TigerBeetle's VOPR and FoundationDB's simulator: because
every run of the discrete-event simulator is bit-for-bit deterministic
under a (seed, fault plan) pair, testing becomes *search* — enumerate or
randomly compose fault schedules, run the system under its registered
safety invariants, and when an invariant breaks, shrink the schedule to
a minimal reproducer and freeze it as a JSON "repro capsule" that
``python -m repro replay`` can re-run forever.

Layers:

* :mod:`repro.simtest.plan` — a JSON-serializable fault-plan spec that
  compiles to the chaos engine's :class:`~repro.sim.faults.FaultPlan`.
* :mod:`repro.simtest.scenarios` — one (scenario, plan) run: build a
  consensus cluster or a full architecture, inject, check invariants.
* :mod:`repro.simtest.explorer` — bounded enumeration of schedule
  perturbations (crash time × victim × partition × message fault).
* :mod:`repro.simtest.fuzzer` — seeded random-walk fault composition
  with budgeted run counts.
* :mod:`repro.simtest.shrink` — delta-debugging + time bisection down
  to a minimal failing plan (exact, thanks to determinism).
* :mod:`repro.simtest.capsule` — repro-capsule record/replay.
"""

from repro.simtest.capsule import (
    capsule_from,
    load_capsule,
    replay_capsule,
    replay_matches_expectation,
    save_capsule,
)
from repro.simtest.explorer import ExplorationAxes, default_axes, explore
from repro.simtest.fuzzer import FuzzConfig, assert_plan_holds, random_plan, run_fuzz
from repro.simtest.plan import FaultSpec, PlanSpec
from repro.simtest.scenarios import (
    FLAGS,
    TARGETS,
    ScenarioResult,
    ScenarioSpec,
    run_scenario,
)
from repro.simtest.shrink import shrink_plan

__all__ = [
    "FLAGS",
    "TARGETS",
    "ExplorationAxes",
    "FaultSpec",
    "FuzzConfig",
    "PlanSpec",
    "ScenarioResult",
    "ScenarioSpec",
    "assert_plan_holds",
    "capsule_from",
    "default_axes",
    "explore",
    "load_capsule",
    "random_plan",
    "replay_capsule",
    "replay_matches_expectation",
    "run_fuzz",
    "save_capsule",
    "shrink_plan",
]
