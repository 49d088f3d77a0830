"""Property-based consensus fuzzing, routed through the DST engine.

Hypothesis supplies the schedule parameters (victims, fault windows,
seeds); :func:`repro.simtest.assert_plan_holds` supplies deterministic
execution under the registered safety monitors plus *fault-level*
shrinking — a failing example is reduced to a minimal fault plan and
reported as a JSON repro capsule that ``python -m repro replay`` can
re-run, independently of hypothesis's own input shrinking.

The invariants all of section 2.2 rests on, now checked for every one
of the six protocols: within-budget schedules never break liveness, and
no schedule — within budget or not — ever breaks safety.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus import PROTOCOLS
from repro.simtest import (
    FaultSpec,
    PlanSpec,
    assert_plan_holds,
    random_plan,
    run_scenario,
)
from repro.simtest.scenarios import ScenarioSpec

#: Byzantine protocols need n=4 for f=1; CFT protocols run at n=4 too
#: (f=1), so one schedule vocabulary covers all six.
ALL_PROTOCOLS = sorted(PROTOCOLS)

seeds = st.integers(min_value=0, max_value=2**16)


def _scenario(protocol: str, seed: int, **overrides) -> ScenarioSpec:
    return ScenarioSpec(protocol=protocol, n=4, txs=4, seed=seed, **overrides)


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
@given(
    victim=st.integers(min_value=0, max_value=2),
    crash_time=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    recover_after=st.floats(min_value=0.3, max_value=2.0, allow_nan=False),
    seed=seeds,
)
@settings(max_examples=6, deadline=None)
def test_single_crash_any_time_keeps_safety_and_liveness(
    protocol, victim, crash_time, recover_after, seed
):
    """n=4 tolerates one crash whenever it happens, for all six
    protocols — and the crashed replica may come back mid-run."""
    at = round(max(crash_time, 1e-4), 4)
    plan = PlanSpec((
        FaultSpec(kind="crash", time=at, node=f"r{victim}"),
        FaultSpec(
            kind="recover", time=round(at + recover_after, 4),
            node=f"r{victim}",
        ),
    ))
    assert_plan_holds(_scenario(protocol, seed), plan)


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
@given(
    start=st.floats(min_value=0.0, max_value=1.5, allow_nan=False),
    width=st.floats(min_value=0.3, max_value=2.0, allow_nan=False),
    lonely=st.integers(min_value=0, max_value=3),
    seed=seeds,
)
@settings(max_examples=6, deadline=None)
def test_partition_window_heals_and_run_decides(
    protocol, start, width, lonely, seed
):
    """Any minority partition that heals leaves liveness intact."""
    members = [f"r{i}" for i in range(4)]
    alone = members.pop(lonely)
    plan = PlanSpec((
        FaultSpec(
            kind="partition",
            time=round(start, 4),
            end=round(start + width, 4),
            groups=(tuple(members), (alone,)),
        ),
    ))
    assert_plan_holds(_scenario(protocol, seed), plan)


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
@given(
    probability=st.floats(min_value=0.05, max_value=0.25, allow_nan=False),
    width=st.floats(min_value=0.5, max_value=2.5, allow_nan=False),
    seed=seeds,
)
@settings(max_examples=6, deadline=None)
def test_lossy_window_degrades_but_never_wedges(
    protocol, probability, width, seed
):
    """Bounded random message loss: retransmission paths must recover."""
    plan = PlanSpec((
        FaultSpec(
            kind="drop", time=0.0, end=round(width, 4),
            probability=round(probability, 4),
        ),
    ))
    assert_plan_holds(_scenario(protocol, seed), plan)


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
@given(seed=seeds, plan_seed=seeds)
@settings(max_examples=8, deadline=None)
def test_random_within_budget_plan_holds(protocol, seed, plan_seed):
    """The fuzzer's own plan generator, driven by hypothesis seeds: any
    within-budget composition of crashes, one partition, and message
    faults keeps both safety and liveness."""
    import random

    scenario = _scenario(protocol, seed)
    plan = random_plan(scenario, random.Random(plan_seed))
    assert_plan_holds(scenario, plan)


@pytest.mark.parametrize("seed,plan_seed", [(12429, 63753), (14477, 17119)])
def test_tendermint_laggards_finish_a_height_one_validator_left(
    seed, plan_seed
):
    """One crash plus message drops leave a single validator a height
    ahead. Catch-up needs f+1 validators ahead to vouch, so the laggards
    finish the height only because the one ahead answers their stale
    proposals and prevotes with the precommits that decided it."""
    import random

    scenario = _scenario("tendermint", seed)
    plan = random_plan(scenario, random.Random(plan_seed))
    result = run_scenario(scenario, plan)
    assert result.ok, result.violations


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
@given(seed=seeds)
@settings(max_examples=4, deadline=None)
def test_beyond_budget_stalls_but_never_forks(protocol, seed):
    """Two crashes at n=4 exceed every protocol's budget: progress may
    stop, but safety is unconditional — the survivors' logs must never
    diverge. Liveness is explicitly waived for this scenario."""
    scenario = _scenario(
        protocol, seed, require_liveness=False, timeout=8.0,
    )
    plan = PlanSpec((
        FaultSpec(kind="crash", time=0.2, node="r0"),
        FaultSpec(kind="crash", time=0.4, node="r1"),
    ))
    result = run_scenario(scenario, plan)
    assert not result.violations, result.violations
