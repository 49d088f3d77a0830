"""Multi-platform crowdworking workload (paper sections 2.1.3 / 2.3.2).

Workers contribute hours to tasks on several platforms. The regulatory
constraints the paper names — FLSA's 40-hour week and California
Prop 22's 25-hour healthcare threshold — are *global across platforms*:
no single platform can verify them alone, which is exactly the
verifiability problem Separ and the ZKP systems solve (experiment E5).

The generator emits work claims ``(worker, platform, task, hours)``,
with a tunable share of workers active on multiple platforms and a
tunable pressure on the weekly cap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.common.errors import ConfigError


#: FLSA: maximum work hours per worker per week.
FLSA_WEEKLY_CAP = 40
#: California Prop 22: healthcare subsidy threshold (hours/week).
PROP22_HEALTHCARE_THRESHOLD = 25


@dataclass(frozen=True)
class WorkClaim:
    """One unit of crowdwork: a worker books hours on a platform task."""

    worker: str
    platform: str
    task: str
    hours: int
    week: int = 0


@dataclass
class CrowdworkWorkload:
    """Stream of work claims across platforms.

    ``multi_platform_fraction`` is the share of workers who work on every
    platform (the Uber-and-Lyft drivers of the paper's example);
    remaining workers stick to a home platform. ``pressure`` scales how
    close the average worker's weekly demand comes to the FLSA cap —
    above 1.0 the workload *attempts* violations, which the
    verifiability layer must reject.
    """

    platforms: int = 3
    workers: int = 50
    tasks_per_platform: int = 20
    multi_platform_fraction: float = 0.3
    pressure: float = 0.8
    mean_claim_hours: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.platforms < 1 or self.workers < 1:
            raise ConfigError("need at least one platform and one worker")
        if self.pressure <= 0:
            raise ConfigError("pressure must be positive")
        self._rng = random.Random(self.seed)
        self._multi = {
            f"w{i}"
            for i in range(self.workers)
            if self._rng.random() < self.multi_platform_fraction
        }
        self._home = {
            f"w{i}": f"p{self._rng.randrange(self.platforms)}"
            for i in range(self.workers)
        }

    @property
    def platform_ids(self) -> list[str]:
        return [f"p{i}" for i in range(self.platforms)]

    @property
    def worker_ids(self) -> list[str]:
        return [f"w{i}" for i in range(self.workers)]

    def next_claim(self, week: int = 0) -> WorkClaim:
        worker = f"w{self._rng.randrange(self.workers)}"
        if worker in self._multi:
            platform = f"p{self._rng.randrange(self.platforms)}"
        else:
            platform = self._home[worker]
        task = f"{platform}-t{self._rng.randrange(self.tasks_per_platform)}"
        hours = max(1, round(self._rng.gauss(self.mean_claim_hours, 1.5)))
        return WorkClaim(
            worker=worker, platform=platform, task=task, hours=hours, week=week
        )

    def generate_week(self, week: int = 0) -> list[WorkClaim]:
        """Roughly ``pressure * cap`` hours of demand per worker."""
        target_total = int(
            self.workers * FLSA_WEEKLY_CAP * self.pressure
        )
        claims: list[WorkClaim] = []
        booked = 0
        while booked < target_total:
            claim = self.next_claim(week)
            claims.append(claim)
            booked += claim.hours
        return claims
