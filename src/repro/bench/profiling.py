"""Profiling hooks for benchmarks and the CLI.

Two layers of instrumentation:

* :func:`profiled` — a ``cProfile`` context manager with top-N hotspot
  reporting, for answering "where did that sweep spend its time".
* The events-per-wall-second gauge every :class:`~repro.sim.core.Simulation`
  updates after :meth:`~repro.sim.core.Simulation.run` (attributes
  ``events_per_second``, ``events_processed``,
  ``last_run_wall_seconds``) — cheap enough to stay always-on.
* :func:`hotpath_counters` — one dict with the protocol hot-path
  counters (state-store snapshot/copy/merge work, Merkle nodes hashed
  vs. cached), for per-subsystem attribution in benchmark reports.

Usage::

    from repro.bench.profiling import profiled

    with profiled(top=15) as profiler:
        run_e3()
    # hotspot table printed on exit; profiler holds the raw stats

    rows = top_hotspots(profiler, n=5)   # programmatic access
"""

from __future__ import annotations

import cProfile
import pstats
import sys
from contextlib import contextmanager
from typing import Any, Iterator, TextIO


@contextmanager
def profiled(
    top: int = 15,
    sort: str = "cumulative",
    stream: TextIO | None = None,
    enabled: bool = True,
) -> Iterator[cProfile.Profile | None]:
    """Profile the body and print the ``top`` hotspots on exit.

    ``sort`` is any ``pstats`` sort key (``"cumulative"``,
    ``"tottime"``, ...). Pass ``enabled=False`` to make the context a
    no-op (yields None), so call sites can keep one code path behind a
    CLI flag. The yielded profiler outlives the block — feed it to
    :func:`top_hotspots` for assertions or custom reports.
    """
    if not enabled:
        yield None
        return
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield profiler
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler, stream=stream or sys.stdout)
        stats.strip_dirs().sort_stats(sort).print_stats(top)


def top_hotspots(
    profiler: cProfile.Profile, n: int = 10, sort: str = "cumulative"
) -> list[dict[str, Any]]:
    """The ``n`` hottest functions as rows (for tables or assertions).

    Each row carries ``function`` (``file:line(name)``), ``calls``,
    ``tottime`` and ``cumtime`` in seconds.
    """
    stats = pstats.Stats(profiler)
    stats.strip_dirs().sort_stats(sort)
    rows = []
    for func in stats.fcn_list[:n]:  # fcn_list is sort order
        cc, ncalls, tottime, cumtime, _callers = stats.stats[func]
        filename, line, name = func
        rows.append(
            {
                "function": f"{filename}:{line}({name})",
                "calls": ncalls,
                "tottime": round(tottime, 6),
                "cumtime": round(cumtime, 6),
            }
        )
    return rows


def hotpath_counters() -> dict[str, int]:
    """Current hot-path counters across subsystems, flattened as
    ``store.*``, ``merkle.*`` and ``exec.*`` keys.

    The E18 claim reads ``store.snapshots_taken`` and
    ``merkle.nodes_hashed`` to show per-run work does not grow with the
    state size. ``exec.wave_fallbacks`` counts waves the process-pool
    backend degraded to inline execution (worker crash/timeout/verify
    failure); it stays 0 on healthy runs.
    """
    from repro.crypto.merkle import MERKLE_COUNTERS
    from repro.execution.parallel_backend import EXEC_COUNTERS
    from repro.ledger.store import STORE_COUNTERS
    from repro.storage.snapshots import STORAGE_TIER_COMPACTIONS

    counters = {f"store.{k}": v for k, v in STORE_COUNTERS.items()}
    counters.update({f"merkle.{k}": v for k, v in MERKLE_COUNTERS.items()})
    counters.update({f"exec.{k}": v for k, v in EXEC_COUNTERS.items()})
    counters.update({
        f"store.tier_compactions.{tier}": count
        for tier, count in sorted(STORAGE_TIER_COMPACTIONS.items())
    })
    return counters


def reset_hotpath_counters() -> None:
    """Zero the hot-path counters (and the Merkle caches) so a benchmark
    cell measures only its own work."""
    from repro.crypto.merkle import reset_merkle_caches
    from repro.execution.parallel_backend import reset_exec_counters
    from repro.ledger.store import reset_store_counters
    from repro.storage.snapshots import STORAGE_TIER_COMPACTIONS

    reset_store_counters()
    reset_merkle_caches()
    reset_exec_counters()
    STORAGE_TIER_COMPACTIONS.clear()
