"""Experiment harness: run a system over a workload, sweep a grid.

:func:`sweep` is the one sweep path; the claims registry
(:mod:`repro.bench.claims`) drives every paper claim through it.

Sweeps run serially by default. Setting ``REPRO_BENCH_WORKERS`` above 1
fans the grid points out over ``multiprocessing`` workers; a value that
is not a positive integer raises :class:`~repro.common.errors.ConfigError`
(:func:`repro.execution.resolve_workers` parses it, for the harness and
the process-pool backend alike). Every point builds its own seeded
workload/config inside the worker, so the parallel path returns rows
identical to, and in the same order as, the serial path.

Workers are forked, not spawned: runners are typically closures
(lambdas over a seed), which cannot be pickled, but a forked child
inherits them. On platforms without ``fork`` the harness falls back to
serial execution rather than failing.
"""

from __future__ import annotations

import multiprocessing
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable

from repro.common.metrics import RunResult
from repro.common.types import Transaction
from repro.core import SYSTEMS, BlockchainSystem, SystemConfig
from repro.execution.contracts import ContractRegistry
from repro.execution.parallel_backend import WORKERS_ENV, resolve_workers

# The job a forked worker should run. Set in the parent immediately
# before the pool forks, inherited by the children, and cleared after
# the sweep; module-level so the worker entry point is picklable by
# name while the job itself never needs pickling.
_ACTIVE_JOB: Callable[[Any], Any] | None = None


def _fork_context() -> multiprocessing.context.BaseContext | None:
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


def _run_point(indexed: tuple[int, Any]) -> tuple[int, bool, Any]:
    """Worker entry point: run one grid point, never raise.

    Exceptions are returned as formatted tracebacks so the parent can
    surface which point failed instead of the pool dying opaquely.
    """
    index, value = indexed
    try:
        return index, True, _ACTIVE_JOB(value)
    except BaseException:
        return index, False, traceback.format_exc()


def _map_parallel(
    job: Callable[[Any], Any], values: list[Any], workers: int
) -> list[Any] | None:
    """Run ``job`` over ``values`` on ``workers`` forked processes.

    Returns results in input order, or None when forking is unavailable
    (caller falls back to serial). A point that raises in a worker is
    re-raised here as a RuntimeError naming the point; a worker that
    dies outright (e.g. ``os._exit``) surfaces as a RuntimeError too,
    rather than a hang.
    """
    context = _fork_context()
    if context is None:  # pragma: no cover - non-POSIX platforms
        return None
    global _ACTIVE_JOB
    _ACTIVE_JOB = job
    try:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(values)) or 1, mp_context=context
        ) as pool:
            try:
                outcomes = list(pool.map(_run_point, enumerate(values)))
            except BrokenProcessPool as exc:
                raise RuntimeError(
                    "a benchmark worker process died before returning a "
                    "result; rerun serially (unset "
                    f"{WORKERS_ENV}) to debug the failing point"
                ) from exc
    finally:
        _ACTIVE_JOB = None
    results: list[Any] = [None] * len(values)
    for index, ok, payload in outcomes:
        if not ok:
            raise RuntimeError(
                f"benchmark point {values[index]!r} failed in a parallel "
                f"worker:\n{payload}"
            )
        results[index] = payload
    return results


def run_architecture(
    name: str,
    transactions: list[Transaction],
    config: SystemConfig | None = None,
    registry: ContractRegistry | None = None,
) -> RunResult:
    """Run one core architecture over a fixed transaction list."""
    system_cls = SYSTEMS[name]
    system: BlockchainSystem = system_cls(config or SystemConfig(), registry)
    for tx in transactions:
        system.submit(tx)
    return system.run()


def sweep(
    variable: str,
    values: list[Any],
    runner: Callable[[Any], RunResult | dict[str, Any]],
) -> list[dict[str, Any]]:
    """Run ``runner`` per value; rows carry the swept variable first.

    ``runner`` returns a :class:`RunResult` or a ready-made dict row.
    Serial unless ``REPRO_BENCH_WORKERS`` asks for more than one worker,
    in which case the points fan out over forked processes with rows
    identical to, and in the same order as, the serial path.
    """
    workers = resolve_workers()
    results = None
    if workers > 1 and len(values) > 1:
        results = _map_parallel(runner, list(values), workers)
    if results is None:
        results = [runner(value) for value in values]
    return [
        {variable: value,
         **(result.to_row() if hasattr(result, "to_row") else result)}
        for value, result in zip(values, results)
    ]
