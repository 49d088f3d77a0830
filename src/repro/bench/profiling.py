"""Hot-path counters for benchmarks and claims.

:func:`hotpath_counters` flattens the protocol hot-path counters
(state-store snapshot/copy/merge work, Merkle nodes hashed vs. cached,
process-pool waves) into one dict, for per-subsystem attribution;
:func:`reset_hotpath_counters` zeroes them so a cell measures only its
own work. For "where did the time go", profile the command itself:
``python -m cProfile -s cumulative -m repro claims``.
"""

from __future__ import annotations


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
