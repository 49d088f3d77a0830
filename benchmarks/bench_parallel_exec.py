"""Experiment E20 — multi-core wave execution gate (process-pool backend).

The :mod:`repro.execution.parallel_backend` executor fans conflict-free
dependency-graph waves across forked worker processes — the first path
in this repository whose throughput is *wall-clock*, not modelled. This
file is its acceptance gate:

* **Scaling grid** — one 10k-transaction block of compute-heavy KV
  contracts executed at 1/2/4 workers. Every cell must be byte-identical
  (same ``block_effects_digest``, same commit set, serial oracle green,
  zero degraded waves). Wall tps must rise monotonically with the
  worker count **for counts the host can actually run in parallel**:
  the gate enforces scaling only up to ``len(os.sched_getaffinity(0))``
  cores — on a single-core container 2- and 4-worker cells are recorded
  but not gated (the pool adds IPC without adding CPUs), while a >= 4
  core CI runner enforces the full 1 -> 2 -> 4 curve. The
  machine-independent ``modelled_parallel_seconds`` curve must be
  strictly decreasing everywhere, on any host.
* **Equivalence grid** — 10k-transaction KV and SmallBank blocks at
  every worker count, each compared row by row
  (:meth:`~repro.execution.rwsets.RWSet.digest`) and state by state
  against :func:`~repro.execution.serial.execute_block_serially` on a
  twin store.

``--smoke`` is the CI guard: 1k-transaction equivalence at 2 workers on
both workloads plus the ``REPRO_BENCH_WORKERS`` validation contract —
nonzero exit on any failure. Run standalone::

    PYTHONPATH=src python benchmarks/bench_parallel_exec.py [--smoke]
"""

import hashlib
import json
import os
import sys
import time
from pathlib import Path

from repro.bench import print_table
from repro.common.errors import ConfigError
from repro.execution import ParallelExecutor, block_effects_digest, resolve_workers
from repro.execution.contracts import ContractRegistry, standard_registry
from repro.execution.rwsets import execute_with_capture
from repro.execution.serial import execute_block_serially
from repro.ledger.block import Block, GENESIS_PREV_HASH
from repro.ledger.store import StateStore, Version
from repro.workloads import KvWorkload, SmallBankWorkload, smallbank_registry

WORKER_COUNTS = [1, 2, 4]
SCALE_TXS = 10_000
EQUIV_TXS = 10_000
SMOKE_TXS = 1_000
REPS = 3
#: sha256 iterations per contract call — enough compute per transaction
#: (~25 us) that worker CPU, not IPC, dominates the pooled wall time.
SPIN = 60

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"


def available_cores() -> int:
    """CPUs this process may actually run on (the scaling-gate bound)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


# -- workloads ----------------------------------------------------------------


def _spin(token) -> int:
    """Deterministic busy work (identical in workers and the oracle)."""
    digest = repr(token).encode()
    for _ in range(SPIN):
        digest = hashlib.sha256(digest).digest()
    return digest[0]


def heavy_registry() -> ContractRegistry:
    """The stock KV contracts with a deterministic sha256 spin bolted on,
    so the scaling grid measures compute fan-out rather than IPC."""
    registry = ContractRegistry()

    def kv_set(ctx, key, value):
        _spin((key, value))
        ctx.put(key, value)
        return value

    def kv_get(ctx, key):
        _spin(key)
        return ctx.get(key)

    def increment(ctx, key, amount=1):
        _spin((key, amount))
        updated = ctx.get(key, 0) + amount
        ctx.put(key, updated)
        return updated

    def read_many(ctx, *keys):
        for key in keys:
            _spin(key)
        return [ctx.get(key) for key in keys]

    registry.register("kv_set", kv_set)
    registry.register("kv_get", kv_get)
    registry.register("increment", increment)
    registry.register("read_many", read_many)
    return registry


def kv_block(n_txs: int, theta: float = 0.2, seed: int = 71) -> Block:
    txs = KvWorkload(
        n_keys=4 * n_txs, theta=theta, read_fraction=0.2, rmw_fraction=0.6,
        seed=seed,
    ).generate(n_txs)
    return Block.create(
        height=1, prev_hash=GENESIS_PREV_HASH, transactions=txs
    )


def smallbank_case(n_txs: int, seed: int = 73):
    """A SmallBank block plus a factory for stores seeded with its
    setup deposits (each run needs its own, identically seeded store)."""
    workload = SmallBankWorkload(n_customers=max(2, n_txs // 5), seed=seed)
    setup = workload.setup_transactions()
    block = Block.create(
        height=1, prev_hash=GENESIS_PREV_HASH,
        transactions=workload.generate(n_txs),
    )

    def seeded_store() -> StateStore:
        store = StateStore()
        registry = smallbank_registry()
        for index, tx in enumerate(setup):
            rwset = execute_with_capture(registry, tx, store)
            if rwset.ok:
                store.apply_writes(rwset.writes, Version(0, index))
        return store

    return block, seeded_store


# -- scaling grid -------------------------------------------------------------


def run_scaling_cell(block: Block, workers: int, reps: int = REPS) -> dict:
    """Best-of-``reps`` wall time at ``workers``, plus one oracle-checked
    verification run (the oracle replay is the checker, not the
    workload, so it stays out of the timed reps)."""
    n = len(block.transactions)
    best = None
    for _ in range(reps):
        with ParallelExecutor(
            heavy_registry(), StateStore(), workers, check_oracle=False
        ) as executor:
            timed = executor.execute_block(block)
        if best is None or timed.wall_seconds < best.wall_seconds:
            best = timed
    with ParallelExecutor(
        heavy_registry(), StateStore(), workers, check_oracle=True
    ) as executor:
        verified = executor.execute_block(block)
    return {
        "workers": workers,
        "backend": best.backend,
        "n_waves": best.n_waves,
        "wall_seconds": round(best.wall_seconds, 4),
        "wall_tps": round(n / best.wall_seconds, 1),
        "modelled_parallel_seconds": round(
            best.modelled_parallel_seconds, 4
        ),
        "committed": verified.committed,
        "failed": verified.failed,
        "fallback_waves": best.fallback_waves + verified.fallback_waves,
        "oracle_matches": verified.oracle_matches,
        "state_digest": verified.state_digest,
    }


def run_scaling(n_txs: int = SCALE_TXS, reps: int = REPS) -> list[dict]:
    block = kv_block(n_txs)
    return [run_scaling_cell(block, workers, reps) for workers in WORKER_COUNTS]


def check_scaling(rows: list[dict], cores: int) -> list[str]:
    """Equivalence everywhere; wall scaling where the host has cores."""
    failures = []
    for row in rows:
        where = f"scaling@{row['workers']}w"
        if not row["oracle_matches"]:
            failures.append(f"{where}: serial oracle mismatch")
        if row["fallback_waves"]:
            failures.append(
                f"{where}: {row['fallback_waves']} wave(s) degraded to "
                "inline execution on a healthy run"
            )
    if len({row["state_digest"] for row in rows}) != 1:
        failures.append(
            "scaling: state digests differ across worker counts — the "
            "backend is not equivalent to itself"
        )
    if len({(row["committed"], row["failed"]) for row in rows}) != 1:
        failures.append(
            "scaling: commit/abort counts differ across worker counts"
        )
    for prev, cur in zip(rows, rows[1:]):
        if cur["modelled_parallel_seconds"] >= prev["modelled_parallel_seconds"]:
            failures.append(
                f"scaling: modelled makespan did not shrink from "
                f"{prev['workers']} to {cur['workers']} workers"
            )
    gated = [row for row in rows if row["workers"] <= cores]
    for prev, cur in zip(gated, gated[1:]):
        if cur["wall_tps"] <= prev["wall_tps"]:
            failures.append(
                f"scaling: wall tps fell from {prev['wall_tps']} at "
                f"{prev['workers']}w to {cur['wall_tps']} at "
                f"{cur['workers']}w ({cores} cores available)"
            )
    return failures


# -- equivalence grid ---------------------------------------------------------


def run_equivalence_cell(
    label: str, block: Block, store_factory, registry_factory, workers: int
) -> dict:
    """Serial engine vs. the parallel backend on twin stores: row-by-row
    digest identity, identical end state, oracle green."""
    serial_store = store_factory()
    serial = execute_block_serially(block, serial_store, registry_factory())
    parallel_store = store_factory()
    with ParallelExecutor(
        registry_factory(), parallel_store, workers
    ) as executor:
        report = executor.execute_block(block)
    rows_identical = [r.digest() for r in serial.rwsets] == [
        r.digest() for r in report.rwsets
    ]
    return {
        "workload": label,
        "txs": len(block.transactions),
        "workers": workers,
        "backend": report.backend,
        "committed": report.committed,
        "serial_committed": serial.committed,
        "rows_identical": rows_identical,
        "state_identical": serial_store.as_dict() == parallel_store.as_dict(),
        "digest_identical": report.state_digest
        == block_effects_digest(serial.rwsets, block.height),
        "oracle_matches": report.oracle_matches,
        "fallback_waves": report.fallback_waves,
    }


def run_equivalence(
    n_txs: int = EQUIV_TXS, worker_counts=None
) -> list[dict]:
    counts = worker_counts or WORKER_COUNTS
    kv = kv_block(n_txs, seed=79)
    sb_block, sb_store = smallbank_case(n_txs)
    rows = []
    for workers in counts:
        rows.append(run_equivalence_cell(
            "kv", kv, StateStore, standard_registry, workers
        ))
        rows.append(run_equivalence_cell(
            "smallbank", sb_block, sb_store, smallbank_registry, workers
        ))
    return rows


def check_equivalence(rows: list[dict]) -> list[str]:
    failures = []
    for row in rows:
        where = f"equivalence {row['workload']}@{row['workers']}w"
        for flag in (
            "rows_identical", "state_identical", "digest_identical",
            "oracle_matches",
        ):
            if not row[flag]:
                failures.append(f"{where}: {flag} is false")
        if row["committed"] != row["serial_committed"]:
            failures.append(
                f"{where}: committed {row['committed']} parallel vs "
                f"{row['serial_committed']} serial"
            )
        if row["fallback_waves"]:
            failures.append(
                f"{where}: {row['fallback_waves']} degraded wave(s)"
            )
    return failures


# -- env-knob contract --------------------------------------------------------


def check_workers_env() -> list[str]:
    """``REPRO_BENCH_WORKERS`` must be honored, and garbage rejected."""
    failures = []
    saved = os.environ.get("REPRO_BENCH_WORKERS")
    try:
        os.environ["REPRO_BENCH_WORKERS"] = "3"
        if resolve_workers() != 3:
            failures.append("REPRO_BENCH_WORKERS=3 was not honored")
        for bad in ("0", "-2", "two", "2.5"):
            os.environ["REPRO_BENCH_WORKERS"] = bad
            try:
                resolve_workers()
            except ConfigError:
                pass
            else:
                failures.append(
                    f"REPRO_BENCH_WORKERS={bad!r} was not rejected"
                )
    finally:
        if saved is None:
            os.environ.pop("REPRO_BENCH_WORKERS", None)
        else:
            os.environ["REPRO_BENCH_WORKERS"] = saved
    return failures


# -- full run + gate ----------------------------------------------------------


def run_parallel_exec(write_json: bool = True) -> dict:
    cores = available_cores()
    scaling = run_scaling()
    equivalence = run_equivalence()
    report = {
        "experiment": "E20",
        "cores": cores,
        "worker_counts": WORKER_COUNTS,
        "scale_txs": SCALE_TXS,
        "spin_iterations": SPIN,
        #: Worker counts whose wall-tps ordering the gate enforces on
        #: this host; counts above the core budget are recorded only.
        "wall_gate_enforced_counts": [
            w for w in WORKER_COUNTS if w <= cores
        ],
        "scaling": scaling,
        "equivalence": equivalence,
        "workers_env_failures": check_workers_env(),
    }
    if write_json:
        JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def check_gate(report: dict) -> list[str]:
    failures = check_scaling(report["scaling"], report["cores"])
    failures += check_equivalence(report["equivalence"])
    failures += report["workers_env_failures"]
    return failures


# -- smoke mode (CI guard) ----------------------------------------------------


def run_smoke() -> int:
    failures = check_equivalence(run_equivalence(SMOKE_TXS, [2]))
    failures += check_workers_env()
    scaling = run_scaling(n_txs=SMOKE_TXS, reps=1)
    failures += check_scaling(scaling, available_cores())
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        "parallel-exec smoke: serial==parallel on KV+SmallBank at 2 "
        "workers, env knob validated, scaling cells equivalent OK"
    )
    return 0


def test_parallel_smoke():
    """Pytest entry: the cheap core of the ``--smoke`` CI guard."""
    assert check_equivalence(run_equivalence(200, [2])) + check_workers_env() == []


if __name__ == "__main__":
    if "--smoke" in sys.argv[1:]:
        raise SystemExit(run_smoke())
    started = time.perf_counter()
    report = run_parallel_exec()
    print_table(
        report["scaling"],
        title=f"E20 scaling: {SCALE_TXS}-tx heavy-KV block "
        f"({report['cores']} core(s) available)",
    )
    print_table(
        [
            {k: v for k, v in row.items() if k != "serial_committed"}
            for row in report["equivalence"]
        ],
        title="E20 equivalence: serial engine vs process-pool backend",
    )
    problems = check_gate(report)
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        raise SystemExit(1)
    enforced = report["wall_gate_enforced_counts"]
    print(
        f"parallel-exec gate: equivalence at every worker count, wall "
        f"scaling enforced for {enforced} (host has {report['cores']} "
        f"core(s)), modelled curve strictly decreasing OK "
        f"[{time.perf_counter() - started:.1f}s]"
    )
