"""Experiment E19 — execution-pipeline overhaul gate (+ OX/OXII crossover).

The execution-layer overhaul replaced three hot paths:

* per-block dependency-graph rebuilds -> the incremental
  :class:`~repro.execution.conflict_index.BlockConflictIndex`,
* the O(n²) ``DependencyGraph.waves()`` layer-peeling and per-step
  scheduler set rebuilds -> one Kahn-style forward pass + cached
  adjacency + heap lanes,
* the strictly serial block-validation timeline -> the
  ``pipeline_depth``-deep :class:`~repro.execution.pipeline.ExecutionPipeline`
  (commit order preserved).

This file proves the overhaul end to end:

* **Micro grid** — wall seconds of depgraph-build + wave decomposition +
  parallel scheduling at block sizes 100/1k/10k under low/high
  contention, legacy algorithms (copied verbatim below) vs. the current
  path, with output-identity asserted cell by cell. The gate: >= 2x
  wall speedup at the 10k block on both contention levels.
* **Row identity** — the modelled OX/OXII/XOV/Fabric++/FabricSharp
  rows must be byte-identical to the pre-overhaul fixture
  (``benchmarks/data/execpipe_baseline.json``) at ``pipeline_depth=1``.
* **Depth sweep** — with ``pipeline_depth`` in {1, 2, 4} the XOV family
  commits the same transaction set and modelled throughput never drops;
  at depth 2 a crash + partition fault regime must leave the consensus
  monitors, ledger linkage, and serializability audit green.
* **E19 rows** — the OX-vs-OXII crossover: OXII's parallel execute
  phase wins at low contention and converges toward OX as the
  dependency graph serialises.

``--smoke`` runs the CI guard (small blocks, row identity,
serial-vs-parallel identity, depth safety) — nonzero exit on any
regression. Run standalone::

    PYTHONPATH=src python benchmarks/bench_execpipe.py [--smoke]
"""

import heapq
import json
import os
import sys
import time
from pathlib import Path

from repro.bench import print_table, run_architecture, sweep, sweep_parallel
from repro.consensus.monitors import MONITOR_REGISTRY
from repro.core import SYSTEMS, SystemConfig
from repro.execution.conflict_index import BlockConflictIndex
from repro.execution.depgraph import build_dependency_graph, schedule_parallel
from repro.execution.serial import verify_serializable_commit
from repro.ledger.audit import verify_ledger_linkage
from repro.sim.faults import FaultPlan
from repro.workloads import KvWorkload

BLOCK_SIZES = [100, 1_000, 10_000]
MICRO_CONTENTION = {"low": 0.1, "high": 0.9}
GATE_SPEEDUP = 2.0
GATE_BLOCK = 10_000
EXECUTORS = 8

#: The frozen pre-overhaul modelled rows (captured on the seed code).
BASELINE_PATH = Path(__file__).resolve().parent / "data" / "execpipe_baseline.json"
ROW_SYSTEMS = ["ox", "oxii", "xov", "fabricpp", "fabricsharp"]
ROW_CONTENTION = {"low": 0.1, "high": 1.1}

PIPELINE_DEPTHS = [1, 2, 4]
PIPELINE_SYSTEMS = ["xov", "fastfabric", "fabricpp", "fabricsharp"]

E19_SKEWS = [0.0, 0.3, 0.6, 0.9, 1.1]


# -- legacy algorithms (the replaced implementations, verbatim) ---------------


def _legacy_build(txs):
    """Pre-overhaul ``build_dependency_graph``: per-block rebuild."""
    from repro.execution.depgraph import DependencyGraph

    graph = DependencyGraph(txs=list(txs))
    writers: dict[str, list[int]] = {}
    readers: dict[str, list[int]] = {}
    for i, tx in enumerate(txs):
        for key in tx.write_keys:
            for earlier in writers.get(key, ()):
                graph.successors[earlier].add(i)
            for earlier in readers.get(key, ()):
                graph.successors[earlier].add(i)
            writers.setdefault(key, []).append(i)
        for key in tx.read_keys:
            for earlier in writers.get(key, ()):
                if earlier != i:
                    graph.successors[earlier].add(i)
            readers.setdefault(key, []).append(i)
    for i in graph.successors:
        graph.successors[i].discard(i)
    return graph


def _legacy_waves(graph):
    """Pre-overhaul ``waves()``: O(n²) predecessor scans per vertex."""
    level: dict[int, int] = {}
    for i in range(len(graph.txs)):
        preds = [p for p, succs in graph.successors.items() if i in succs]
        level[i] = 1 + max((level[p] for p in preds), default=-1)
    result: list[list[int]] = [
        [] for _ in range(max(level.values(), default=-1) + 1)
    ]
    for i, lvl in level.items():
        result[lvl].append(i)
    return result


def _legacy_schedule(graph, costs, executors):
    """Pre-overhaul ``schedule_parallel``: uncached predecessors, dict
    counters, and a ``sorted()`` per completion event."""
    n = len(graph.txs)
    if n == 0:
        return 0.0, []
    preds: dict[int, set[int]] = {i: set() for i in range(n)}
    for i, succs in graph.successors.items():
        for j in succs:
            preds[j].add(i)
    remaining = {i: len(preds[i]) for i in range(n)}
    ready = [i for i in range(n) if remaining[i] == 0]
    heapq.heapify(ready)
    running: list[tuple[float, int]] = []
    completion_order: list[int] = []
    now = 0.0
    free = executors
    while ready or running:
        while ready and free > 0:
            tx_index = heapq.heappop(ready)
            heapq.heappush(running, (now + costs[tx_index], tx_index))
            free -= 1
        finish, tx_index = heapq.heappop(running)
        now = finish
        free += 1
        completion_order.append(tx_index)
        for succ in sorted(graph.successors[tx_index]):
            remaining[succ] -= 1
            if remaining[succ] == 0:
                heapq.heappush(ready, succ)
    return now, completion_order


# -- micro grid ---------------------------------------------------------------


def _micro_workload(block_size: int, theta: float):
    return KvWorkload(
        n_keys=2 * block_size, theta=theta, read_fraction=0.2,
        rmw_fraction=0.6, seed=41,
    ).generate(block_size)


def run_micro_cell(block_size: int, label: str) -> dict:
    """Time depgraph-build + waves + schedule, legacy vs. current, on one
    block; asserts the two paths produce identical output."""
    txs = _micro_workload(block_size, MICRO_CONTENTION[label])
    costs = [0.001] * block_size

    start = time.perf_counter()
    legacy_graph = _legacy_build(txs)
    legacy_wave_list = _legacy_waves(legacy_graph)
    legacy_sched = _legacy_schedule(legacy_graph, costs, EXECUTORS)
    legacy_wall = time.perf_counter() - start

    start = time.perf_counter()
    index = BlockConflictIndex()
    uids = [index.ingest(tx.read_keys, tx.write_keys) for tx in txs]
    graph = index.graph_for(uids, list(txs))
    wave_list = graph.waves()
    sched = schedule_parallel(graph, costs, EXECUTORS)
    current_wall = time.perf_counter() - start

    identical = (
        graph.successors == legacy_graph.successors
        and wave_list == legacy_wave_list
        and sched == legacy_sched
    )
    return {
        "block_size": block_size,
        "contention": label,
        "edges": graph.edge_count,
        "n_waves": len(wave_list),
        "legacy_seconds": round(legacy_wall, 4),
        "current_seconds": round(current_wall, 4),
        "speedup": round(legacy_wall / max(current_wall, 1e-9), 1),
        "identical": identical,
    }


def run_micro_grid(block_sizes=None) -> list[dict]:
    return [
        run_micro_cell(block_size, label)
        for block_size in (block_sizes or BLOCK_SIZES)
        for label in MICRO_CONTENTION
    ]


# -- modelled-row identity ----------------------------------------------------


def _row_workload(theta: float):
    return KvWorkload(
        n_keys=400, theta=theta, read_fraction=0.2, rmw_fraction=0.6, seed=31,
    ).generate(240)


def current_rows() -> str:
    """The modelled rows of the frozen fixture's grid, as canonical JSON."""
    rows = []
    for label, theta in ROW_CONTENTION.items():
        txs = _row_workload(theta)
        for system in ROW_SYSTEMS:
            result = run_architecture(
                system, txs, SystemConfig(block_size=40, seed=29)
            )
            row = {"contention": label, **result.to_row()}
            row["extra"] = {k: result.extra[k] for k in sorted(result.extra)}
            rows.append(row)
    return json.dumps({"rows": rows}, indent=2, sort_keys=True) + "\n"


def check_row_identity() -> list[str]:
    """Modelled rows must be byte-identical to the pre-overhaul fixture
    (``pipeline_depth`` defaults to 1 — the identity contract)."""
    if current_rows() != BASELINE_PATH.read_text():
        return [
            "modelled rows diverged from benchmarks/data/execpipe_baseline.json"
        ]
    return []


def check_parallel_identity() -> list[str]:
    """Bench rows must be byte-identical serial vs. forked-parallel."""

    def runner(theta):
        return run_architecture(
            "fabricsharp", _row_workload(theta),
            SystemConfig(block_size=40, seed=29),
        )

    thetas = list(ROW_CONTENTION.values())
    saved = os.environ.pop("REPRO_BENCH_WORKERS", None)
    try:
        serial = sweep("skew", thetas, runner)
    finally:
        if saved is not None:
            os.environ["REPRO_BENCH_WORKERS"] = saved
    parallel = sweep_parallel("skew", thetas, runner, workers=2)
    if json.dumps(serial, sort_keys=True) != json.dumps(parallel, sort_keys=True):
        return ["serial and parallel sweeps produced different rows"]
    return []


# -- pipeline-depth sweep -----------------------------------------------------


def run_depth_sweep() -> list[dict]:
    """Commit set + modelled throughput per (system, pipeline_depth)."""
    txs = _row_workload(ROW_CONTENTION["high"])
    rows = []
    for name in PIPELINE_SYSTEMS:
        for depth in PIPELINE_DEPTHS:
            system = SYSTEMS[name](SystemConfig(
                block_size=40, seed=29, pipeline_depth=depth
            ))
            for tx in txs:
                system.submit(tx)
            result = system.run()
            rows.append({
                "system": name,
                "pipeline_depth": depth,
                "committed": result.committed,
                "throughput_tps": result.to_row()["throughput_tps"],
                "commit_set": sorted(system.committed_tx_ids()),
            })
    return rows


def check_depth_sweep(rows: list[dict]) -> list[str]:
    failures = []
    for name in PIPELINE_SYSTEMS:
        mine = [r for r in rows if r["system"] == name]
        base = next(r for r in mine if r["pipeline_depth"] == 1)
        for row in mine:
            if row["commit_set"] != base["commit_set"]:
                failures.append(
                    f"{name}: depth {row['pipeline_depth']} changed the "
                    "committed transaction set"
                )
            if row["throughput_tps"] + 1e-6 < base["throughput_tps"]:
                failures.append(
                    f"{name}: depth {row['pipeline_depth']} throughput "
                    f"{row['throughput_tps']} fell below depth-1 "
                    f"{base['throughput_tps']}"
                )
    return failures


def check_fault_regimes() -> list[str]:
    """``pipeline_depth=2`` under a replica crash plus a partition window:
    consensus monitors, ledger linkage, and the serializability audit
    must all stay green."""
    failures = []
    txs = _row_workload(ROW_CONTENTION["high"])[:120]
    for name in ("fastfabric", "fabricpp"):
        system = SYSTEMS[name](SystemConfig(
            block_size=20, seed=13, pipeline_depth=2, max_time=120.0,
        ))
        monitors = [
            MONITOR_REGISTRY[m]()
            for m in ("prefix-consistency", "conflicting-commit")
        ]
        for monitor in monitors:
            system.cluster.add_monitor(monitor)
        replicas = system.cluster.config.replica_ids
        victim = replicas[-1]
        FaultPlan().crash(0.01, victim).recover(0.3, victim).partition_window(
            0.4, 0.6, [replicas[:-1], replicas[-1:]]
        ).apply(system.sim, system.cluster.network)
        for tx in txs:
            system.submit(tx)
        result = system.run()
        if result.committed == 0:
            failures.append(f"{name}@depth2+faults: nothing committed")
        for monitor in monitors:
            if not monitor.check():
                failures.append(
                    f"{name}@depth2+faults: {monitor.violations[0]}"
                )
        committed = system.committed_tx_ids()
        failures.extend(
            f"{name}@depth2+faults: {v}"
            for v in verify_ledger_linkage(system.ledger, committed)
        )
        failures.extend(
            f"{name}@depth2+faults: {v}"
            for v in verify_serializable_commit(
                system.ledger, system.store, system.registry, committed
            )
        )
    return failures


# -- E19: OX vs OXII crossover ------------------------------------------------


def run_e19() -> list[dict]:
    """OX vs OXII across contention over a small hot key space.

    End-to-end throughput is arrival-bound for both pessimistic
    architectures (neither ever aborts), so the crossover shows in the
    *commit latency*: OXII's parallel execute phase wins big at zero
    skew, and the win shrinks as the dependency graph serialises and
    the scheduled makespan (``exec.parallel_seconds``) approaches OX's
    serial sum (paper section 2.3.3)."""
    rows = []
    for skew in E19_SKEWS:
        txs = KvWorkload(
            n_keys=60, theta=skew, read_fraction=0.2, rmw_fraction=0.7,
            seed=17,
        ).generate(240)
        for name in ("ox", "oxii"):
            result = run_architecture(
                name, txs, SystemConfig(block_size=40, seed=19)
            )
            row = {"skew": skew, **result.to_row()}
            row["exec_seconds"] = round(
                result.extra.get("exec.parallel_seconds", 0.0), 4
            )
            rows.append(row)
    return rows


def check_e19(rows: list[dict]) -> list[str]:
    def pick(skew, system, field="mean_latency"):
        return next(
            r[field] for r in rows
            if r["skew"] == skew and r["system"] == system
        )

    failures = []
    if not pick(0.0, "oxii") < pick(0.0, "ox"):
        failures.append("E19: OXII no longer beats OX at zero skew")
    if not pick(1.1, "oxii") > pick(0.0, "oxii"):
        failures.append(
            "E19: OXII latency no longer grows with contention"
        )
    low_gap = pick(0.0, "ox") / pick(0.0, "oxii")
    high_gap = pick(1.1, "ox") / pick(1.1, "oxii")
    if not high_gap < low_gap:
        failures.append(
            "E19: OXII's latency advantage no longer shrinks with "
            f"contention (x{low_gap:.2f} at skew 0.0 vs x{high_gap:.2f} "
            "at 1.1)"
        )
    if not pick(1.1, "oxii", "exec_seconds") > pick(0.0, "oxii", "exec_seconds"):
        failures.append(
            "E19: OXII's scheduled makespan no longer grows as the "
            "dependency graph serialises"
        )
    return failures


# -- full run + gate ----------------------------------------------------------


def run_execpipe(write_json: bool = True) -> dict:
    micro = run_micro_grid()
    depth_rows = run_depth_sweep()
    e19_rows = run_e19()
    report = {
        "executors": EXECUTORS,
        "gate_speedup_required": GATE_SPEEDUP,
        "gate_block_size": GATE_BLOCK,
        "micro": micro,
        "depth_sweep": [
            {k: v for k, v in row.items() if k != "commit_set"}
            for row in depth_rows
        ],
        "e19": e19_rows,
        "row_identity_failures": check_row_identity(),
        "depth_failures": check_depth_sweep(depth_rows),
        "fault_failures": check_fault_regimes(),
        "e19_failures": check_e19(e19_rows),
    }
    if write_json:
        path = Path(__file__).resolve().parent.parent / "BENCH_execpipe.json"
        path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def check_gate(report: dict) -> list[str]:
    """Acceptance checks over a full report; returns failure messages."""
    failures = []
    for cell in report["micro"]:
        if not cell["identical"]:
            failures.append(
                f"micro {cell['block_size']}/{cell['contention']}: current "
                "path diverged from the legacy algorithms"
            )
        if (
            cell["block_size"] == report["gate_block_size"]
            and cell["speedup"] < report["gate_speedup_required"]
        ):
            failures.append(
                f"micro {cell['block_size']}/{cell['contention']}: speedup "
                f"{cell['speedup']}x < required "
                f"{report['gate_speedup_required']}x"
            )
    for key in (
        "row_identity_failures", "depth_failures",
        "fault_failures", "e19_failures",
    ):
        failures.extend(report[key])
    return failures


# -- smoke mode (CI guard) ----------------------------------------------------


def run_smoke() -> int:
    failures = []
    for cell in run_micro_grid(block_sizes=[100, 1_000]):
        if not cell["identical"]:
            failures.append(
                f"micro {cell['block_size']}/{cell['contention']}: current "
                "path diverged from the legacy algorithms"
            )
        if cell["block_size"] == 1_000 and cell["speedup"] < GATE_SPEEDUP:
            failures.append(
                f"micro 1000/{cell['contention']}: speedup "
                f"{cell['speedup']}x < required {GATE_SPEEDUP}x"
            )
    failures += check_row_identity()
    failures += check_parallel_identity()
    failures += check_depth_sweep(run_depth_sweep())
    failures += check_fault_regimes()
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        "execpipe smoke: micro identity+speedup, frozen rows, "
        "parallel identity, pipeline depth safety OK"
    )
    return 0


def test_execpipe_smoke():
    """Pytest entry: the cheap core of the ``--smoke`` CI guard."""
    def guard():
        failures = []
        for cell in run_micro_grid(block_sizes=[100]):
            if not cell["identical"]:
                failures.append(
                    f"micro {cell['block_size']}/{cell['contention']} diverged"
                )
        return failures + check_row_identity()

    assert guard() == []


if __name__ == "__main__":
    if "--smoke" in sys.argv[1:]:
        raise SystemExit(run_smoke())
    report = run_execpipe()
    print_table(report["micro"], title="E19 micro: depgraph+schedule wall time")
    print_table(report["depth_sweep"], title="pipeline-depth sweep")
    print_table(report["e19"], title="E19: OX vs OXII crossover")
    problems = check_gate(report)
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        raise SystemExit(1)
    print(
        f"execpipe gate: >= {GATE_SPEEDUP}x at {GATE_BLOCK}-tx blocks, "
        "frozen rows identical, pipeline depths safe OK"
    )
