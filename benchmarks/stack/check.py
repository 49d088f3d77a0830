"""``run.py --check``: the benchmark checks itself, at tiny sizes.

Asserts that ``BENCHMARK.json`` is what ``stackbench/metrics.py``
describes and is within the builder's limits; that every trace point
resolves; that every workload emits every metric it is listed for, with
its unit, and passes its oracles; that the traced run's layer self
times add up to the timed wall; that each workload's separation claim
holds (no storage spans on the simulator workloads, no pool activity
outside ``exec_parallel``, consensus + simulator >= 70 % of the
ordering workloads); and that the mirrored durable commit loop ends
where a real ``DurableCluster`` ends on the same blocks.
"""

from __future__ import annotations

import json
import re
import time

from repro.storage.backend import MemoryBackend
from repro.storage.codec import state_root
from repro.storage.durable import DurableCluster, DurableLedger

from stackbench import harness, metrics, tracing
from stackbench.workloads import CommitLoop

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TIME_LIMIT_S = 20.0

#: ``durable_commit``'s durable-tier configuration, except that the
#: snapshot interval does not divide the 40-block chain: the run has to
#: end with WAL records past the last snapshot for their count to mean
#: anything.
FIDELITY_CONFIG = dict(
    policy="group:4", snapshot_interval=6, paged=True,
    cache_bytes=256 * 1024, compaction="tiered",
    overlay_budget_bytes=64 * 1024,
)


def manifest_problems() -> list[str]:
    """``BENCHMARK.json``: equal to the tables, inside the limits."""
    expected = metrics.benchmark_json()
    path = harness.REPO_ROOT / "BENCHMARK.json"
    problems = []
    try:
        committed = json.loads(path.read_text())
    except (OSError, ValueError) as error:
        return [f"BENCHMARK.json unreadable: {error}"]
    if committed != expected:
        problems.append(
            "BENCHMARK.json differs from stackbench/metrics.py "
            "(regenerate with run.py --manifest)"
        )
    if len(path.read_bytes()) > 64 * 1024:
        problems.append("BENCHMARK.json is larger than 64 KiB")
    names = [w["name"] for w in expected["workloads"]]
    names += [m["name"] for m in expected["end_to_end"]]
    names += [m["name"] for m in expected["per_layer"]]
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    problems += [f"bad name {n!r}" for n in names if not NAME.match(n)]
    for metric in expected["end_to_end"] + expected["per_layer"]:
        if not UNIT.match(metric["unit"]):
            problems.append(f"bad unit {metric['unit']!r}")
        if metric["better"] not in ("higher", "lower"):
            problems.append(f"bad direction on {metric['name']}")
    if not 2 <= len(expected["workloads"]) <= 8:
        problems.append("workload count outside 2..8")
    if not 1 <= len(expected["end_to_end"]) <= 16:
        problems.append("end_to_end count outside 1..16")
    if not 1 <= len(expected["per_layer"]) <= 128:
        problems.append("per_layer count outside 1..128")
    if any(not 0 < m["bound"] <= 0.25 for m in expected["end_to_end"]):
        problems.append("an end_to_end bound is outside (0, 0.25]")
    if any(len(w["why"]) > 200 or "\n" in w["why"]
           for w in expected["workloads"]):
        problems.append("a workload's why is not one line of <= 200 chars")
    return problems


def fidelity_problems(seed: int, blocks: int = 40) -> list[str]:
    """``CommitLoop`` against the repo's own durable path.

    A one-node ``DurableCluster`` streams its canonical chain through a
    real ``DurableNode``; the harness loop commits the very same blocks
    on its own backend. Same final state root, same WAL tail, same
    snapshot height — or ``durable_commit`` is measuring something the
    repo does not do.
    """
    cluster = DurableCluster(
        n=1, txs=2 * blocks, seed=seed, block_txs=2, **FIDELITY_CONFIG
    )
    if not cluster.run(timeout=120.0):
        return ["fidelity: the DurableCluster never caught up"]
    node = cluster.nodes["d0"]
    ledger = DurableLedger(MemoryBackend(), **FIDELITY_CONFIG)
    loop = CommitLoop(ledger)
    for height in range(1, cluster.chain.height + 1):
        loop.commit(cluster.chain.block(height))
    problems = []
    if cluster.chain.height != blocks:
        problems.append(f"fidelity: chain has {cluster.chain.height} blocks")
    if loop.root != state_root(node.store):
        problems.append("fidelity: state roots differ")
    records = node.ledger.tail_record_count()
    if records < 1 or ledger.tail_record_count() != records:
        problems.append(
            f"fidelity: WAL tail holds {ledger.tail_record_count()} "
            f"records, the cluster node's {records}"
        )
    theirs = node.ledger.snapshots.read_manifest() or {}
    ours = ledger.snapshots.read_manifest() or {}
    if ours.get("snapshot_height") != theirs.get("snapshot_height"):
        problems.append("fidelity: snapshot heights differ")
    return problems


def workload_problems(name: str, seed: int) -> list[str]:
    result = harness.run_workload(name, seed, 0.0, trace=True, check=True)
    problems = [f"oracle: {p}" for p in result["problems"]]
    expected = metrics.benchmark_json()
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        line = json.loads(harness.driver_line({**result, "trace": trace}))
        if set(line) != {"correct", "attempted", "failed", "metrics"}:
            problems.append("result line has the wrong keys")
        if line["attempted"] < 1 or line["failed"] != 0:
            problems.append(
                f"attempted {line['attempted']}, failed {line['failed']}"
            )
        wanted = {m["name"]: m["unit"] for m in expected[section]}
        got = {n: e["unit"] for n, e in line["metrics"].items()}
        if got != wanted:
            problems.append(
                f"{section}: names/units differ from BENCHMARK.json: "
                f"{sorted(set(got) ^ set(wanted))}"
            )
        for metric_name, entry in line["metrics"].items():
            if not isinstance(entry["value"], (int, float)):
                problems.append(f"{metric_name} is not a number")
            elif section == "end_to_end" and entry["value"] == 0:
                problems.append(f"{metric_name} is 0")
    for metric in metrics.END_TO_END:
        present = result["end_to_end"].get(metric.name, {}).get("value")
        if (name in metric.workloads) != (present is not None):
            problems.append(f"{metric.name}: wrong presence on {name}")
    layer = {n: e["value"] for n, e in result["per_layer"].items()}
    missing = [n for n, v in layer.items() if v is None]
    if missing:
        problems.append(f"null per-layer metrics: {missing}")
        return problems
    wall = layer["bench.timed_wall_s"]
    parts = sum(
        layer[f"{part}.self_s"] for part in tracing.LAYERS
        if part != "workloads"
    ) + layer["bench.other.self_s"]
    if abs(parts - wall) > 1e-6 * max(wall, 1.0):
        problems.append(f"layer self times {parts} != timed wall {wall}")
    on_sim = name in metrics.SIM
    if on_sim and layer["storage.self_s"]:
        problems.append("storage spans on a simulator workload")
    if name.startswith("ordering") and (
        layer["sim.self_s"] + layer["consensus.self_s"] < 0.7 * wall
    ):
        problems.append("consensus + sim below 70 % of the timed wall")
    if name != "exec_parallel" and any(
        layer[n] for n in layer if n.startswith("execution.pool.")
    ):
        problems.append("pool activity outside exec_parallel")
    return problems


def run_check(seed: int) -> int:
    started = time.perf_counter()
    problems = manifest_problems()
    try:
        resolved = tracing.resolve_all()
        print(f"check: {len(resolved)} trace points resolve")
    except tracing.TraceError as error:
        problems.append(str(error))
    for name in metrics.WORKLOADS:
        found = workload_problems(name, seed)
        print(f"check: {name}: {'ok' if not found else 'FAILED'}")
        problems += [f"{name}: {p}" for p in found]
    found = fidelity_problems(seed)
    print(f"check: commit-loop fidelity: {'ok' if not found else 'FAILED'}")
    problems += found
    elapsed = time.perf_counter() - started
    if elapsed > TIME_LIMIT_S:
        problems.append(f"--check took {elapsed:.1f} s (> {TIME_LIMIT_S} s)")
    for problem in problems:
        print(f"check: PROBLEM: {problem}")
    print(f"check: {'PASS' if not problems else 'FAIL'} in {elapsed:.1f} s")
    return 1 if problems else 0
