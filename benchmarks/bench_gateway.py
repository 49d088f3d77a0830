"""Experiment E22 — end-to-end latency gate: percentiles vs offered load
through the front-door gateway.

Open-loop methodology (Geyer et al., arXiv:2311.15433): a Poisson
arrival schedule over a Zipf-skewed client population fires through the
:mod:`repro.gateway` admission tier into each architecture, at offered
loads swept from well below to well past capacity. Every transaction is
stamped submit/admit/order/commit, so the cells report *client-observed*
p50/p95/p99 latency and goodput, not a server-side counter.

Two grids:

* **Latency grid** — ``SYSTEMS_UNDER_TEST`` x ``LOADS``. Gate, per
  system: the lowest load is unsaturated (goodput tracks offered), the
  highest load sits past the saturation knee (goodput plateaus or
  declines while offered load keeps rising), the excess is *counted*
  (sheds/timeouts, never silent — terminal tallies sum back to the
  arrival count), and the bounded queues keep the p99 tail finite.
* **Determinism grid** — the same seeded cell run twice must produce
  byte-identical latency-ledger fingerprints, and a forked-parallel
  sweep must reproduce the serial sweep row for row.

``--smoke`` runs a reduced grid — the CI guard. Run standalone::

    PYTHONPATH=src python benchmarks/bench_gateway.py [--smoke]
"""

import json
import sys
import time
from pathlib import Path

from repro.bench import print_table
from repro.bench.harness import sweep, sweep_parallel
from repro.core import SystemConfig
from repro.gateway import GatewayConfig, GatewayRun
from repro.workloads.openloop import (
    OpenLoopConfig,
    OpenLoopWorkload,
    ramp_steady_burst,
)

#: Three architectures with well-separated capacities (the modelled
#: contract cost pins OX near 1000 tps; XOV pays validation aborts;
#: FastFabric's pipelining roughly doubles OX).
SYSTEMS_UNDER_TEST = ["ox", "xov", "fastfabric"]
LOADS = [300, 600, 1200, 2400, 4800]
STEADY = 2.0
SEED = 11
#: The smoke grid's top two loads must both sit past every smoke
#: system's capacity (FastFabric's is ~2050 tps) so the plateau shows.
SMOKE_LOADS = [300, 2400, 4800]
SMOKE_STEADY = 1.0

#: Unsaturated when goodput >= this fraction of offered; saturated when
#: it falls below. The swept range must cross the boundary.
TRACKING_FRACTION = 0.7
SATURATED_FRACTION = 0.8
#: Bounded queues must keep the committed tail finite even past the
#: knee; this is generous against the modelled block/consensus delays.
P99_CEILING = 10.0

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_gateway.json"


def run_cell(system: str, load: float, steady: float = STEADY,
             seed: int = SEED) -> dict:
    """One (architecture, offered load) cell; returns a flat row."""
    workload = OpenLoopWorkload(OpenLoopConfig(
        clients=200_000,
        invalid_fraction=0.01,
        phases=ramp_steady_burst(load, steady=steady),
        seed=seed,
    ))
    run = GatewayRun(
        system,
        workload,
        gateway_config=GatewayConfig(
            rate=100.0,
            burst=10.0,
            queue_capacity=300,
            max_in_flight=600,
            batch_size=50,
        ),
        system_config=SystemConfig(
            block_size=50, seed=seed, max_time=workload.config.duration + 60.0
        ),
    )
    report = run.run()
    row = report.to_row()
    row["shed_reasons"] = report.sheds
    row["fingerprint"] = report.fingerprint
    row["sigcache_hits"] = report.extra["sigcache.hits"]
    return row


def run_latency_grid(
    systems=None, loads=None, steady: float = STEADY
) -> dict[str, list[dict]]:
    grid = {}
    for system in systems or SYSTEMS_UNDER_TEST:
        grid[system] = sweep(
            "offered", list(loads or LOADS),
            lambda load, system=system: run_cell(system, load, steady),
        )
    return grid


def find_knee(rows: list[dict]) -> float | None:
    """First offered load where goodput falls below the saturated
    fraction of offered — the knee of the latency/goodput curve."""
    for row in rows:
        if row["goodput_tps"] < SATURATED_FRACTION * row["offered"]:
            return row["offered"]
    return None


def check_latency_grid(grid: dict[str, list[dict]]) -> list[str]:
    failures = []
    for system, rows in grid.items():
        low, high = rows[0], rows[-1]
        if low["goodput_tps"] < TRACKING_FRACTION * low["offered"]:
            failures.append(
                f"{system}: unsaturated at {low['offered']} tx/s but "
                f"goodput is only {low['goodput_tps']}"
            )
        if high["goodput_tps"] >= SATURATED_FRACTION * high["offered"]:
            failures.append(
                f"{system}: top load {high['offered']} tx/s never "
                f"saturated (goodput {high['goodput_tps']}) — sweep past "
                "capacity or the knee is invisible"
            )
        best_below = max(row["goodput_tps"] for row in rows[:-1])
        if high["goodput_tps"] > 1.25 * best_below:
            failures.append(
                f"{system}: goodput still growing superlinearly at the "
                f"top load ({high['goodput_tps']} vs {best_below} below) "
                "— no plateau"
            )
        if high["shed"] + high["timeouts"] == 0:
            failures.append(
                f"{system}: saturated at {high['offered']} tx/s with "
                "zero sheds/timeouts — overload is being absorbed "
                "silently somewhere"
            )
        for row in rows:
            where = f"{system}@{row['offered']}"
            accounted = (
                row["committed"] + row["aborted"]
                + row["shed"] + row["timeouts"]
            )
            if accounted != row["arrivals"]:
                failures.append(
                    f"{where}: terminal tallies {accounted} != arrivals "
                    f"{row['arrivals']} — transactions silently lost"
                )
            if not 0 <= row["p50_latency"] <= row["p99_latency"]:
                failures.append(f"{where}: percentiles not ordered")
            if row["committed"] and row["p99_latency"] > P99_CEILING:
                failures.append(
                    f"{where}: p99 {row['p99_latency']}s exceeds the "
                    f"bounded-queue ceiling {P99_CEILING}s"
                )
        if find_knee(rows) is None:
            failures.append(f"{system}: no saturation knee in the sweep")
    return failures


def run_determinism(system: str = "ox", load: float = 1200,
                    steady: float = SMOKE_STEADY) -> dict:
    first = run_cell(system, load, steady)
    second = run_cell(system, load, steady)
    loads = [load / 2, load]
    serial = sweep(
        "offered", loads, lambda lo: run_cell(system, lo, steady)
    )
    parallel = sweep_parallel(
        "offered", loads, lambda lo: run_cell(system, lo, steady), workers=2
    )
    return {
        "system": system,
        "offered": load,
        "fingerprint": first["fingerprint"],
        "replays_identical": first == second,
        "serial_equals_parallel": serial == parallel,
    }


def check_determinism(row: dict) -> list[str]:
    failures = []
    if not row["replays_identical"]:
        failures.append(
            "determinism: same-seed gateway runs produced different "
            "latency ledgers"
        )
    if not row["serial_equals_parallel"]:
        failures.append(
            "determinism: forked-parallel sweep diverged from the serial "
            "sweep — a process-global leaked into the ledger"
        )
    return failures


# -- full run + gate ----------------------------------------------------------


def run_gateway_experiment(write_json: bool = True) -> dict:
    grid = run_latency_grid()
    report = {
        "experiment": "E22",
        "systems": SYSTEMS_UNDER_TEST,
        "loads": LOADS,
        "steady_seconds": STEADY,
        "seed": SEED,
        "latency_grid": grid,
        "knees": {system: find_knee(rows) for system, rows in grid.items()},
        "determinism": run_determinism(),
    }
    if write_json:
        JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def check_gate(report: dict) -> list[str]:
    return (
        check_latency_grid(report["latency_grid"])
        + check_determinism(report["determinism"])
    )


# -- smoke mode (CI guard) ----------------------------------------------------


def run_smoke() -> int:
    grid = run_latency_grid(
        systems=["ox", "fastfabric"], loads=SMOKE_LOADS, steady=SMOKE_STEADY
    )
    failures = check_latency_grid(grid)
    failures += check_determinism(run_determinism())
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        "gateway smoke: open-loop saturation knee visible, overload "
        "counted not silent, accounting conserved, same-seed ledgers "
        "byte-identical serial==parallel OK"
    )
    return 0


def test_gateway_smoke():
    """Pytest entry: the cheap core of the ``--smoke`` CI guard."""
    grid = run_latency_grid(systems=["ox"], loads=SMOKE_LOADS, steady=SMOKE_STEADY)
    assert check_latency_grid(grid) + check_determinism(run_determinism()) == []


if __name__ == "__main__":
    if "--smoke" in sys.argv[1:]:
        raise SystemExit(run_smoke())
    started = time.perf_counter()
    report = run_gateway_experiment()
    for system, rows in report["latency_grid"].items():
        print_table(
            [
                {k: v for k, v in row.items()
                 if k not in ("fingerprint", "shed_reasons")}
                for row in rows
            ],
            title=f"E22 {system}: latency vs offered load "
            f"(knee at {report['knees'][system]} tx/s)",
        )
    problems = check_gate(report)
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        raise SystemExit(1)
    print(
        "gateway gate: knee identified per system, overload counted, "
        "accounting conserved, byte-identical same-seed ledgers "
        f"serial==parallel OK [{time.perf_counter() - started:.1f}s]"
    )
