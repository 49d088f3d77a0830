"""Simulator-core microbenchmarks — the repo's performance trajectory.

Unlike E1–E15, which reproduce paper *shapes*, this file tracks raw
speed of the hot paths every experiment funnels through: the event
heap, the network transport, and a representative harness sweep. It
writes ``BENCH_simcore.json`` at the repo root so successive PRs have
an events/sec trajectory to compare against.

``BASELINE`` holds the numbers measured at the pre-overhaul core (the
``@dataclass(order=True)`` event heap with lambda-per-send transport),
captured on the same machine class that produced the current numbers.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_simcore.py
"""

import json
import time
from pathlib import Path

from repro.bench import print_table, run_architecture, sweep
from repro.core import SystemConfig
from repro.sim.core import Simulation
from repro.sim.network import LanLatency, Network
from repro.sim.node import Node
from repro.workloads import KvWorkload

#: Measured at the pre-overhaul core (PR 1 parent commit); see docstring.
BASELINE = {
    "events_per_sec": 384178.7,
    "sends_per_sec": 373410.0,
    "sweep_wall_seconds": 0.0434,
}

EVENTS = 200_000
OUTSTANDING = 1_000
BROADCAST_ROUNDS = 4_000
FANOUT = 16
REPEATS = 3


def run_event_loop(n_events: int = EVENTS, outstanding: int = OUTSTANDING):
    """Event-loop microbench: ``outstanding`` live timers, each firing
    reschedules itself — a steady-state heap like a consensus cluster's
    timer population."""
    sim = Simulation(seed=1)
    rng = sim.rng
    schedule = sim.schedule

    def tick():
        schedule(rng.random() * 0.01, tick)

    for _ in range(outstanding):
        schedule(rng.random() * 0.01, tick)
    start = time.perf_counter()
    processed = sim.run(max_events=n_events)
    wall = time.perf_counter() - start
    return {"events": processed, "wall_seconds": wall,
            "events_per_sec": processed / wall}


class _Sink(Node):
    def on_message(self, src, message):
        pass


def run_network_broadcast(rounds: int = BROADCAST_ROUNDS, fanout: int = FANOUT):
    """Transport microbench: repeated all-node broadcasts, the dominant
    message pattern of the BFT protocols."""
    sim = Simulation(seed=2)
    net = Network(sim, latency=LanLatency())
    nodes = [_Sink(f"n{i}", sim, net) for i in range(fanout + 1)]
    total = rounds * fanout
    sent = [0]

    def blast():
        nodes[0].broadcast("payload")
        sent[0] += fanout
        if sent[0] < total:
            sim.schedule(0.01, blast)

    sim.schedule(0.0, blast)
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    return {"sends": total, "wall_seconds": wall,
            "sends_per_sec": total / wall}


def run_sweep_wall():
    """End-to-end harness bench: a small skew sweep over the OX system."""
    start = time.perf_counter()
    rows = sweep(
        "skew",
        [0.0, 0.5, 0.9, 0.99],
        lambda theta: run_architecture(
            "ox",
            KvWorkload(theta=theta, seed=11).generate(300),
            SystemConfig(block_size=30, seed=11),
        ),
    )
    wall = time.perf_counter() - start
    return {"rows": len(rows), "sweep_wall_seconds": wall}


def run_simcore(repeats: int = REPEATS, write_json: bool = True):
    """Run every microbench ``repeats`` times, keep the best, write
    ``BENCH_simcore.json`` next to the repo root."""
    best_loop = max((run_event_loop() for _ in range(repeats)),
                    key=lambda r: r["events_per_sec"])
    best_net = max((run_network_broadcast() for _ in range(repeats)),
                   key=lambda r: r["sends_per_sec"])
    best_sweep = min((run_sweep_wall() for _ in range(repeats)),
                     key=lambda r: r["sweep_wall_seconds"])
    current = {
        "events_per_sec": round(best_loop["events_per_sec"], 1),
        "sends_per_sec": round(best_net["sends_per_sec"], 1),
        "sweep_wall_seconds": round(best_sweep["sweep_wall_seconds"], 4),
    }
    report = {"baseline": BASELINE, "current": current}
    if BASELINE["events_per_sec"]:
        report["speedup"] = {
            "events_per_sec": round(
                current["events_per_sec"] / BASELINE["events_per_sec"], 2
            ),
            "sends_per_sec": round(
                current["sends_per_sec"] / BASELINE["sends_per_sec"], 2
            ),
            "sweep_wall_seconds": round(
                BASELINE["sweep_wall_seconds"]
                / max(current["sweep_wall_seconds"], 1e-9),
                2,
            ),
        }
    if write_json:
        path = Path(__file__).resolve().parent.parent / "BENCH_simcore.json"
        path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_simcore_microbench():
    report = run_simcore()
    rows = [
        {"metric": k, "baseline": report["baseline"][k] or "-",
         "current": v, "speedup": report.get("speedup", {}).get(k, "-")}
        for k, v in report["current"].items()
    ]
    print_table(rows, title="simulator core hot-path trajectory")
    assert report["current"]["events_per_sec"] > 0


if __name__ == "__main__":
    report = run_simcore()
    print(json.dumps(report, indent=2))
