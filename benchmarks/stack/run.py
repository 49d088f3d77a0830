"""stackbench — one benchmark for the whole stack.

    python3 benchmarks/stack/run.py                      # all seven workloads
    python3 benchmarks/stack/run.py --workload W --seed S --seconds T --trace 0|1
    python3 benchmarks/stack/run.py --check              # tiny sizes, < 20 s
    python3 benchmarks/stack/run.py --repeat 2 --out benchmarks/stack/results

With ``--workload`` the workload runs in this process and the last line
of standard output is the one JSON object ``BENCHMARK.json``'s contract
asks for. Without it, every workload runs in a fresh subprocess, once
untraced and once traced, and the merged result is printed, written to
``--out`` and logged to ``results/history.jsonl``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent.parent
sys.path[:0] = [str(BENCH_DIR), str(REPO_ROOT / "src")]

from stackbench import harness, metrics, tracing  # noqa: E402
from compare import agreement, print_rows  # noqa: E402

HISTORY = BENCH_DIR / "results" / "history.jsonl"


def run_child(workload: str, seed: int, seconds: float, trace: int,
              out: Path) -> dict:
    """One workload in a fresh process (isolates the program's
    process-global counters and makes ``peak_rss_mb`` its own)."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out", str(out),
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) exited "
                         f"{done.returncode}")
    return json.loads(
        (out / f"{workload}.seed{seed}.trace{trace}.json").read_text()
    )


def run_set(seed: int, seconds: float, traces: list[int], out: Path,
            only: str | None = None) -> dict:
    """All workloads once; end-to-end from the untraced run, per-layer
    from the traced one."""
    result = {
        "schema": "stackbench/1",
        "claim": None,
        "env": harness.environment(seed),
        "run_seconds": seconds,
        "workloads": {},
    }
    for name in metrics.WORKLOADS:
        if only not in (None, name):
            continue
        merged: dict = {"correct": True, "problems": []}
        for trace in traces:  # untraced first, so its numbers win
            child = run_child(name, seed, seconds, trace, out)
            harness.print_result(child)
            merged["correct"] &= child["correct"]
            merged["problems"] += child["problems"]
            if trace:
                merged["per_layer"] = child["per_layer"]
            for key in ("sizes", "attempted", "failed", "end_to_end"):
                merged.setdefault(key, child[key])
        result["workloads"][name] = merged
    return result


def log_history(result: dict) -> None:
    line = {
        "date": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "commit": result["env"]["commit"],
        "seed": result["env"]["seed"],
        "cores": result["env"]["cores"],
        "python": result["env"]["python"],
        "workloads": {
            name: {
                metric: entry["value"]
                for metric, entry in body["end_to_end"].items()
            }
            for name, body in result["workloads"].items()
        },
    }
    HISTORY.parent.mkdir(parents=True, exist_ok=True)
    with open(HISTORY, "a") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        default=float(metrics.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=None,
                        help="0 untraced, 1 traced; default: both for the "
                             "whole set, 0 for one workload")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the whole set N times and compare them")
    parser.add_argument("--check", action="store_true",
                        help="tiny sizes: names, trace points, oracles")
    parser.add_argument("--out", type=Path,
                        help="directory for result files and raw spans")
    parser.add_argument("--manifest", action="store_true",
                        help="print BENCHMARK.json as the tables define it")
    args = parser.parse_args(argv)

    if args.manifest:
        print(json.dumps(metrics.benchmark_json(), indent=2))
        return 0
    if args.check:
        from check import run_check
        return run_check(args.seed)
    if args.workload and args.repeat == 1:
        result = harness.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            out=args.out,
        )
        harness.print_result(result)
        print(harness.driver_line(result))
        return 0

    traces = [0, 1] if args.trace is None else [args.trace]
    # Children hand their detailed result over as a file; without
    # --out that is a scratch directory, gone when the run ends.
    with tempfile.TemporaryDirectory(
        prefix=".scratch-", dir=BENCH_DIR
    ) as scratch:
        out = args.out or Path(scratch)
        sets = []
        for index in range(args.repeat):
            print(f"#### set {index + 1} of {args.repeat}  seed={args.seed}")
            sets.append(run_set(args.seed, args.seconds, traces, out,
                                args.workload))
            log_history(sets[-1])
    status = 0 if all(
        body["correct"]
        for one in sets for body in one["workloads"].values()
    ) else 1
    document = sets[0]
    target = "result.json"
    if args.repeat > 1:
        rows = agreement(sets[:1], sets[1:])
        print_rows(rows)
        if any(row["verdict"] == "disagree" for row in rows):
            status = 1
        document = {"schema": "stackbench-repeat/1", "claim": None,
                    "sets": sets, "agreement": rows}
        target = "repeatability.json"
    if args.out:
        (args.out / target).write_text(json.dumps(document, indent=1))
        print(f"wrote {args.out / target}")
    return status


if __name__ == "__main__":
    try:
        sys.exit(main())
    except tracing.TraceError as error:
        sys.exit(f"stackbench: {error}")
