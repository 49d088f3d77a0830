"""Compare two stackbench result files, metric by metric.

    python3 benchmarks/stack/compare.py A.json B.json

Each file is a ``result.json`` (one set) or a ``repeatability.json``
(several). For every (workload, end-to-end metric) present in both it
prints each side's median — over sets when a side has several, over
its one set's passes otherwise — B's change against A as a share of
A's median (positive = worse), and the wider of the two sides' quartile
spreads (over sets, or over the passes of the one set), next to the
metric's bound from ``stackbench/metrics.py``, the same bound
``BENCHMARK.json`` carries:

* ``agree``      the values differ by no more than the bound;
* ``disagree``   they differ by more (either way) — exit status 1;
* ``unresolved`` a side's own quartile spread is wider than the bound,
  so the pair cannot be told apart from noise at this run length.

Where a metric comes off the virtual clock or a byte count (``exact``
in the table names the workloads) it must be *equal* when both files
used the same seed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stackbench.metrics import END_TO_END, Metric  # noqa: E402


def load_sets(path: str) -> list[dict]:
    data = json.loads(Path(path).read_text())
    return data["sets"] if "sets" in data else [data]


def _side(sets: list[dict], workload: str, metric: str):
    """(values over sets, median, q1, q3) or None when absent."""
    entries = [
        one["workloads"][workload]["end_to_end"].get(metric)
        for one in sets if workload in one["workloads"]
    ]
    entries = [e for e in entries if e and e.get("value") is not None]
    if not entries:
        return None
    values = [e["value"] for e in entries]
    if len(values) == 1:
        only = entries[0]
        return values, only["value"], only.get("q1", only["value"]), only.get(
            "q3", only["value"])
    q1, median, q3 = statistics.quantiles(values, n=4)
    return values, median, q1, q3


def _row(workload: str, metric: Metric, a, b, same_seed: bool) -> dict:
    a_values, a_med, a_q1, a_q3 = a
    b_values, b_med, b_q1, b_q3 = b
    worse = (b_med - a_med) / abs(a_med)
    if metric.better == "higher":
        worse = -worse
    spread = max((a_q3 - a_q1) / abs(a_med), (b_q3 - b_q1) / abs(b_med))
    exact = same_seed and workload in metric.exact
    if exact:
        verdict = "agree" if set(a_values) == set(b_values) and len(
            set(a_values)) == 1 else "disagree"
    elif spread > metric.bound:
        verdict = "unresolved"
    else:
        verdict = "agree" if abs(worse) <= metric.bound else "disagree"
    return {
        "workload": workload, "metric": metric.name, "unit": metric.unit,
        "a": a_med, "a_q1": a_q1, "a_q3": a_q3,
        "b": b_med, "b_q1": b_q1, "b_q3": b_q3,
        "worse_by": worse, "spread": spread, "bound": metric.bound,
        "exact": exact, "verdict": verdict,
    }


def agreement(a_sets: list[dict], b_sets: list[dict]) -> list[dict]:
    """One row per (workload, end-to-end metric) both sides report."""
    same_seed = len(
        {one["env"]["seed"] for one in a_sets + b_sets}
    ) == 1
    rows = []
    for workload in a_sets[0]["workloads"]:
        for metric in END_TO_END:
            a = _side(a_sets, workload, metric.name)
            b = _side(b_sets, workload, metric.name)
            if a and b:
                rows.append(_row(workload, metric, a, b, same_seed))
    return rows


def print_rows(rows: list[dict]) -> None:
    print(f"{'workload':<19}{'metric':<22}{'A':>12}{'B':>12}"
          f"{'worse by':>10}{'spread':>9}{'bound':>8}  verdict")
    for row in rows:
        bound = "exact" if row["exact"] else f"{row['bound']:.0%}"
        print(
            f"{row['workload']:<19}{row['metric']:<22}{row['a']:>12.5g}"
            f"{row['b']:>12.5g}{row['worse_by']:>+10.2%}"
            f"{row['spread']:>9.2%}{bound:>8}  {row['verdict']}"
        )
    tally = {
        verdict: sum(row["verdict"] == verdict for row in rows)
        for verdict in ("agree", "unresolved", "disagree")
    }
    print(f"{len(rows)} pairs: " + ", ".join(
        f"{count} {verdict}" for verdict, count in tally.items()))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    rows = agreement(load_sets(argv[0]), load_sets(argv[1]))
    print_rows(rows)
    return 1 if any(row["verdict"] == "disagree" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
