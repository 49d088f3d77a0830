"""One workload, one process: warm up, run a fixed number of reps, report.

A *rep* is ``setup`` (timed as one ``setup_s`` sample) followed by the
workload's timed section on a fresh system — several passes of it
where the section leaves the set-up untouched. A run of ten seconds
does the workload's ``reps_per_10s`` reps of the same seeded inputs, a
longer or shorter run proportionally many. Every metric is reported as
the median over the run's passes, with quartiles and sample count.

With ``trace`` off the run measures the end-to-end metrics. With it on,
the first reps run untraced — they supply the counts and the baseline
for ``bench.trace_overhead_share`` — and the rest with the trace points
of ``tracing.TRACE_POINTS`` installed.
"""

from __future__ import annotations

import gc
import json
import platform
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from stackbench import tracing
from stackbench.counters import reset_counters
from stackbench.metrics import END_TO_END, NOT_APPLICABLE, PER_LAYER, Metric
from stackbench.workloads import WORKLOADS, Sample, Workload, usable_cores

#: Fewest reps a run does, however few seconds it was given.
MIN_REPS = 3
#: A run takes this many ``setup_s`` samples at least; a workload with
#: fewer reps gets the extra ones from set-up-only reps.
MIN_SETUPS = 4
#: Share of a traced run's reps that run untraced.
UNTRACED_SHARE = 0.4
#: The driver stops a run at 180 s. On a machine so far below its usual
#: speed that a run has used this many seconds, the run ends with the
#: reps it has (``passes`` in the result says how many).
TIME_LIMIT_S = 120.0

BENCH_DIR = Path(__file__).resolve().parent.parent
REPO_ROOT = BENCH_DIR.parent.parent


def summarize(values: list[float | None], metric: Metric) -> dict[str, Any]:
    """Median, quartiles and count of the passes that have a value."""
    present = sorted(v for v in values if v is not None)
    if not present:
        return {"value": None, "n": 0, "unit": metric.unit}
    if len(present) == 1:
        q1 = median = q3 = present[0]
    else:
        q1, median, q3 = statistics.quantiles(
            present, n=4, method="inclusive"
        )
    return {"value": median, "q1": q1, "q3": q3, "n": len(present),
            "unit": metric.unit}


class Rep:
    """One setup and its timed sections, optionally under a tracer."""

    def __init__(self, workload: Workload, seed: int, sizes: dict[str, Any],
                 scratch: Path, tracer: tracing.Tracer | None = None) -> None:
        self.workload, self.seed, self.sizes = workload, seed, sizes
        self.scratch, self.tracer = scratch, tracer
        self.setup_s = 0.0
        #: One entry per timed pass.
        self.timed_walls: list[float] = []
        self.samples: list[Sample] = []
        self.problems: list[str] = []

    @contextmanager
    def _phase(self, name: str) -> Iterator[None]:
        if self.tracer is not None:
            self.tracer.begin(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - start
            if self.tracer is not None:
                wall = self.tracer.end()
            if name == "setup":
                self.setup_s = wall
            else:
                self.timed_walls.append(wall)

    def run(self, passes: int, audit: bool = False) -> "Rep":
        """``passes`` = 0 sets up and tears down only."""
        shutil.rmtree(self.scratch, ignore_errors=True)
        self.scratch.mkdir(parents=True)
        state = None
        try:
            gc.collect()  # set-up and every pass start from a clean heap
            with self._phase("setup"):
                state = self.workload.setup(
                    self.seed, self.sizes, self.scratch
                )
            for index in range(passes):
                reset_counters()
                gc.collect()
                sample = self.workload.timed(
                    state, lambda: self._phase("timed")
                )
                self.problems += self.workload.verify(
                    state, sample, audit and index == 0
                )
                self.samples.append(sample)
        finally:
            if state is not None:
                self.workload.close(state)
            shutil.rmtree(self.scratch, ignore_errors=True)
        return self


def _trace_value(metric: Metric, tracer: tracing.Tracer, passes: int,
                 setups: int, layer_self: dict[str, float]) -> float | None:
    """A per-layer metric read off the traced reps (mean per pass; per
    setup for the ``workloads`` layer), or None when the name is not a
    trace-derived one."""
    stem, _, kind = metric.name.rpartition(".")
    if kind not in ("busy_s", "self_s", "count"):
        return None
    if kind == "self_s" and stem in layer_self:
        return layer_self[stem] / passes
    if all(point.span != stem for point in tracing.TRACE_POINTS):
        return None
    phase, per = "timed", passes
    if tracing.layer_of(stem) == "workloads":
        phase, per = "setup", setups
    count, total, self_s = tracer.stat(phase, stem)
    return {"busy_s": total, "self_s": self_s, "count": count}[kind] / per


def rep_counts(workload: Workload, seconds: float, trace: bool,
               check: bool) -> tuple[int, int]:
    """(untraced reps, traced reps) of one run."""
    if check:
        return 1, int(trace)
    reps = max(MIN_REPS, round(workload.reps_per_10s * seconds / 10))
    if not trace:
        return reps, 0
    untraced = max(1, round(UNTRACED_SHARE * reps))
    return untraced, reps - untraced


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    check: bool = False,
    out: Path | None = None,
) -> dict[str, Any]:
    """Run one workload in this process; returns the detailed result."""
    workload = WORKLOADS[name]
    sizes = dict(workload.sizes)
    if check:
        sizes.update(workload.check_sizes)
    passes = 1 if check else workload.passes
    n_untraced, n_traced = rep_counts(workload, seconds, trace, check)
    started = time.perf_counter()

    # Durable files live inside the checkout, next to the benchmark,
    # and go when the run ends.
    with tempfile.TemporaryDirectory(
        prefix=".scratch-", dir=BENCH_DIR
    ) as root:
        scratch = Path(root) / "rep"

        def reps_of(count: int, tracer: tracing.Tracer | None) -> list[Rep]:
            reps: list[Rep] = []
            while len(reps) < count and not (
                len(reps) >= 2
                and time.perf_counter() - started > TIME_LIMIT_S
            ):
                reps.append(
                    Rep(workload, seed, sizes, scratch, tracer).run(
                        passes, audit=tracer is None and not reps
                    )
                )
            return reps

        # Warm-up at --check sizes: every code path once, caches and
        # lazy imports filled, for a fraction of a rep's cost.
        warm = Rep(workload, seed, {**sizes, **workload.check_sizes}, scratch)
        problems = list(warm.run(1).problems)

        untraced = reps_of(n_untraced, None)
        setups = [r.setup_s for r in untraced]
        while not trace and not check and len(setups) < MIN_SETUPS:
            setups.append(Rep(workload, seed, sizes, scratch).run(0).setup_s)

        traced: list[Rep] = []
        tracer = None
        if trace:
            tracer = tracing.Tracer()
            installation = tracing.install(tracer)
            try:
                traced = reps_of(n_traced, tracer)
            finally:
                installation.uninstall()

    samples = [s for r in untraced for s in r.samples]
    every = samples + [s for r in traced for s in r.samples]
    for r in untraced + traced:
        problems += r.problems
    if len({s.fingerprint for s in every}) != 1:
        problems.append("same-seed reps produced different outputs")

    def e2e_values(metric: Metric) -> list[float | None]:
        if metric.name == "setup_s":
            return setups
        if metric.name == "peak_rss_mb":
            return [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
        if metric.name == "wall_tx_per_s":
            return [s.ok / s.wall_s for s in samples]
        if metric.name == "ok_share":
            return [s.ok / s.ops for s in samples]
        return [s.end_to_end.get(metric.name) for s in samples]

    end_to_end = {
        metric.name: summarize(e2e_values(metric), metric)
        for metric in END_TO_END if name in metric.workloads
    }

    per_layer: dict[str, dict[str, Any]] = {}
    if tracer is not None:
        layer_self = tracer.layer_self("timed")
        traced_passes = sum(len(r.samples) for r in traced)
        traced_wall = statistics.median(
            w for r in traced for w in r.timed_walls)
        untraced_wall = statistics.median(
            w for r in untraced for w in r.timed_walls)
        bench = {
            "bench.other.self_s": layer_self["other"] / traced_passes,
            "bench.timed_wall_s":
                tracer.phase_wall["timed"] / traced_passes,
            "bench.trace_overhead_share":
                (traced_wall - untraced_wall) / untraced_wall,
        }
        for metric in PER_LAYER:
            value = _trace_value(
                metric, tracer, traced_passes, len(traced), layer_self
            )
            if value is None:
                value = bench.get(metric.name)
            if value is not None:
                per_layer[metric.name] = {
                    "value": value, "n": traced_passes, "unit": metric.unit,
                }
            else:
                per_layer[metric.name] = summarize(
                    [s.layer.get(metric.name, 0) for s in samples], metric
                )

    result = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "sizes": sizes,
        "correct": not problems,
        "problems": problems,
        "attempted": sum(s.ops for s in every),
        "failed": sum(s.failed for s in every),
        "passes": {
            "untraced": len(samples), "traced": len(every) - len(samples),
            "setups": len(setups),
        },
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{name}.seed{seed}.trace{int(trace)}"
        (out / f"{stem}.json").write_text(json.dumps(result, indent=1))
        if tracer is not None:
            with open(out / f"{stem}.spans.jsonl", "w") as handle:
                for span in tracer.spans:
                    handle.write(json.dumps(span) + "\n")
    return result


def driver_line(result: dict[str, Any]) -> str:
    """The contract's last stdout line: ``--trace 0`` carries every
    ``end_to_end`` metric of ``BENCHMARK.json`` (``NOT_APPLICABLE``
    where this workload does not measure it), ``--trace 1`` every
    ``per_layer`` one (null where the program no longer has the
    counter behind it)."""
    metrics = {}
    if result["trace"]:
        for metric in PER_LAYER:
            metrics[metric.name] = {
                "value": result["per_layer"][metric.name]["value"],
                "unit": metric.unit,
            }
    else:
        for metric in END_TO_END:
            entry = result["end_to_end"].get(metric.name)
            metrics[metric.name] = {
                "value": entry["value"] if entry else NOT_APPLICABLE,
                "unit": metric.unit,
            }
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def print_result(result: dict[str, Any]) -> None:
    """Every metric by name, with its unit."""
    print(f"== {result['workload']}  seed={result['seed']}  "
          f"trace={int(result['trace'])}  passes={result['passes']}")
    for section in ("end_to_end", "per_layer"):
        for metric_name, entry in result[section].items():
            value = entry["value"]
            shown = "null" if value is None else f"{value:.6g}"
            spread = ""
            if "q1" in entry and entry["n"] > 1:
                spread = (f"  [q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}"
                          f"  n={entry['n']}]")
            print(f"  {metric_name:<40} {shown:>14} {entry['unit']}{spread}")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")


def environment(seed: int) -> dict[str, Any]:
    return {
        "python": platform.python_version(),
        "cores": usable_cores(),
        "platform": platform.platform(),
        "commit": _commit(),
        "seed": seed,
        "sizes": {name: w.sizes for name, w in WORKLOADS.items()},
    }


def _commit() -> str | None:
    """HEAD's hash, read from ``.git`` without running git; None in a
    checkout that is not a repository."""
    head = REPO_ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (REPO_ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None
