"""``pytest benchmarks/stack`` — the benchmark's self-checks as tests.

Not part of the tier-1 suite (``testpaths = ["tests"]``); run it when
the benchmark or a symbol on its pinned surface changes.
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent.parent / "src")]

import check  # noqa: E402
import compare  # noqa: E402
from stackbench import counters, metrics, tracing  # noqa: E402


def test_benchmark_json_matches_the_tables():
    assert check.manifest_problems() == []


@pytest.mark.parametrize("name", list(metrics.WORKLOADS))
def test_workload_emits_every_metric_and_passes_its_oracles(name):
    assert check.workload_problems(name, seed=11) == []


def test_commit_loop_ends_where_a_durable_cluster_ends():
    assert check.fidelity_problems(seed=11) == []


def test_a_missing_trace_point_fails_by_name(monkeypatch):
    gone = tracing.TracePoint("sim.run", "repro.sim.core", "Simulation.go")
    monkeypatch.setattr(tracing, "TRACE_POINTS", (gone,))
    with pytest.raises(tracing.TraceError, match="Simulation.go"):
        tracing.install(tracing.Tracer())


def test_install_then_uninstall_restores_every_symbol():
    from repro.storage import paged
    from stackbench import workloads

    before = (paged.PagedStateStore.__dict__.get("get_versioned"),
              workloads.state_root, workloads.scan_rows)
    tracing.install(tracing.Tracer()).uninstall()
    assert before == (paged.PagedStateStore.__dict__.get("get_versioned"),
                      workloads.state_root, workloads.scan_rows)


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    inner = tracer.wrap(tracing.TracePoint("ledger.inner", "", ""),
                        lambda: None)
    outer = tracer.wrap(tracing.TracePoint("core.outer", "", ""), inner)
    tracer.begin("timed")
    outer()
    wall = tracer.end()
    _, outer_total, outer_self = tracer.stat("timed", "core.outer")
    _, inner_total, _ = tracer.stat("timed", "ledger.inner")
    assert outer_self == pytest.approx(outer_total - inner_total)
    assert sum(tracer.layer_self("timed").values()) == pytest.approx(wall)
    assert [span[3] for span in tracer.spans] == [-1, 0]  # parents


def test_a_vanished_counter_source_reads_as_none(monkeypatch, capsys):
    monkeypatch.setitem(
        counters.COUNTER_SOURCES, "store", ("repro.ledger.store", "GONE")
    )
    monkeypatch.setattr(counters, "_warned", set())
    snapshot = counters.read_counters()
    assert snapshot["store.budget_spills"] is None
    assert counters.ratio(snapshot["store.block_cache_hits"], 10) is None
    assert "GONE is missing" in capsys.readouterr().err


def test_driver_line_fills_unmeasured_metrics_and_keeps_nulls():
    import json
    from stackbench import harness

    result = {
        "correct": True, "attempted": 5, "failed": 0, "trace": False,
        "end_to_end": {
            m.name: {"value": 2.5} for m in metrics.END_TO_END
            if "paged_read" in m.workloads
        },
        "per_layer": {m.name: {"value": None} for m in metrics.PER_LAYER},
    }
    line = json.loads(harness.driver_line(result))["metrics"]
    assert list(line) == [m.name for m in metrics.END_TO_END]
    assert line["wall_scan_rows_per_s"]["value"] == 2.5
    assert line["pool_speedup"]["value"] == metrics.NOT_APPLICABLE
    traced = json.loads(harness.driver_line({**result, "trace": True}))
    assert traced["metrics"]["storage.wal.bytes"]["value"] is None


def test_counting_backend_counts_bytes_fsyncs_and_the_largest_commit():
    from repro.storage.backend import MemoryBackend
    from stackbench.workloads import file_kind

    backend = counters.CountingBackend(MemoryBackend(), file_kind)
    backend.append("wal-000001.log", b"x" * 10)
    backend.fsync("wal-000001.log")
    backend.mark()
    backend.replace("MANIFEST.json", b"y" * 30)
    backend.append("wal-000001.log", b"x" * 5)
    backend.mark()
    assert backend.written == {"wal": 15, "run": 0, "other": 30}
    assert backend.fsyncs["wal"] == 1
    assert backend.max_commit_bytes == 35
    assert backend.read("MANIFEST.json") == b"y" * 30  # delegated


def _one_set(seed, value, q1, q3):
    entry = {"value": value, "q1": q1, "q3": q3, "n": 5}
    return {"env": {"seed": seed}, "workloads": {"paged_read": {
        "end_to_end": {"wall_tx_per_s": entry,
                       "ok_share": {"value": 1.0, "n": 5}}}}}


def test_compare_verdicts():
    base = [_one_set(11, 100.0, 99.0, 101.0)]
    verdict = lambda other: {  # noqa: E731
        row["metric"]: row["verdict"]
        for row in compare.agreement(base, other)
    }
    assert verdict([_one_set(11, 90.0, 89.0, 91.0)]) == {
        "wall_tx_per_s": "agree", "ok_share": "agree"}
    assert verdict([_one_set(11, 70.0, 69.0, 71.0)])[
        "wall_tx_per_s"] == "disagree"
    assert verdict([_one_set(11, 90.0, 70.0, 110.0)])[
        "wall_tx_per_s"] == "unresolved"
