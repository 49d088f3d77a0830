"""Benchmark harness utilities shared by everything under ``benchmarks/``."""

from repro.bench.harness import (
    WORKERS_ENV,
    compare_systems,
    compare_systems_parallel,
    env_workers,
    run_architecture,
    sweep,
    sweep_parallel,
)
from repro.bench.profiling import (
    hotpath_counters,
    profiled,
    reset_hotpath_counters,
    top_hotspots,
)
from repro.bench.reporting import format_table, print_table, to_markdown

__all__ = [
    "WORKERS_ENV",
    "compare_systems",
    "compare_systems_parallel",
    "env_workers",
    "format_table",
    "hotpath_counters",
    "print_table",
    "profiled",
    "reset_hotpath_counters",
    "run_architecture",
    "sweep",
    "sweep_parallel",
    "to_markdown",
    "top_hotspots",
]
