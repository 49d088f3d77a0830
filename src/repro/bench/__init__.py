"""Benchmark harness utilities: one sweep path, counters, tables."""

from repro.bench.harness import run_architecture, sweep
from repro.bench.profiling import hotpath_counters, reset_hotpath_counters
from repro.bench.reporting import format_table, print_table, to_markdown

__all__ = [
    "format_table",
    "hotpath_counters",
    "print_table",
    "reset_hotpath_counters",
    "run_architecture",
    "sweep",
    "to_markdown",
]
