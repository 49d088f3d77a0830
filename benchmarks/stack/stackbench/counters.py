"""Counts the benchmark owns, and one adapter for the ones it does not.

:class:`CountingBackend` wraps a storage backend and counts what
crosses it — bytes per append/replace, fsyncs, and the most bytes
written inside one block commit — so the storage end-to-end metrics do
not depend on the program's process-global counter dicts.

Everything else the benchmark reads from those dicts goes through
:func:`read_counters`. A source that no longer exists reads as ``None``
with a warning on stderr: it never crashes a run and never feeds an
end-to-end metric.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable

#: ``prefix -> (module, attribute)`` of every internal counter dict read.
COUNTER_SOURCES = {
    "store": ("repro.ledger.store", "STORE_COUNTERS"),
    "merkle": ("repro.crypto.merkle", "MERKLE_COUNTERS"),
    "exec": ("repro.execution.parallel_backend", "EXEC_COUNTERS"),
    "backend": ("repro.storage.backend", "STORAGE_COUNTERS"),
    "tier_merges": ("repro.storage.snapshots", "STORAGE_TIER_COMPACTIONS"),
}

#: Functions that zero those dicts and the process-global caches behind
#: them, so same-seed reps in one process do equal work.
RESET_FUNCTIONS = (
    ("repro.bench.profiling", "reset_hotpath_counters"),
    ("repro.storage.backend", "reset_storage_counters"),
)

_warned: set[str] = set()


def _warn_once(what: str) -> None:
    if what not in _warned:
        _warned.add(what)
        print(f"stackbench: warning: {what}", file=sys.stderr)


def _lookup(module: str, attribute: str) -> Any:
    try:
        return getattr(importlib.import_module(module), attribute, None)
    except ImportError:
        return None


class Counters(dict):
    """``read_counters()`` result: unknown keys read as None, so a
    metric built on a vanished counter reports null instead of raising."""

    def __missing__(self, key: str) -> None:
        _warn_once(f"counter {key!r} is not available")
        return None


def read_counters() -> Counters:
    """Flat ``prefix.key -> value`` snapshot of every source present."""
    out = Counters()
    for prefix, (module, attribute) in COUNTER_SOURCES.items():
        source = _lookup(module, attribute)
        if not isinstance(source, dict):
            _warn_once(f"counter source {module}.{attribute} is missing")
            continue
        if prefix == "tier_merges":
            out["tier_merges.total"] = sum(source.values())
            continue
        for key, value in source.items():
            out[f"{prefix}.{key}"] = value
    return out


def reset_counters() -> None:
    for module, attribute in RESET_FUNCTIONS:
        reset = _lookup(module, attribute)
        if reset is None:
            _warn_once(f"reset function {module}.{attribute} is missing")
        else:
            reset()


def ratio(numerator: Any, denominator: Any) -> float | None:
    """``numerator / denominator``; None when a side is missing or the
    denominator is zero."""
    if numerator is None or not denominator:
        return None
    return numerator / denominator


def hit_rate(hits: Any, misses: Any) -> float | None:
    """``hits / (hits + misses)``, None when a side is missing."""
    if hits is None or misses is None:
        return None
    return ratio(hits, hits + misses)


class CountingBackend:
    """Byte and fsync accounting around any storage backend.

    ``kind_of(file name)`` sorts files into ``"wal"``, ``"run"`` or
    ``"other"`` (the manifest); ``written`` maps each kind to the bytes
    handed to ``append``/``replace``. :meth:`mark` closes one block
    commit and keeps the largest byte count any commit wrote — the
    foreground stall proxy. Everything else is delegated untouched.
    """

    def __init__(self, inner: Any, kind_of: Callable[[str], str]) -> None:
        self._inner = inner
        self.kind_of = kind_of
        self.written: dict[str, int] = {"wal": 0, "run": 0, "other": 0}
        self.appends = 0
        self.replaces = 0
        self.fsyncs: dict[str, int] = {"wal": 0, "run": 0, "other": 0}
        self.max_commit_bytes = 0
        self._since_mark = 0

    @property
    def total_written(self) -> int:
        return sum(self.written.values())

    def mark(self) -> None:
        if self._since_mark > self.max_commit_bytes:
            self.max_commit_bytes = self._since_mark
        self._since_mark = 0

    def append(self, name: str, data: bytes) -> None:
        self._inner.append(name, data)
        self.appends += 1
        self.written[self.kind_of(name)] += len(data)
        self._since_mark += len(data)

    def replace(self, name: str, data: bytes) -> None:
        self._inner.replace(name, data)
        self.replaces += 1
        self.written[self.kind_of(name)] += len(data)
        self._since_mark += len(data)

    def fsync(self, name: str) -> None:
        self._inner.fsync(name)
        self.fsyncs[self.kind_of(name)] += 1

    def bytes_on_disk(self) -> int:
        return sum(self._inner.size(name) for name in self._inner.list())

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)
