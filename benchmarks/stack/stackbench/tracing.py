"""Spans recorded from outside the program: the traced run's machinery.

Nothing under ``src/`` knows it is being traced. :func:`install` wraps
the public entry points listed in :data:`TRACE_POINTS` with a timing
wrapper, :func:`uninstall` puts the originals back. A span is
``(name, start, end, parent, ident)``: ``parent`` is the index of the
enclosing span in the same list (-1 at top level) and ``ident`` the
transaction id or block height the call was about, when the trace point
says where to find it. Spans stay in memory until the run ends.

A layer's *self time* is its spans' duration minus the part their child
spans cover, so per phase the self times of all names plus the time
outside any span add up to the phase's wall time exactly.

A trace point whose symbol no longer exists raises :class:`TraceError`
naming it: a renamed function must fail the run, not drop a layer.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable


class TraceError(RuntimeError):
    """A TRACE_POINTS symbol does not resolve."""


def _tx(position: int) -> Callable[[tuple], Any]:
    return lambda args: getattr(args[position], "tx_id", None)


def _record_tx(position: int) -> Callable[[tuple], Any]:
    return lambda args: getattr(
        getattr(args[position], "tx", None), "tx_id", None
    )


def _block(position: int) -> Callable[[tuple], Any]:
    return lambda args: getattr(args[position], "height", None)


@dataclass(frozen=True)
class TracePoint:
    """One wrapped symbol: ``module:Class.method`` or ``module:function``.

    Methods are wrapped on the class (late-bound, so instances built
    before or after :func:`install` both go through the wrapper).
    Functions are wrapped in their defining module and in every loaded
    module that imported the same object by name.
    """

    span: str
    module: str
    symbol: str
    ident: Callable[[tuple], Any] | None = None


#: Every boundary the traced run records, by layer. The span name's
#: first component is the layer (``sim``, ``consensus``, ``gateway``,
#: ``crypto``, ``core``, ``execution``, ``ledger``, ``storage``,
#: ``workloads``); several symbols may feed one span name.
TRACE_POINTS: tuple[TracePoint, ...] = (
    TracePoint("sim.run", "repro.sim.core", "Simulation.run"),
    TracePoint("sim.network.send", "repro.sim.network", "Network.send"),
    TracePoint("sim.network.send", "repro.sim.network", "Network.broadcast"),
    TracePoint("consensus.on_message", "repro.consensus.pbft",
               "PbftReplica.on_message"),
    TracePoint("consensus.on_message", "repro.consensus.raft",
               "RaftReplica.on_message"),
    TracePoint("consensus.submit", "repro.consensus.base",
               "ConsensusCluster.submit"),
    TracePoint("gateway.submit", "repro.gateway.core", "Gateway.submit",
               _tx(1)),
    TracePoint("crypto.sign", "repro.crypto.signatures",
               "MembershipService.sign"),
    TracePoint("crypto.verify", "repro.crypto.signatures",
               "MembershipService.verify"),
    TracePoint("core.ingest", "repro.core.xov", "XovSystem._ingest",
               _record_tx(1)),
    TracePoint("core.block_decided", "repro.core.xov",
               "XovSystem._on_block_decided"),
    TracePoint("execution.execute", "repro.execution.rwsets",
               "execute_with_capture", _tx(1)),
    TracePoint("execution.validate", "repro.execution.mvcc",
               "validate_endorsement"),
    TracePoint("execution.pool.execute_block",
               "repro.execution.parallel_backend",
               "ParallelExecutor.execute_block", _block(1)),
    TracePoint("ledger.apply_writes", "repro.ledger.store",
               "StateStore.apply_writes"),
    TracePoint("ledger.chain.append", "repro.ledger.chain",
               "Blockchain.append", _block(1)),
    TracePoint("storage.state_root", "repro.storage.codec", "state_root"),
    TracePoint("storage.wal.append", "repro.storage.durable",
               "DurableLedger.commit_block", _block(1)),
    TracePoint("storage.snapshot", "repro.storage.durable",
               "DurableLedger.maybe_snapshot", _block(1)),
    TracePoint("storage.recover", "repro.storage.durable",
               "DurableLedger.recover"),
    TracePoint("storage.get", "repro.storage.paged",
               "PagedStateStore.get_versioned"),
    # PagedStateStore.scan is a generator: the span has to cover its
    # consumption, so the point is the benchmark's own consuming helper.
    TracePoint("storage.scan", "stackbench.workloads", "scan_rows"),
    TracePoint("storage.codec.encode", "repro.storage.codec",
               "encode_block_rows"),
    TracePoint("storage.codec.encode", "repro.storage.codec",
               "encode_block", _block(0)),
    TracePoint("storage.codec.decode", "repro.storage.codec",
               "decode_block_rows"),
    TracePoint("storage.codec.decode", "repro.storage.codec",
               "decode_block"),
    TracePoint("workloads.generate", "repro.workloads.openloop",
               "OpenLoopWorkload.arrivals"),
    TracePoint("workloads.generate", "repro.workloads.kv",
               "KvWorkload.generate"),
)

#: Layers in the order reports print them.
LAYERS = (
    "sim", "consensus", "gateway", "crypto", "core", "execution",
    "ledger", "storage", "workloads",
)


def layer_of(span: str) -> str:
    return span.split(".", 1)[0]


class Tracer:
    """In-memory span log with per-phase aggregates.

    ``begin(phase)`` / ``end()`` bracket a phase (``"setup"`` or
    ``"timed"``); calls outside a phase run untraced. Aggregates are
    ``{phase: {span name: [count, total_s, self_s]}}``.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, Any]] = []
        self.aggregates: dict[str, dict[str, list[float]]] = {}
        self.phase_wall: dict[str, float] = {}
        self._phase: str | None = None
        self._phase_start = 0.0
        #: Open spans: [name, child seconds, span index].
        self._stack: list[list[Any]] = []

    def begin(self, phase: str) -> None:
        self._phase = phase
        self.aggregates.setdefault(phase, {})
        self._phase_start = perf_counter()

    def end(self) -> float:
        wall = perf_counter() - self._phase_start
        phase = self._phase
        self._phase = None
        assert phase is not None and not self._stack
        self.phase_wall[phase] = self.phase_wall.get(phase, 0.0) + wall
        return wall

    def wrap(self, point: TracePoint, fn: Callable) -> Callable:
        name = point.span
        ident_of = point.ident
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            phase = self._phase
            if phase is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)  # type: ignore[arg-type]  # filled on exit
            frame = [name, 0.0, index]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                totals = self.aggregates[phase].get(name)
                if totals is None:
                    totals = self.aggregates[phase][name] = [0, 0.0, 0.0]
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
                ident = ident_of(args) if ident_of else None
                parent = stack[-1][2] if stack else -1
                spans[index] = (name, start, end, parent, ident)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- reading the aggregates ---------------------------------------------

    def stat(self, phase: str, name: str) -> tuple[int, float, float]:
        count, total, self_s = self.aggregates.get(phase, {}).get(
            name, (0, 0.0, 0.0)
        )
        return int(count), total, self_s

    def layer_self(self, phase: str) -> dict[str, float]:
        """Self seconds per layer, plus ``other``: phase wall outside
        every span. The values add up to the phase's wall time."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_count, _total, self_s) in self.aggregates.get(
            phase, {}
        ).items():
            out[layer_of(name)] += self_s
        out["other"] = self.phase_wall.get(phase, 0.0) - sum(out.values())
        return out


def _resolve(point: TracePoint) -> tuple[Any, str, Callable]:
    """(owner object, attribute name, original callable) or TraceError."""
    where = f"{point.module}:{point.symbol}"
    try:
        owner: Any = importlib.import_module(point.module)
    except ImportError as exc:
        raise TraceError(f"trace point {where}: {exc}") from exc
    parts = point.symbol.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TraceError(f"trace point {where} does not resolve")
    original = getattr(owner, parts[-1], None)
    if not callable(original):
        raise TraceError(f"trace point {where} does not resolve")
    return owner, parts[-1], original


def resolve_all() -> list[str]:
    """Resolve every trace point; returns their ``module:symbol`` names."""
    for point in TRACE_POINTS:
        _resolve(point)
    return [f"{point.module}:{point.symbol}" for point in TRACE_POINTS]


class Installation:
    """The set of patches one :func:`install` made, for undoing them."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any, bool]] = []

    def patch(self, owner: Any, attr: str, value: Any) -> None:
        own = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, previous, own in reversed(self._undo):
            if own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)
        self._undo.clear()


def install(tracer: Tracer) -> Installation:
    """Wrap every trace point; the caller must ``uninstall()`` after."""
    installation = Installation()
    try:
        for point in TRACE_POINTS:
            owner, attr, original = _resolve(point)
            wrapped = tracer.wrap(point, original)
            if isinstance(owner, type):
                installation.patch(owner, attr, wrapped)
                continue
            # A module function: patch every loaded module that holds
            # the same object under the same name (``from x import f``).
            for module in list(sys.modules.values()):
                if module is not None and vars(module).get(attr) is original:
                    installation.patch(module, attr, wrapped)
    except BaseException:
        installation.uninstall()
        raise
    return installation
