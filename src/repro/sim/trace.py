"""Network tracing: see exactly what a protocol says on the wire.

A :class:`NetworkTracer` attached to a network records every send with
its virtual timestamp, endpoints, and message type. Protocol debugging,
the message-complexity numbers in EXPERIMENTS.md, and several tests are
built on these traces — e.g. asserting that a PBFT decision really is
pre-prepare → prepare → commit and nothing else.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass

from repro.sim.network import Network, message_size


@dataclass(frozen=True)
class TraceEvent:
    """One message on the wire."""

    time: float
    src: str
    dst: str
    message_type: str
    size_bytes: int


class NetworkTracer:
    """Records every message a network carries.

    Attach before the run::

        tracer = NetworkTracer.attach(cluster.network)
        ... run ...
        tracer.summary()   # {"PrePrepare": 3, "Prepare": 12, ...}

    ``capacity`` bounds the record to the most recent N events (a ring
    buffer) — what the liveness watchdog uses to keep "the last N
    delivered messages" around on long fault runs without unbounded
    memory.
    """

    def __init__(self, capacity: int | None = None) -> None:
        self.events: "list[TraceEvent] | deque[TraceEvent]" = (
            deque(maxlen=capacity) if capacity else []
        )

    @classmethod
    def attach(cls, network: Network, capacity: int | None = None) -> "NetworkTracer":
        tracer = cls(capacity=capacity)
        events = tracer.events
        original_send = network.send
        original_broadcast = network.broadcast

        def traced_send(src: str, dst: str, message: object) -> None:
            events.append(
                TraceEvent(
                    time=network.sim.now,
                    src=src,
                    dst=dst,
                    message_type=type(message).__name__,
                    size_bytes=message_size(message),
                )
            )
            original_send(src, dst, message)

        # broadcast no longer funnels through send (it batches the
        # per-target work), so it is traced separately: one event per
        # target, exactly as the equivalent serial sends would record.
        def traced_broadcast(src: str, message: object, targets=None) -> None:
            resolved = (
                [nid for nid in network.node_ids if nid != src]
                if targets is None
                else list(targets)
            )
            now = network.sim.now
            message_type = type(message).__name__
            size = message_size(message)
            for dst in resolved:
                events.append(
                    TraceEvent(
                        time=now,
                        src=src,
                        dst=dst,
                        message_type=message_type,
                        size_bytes=size,
                    )
                )
            original_broadcast(src, message, resolved)

        network.send = traced_send  # type: ignore[method-assign]
        network.broadcast = traced_broadcast  # type: ignore[method-assign]
        return tracer

    def __len__(self) -> int:
        return len(self.events)

    def summary(self) -> dict[str, int]:
        """Message counts by type."""
        return dict(Counter(event.message_type for event in self.events))

    def between(self, start: float, end: float) -> list[TraceEvent]:
        """Events in the half-open virtual-time window [start, end)."""
        return [e for e in self.events if start <= e.time < end]

    def involving(self, node_id: str) -> list[TraceEvent]:
        return [
            e for e in self.events if node_id in (e.src, e.dst)
        ]

    def of_type(self, *message_types: str) -> list[TraceEvent]:
        wanted = set(message_types)
        return [e for e in self.events if e.message_type in wanted]

    def tail(self, n: int = 20) -> list[TraceEvent]:
        """The most recent ``n`` events, oldest first."""
        if n <= 0:
            return []
        events = self.events
        if isinstance(events, deque):
            events = list(events)
        return events[-n:]

    def timeline(self, limit: int = 50) -> str:
        """Human-readable trace (first ``limit`` events)."""
        events = list(self.events) if isinstance(self.events, deque) else self.events
        lines = [
            f"{e.time:9.4f}  {e.src:>12s} -> {e.dst:<12s} {e.message_type}"
            for e in events[:limit]
        ]
        if len(events) > limit:
            lines.append(f"... {len(events) - limit} more")
        return "\n".join(lines)

    def fan_out(self) -> dict[str, int]:
        """Messages sent per node — who talks the most."""
        return dict(Counter(event.src for event in self.events))
