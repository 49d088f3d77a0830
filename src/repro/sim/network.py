"""Simulated network: latency models, loss, partitions, traffic accounting.

The tutorial's scalability section (2.3.4) hinges on network geometry —
ResilientDB's topology-aware clusters, Saguaro's edge/fog/cloud
hierarchy — so the network distinguishes LAN and WAN links through
pluggable latency models and a per-node region map.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Iterable

from repro.common.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.core import Simulation
    from repro.sim.node import Node

#: Modelled wire size for a message that does not say otherwise.
DEFAULT_MESSAGE_BYTES = 256

#: Interceptor verdict: swallow the message (counted under
#: ``net.dropped.fault``).
DROP = "drop"


class Delay:
    """Interceptor verdict: deliver, but ``extra`` seconds later.

    Models a latency spike on one link without touching the latency
    model; multiple matching interceptors accumulate their extras.
    """

    __slots__ = ("extra",)

    def __init__(self, extra: float) -> None:
        if extra < 0:
            raise ConfigError("fault delay must be non-negative")
        self.extra = extra


class Duplicate:
    """Interceptor verdict: deliver normally *and* schedule ``copies``
    extra deliveries, each with its own latency sample (so the copies
    interleave with other traffic exactly as a duplicating network
    path would)."""

    __slots__ = ("copies",)

    def __init__(self, copies: int = 1) -> None:
        if copies < 1:
            raise ConfigError("duplicate needs at least one copy")
        self.copies = copies


#: An interceptor sees every (src, dst, message) about to be scheduled
#: and returns None (no opinion), DROP, a Delay, or a Duplicate.
Interceptor = Callable[[str, str, object], object]


def message_size(message: object) -> int:
    """Modelled wire size of a message.

    Messages may expose ``size_bytes`` (an int attribute or property);
    anything else — including ``bool``, which is an ``int`` subclass and
    would otherwise charge ``True`` as a 1-byte wire size — is charged
    :data:`DEFAULT_MESSAGE_BYTES`.
    """
    size = getattr(message, "size_bytes", None)
    if type(size) is int and size > 0:
        return size
    return DEFAULT_MESSAGE_BYTES


class LatencyModel:
    """Interface: one-way delay between two nodes."""

    def sample(self, rng: random.Random, src: str, dst: str) -> float:
        raise NotImplementedError


class LanLatency(LatencyModel):
    """Uniform base-plus-jitter delay, the single-datacenter case."""

    def __init__(self, base: float = 0.001, jitter: float = 0.0005) -> None:
        if base < 0 or jitter < 0:
            raise ConfigError("latency parameters must be non-negative")
        self.base = base
        self.jitter = jitter

    def sample(self, rng: random.Random, src: str, dst: str) -> float:
        return self.base + rng.uniform(0.0, self.jitter)


class WanLatency(LatencyModel):
    """Region-matrix delay: LAN within a region, WAN across regions.

    ``region_of`` maps node id to a region name; ``matrix`` gives one-way
    delay between region pairs (symmetric — the reverse pair is looked
    up automatically). Unknown nodes fall back to the LAN model.
    """

    def __init__(
        self,
        region_of: dict[str, str],
        matrix: dict[tuple[str, str], float],
        lan: LanLatency | None = None,
        jitter_fraction: float = 0.1,
    ) -> None:
        self.region_of = dict(region_of)
        self.matrix = dict(matrix)
        self.lan = lan or LanLatency()
        self.jitter_fraction = jitter_fraction

    def assign(self, node_id: str, region: str) -> None:
        self.region_of[node_id] = region

    def sample(self, rng: random.Random, src: str, dst: str) -> float:
        src_region = self.region_of.get(src)
        dst_region = self.region_of.get(dst)
        if src_region is None or dst_region is None or src_region == dst_region:
            return self.lan.sample(rng, src, dst)
        base = self.matrix.get((src_region, dst_region))
        if base is None:
            base = self.matrix.get((dst_region, src_region))
        if base is None:
            raise ConfigError(
                f"no WAN latency configured for {src_region}<->{dst_region}"
            )
        return base * (1.0 + rng.uniform(0.0, self.jitter_fraction))


class Network:
    """Message transport between registered nodes.

    Supports probabilistic drops and named partitions (messages between
    different partition groups are silently dropped, as in a real
    network split). All traffic is accounted in the simulation's
    metrics registry under ``net.messages`` and ``net.bytes``.
    """

    def __init__(
        self,
        sim: "Simulation",
        latency: LatencyModel | None = None,
        drop_probability: float = 0.0,
    ) -> None:
        if not 0.0 <= drop_probability < 1.0:
            raise ConfigError("drop_probability must be in [0, 1)")
        self.sim = sim
        self.latency = latency or LanLatency()
        self.drop_probability = drop_probability
        self._nodes: dict[str, "Node"] = {}
        # Bound delivery methods, cached at join time: the send hot path
        # schedules these directly instead of allocating a closure per
        # message (``deliver`` itself checks the crashed flag on fire).
        self._delivers: dict[str, Callable[[str, object], None]] = {}
        self._partition_of: dict[str, int] = {}
        self._interceptors: list[Interceptor] = []

    def join(self, node: "Node") -> None:
        if node.node_id in self._nodes:
            raise ConfigError(f"duplicate node id on network: {node.node_id}")
        self._nodes[node.node_id] = node
        self._delivers[node.node_id] = node.deliver

    def node(self, node_id: str) -> "Node":
        try:
            return self._nodes[node_id]
        except KeyError:
            raise ConfigError(f"unknown node: {node_id}") from None

    @property
    def node_ids(self) -> list[str]:
        return list(self._nodes)

    def add_interceptor(self, interceptor: Interceptor) -> None:
        """Install a message-fault hook on the send path.

        Interceptors run in installation order on every message after
        the partition check and before probabilistic loss. They are the
        mechanism behind :class:`repro.sim.faults.FaultPlan`'s targeted
        drop/delay/duplicate/reorder rules; any randomness they need
        must come from ``sim.rng`` to keep same-seed runs identical.
        """
        self._interceptors.append(interceptor)

    def _intercept(
        self,
        src: str,
        dst: str,
        message: object,
        deliver: Callable[[str, object], None],
    ) -> float | None:
        """Run interceptors; returns the accumulated extra delay, or
        None when a DROP verdict swallowed the message. Duplicate
        verdicts schedule their extra copies here."""
        sim = self.sim
        extra = 0.0
        for interceptor in self._interceptors:
            action = interceptor(src, dst, message)
            if action is None:
                continue
            if action is DROP:
                sim.metrics.incr("net.dropped.fault")
                return None
            if type(action) is Delay:
                sim.metrics.incr("net.delayed.fault")
                extra += action.extra
            elif type(action) is Duplicate:
                rng = sim.rng
                sim.metrics.incr("net.duplicated.fault", action.copies)
                for _ in range(action.copies):
                    sim.schedule(
                        self.latency.sample(rng, src, dst), deliver, src, message
                    )
            else:
                raise ConfigError(f"unknown fault action: {action!r}")
        return extra

    def partition(self, groups: Iterable[Iterable[str]]) -> None:
        """Split the network: traffic only flows within one group.

        Every registered node must appear in exactly one group — a node
        silently omitted from all groups would land in an implicit
        "unlisted" group that can still talk to other omitted nodes,
        which is never what an experiment means. Unknown or repeated
        names are rejected for the same reason.
        """
        partition_of: dict[str, int] = {}
        for index, group in enumerate(groups):
            for node_id in group:
                if node_id not in self._nodes:
                    raise ConfigError(
                        f"partition names unregistered node: {node_id}"
                    )
                if node_id in partition_of:
                    raise ConfigError(
                        f"node {node_id} appears in more than one "
                        "partition group"
                    )
                partition_of[node_id] = index
        missing = [nid for nid in self._nodes if nid not in partition_of]
        if missing:
            raise ConfigError(
                "partition omits registered nodes "
                f"{missing}: every node must be in exactly one group"
            )
        self._partition_of.clear()
        self._partition_of.update(partition_of)

    def heal(self) -> None:
        """Remove any partition."""
        self._partition_of.clear()

    def _partitioned(self, src: str, dst: str) -> bool:
        if not self._partition_of:
            return False
        return self._partition_of.get(src) != self._partition_of.get(dst)

    def send(self, src: str, dst: str, message: object) -> None:
        """Deliver ``message`` from ``src`` to ``dst`` after sampled latency.

        Sends to unknown/crashed destinations and across partitions are
        dropped silently — exactly what a sender observes in a real
        asynchronous network.
        """
        sim = self.sim
        metrics = sim.metrics
        metrics.incr("net.messages")
        metrics.incr("net.bytes", message_size(message))
        deliver = self._delivers.get(dst)
        if deliver is None:
            return
        if self._partition_of and self._partitioned(src, dst):
            metrics.incr("net.dropped.partition")
            return
        extra = 0.0
        if self._interceptors:
            verdict = self._intercept(src, dst, message, deliver)
            if verdict is None:
                return
            extra = verdict
        rng = sim.rng
        if self.drop_probability and rng.random() < self.drop_probability:
            metrics.incr("net.dropped.loss")
            return
        sim.schedule(
            extra + self.latency.sample(rng, src, dst), deliver, src, message
        )

    def broadcast(
        self, src: str, message: object, targets: Iterable[str] | None = None
    ) -> None:
        """Send ``message`` to every target (default: all other nodes).

        Equivalent to one :meth:`send` per target but a single pass:
        the wire size is computed once and the traffic counters are
        charged in one batch. Per-target RNG draws (loss, latency)
        happen in the same order as serial sends, so same-seed runs are
        bit-for-bit identical either way.
        """
        if targets is None:
            targets = [nid for nid in self._nodes if nid != src]
        elif not isinstance(targets, (list, tuple)):
            targets = list(targets)
        sim = self.sim
        metrics = sim.metrics
        n = len(targets)
        metrics.incr_many(
            (("net.messages", n), ("net.bytes", n * message_size(message)))
        )
        delivers = self._delivers
        partition_of = self._partition_of
        interceptors = self._interceptors
        drop_probability = self.drop_probability
        rng = sim.rng
        random_ = rng.random
        sample = self.latency.sample
        # Push delivery events straight onto the queue: latency samples
        # are non-negative by the LatencyModel contract, so the
        # schedule() guard is redundant here, and one (src, message)
        # args tuple is shared by every delivery event of the round.
        push = sim._queue.push
        now = sim._now
        args = (src, message)
        for dst in targets:
            deliver = delivers.get(dst)
            if deliver is None:
                continue
            if partition_of and partition_of.get(src) != partition_of.get(dst):
                metrics.incr("net.dropped.partition")
                continue
            extra = 0.0
            if interceptors:
                # Same per-destination order as serial sends, so the
                # RNG draw sequence (and thus the run) is identical.
                verdict = self._intercept(src, dst, message, deliver)
                if verdict is None:
                    continue
                extra = verdict
            if drop_probability and random_() < drop_probability:
                metrics.incr("net.dropped.loss")
                continue
            push(now + extra + sample(rng, src, dst), deliver, args)
