"""Common machinery for all consensus protocols.

Every protocol in this package is implemented as replicas exchanging
messages on the simulated network and exposes the same surface:

* ``submit(value)`` — hand a value (usually a block payload) to the
  protocol; any replica accepts a submission and routes it internally.
* ``decided`` — the totally ordered log of values this replica has
  committed. Safety across a cluster means all correct replicas'
  ``decided`` logs are prefix-consistent.

:class:`ConsensusCluster` wires a full cluster (simulation, network,
replicas) and is what systems, tests, and benchmarks use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.errors import ConfigError, ConsensusError
from repro.crypto.digests import sha256_hex
from repro.crypto.sigcache import ModelledSigVerifier
from repro.sim.core import Simulation
from repro.sim.network import LatencyModel, Network
from repro.sim.node import Node


@dataclass
class ClusterConfig:
    """Static configuration shared by every replica of one cluster.

    ``byzantine`` selects the fault model: Byzantine clusters need
    ``n >= 3f + 1`` and quorums of ``2f + 1``; crash-only clusters need
    ``n >= 2f + 1`` and simple majorities (paper section 2.2).
    """

    replica_ids: list[str]
    byzantine: bool = True
    base_timeout: float = 0.5
    checkpoint_interval: int = 128
    #: Voting power per replica (Tendermint); None means one-replica-one-vote.
    weights: dict[str, int] | None = None
    #: AHL-style attested hardware: equivocation is impossible, so a
    #: Byzantine cluster needs only 2f+1 replicas and majority quorums
    #: (paper section 2.3.4, citing A2M/MinBFT).
    trusted_hardware: bool = False
    #: Hybrid fault model (SeeMoRe/UpRight, paper section 2.3.3):
    #: explicit (byzantine, crash) tolerance overriding the derived
    #: single-model thresholds. Set via repro.consensus.hybrid helpers.
    hybrid: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if len(set(self.replica_ids)) != len(self.replica_ids):
            raise ConfigError("replica ids must be unique")
        if self.byzantine and not self.trusted_hardware and self.n < 4:
            raise ConfigError(
                f"Byzantine consensus needs n >= 4 (3f+1), got {self.n}"
            )
        if (not self.byzantine or self.trusted_hardware) and self.n < 3:
            raise ConfigError(f"this fault model needs n >= 3, got {self.n}")
        if self.weights is not None:
            missing = set(self.replica_ids) - set(self.weights)
            if missing:
                raise ConfigError(f"weights missing for replicas: {missing}")
        if self.hybrid is not None:
            b, c = self.hybrid
            if b < 1 or c < 0:
                raise ConfigError("hybrid model needs b >= 1, c >= 0")
            if self.n < 3 * b + 2 * c + 1:
                raise ConfigError(
                    f"hybrid (b={b}, c={c}) needs n >= {3 * b + 2 * c + 1}, "
                    f"got {self.n}"
                )

    @property
    def n(self) -> int:
        return len(self.replica_ids)

    @property
    def f(self) -> int:
        """Maximum tolerated faults under the configured fault model."""
        if self.hybrid is not None:
            return sum(self.hybrid)  # b Byzantine + c crash in total
        if self.byzantine and not self.trusted_hardware:
            return (self.n - 1) // 3
        return (self.n - 1) // 2

    @property
    def quorum(self) -> int:
        """Votes required for a decision quorum."""
        if self.hybrid is not None:
            b, c = self.hybrid
            return 2 * b + c + 1  # hybrid threshold: n = 3b + 2c + 1
        if self.byzantine and not self.trusted_hardware:
            return 2 * self.f + 1
        return self.n // 2 + 1

    def leader_of_view(self, view: int) -> str:
        """Round-robin leader rotation."""
        return self.replica_ids[view % self.n]


@dataclass(frozen=True)
class DecidedProbe:
    """Catch-up gossip: "I have decided ``count`` values — am I behind?"

    The protocol-agnostic equivalent of PBFT's checkpoint-based state
    transfer: a replica that missed commit messages (loss, partition,
    recovery from a crash) learns finished decisions from its peers
    instead of stalling forever.
    """

    count: int
    sender: str
    size_bytes: int = 64


@dataclass(frozen=True)
class DecidedRange:
    """Catch-up response: in-order decided values starting at ``start``."""

    start: int
    values: tuple[Any, ...]
    sender: str

    @property
    def size_bytes(self) -> int:
        return 64 + 512 * len(self.values)


#: Maximum decisions shipped per catch-up response.
_CATCHUP_BATCH = 64


def digest_of(value: Any) -> str:
    """The one digest of a consensus value: every protocol keys its
    pending requests, proposals and votes by it."""
    return sha256_hex(repr(value))


class ConsensusReplica(Node):
    """Base replica: an in-order decided log with gap buffering.

    Protocols call :meth:`_decide` with (sequence, value) pairs in any
    order; the base class releases them to ``decided`` strictly in
    sequence order and fires ``on_decide`` for each. Deciding two
    different values for one sequence raises — that is a safety
    violation and must never survive silently.

    The base class also runs the catch-up gossip: while a replica has
    undecided requests or sequence gaps, it periodically probes peers
    and adopts decisions vouched for by f + 1 distinct senders (at
    least one of which must be correct).
    """

    def __init__(
        self,
        node_id: str,
        sim: Simulation,
        network: Network,
        config: ClusterConfig,
        on_decide: Callable[[str, int, Any], None] | None = None,
    ) -> None:
        super().__init__(node_id, sim, network)
        self.config = config
        self.decided: list[Any] = []
        self._on_decide = on_decide
        self._out_of_order: dict[int, Any] = {}
        self._decided_at: dict[int, Any] = {}
        #: ``digest_of`` every value in ``_decided_at``; written only by
        #: :meth:`_decide`, so "already decided?" is one set lookup.
        self._decided_digests: set[str] = set()
        self._peers = [rid for rid in config.replica_ids if rid != node_id]
        self._requests: dict[str, Any] = {}  # subclasses may replace
        #: undecided sequence -> value digest -> senders vouching for it.
        self._catchup_vouches: dict[int, dict[str, set[str]]] = {}
        #: Counters-only verification cache for vote certificates.
        #: Consensus messages carry no real signatures in this model, so
        #: the ledger only tracks how many checks a FastFabric-style
        #: validator performs vs. skips (a vote re-seen inside a later
        #: certificate is a cache hit); it never touches replica timing.
        self._sig_ledger = ModelledSigVerifier(verify_cost=0.0)
        self._arm_catchup_timer()

    def _note_certificate(self, signers, digest: str) -> None:
        """Run a quorum certificate's (signer, digest) pairs through the
        verification cache, keeping the performed/skipped split in the
        simulation metrics. Deterministic and timing-free."""
        fresh = 0
        for signer in sorted(signers):
            if self._sig_ledger.record(signer, digest):
                fresh += 1
        if fresh:
            self.sim.metrics.incr("crypto.sig_verified", fresh)
        if len(signers) > fresh:
            self.sim.metrics.incr("crypto.sig_cached", len(signers) - fresh)

    # -- catch-up gossip ----------------------------------------------------

    def _catchup_threshold(self) -> int:
        return self.config.f + 1 if self.config.byzantine else 1

    def _arm_catchup_timer(self) -> None:
        self.set_timer(
            2 * self.config.base_timeout, self._catchup_tick, label="catchup"
        )

    def on_recover(self) -> None:
        """Restart baseline timers: a crash invalidates every pre-crash
        timer, so a recovered replica must re-arm its catch-up gossip
        (protocol subclasses add their election/round timers on top)."""
        self._arm_catchup_timer()

    def _catchup_tick(self) -> None:
        if self._requests or self._out_of_order:
            self.broadcast(
                DecidedProbe(count=len(self.decided), sender=self.node_id),
                targets=self.peers,
            )
        self._arm_catchup_timer()

    def _handle_catchup(self, message: object) -> bool:
        """Base-level dispatch; returns True when the message was one of
        the catch-up types (subclasses then skip it)."""
        if isinstance(message, DecidedProbe):
            if len(self.decided) > message.count:
                values = tuple(
                    self.decided[message.count:message.count + _CATCHUP_BATCH]
                )
                self.send(
                    message.sender,
                    DecidedRange(
                        start=message.count, values=values,
                        sender=self.node_id,
                    ),
                )
            return True
        if isinstance(message, DecidedRange):
            for offset, value in enumerate(message.values):
                seq = message.start + offset
                if self.has_decided(seq):
                    continue
                digest = digest_of(value)
                vouchers = self._catchup_vouches.setdefault(
                    seq, {}
                ).setdefault(digest, set())
                vouchers.add(message.sender)
                if len(vouchers) >= self._catchup_threshold():
                    self._decide(seq, value)
                    # Every protocol keys its pending-request table by
                    # the same digest, so the base can clear it here.
                    self._requests.pop(digest, None)
                    self._after_catchup(seq, value)
            return True
        return False

    def _after_catchup(self, sequence: int, value: Any) -> None:
        """Hook: protocols with height-coupled state (Tendermint, IBFT,
        HotStuff) advance that state after a catch-up decision."""

    def deliver(self, src: str, message: object) -> None:
        if self.crashed or self.recovering:
            return
        if self._handle_catchup(message):
            return
        self.on_message(src, message)

    def submit(self, value: Any) -> None:
        raise NotImplementedError

    @property
    def peers(self) -> list[str]:
        return self._peers

    def _decide(self, sequence: int, value: Any) -> None:
        if sequence in self._decided_at:
            if self._decided_at[sequence] != value:
                raise ConsensusError(
                    f"{self.node_id}: conflicting decision at seq {sequence}"
                )
            return
        self._decided_at[sequence] = value
        self._decided_digests.add(digest_of(value))
        self._catchup_vouches.pop(sequence, None)
        self._out_of_order[sequence] = value
        self.sim.metrics.incr("consensus.decisions")
        next_seq = len(self.decided)
        while next_seq in self._out_of_order:
            released = self._out_of_order.pop(next_seq)
            self.decided.append(released)
            if self._on_decide is not None:
                self._on_decide(self.node_id, next_seq, released)
            next_seq += 1

    def has_decided(self, sequence: int) -> bool:
        return sequence in self._decided_at


class ConsensusCluster:
    """A fully wired consensus cluster over one simulation.

    ``replica_factory`` builds one replica; the cluster exposes submit,
    run-until-done, and the cross-replica agreement check used by every
    safety test.
    """

    def __init__(
        self,
        replica_factory: Callable[..., ConsensusReplica],
        n: int = 4,
        byzantine: bool = True,
        seed: int = 0,
        sim: Simulation | None = None,
        latency: LatencyModel | None = None,
        base_timeout: float = 0.5,
        weights: dict[str, int] | None = None,
        id_prefix: str = "r",
        decide_listener: Callable[[str, int, Any], None] | None = None,
        network: Network | None = None,
        trusted_hardware: bool = False,
        hybrid: tuple[int, int] | None = None,
    ) -> None:
        self.sim = sim or Simulation(seed=seed)
        self.network = network or Network(self.sim, latency=latency)
        replica_ids = [f"{id_prefix}{i}" for i in range(n)]
        self.config = ClusterConfig(
            replica_ids=replica_ids,
            byzantine=byzantine,
            base_timeout=base_timeout,
            weights=weights,
            trusted_hardware=trusted_hardware,
            hybrid=hybrid,
        )
        self.replicas: dict[str, ConsensusReplica] = {}
        for rid in replica_ids:
            self.replicas[rid] = replica_factory(
                node_id=rid,
                sim=self.sim,
                network=self.network,
                config=self.config,
                on_decide=self._record_decide,
            )
        self._decide_times: dict[tuple[str, int], float] = {}
        self._decide_listener = decide_listener
        #: Attached safety monitors (see repro.consensus.monitors); they
        #: observe every decide of every non-Byzantine replica.
        self.monitors: list[Any] = []

    def add_monitor(self, monitor) -> None:
        """Attach a safety monitor for the rest of the cluster's life."""
        monitor.bind(self)
        self.monitors.append(monitor)

    def _record_decide(self, node_id: str, sequence: int, value: Any) -> None:
        self._decide_times[(node_id, sequence)] = self.sim.now
        if self.monitors and not getattr(
            self.replicas[node_id], "byzantine", False
        ):
            for monitor in self.monitors:
                monitor.on_decide(node_id, sequence, value)
        if self._decide_listener is not None:
            self._decide_listener(node_id, sequence, value)

    def replica(self, node_id: str) -> ConsensusReplica:
        return self.replicas[node_id]

    def correct_replicas(self) -> list[ConsensusReplica]:
        return [
            r
            for r in self.replicas.values()
            if not r.crashed and not getattr(r, "byzantine", False)
        ]

    def submit(self, value: Any, via: str | None = None) -> None:
        """Submit through one replica (default: first correct one)."""
        if via is not None:
            self.replicas[via].submit(value)
            return
        for replica in self.replicas.values():
            if not replica.crashed:
                replica.submit(value)
                return
        raise ConsensusError("no live replica to submit through")

    def run_until_decided(
        self, count: int, timeout: float = 60.0, max_events: int = 2_000_000
    ) -> bool:
        """Run until every correct replica decided ``count`` values.

        Returns False when the virtual timeout elapses first (liveness
        failure — which some experiments intentionally provoke).
        """
        deadline = self.sim.now + timeout
        while self.sim.now < deadline:
            done = all(
                len(r.decided) >= count for r in self.correct_replicas()
            )
            if done:
                return True
            processed = self.sim.run(
                until=min(deadline, self.sim.now + 0.25), max_events=max_events
            )
            if processed == 0 and not self._has_future_events():
                return all(
                    len(r.decided) >= count for r in self.correct_replicas()
                )
        return all(len(r.decided) >= count for r in self.correct_replicas())

    def _has_future_events(self) -> bool:
        return self.sim.pending_events() > 0

    def agreement_holds(self) -> bool:
        """Prefix consistency of all correct replicas' decided logs."""
        logs = [r.decided for r in self.correct_replicas()]
        if not logs:
            return True
        shortest = min(len(log) for log in logs)
        return all(log[:shortest] == logs[0][:shortest] for log in logs)

    def decision_latency(self, sequence: int) -> float:
        """Time from simulation start until the last correct replica
        decided ``sequence`` (a coarse commit-latency measure)."""
        times = [
            t
            for (node_id, seq), t in self._decide_times.items()
            if seq == sequence
        ]
        if not times:
            raise ConsensusError(f"sequence {sequence} not decided anywhere")
        return max(times)

    def message_count(self) -> int:
        return int(self.sim.metrics.get("net.messages"))
