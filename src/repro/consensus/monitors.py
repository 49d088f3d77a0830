"""Safety monitors and the guarded run driver for fault experiments.

The paper's Discussion claims are fundamentally about behaviour under
faults: BFT protocols may *stall* when quorums are unreachable but must
never commit conflicting values. These monitors watch a
:class:`~repro.consensus.base.ConsensusCluster` live during a fault run
and record any violation, independently of the per-replica assertions
inside each protocol (a replica can only see its own log; monitors see
the whole cluster):

* :class:`ConflictingCommitMonitor` — no two correct replicas commit
  different values at the same sequence/height (the agreement property).
* :class:`PrefixConsistencyMonitor` — correct replicas' decided logs
  stay prefix-consistent on every decide.
* :class:`DurableDecisionMonitor` — each replica's decided log grows
  strictly in order and is never rewritten or truncated, including
  across crash/recover cycles (the durability property).
* :class:`DecidedOnceMonitor` — no replica decides one value at two
  sequences (exactly-once ordering); protocol gap-fill values repeat
  by design and are exempt.

Monitors register by name in :data:`MONITOR_REGISTRY` so the DST engine
(:mod:`repro.simtest`) can select invariants declaratively; use
:func:`standard_monitors` for the full set.

:func:`guarded_run_until_decided` drives a cluster like
``run_until_decided`` but wires a :class:`~repro.sim.watchdog.LivenessWatchdog`
between run slices, converting silent stalls and exhausted event queues
into a structured :class:`~repro.sim.watchdog.StallDiagnostic`. A run
that fails for *any* reason always carries a diagnostic — including
plain timeouts, which previously surfaced as a bare ``decided=False``
with the stall details swallowed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.consensus import paxos, pbft, raft
from repro.sim.trace import NetworkTracer
from repro.sim.watchdog import LivenessWatchdog, StallDiagnostic

#: Named invariant registry: name -> zero-arg monitor factory. The DST
#: fuzzer, capsules, and CLI select monitors through these names.
MONITOR_REGISTRY: dict[str, Callable[[], "SafetyMonitor"]] = {}


def register_monitor(name: str):
    """Class decorator: publish a monitor under ``name``."""

    def decorate(cls):
        MONITOR_REGISTRY[name] = cls
        cls.registry_name = name
        return cls

    return decorate


def standard_monitors() -> list["SafetyMonitor"]:
    """Fresh instances of every registered monitor (sorted by name)."""
    return [MONITOR_REGISTRY[name]() for name in sorted(MONITOR_REGISTRY)]


class SafetyMonitor:
    """Base class: collects violation descriptions during a run.

    Monitors attach via ``cluster.add_monitor(monitor)`` and receive
    every in-order decide of every replica (Byzantine attack replicas
    excluded — safety is a property of the *correct* replicas).
    """

    def __init__(self) -> None:
        self.violations: list[str] = []
        self._cluster = None

    def bind(self, cluster) -> None:
        self._cluster = cluster

    @property
    def ok(self) -> bool:
        return not self.violations

    def on_decide(self, node_id: str, sequence: int, value: Any) -> None:
        raise NotImplementedError

    def check(self) -> bool:
        """End-of-run check; default just reports collected violations."""
        return self.ok


@register_monitor("conflicting-commit")
class ConflictingCommitMonitor(SafetyMonitor):
    """No two committed values at the same sequence across the cluster."""

    def __init__(self) -> None:
        super().__init__()
        self._committed: dict[int, tuple[str, str]] = {}  # seq -> (repr, node)

    def on_decide(self, node_id: str, sequence: int, value: Any) -> None:
        key = repr(value)
        existing = self._committed.get(sequence)
        if existing is None:
            self._committed[sequence] = (key, node_id)
        elif existing[0] != key:
            self.violations.append(
                f"seq {sequence}: {node_id} committed {key} but "
                f"{existing[1]} committed {existing[0]}"
            )


@register_monitor("prefix-consistency")
class PrefixConsistencyMonitor(SafetyMonitor):
    """Correct replicas' decided logs are prefix-consistent, checked on
    every decide (catches transient divergence an end-of-run comparison
    would miss if logs later converge by overwrite)."""

    def on_decide(self, node_id: str, sequence: int, value: Any) -> None:
        if self._cluster is None:
            return
        if not self._cluster.agreement_holds():
            self.violations.append(
                f"prefix divergence after {node_id} decided seq {sequence}"
            )


@register_monitor("durable-decision")
class DurableDecisionMonitor(SafetyMonitor):
    """Decisions are durable: each replica reports sequences strictly in
    order (0, 1, 2, …), never rewrites one, and its ``decided`` log at
    the end of the run still starts with everything it ever reported —
    a crash/recover cycle must not lose or mutate committed entries."""

    def __init__(self) -> None:
        super().__init__()
        self._logs: dict[str, list[Any]] = {}

    def on_decide(self, node_id: str, sequence: int, value: Any) -> None:
        log = self._logs.setdefault(node_id, [])
        if sequence < len(log):
            if log[sequence] != value:
                self.violations.append(
                    f"{node_id} rewrote seq {sequence}: "
                    f"{log[sequence]!r} -> {value!r}"
                )
        elif sequence == len(log):
            log.append(value)
        else:
            self.violations.append(
                f"{node_id} decided seq {sequence} out of order "
                f"(expected {len(log)})"
            )

    def check(self) -> bool:
        if self._cluster is not None:
            for node_id, log in self._logs.items():
                replica = self._cluster.replicas.get(node_id)
                if replica is None:
                    continue
                if list(replica.decided[:len(log)]) != log:
                    self.violations.append(
                        f"{node_id} lost durability: decided log no longer "
                        f"starts with its {len(log)} reported decisions"
                    )
        return self.ok


#: Values protocols decide to plug sequence holes; any number of
#: sequences may hold one.
FILL_VALUES = frozenset({paxos.NOOP, pbft.NOOP, raft.NOOP})


@register_monitor("decided-once")
class DecidedOnceMonitor(SafetyMonitor):
    """Exactly-once ordering: no replica decides one value at two
    sequences. A client retry that is ordered again would be applied
    twice by every system above consensus. Re-reporting a value at the
    sequence it already holds (catch-up) is not a second decision."""

    def __init__(self) -> None:
        super().__init__()
        #: node -> repr(value) -> the sequence it was first decided at.
        self._first: dict[str, dict[str, int]] = {}

    def on_decide(self, node_id: str, sequence: int, value: Any) -> None:
        if isinstance(value, str) and value in FILL_VALUES:
            return
        first = self._first.setdefault(node_id, {}).setdefault(
            repr(value), sequence
        )
        if first != sequence:
            self.violations.append(
                f"{node_id} decided {value!r} at seq {first} and {sequence}"
            )


@register_monitor("durable-recovery")
class DurableRecoveryMonitor(SafetyMonitor):
    """Crash-restart recovery preserves the committed ledger prefix.

    Written for :class:`~repro.storage.durable.DurableCluster` (decides
    are ``(node, height, block_hash)``; recoveries arrive through
    :meth:`on_recovery`) but registered like every invariant, so it must
    be harmless under plain consensus clusters too — there it degrades
    to a conflicting-commit check, and :meth:`on_recovery` simply never
    fires.

    Checked live:

    * no two nodes ever commit different values at one height, and no
      node rewrites a height it already committed (same-value re-commits
      after catch-up are fine);
    * a recovered node's replayed ledger is a *prefix-consistent
      extension*: its post-replay tip must match both what the node
      itself had committed at that height before the crash and the
      cluster's canonical chain (losing a non-durable suffix is legal —
      that is the fsync policy's loss window — rewriting history is
      not).
    """

    def __init__(self) -> None:
        super().__init__()
        #: node -> {sequence: value} as reported through on_decide.
        self._logs: dict[str, dict[int, Any]] = {}
        #: sequence -> (value, first reporting node), across the cluster.
        self._global: dict[int, tuple[Any, str]] = {}
        self.recoveries: list[dict[str, Any]] = []

    def on_decide(self, node_id: str, sequence: int, value: Any) -> None:
        log = self._logs.setdefault(node_id, {})
        previous = log.get(sequence)
        if previous is not None and previous != value:
            self.violations.append(
                f"{node_id} rewrote seq {sequence}: "
                f"{previous!r} -> {value!r}"
            )
        log[sequence] = value
        existing = self._global.get(sequence)
        if existing is None:
            self._global[sequence] = (value, node_id)
        elif existing[0] != value:
            self.violations.append(
                f"seq {sequence}: {node_id} committed {value!r} but "
                f"{existing[1]} committed {existing[0]!r}"
            )

    def on_recovery(
        self,
        node_id: str,
        height: int,
        tip_hash: str,
        replayed: int = 0,
        torn: bool = False,
        resync: bool = False,
    ) -> None:
        """A node finished WAL replay and re-joined at (height, tip)."""
        self.recoveries.append({
            "node": node_id, "height": height, "tip_hash": tip_hash,
            "replayed": replayed, "torn": torn, "resync": resync,
        })
        if height == 0:
            return  # recovered to genesis (resync) — nothing to contradict
        own = self._logs.get(node_id, {}).get(height)
        if own is not None and own != tip_hash:
            self.violations.append(
                f"{node_id} recovered a different block at height {height} "
                "than it had committed before the crash"
            )
        canonical_of = getattr(self._cluster, "canonical_block_hash", None)
        if canonical_of is not None:
            canonical = canonical_of(height)
            if canonical is not None and canonical != tip_hash:
                self.violations.append(
                    f"{node_id} recovered tip at height {height} diverges "
                    "from the canonical chain"
                )


@dataclass
class GuardedRun:
    """Outcome of :func:`guarded_run_until_decided`.

    A failed run (``decided`` False) always carries ``diagnostic`` —
    stalls, exhausted queues, *and* plain timeouts all produce one — so
    callers (the fuzz loop, test assertions) never lose the stall
    details to a silent ``False``.
    """

    decided: bool
    diagnostic: StallDiagnostic | None
    monitors_ok: bool
    violations: list[str]

    @property
    def ok(self) -> bool:
        return self.decided and self.monitors_ok

def guarded_run_until_decided(
    cluster,
    count: int,
    timeout: float = 60.0,
    stall_after: float = 5.0,
    tracer: NetworkTracer | None = None,
    slice_seconds: float = 0.25,
    max_events: int = 2_000_000,
) -> GuardedRun:
    """Run until every correct replica decided ``count`` values, with a
    liveness watchdog converting stalls into diagnostics.

    The watchdog observes between run slices (never from inside the
    event queue), so a guarded run replays the exact same event sequence
    as an unguarded one. On a stall — no replica's decided log grew for
    ``stall_after`` virtual seconds, or the event queue drained with the
    goal unmet — the returned :class:`GuardedRun` carries the first
    structured diagnostic; the run keeps going until ``timeout`` in case
    the stall resolves (e.g. a scheduled heal), so ``decided`` can be
    True even when a transient stall was diagnosed mid-run.
    """
    watchdog = LivenessWatchdog(
        cluster.replicas,
        progress_of=lambda replica: len(replica.decided),
        stall_after=stall_after,
        tracer=tracer,
    )
    sim = cluster.sim
    watchdog.observe(sim.now)
    deadline = sim.now + timeout
    diagnostic: StallDiagnostic | None = None

    def goal_met() -> bool:
        return all(
            len(r.decided) >= count for r in cluster.correct_replicas()
        )

    while sim.now < deadline:
        if goal_met():
            break
        processed = sim.run(
            until=min(deadline, sim.now + slice_seconds), max_events=max_events
        )
        observed = watchdog.observe(sim.now)
        if observed is not None and diagnostic is None:
            diagnostic = observed
        if processed == 0 and sim.pending_events() == 0:
            if not goal_met() and diagnostic is None:
                diagnostic = watchdog.queue_exhausted(sim.now)
            break
    decided = goal_met()
    if not decided and diagnostic is None:
        # Timed out before the stall threshold ever elapsed between
        # slices (e.g. short timeout, or progress froze only near the
        # deadline): still surface the structured diagnostic instead of
        # a bare False.
        diagnostic = watchdog.timed_out(sim.now)
    monitors = list(getattr(cluster, "monitors", []))
    for monitor in monitors:
        monitor.check()  # end-of-run invariants (e.g. durability)
    violations = [
        violation
        for monitor in monitors
        for violation in monitor.violations
    ]
    return GuardedRun(
        decided=decided,
        diagnostic=diagnostic,
        monitors_ok=not violations,
        violations=violations,
    )
