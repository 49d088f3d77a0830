"""Multi-Paxos (Lamport, "Paxos Made Simple") — crash fault tolerance.

The classic crash fault-tolerant protocol the paper cites for
permissioned ordering (section 2.2). A proposer acquires leadership for
all slots with one phase-1 round (Prepare/Promise over a ballot), learns
any values already accepted, re-proposes them, and then streams phase-2
Accept messages for new values. A value is chosen when a majority of
acceptors accept it under the same ballot.

Ballots are ``(attempt, replica_index)`` pairs, so competing proposers
always have comparable, unique ballots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.consensus.base import ClusterConfig, ConsensusReplica, digest_of

Ballot = tuple[int, int]  # (attempt, replica_index); totally ordered

ZERO_BALLOT: Ballot = (-1, -1)

#: Gap filler: a new leader proposes this for any slot below its next
#: slot that no promiser reported an acceptance for. Quorum intersection
#: makes this safe — a *chosen* value is always reported by at least one
#: promiser — and it unblocks the in-order decided log, which would
#: otherwise wedge forever on an unchosen hole (a liveness bug the DST
#: fuzzer found: one dropped Accept round left slot 0 empty while later
#: slots kept deciding, so no replica ever released anything).
NOOP = "__paxos-noop__"


@dataclass(frozen=True)
class ClientRequest:
    value: Any
    size_bytes: int = 512


@dataclass(frozen=True)
class Prepare:  # phase 1a
    ballot: Ballot
    sender: str
    size_bytes: int = 128


@dataclass(frozen=True)
class Promise:  # phase 1b
    ballot: Ballot
    #: slot -> (accepted_ballot, accepted_value)
    accepted: tuple[tuple[int, Ballot, Any], ...]
    sender: str
    size_bytes: int = 512


@dataclass(frozen=True)
class Accept:  # phase 2a
    ballot: Ballot
    slot: int
    value: Any
    sender: str
    size_bytes: int = 640


@dataclass(frozen=True)
class Accepted:  # phase 2b
    ballot: Ballot
    slot: int
    sender: str
    size_bytes: int = 128


@dataclass(frozen=True)
class Decide:
    slot: int
    value: Any
    size_bytes: int = 640


class PaxosReplica(ConsensusReplica):
    """A combined proposer/acceptor/learner replica."""

    def __init__(self, node_id, sim, network, config: ClusterConfig, on_decide=None):
        super().__init__(node_id, sim, network, config, on_decide)
        self._index = config.replica_ids.index(node_id)
        # Acceptor state.
        self._promised: Ballot = ZERO_BALLOT
        self._accepted: dict[int, tuple[Ballot, Any]] = {}
        # Proposer state.
        self._is_leader = False
        self._ballot: Ballot = ZERO_BALLOT
        self._promises: dict[str, Promise] = {}
        self._next_slot = 0
        self._accept_votes: dict[int, set[str]] = {}
        self._proposals: dict[int, Any] = {}
        #: digest -> slot this proposer last placed the value in. Slot-
        #: aware (not a plain "ever proposed" set): if the slot ends up
        #: decided with a *different* value (e.g. a no-op gap fill), the
        #: value must be proposable again at a fresh slot.
        self._slot_of: dict[str, int] = {}
        # Shared.
        self._requests: dict[str, Any] = {}
        self._progress_timer = None
        self._attempt = 0
        # Replica 0 tries to lead immediately; others only on timeout.
        if self._index == 0:
            self.set_timer(0.0, self._try_lead)

    # -- client path ---------------------------------------------------------

    def submit(self, value: Any) -> None:
        digest = digest_of(value)
        if digest in self._decided_digests:
            # Duplicate of a decided request (client retry): retransmit
            # for laggards, but never reopen it locally — see the PBFT
            # submit path for the liveness bug this prevents.
            self.broadcast(ClientRequest(value=value), targets=self.peers)
            return
        self._requests[digest] = value
        self.broadcast(ClientRequest(value=value), targets=self.peers)
        if self._is_leader:
            self._propose(value)
        self._arm_progress_timer()

    def _arm_progress_timer(self, restart: bool = False) -> None:
        """Start the retry timer if not running; restart only on progress.

        Resetting a live timer on every duplicate client retransmission
        would postpone the timeout indefinitely and starve the leader
        takeover exactly when the cluster is wedged (the same starvation
        the DST fuzzer found in PBFT's view-progress timer).

        The timer also stays armed while decided-but-unreleased slots
        exist (``_out_of_order`` nonempty): a hole below them blocks the
        in-order log, and with ``_requests`` empty nothing else would
        ever trigger the no-op fill that plugs it.
        """
        if not self._requests and not self._out_of_order:
            if self._progress_timer is not None:
                self._progress_timer.cancel()
                self._progress_timer = None
            return
        if self._progress_timer is not None and self._progress_timer.pending:
            if not restart:
                return
            self._progress_timer.cancel()
        # Stagger timeouts by replica index so a single replica takes
        # over cleanly instead of duelling proposers livelocking.
        delay = self.config.base_timeout * (1.0 + 0.5 * self._index)
        self._progress_timer = self.set_timer(
            delay, self._on_progress_timeout, label="progress"
        )

    def on_recover(self) -> None:
        """Restart semantics: leadership is forgotten (a fresh prepare
        phase must re-earn it) and the progress retry timer is re-armed
        for any requests that survived in memory."""
        super().on_recover()
        self._is_leader = False
        self._promises = {}
        self._arm_progress_timer(restart=True)

    def _on_progress_timeout(self) -> None:
        self._requests = {
            d: v for d, v in self._requests.items()
            if d not in self._decided_digests
        }
        if not self._requests and not self._out_of_order:
            self._progress_timer = None
            return
        for value in self._requests.values():
            self.broadcast(ClientRequest(value=value), targets=self.peers)
        if self._is_leader:
            # Still leading (no higher ballot demoted us): the stall is
            # message loss, so retransmit Accepts for undecided slots
            # and propose anything new, instead of burning the ballot.
            for slot, value in sorted(self._proposals.items()):
                if not self.has_decided(slot):
                    self._send_accepts(slot, value)
            # Plug holes below the highest decided slot that this leader
            # never proposed into (safe for the same quorum-intersection
            # reason as the _on_promise fill: a value chosen under an
            # older ballot would have appeared in our promise quorum,
            # and one chosen under ours would be in _proposals).
            for slot in range(max(self._decided_at, default=-1)):
                if not self.has_decided(slot) and slot not in self._proposals:
                    self._send_accepts(slot, NOOP)
            for value in list(self._requests.values()):
                self._propose(value)
        else:
            self._try_lead()
        self._arm_progress_timer(restart=True)

    # -- leadership (phase 1) ---------------------------------------------------

    def _try_lead(self) -> None:
        self._attempt += 1
        self._ballot = (self._attempt, self._index)
        self._promises = {}
        # Leadership must be re-earned under the new ballot: staying
        # "leader" here would make _on_promise discard the very quorum
        # this prepare phase is collecting (every subsequent round would
        # be a no-op and a wedged slot could never be re-proposed).
        self._is_leader = False
        prepare = Prepare(ballot=self._ballot, sender=self.node_id)
        self.broadcast(prepare, targets=self.peers)
        self._on_prepare(prepare)  # promise to ourselves

    def _on_prepare(self, message: Prepare) -> None:
        if message.ballot <= self._promised:
            return  # stale ballot: ignore (sender will time out)
        self._promised = message.ballot
        self._is_leader = self._is_leader and message.sender == self.node_id
        accepted = tuple(
            (slot, ballot, value)
            for slot, (ballot, value) in sorted(self._accepted.items())
        )
        promise = Promise(
            ballot=message.ballot, accepted=accepted, sender=self.node_id
        )
        if message.sender == self.node_id:
            self._on_promise(promise)
        else:
            self.send(message.sender, promise)

    def _on_promise(self, message: Promise) -> None:
        if message.ballot != self._ballot or self._is_leader:
            return
        self._promises[message.sender] = message
        if len(self._promises) < self.config.quorum:
            return
        self._is_leader = True
        # Re-propose the highest-ballot accepted value for every slot any
        # promiser reported — mandatory for safety across leader changes.
        best: dict[int, tuple[Ballot, Any]] = {}
        for promise in self._promises.values():
            for slot, ballot, value in promise.accepted:
                if slot not in best or ballot > best[slot][0]:
                    best[slot] = (ballot, value)
        for slot, (_, value) in sorted(best.items()):
            self._send_accepts(slot, value)
            self._next_slot = max(self._next_slot, slot + 1)
        self._next_slot = max(
            self._next_slot, max(self._decided_at, default=-1) + 1
        )
        # Fill unreported holes with no-ops so the in-order log can
        # drain. Safe by quorum intersection: any chosen slot appears in
        # at least one promise of this quorum.
        for slot in range(self._next_slot):
            if slot in best or self.has_decided(slot):
                continue
            self._send_accepts(slot, NOOP)
        for value in list(self._requests.values()):
            self._propose(value)

    # -- phase 2 ------------------------------------------------------------------

    def _propose(self, value: Any) -> None:
        digest = digest_of(value)
        slot = self._slot_of.get(digest)
        if slot is not None:
            if not self.has_decided(slot):
                return  # still in flight at that slot
            if digest_of(self._decided_at[slot]) == digest:
                return  # already chosen there
            # The slot was decided with something else (gap fill):
            # fall through and re-propose at a fresh slot.
        slot = self._next_slot
        self._next_slot += 1
        self._slot_of[digest] = slot
        self._send_accepts(slot, value)

    def _send_accepts(self, slot: int, value: Any) -> None:
        self._proposals[slot] = value
        self._accept_votes.setdefault(slot, set())
        accept = Accept(
            ballot=self._ballot, slot=slot, value=value, sender=self.node_id
        )
        self.broadcast(accept, targets=self.peers)
        self._on_accept(accept)

    def _on_accept(self, message: Accept) -> None:
        if message.ballot < self._promised:
            return
        self._promised = message.ballot
        self._accepted[message.slot] = (message.ballot, message.value)
        reply = Accepted(
            ballot=message.ballot, slot=message.slot, sender=self.node_id
        )
        if message.sender == self.node_id:
            self._on_accepted(reply)
        else:
            self.send(message.sender, reply)

    def _on_accepted(self, message: Accepted) -> None:
        if message.ballot != self._ballot or not self._is_leader:
            return
        votes = self._accept_votes.setdefault(message.slot, set())
        votes.add(message.sender)
        if len(votes) >= self.config.quorum and not self.has_decided(message.slot):
            value = self._proposals[message.slot]
            self.broadcast(Decide(slot=message.slot, value=value),
                           targets=self.peers)
            self._learn(message.slot, value)

    def _handle_decide(self, message: Decide) -> None:
        self._learn(message.slot, message.value)

    def _learn(self, slot: int, value: Any) -> None:
        if not self.has_decided(slot):
            self._decide(slot, value)
        self._requests.pop(digest_of(value), None)
        self._arm_progress_timer(restart=True)  # progress: fresh timeout

    # -- dispatch --------------------------------------------------------------------

    def on_message(self, src: str, message: object) -> None:
        if isinstance(message, ClientRequest):
            digest = digest_of(message.value)
            if digest not in self._decided_digests:
                self._requests.setdefault(digest, message.value)
                if self._is_leader:
                    self._propose(message.value)
                self._arm_progress_timer()
        elif isinstance(message, Prepare):
            self._on_prepare(message)
        elif isinstance(message, Promise):
            self._on_promise(message)
        elif isinstance(message, Accept):
            self._on_accept(message)
        elif isinstance(message, Accepted):
            self._on_accepted(message)
        elif isinstance(message, Decide):
            self._handle_decide(message)
