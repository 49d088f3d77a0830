"""Practical Byzantine Fault Tolerance (Castro & Liskov 1999).

The canonical ordering protocol for permissioned blockchains (paper
section 2.2): ``n = 3f + 1`` replicas survive ``f`` Byzantine faults.
A request flows pre-prepare → prepare (2f + 1 matching) → commit
(2f + 1 matching) → decide; a faulty or slow leader is replaced by the
view-change / new-view subprotocol; periodic checkpoints garbage-collect
the message log.

An :class:`EquivocatingPbftReplica` is included for safety experiments:
a Byzantine leader that proposes different values to different halves of
the cluster. Tests assert that equivocation can stall progress but never
yields divergent commits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.crypto.digests import sha256_hex
from repro.consensus.base import ClusterConfig, ConsensusReplica, digest_of


#: Null request (Castro & Liskov section 4.4): a new leader fills
#: sequence gaps below its high-water mark with pre-prepares for this
#: value, so the in-order decided log can always drain. Safe: a gap is
#: only filled when no prepared certificate for it exists anywhere in
#: the view-change quorum, and quorum intersection guarantees any
#: *decided* sequence has such a certificate in every quorum.
NOOP = "__pbft-null__"


@dataclass(frozen=True)
class Request:
    value: Any
    size_bytes: int = 512


@dataclass(frozen=True)
class PrePrepare:
    view: int
    seq: int
    digest: str
    value: Any
    size_bytes: int = 640


@dataclass(frozen=True)
class Prepare:
    view: int
    seq: int
    digest: str
    sender: str
    size_bytes: int = 128


@dataclass(frozen=True)
class Commit:
    view: int
    seq: int
    digest: str
    sender: str
    size_bytes: int = 128


@dataclass(frozen=True)
class Checkpoint:
    seq: int
    digest: str
    sender: str
    size_bytes: int = 128


@dataclass(frozen=True)
class ViewChange:
    new_view: int
    #: Prepared-but-undecided entries: (seq, digest, value, view prepared in).
    prepared: tuple[tuple[int, str, Any, int], ...]
    #: Known undecided client requests, so the new leader can re-propose.
    pending: tuple[Any, ...]
    #: Highest sequence this replica has decided (new leader must
    #: continue past it, never reuse a decided slot).
    last_decided: int
    sender: str
    size_bytes: int = 1024


@dataclass(frozen=True)
class NewView:
    new_view: int
    preprepares: tuple[PrePrepare, ...]
    size_bytes: int = 1024


@dataclass
class _SlotState:
    """Per-(view, seq) progress record."""

    digest: str | None = None
    value: Any = None
    prepares: set[str] = field(default_factory=set)
    commits: set[str] = field(default_factory=set)
    prepared: bool = False
    commit_sent: bool = False


class PbftReplica(ConsensusReplica):
    """One PBFT replica."""

    def __init__(self, node_id, sim, network, config: ClusterConfig, on_decide=None):
        super().__init__(node_id, sim, network, config, on_decide)
        self.view = 0
        self.byzantine = False
        self._next_seq = 0  # leader's proposal counter
        self._slots: dict[tuple[int, int], _SlotState] = {}
        self._requests: dict[str, Any] = {}  # digest -> undecided value
        #: digest -> sequence this replica last proposed the value at.
        #: Slot-aware so a value whose sequence was filled with a null
        #: request in a later view can be proposed again.
        self._seq_of: dict[str, int] = {}
        self._view_change_votes: dict[int, dict[str, ViewChange]] = {}
        self._in_view_change = False
        self._view_change_target = 0
        self._view_timer = None
        self._timeout_factor = 1.0
        self._checkpoint_votes: dict[int, set[str]] = {}
        self._stable_checkpoint = 0
        self._future_buffer: list[tuple[str, Any]] = []

    # -- helpers -------------------------------------------------------------

    @property
    def is_leader(self) -> bool:
        return self.config.leader_of_view(self.view) == self.node_id

    def _leader(self) -> str:
        return self.config.leader_of_view(self.view)

    def _slot(self, view: int, seq: int) -> _SlotState:
        slot = self._slots.get((view, seq))
        if slot is None:
            slot = self._slots[(view, seq)] = _SlotState()
        return slot

    def _arm_timer(self, restart: bool = False) -> None:
        """Manage the view-progress timer (Castro & Liskov section 4.4).

        A backup *starts* the timer when it is waiting on a request and
        the timer is not already running, and *restarts* it only when
        progress happens (a decision, a view entered). Duplicate client
        retransmissions must NOT reset a running timer — that would
        postpone the timeout forever and starve the view change exactly
        when the cluster is wedged (a liveness bug the DST fuzzer found).

        The timer also stays armed while decided-but-unreleased slots
        exist (``_out_of_order`` nonempty): a hole below them blocks the
        in-order log, and only a view change (whose new leader null-fills
        gaps) can plug it once ``_requests`` has drained.
        """
        if not self._requests and not self._out_of_order:
            if self._view_timer is not None:
                self._view_timer.cancel()
                self._view_timer = None
            return
        if self._view_timer is not None and self._view_timer.pending:
            if not restart:
                return
            self._view_timer.cancel()
        delay = self.config.base_timeout * self._timeout_factor
        self._view_timer = self.set_timer(
            delay, self._on_progress_timeout, label="view-progress"
        )

    def on_recover(self) -> None:
        """Restart semantics: re-arm the view-progress timer for any
        undecided requests (pre-crash timers died with the crash)."""
        super().on_recover()
        self._arm_timer(restart=True)

    # -- client path ----------------------------------------------------------

    def submit(self, value: Any) -> None:
        digest = digest_of(value)
        if digest in self._decided_digests:
            # Duplicate of an already-decided request (client retry):
            # retransmit so laggards learn of it, but never reopen it
            # locally — a decided digest parked in ``_requests`` makes
            # the progress timer demand view changes for work that is
            # already done, wedging this replica in a view change no
            # one else wants (a liveness bug the DST fuzzer found).
            self.broadcast(Request(value=value), targets=self.peers)
            return
        self._requests[digest] = value
        # As in PBFT, the request reaches every replica (not only the
        # leader) so that all replicas can time out and demand a view
        # change if the leader never orders it.
        self.broadcast(Request(value=value), targets=self.peers)
        if self.is_leader and not self._in_view_change:
            self._propose(value)
        self._arm_timer()

    def _propose(self, value: Any) -> None:
        digest = digest_of(value)
        seq = self._seq_of.get(digest)
        if seq is not None:
            if not self.has_decided(seq):
                return  # still in flight at that sequence
            if digest_of(self._decided_at[seq]) == digest:
                return  # already decided there
            # Sequence was decided with something else (null fill):
            # fall through and re-propose at a fresh sequence.
        seq = self._next_seq
        self._next_seq += 1
        self._seq_of[digest] = seq
        message = PrePrepare(view=self.view, seq=seq, digest=digest, value=value)
        self.broadcast(message, targets=self.peers)
        self._accept_preprepare(message)

    # -- message dispatch -------------------------------------------------------

    def on_message(self, src: str, message: object) -> None:
        # Messages from a future view (e.g. a new leader's pre-prepare
        # racing ahead of its NEW-VIEW) are buffered and replayed once
        # this replica enters that view, instead of being lost.
        view = getattr(message, "view", None)
        if view is not None and view > self.view:
            self._future_buffer.append((src, message))
            return
        if isinstance(message, Request):
            self._on_request(message)
        elif isinstance(message, PrePrepare):
            self._on_preprepare(src, message)
        elif isinstance(message, Prepare):
            self._on_prepare(message)
        elif isinstance(message, Commit):
            self._on_commit(message)
        elif isinstance(message, Checkpoint):
            self._on_checkpoint(message)
        elif isinstance(message, ViewChange):
            self._on_view_change(message)
        elif isinstance(message, NewView):
            self._on_new_view(src, message)

    def _on_request(self, message: Request) -> None:
        digest = digest_of(message.value)
        if digest in self._decided_digests:
            return
        self._requests.setdefault(digest, message.value)
        if self.is_leader and not self._in_view_change:
            self._propose(message.value)
        self._arm_timer()

    # -- normal case ------------------------------------------------------------

    def _on_preprepare(self, src: str, message: PrePrepare) -> None:
        if message.view != self.view or self._in_view_change:
            return
        if src != self.config.leader_of_view(message.view):
            return  # only the view's leader may pre-prepare
        self._accept_preprepare(message)

    def _accept_preprepare(self, message: PrePrepare) -> None:
        slot = self._slot(message.view, message.seq)
        if slot.digest is not None and slot.digest != message.digest:
            return  # equivocation: refuse the second digest for this slot
        if slot.digest is None:
            slot.digest = message.digest
            slot.value = message.value
        # Learn the request from the pre-prepare: if later protocol
        # messages are lost, this replica can now demand a view change
        # that re-proposes the value (loss robustness).
        if not self.has_decided(message.seq):
            self._requests.setdefault(message.digest, message.value)
            self._arm_timer()
        # The leader's pre-prepare counts as its prepare vote.
        slot.prepares.add(self.config.leader_of_view(message.view))
        if self.node_id != self.config.leader_of_view(message.view):
            prepare = Prepare(
                view=message.view,
                seq=message.seq,
                digest=message.digest,
                sender=self.node_id,
            )
            self.broadcast(prepare, targets=self.peers)
            slot.prepares.add(self.node_id)
        self._check_prepared(message.view, message.seq)

    def _on_prepare(self, message: Prepare) -> None:
        if message.view != self.view or self._in_view_change:
            return
        slot = self._slot(message.view, message.seq)
        if slot.digest is not None and slot.digest != message.digest:
            return
        slot.prepares.add(message.sender)
        self._check_prepared(message.view, message.seq)

    def _check_prepared(self, view: int, seq: int) -> None:
        slot = self._slot(view, seq)
        if slot.prepared or slot.digest is None:
            return
        if len(slot.prepares) >= self.config.quorum:
            slot.prepared = True
            # The prepared certificate's vote signatures are checked as
            # it forms; votes seen in an earlier view's certificate for
            # the same digest are cache hits.
            self._note_certificate(
                slot.prepares, f"prepare:{seq}:{slot.digest}"
            )
            if not slot.commit_sent:
                slot.commit_sent = True
                commit = Commit(
                    view=view, seq=seq, digest=slot.digest, sender=self.node_id
                )
                self.broadcast(commit, targets=self.peers)
                slot.commits.add(self.node_id)
            self._check_committed(view, seq)

    def _on_commit(self, message: Commit) -> None:
        slot = self._slot(message.view, message.seq)
        if slot.digest is not None and slot.digest != message.digest:
            return
        slot.commits.add(message.sender)
        self._check_committed(message.view, message.seq)

    def _check_committed(self, view: int, seq: int) -> None:
        slot = self._slot(view, seq)
        if slot.digest is None or not slot.prepared:
            return
        if len(slot.commits) < self.config.quorum:
            return
        if self.has_decided(seq):
            return
        self._note_certificate(slot.commits, f"commit:{seq}:{slot.digest}")
        self._decide(seq, slot.value)
        self._requests.pop(slot.digest, None)
        self._timeout_factor = 1.0
        self._arm_timer(restart=True)  # progress: restart the timeout
        self._maybe_checkpoint(seq)

    # -- checkpoints ---------------------------------------------------------------

    def _maybe_checkpoint(self, seq: int) -> None:
        interval = self.config.checkpoint_interval
        if (seq + 1) % interval != 0:
            return
        digest = sha256_hex(repr(self.decided[: seq + 1]))
        message = Checkpoint(seq=seq, digest=digest, sender=self.node_id)
        self.broadcast(message, targets=self.peers)
        self._on_checkpoint(message)

    def _on_checkpoint(self, message: Checkpoint) -> None:
        votes = self._checkpoint_votes.setdefault(message.seq, set())
        votes.add(message.sender)
        if len(votes) >= self.config.quorum and message.seq > self._stable_checkpoint:
            self._stable_checkpoint = message.seq
            # Garbage-collect slot state at or below the stable checkpoint.
            for key in [k for k in self._slots if k[1] <= message.seq]:
                del self._slots[key]

    # -- view change ------------------------------------------------------------------

    def _on_progress_timeout(self) -> None:
        # Drop entries that were decided through a path that missed the
        # bookkeeping (defence in depth): never demand a view change for
        # work that is already done.
        self._requests = {
            d: v for d, v in self._requests.items()
            if d not in self._decided_digests
        }
        if not self._requests and not self._out_of_order:
            self._view_timer = None
            return
        self._start_view_change(max(self.view, self._view_change_target) + 1)

    def _start_view_change(self, new_view: int) -> None:
        if new_view <= self.view:
            return
        if self._in_view_change and new_view <= self._view_change_target:
            return
        self._view_change_target = new_view
        self._in_view_change = True
        self._timeout_factor *= 2  # exponential backoff across failed views
        # Report every prepared certificate above the stable checkpoint —
        # including ones this replica already decided (as in the paper's
        # P set). Omitting decided slots lets a new leader skip a
        # sequence some replicas decided and others never saw, leaving a
        # permanent hole in the in-order log.
        prepared = tuple(
            (seq, slot.digest, slot.value, view)
            for (view, seq), slot in sorted(self._slots.items())
            if slot.prepared
        )
        message = ViewChange(
            new_view=new_view,
            prepared=prepared,
            pending=tuple(self._requests.values()),
            last_decided=max(self._decided_at, default=-1),
            sender=self.node_id,
        )
        self.broadcast(message, targets=self.peers)
        # Retransmit pending requests: the original client broadcast may
        # have been lost to some replicas (they need it to join future
        # view changes and to survive re-proposal).
        for value in self._requests.values():
            self.broadcast(Request(value=value), targets=self.peers)
        self._on_view_change(message)
        # Keep ticking in case this view change also stalls (restart:
        # the new, backed-off timeout replaces the one that just fired).
        self._arm_timer(restart=True)

    def _on_view_change(self, message: ViewChange) -> None:
        if message.new_view <= self.view:
            return
        votes = self._view_change_votes.setdefault(message.new_view, {})
        votes[message.sender] = message
        # A replica that sees f+1 view changes joins (it knows a correct
        # replica timed out), preventing laggards from splitting views.
        if (
            len(votes) >= self.config.f + 1
            and not self._in_view_change
        ):
            self._start_view_change(message.new_view)
        if (
            self.config.leader_of_view(message.new_view) == self.node_id
            and len(votes) >= self.config.quorum
        ):
            self._become_leader(message.new_view, list(votes.values()))

    def _become_leader(self, new_view: int, votes: list[ViewChange]) -> None:
        if self.view >= new_view:
            return
        self._enter_view(new_view)
        # Re-propose every prepared-but-undecided entry at its sequence,
        # picking the prepared proof from the highest view.
        best: dict[int, tuple[int, str, Any]] = {}
        pending: dict[str, Any] = {}
        max_seq = self._next_seq - 1
        for vote in votes:
            for seq, digest, value, view in vote.prepared:
                current = best.get(seq)
                if current is None or view > current[0]:
                    best[seq] = (view, digest, value)
            for value in vote.pending:
                pending[digest_of(value)] = value
            max_seq = max(max_seq, vote.last_decided)
        max_seq = max(max_seq, max(self._decided_at, default=-1))
        entries: dict[int, tuple[str, Any]] = {}
        for seq, (_, digest, value) in best.items():
            entries[seq] = (digest, value)
            pending.pop(digest, None)
            max_seq = max(max_seq, seq)
        # Fill the gaps: re-propose what we decided there, or a null
        # request when no certificate for the sequence exists anywhere
        # in the quorum (section 4.4's null-request rule).
        for seq in range(max_seq + 1):
            if seq in entries:
                continue
            value = (
                self._decided_at[seq] if self.has_decided(seq) else NOOP
            )
            entries[seq] = (digest_of(value), value)
        preprepares = [
            PrePrepare(view=new_view, seq=seq, digest=digest, value=value)
            for seq, (digest, value) in sorted(entries.items())
        ]
        self._next_seq = max_seq + 1
        # Forget stale proposal records for sequences this new view
        # reassigns to a different digest, then record the new ones.
        for seq, (digest, _) in entries.items():
            for old_digest, old_seq in list(self._seq_of.items()):
                if old_seq == seq and old_digest != digest:
                    del self._seq_of[old_digest]
        for preprepare in preprepares:
            self._seq_of[preprepare.digest] = preprepare.seq
        self.broadcast(NewView(new_view=new_view, preprepares=tuple(preprepares)),
                       targets=self.peers)
        for preprepare in preprepares:
            self._accept_preprepare(preprepare)
        # Fresh proposals for requests that were never prepared.
        for digest, value in pending.items():
            if digest not in self._decided_digests:
                self._requests.setdefault(digest, value)
                self._propose(value)
        self._arm_timer(restart=True)  # new view entered: fresh timeout

    def _on_new_view(self, src: str, message: NewView) -> None:
        if message.new_view < self.view:
            return
        if src != self.config.leader_of_view(message.new_view):
            return
        self._enter_view(message.new_view)
        for preprepare in message.preprepares:
            self._accept_preprepare(preprepare)
        # Re-forward still-undecided requests to the new leader.
        for value in list(self._requests.values()):
            self.send(self._leader(), Request(value=value))
        self._arm_timer(restart=True)  # new view entered: fresh timeout

    def _enter_view(self, view: int) -> None:
        self.view = view
        self._in_view_change = False
        self._view_change_votes = {
            v: votes for v, votes in self._view_change_votes.items() if v > view
        }
        buffered, self._future_buffer = self._future_buffer, []
        for src, message in buffered:
            self.deliver(src, message)


class EquivocatingPbftReplica(PbftReplica):
    """A Byzantine leader that equivocates: it sends one value to the
    first half of its peers and a different value to the rest.

    Used by safety experiments — correct replicas must never commit two
    different values at one sequence, no matter what this node does.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.byzantine = True

    def _propose(self, value: Any) -> None:
        if not self.is_leader:
            return
        seq = self._next_seq
        self._next_seq += 1
        forged = ("forged", repr(value))
        half = len(self.peers) // 2
        for peer in self.peers[:half]:
            self.send(peer, PrePrepare(
                view=self.view, seq=seq, digest=digest_of(value), value=value))
        for peer in self.peers[half:]:
            self.send(peer, PrePrepare(
                view=self.view, seq=seq, digest=digest_of(forged), value=forged))
