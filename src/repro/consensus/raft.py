"""Raft (Ongaro & Ousterhout 2014) — crash fault-tolerant ordering.

Fabric's production ordering service and Quorum's CFT option are
Raft-based (paper sections 2.3.2/2.3.3). ``n = 2f + 1`` replicas survive
``f`` crash faults: randomized election timeouts elect a leader per
term, the leader replicates a log via AppendEntries, and an entry is
committed once a majority stores it in the leader's current term.

As with the PBFT implementation, client values are broadcast to every
replica so that a value submitted through a crashed leader survives —
whichever replica wins the next election proposes all undecided values
it knows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

from repro.consensus.base import ClusterConfig, ConsensusReplica, digest_of


#: Filler entry a new leader appends when its log ends in uncommitted
#: entries from earlier terms (Raft paper §8). Such entries can never
#: satisfy the current-term commit rule on their own, so without this a
#: leader that already inherited every pending value from its crashed
#: predecessor would stall forever. The no-op is decided like any other
#: entry (sequence numbers are log indices) and simply carries a value
#: no client ever submits.
NOOP = "__raft_noop__"


class Role(enum.Enum):
    FOLLOWER = "follower"
    CANDIDATE = "candidate"
    LEADER = "leader"


@dataclass(frozen=True)
class ClientRequest:
    value: Any
    size_bytes: int = 512


@dataclass(frozen=True)
class RequestVote:
    term: int
    candidate: str
    last_log_index: int
    last_log_term: int
    size_bytes: int = 128


@dataclass(frozen=True)
class VoteReply:
    term: int
    voter: str
    granted: bool
    size_bytes: int = 128


@dataclass(frozen=True)
class AppendEntries:
    term: int
    leader: str
    prev_log_index: int
    prev_log_term: int
    entries: tuple[tuple[int, Any], ...]  # (term, value) pairs
    leader_commit: int

    @property
    def size_bytes(self) -> int:
        return 128 + 512 * len(self.entries)


@dataclass(frozen=True)
class AppendReply:
    term: int
    follower: str
    success: bool
    match_index: int
    size_bytes: int = 128


class RaftReplica(ConsensusReplica):
    """One Raft replica (crash fault model — set ``byzantine=False``)."""

    HEARTBEAT_DIVISOR = 4  # heartbeat period = election timeout / divisor

    def __init__(self, node_id, sim, network, config: ClusterConfig, on_decide=None):
        super().__init__(node_id, sim, network, config, on_decide)
        self.role = Role.FOLLOWER
        self.term = 0
        self.voted_for: str | None = None
        self.log: list[tuple[int, Any]] = []  # (term, value)
        self.commit_index = -1
        self._known_leader: str | None = None
        self._votes: set[str] = set()
        self._next_index: dict[str, int] = {}
        self._match_index: dict[str, int] = {}
        self._requests: dict[str, Any] = {}  # undecided client values
        self._appended_digests: set[str] = set()
        self._election_timer = None
        self._heartbeat_timer = None
        self._last_forward = -1.0
        self._reset_election_timer()

    # -- timers -----------------------------------------------------------

    def _election_timeout(self) -> float:
        base = self.config.base_timeout
        return self.sim.rng.uniform(base, 2 * base)

    def _reset_election_timer(self) -> None:
        if self._election_timer is not None:
            self._election_timer.cancel()
        self._election_timer = self.set_timer(
            self._election_timeout(), self._on_election_timeout,
            label="election",
        )

    def _start_heartbeats(self) -> None:
        period = self.config.base_timeout / self.HEARTBEAT_DIVISOR

        def beat() -> None:
            if self.role is Role.LEADER:
                self._replicate_to_all()
                self._heartbeat_timer = self.set_timer(
                    period, beat, label="heartbeat"
                )

        self._heartbeat_timer = self.set_timer(0.0, beat, label="heartbeat")

    def on_recover(self) -> None:
        """Restart semantics: come back as a follower with a fresh
        election timer — pre-crash leadership (and its heartbeat timer)
        died with the crash."""
        super().on_recover()
        self.role = Role.FOLLOWER
        self._votes = set()
        self._reset_election_timer()

    # -- client path -------------------------------------------------------

    def submit(self, value: Any) -> None:
        digest = digest_of(value)
        if digest in self._decided_digests:
            # Duplicate of a committed request (client retry): retransmit
            # so lagging followers learn of it, but don't reopen it.
            self.broadcast(ClientRequest(value=value), targets=self.peers)
            return
        self._requests[digest] = value
        self.broadcast(ClientRequest(value=value), targets=self.peers)
        if self.role is Role.LEADER:
            self._leader_append(value)

    def _leader_append(self, value: Any) -> None:
        digest = digest_of(value)
        if digest in self._appended_digests:
            return
        self._appended_digests.add(digest)
        self.log.append((self.term, value))
        self._replicate_to_all()

    # -- dispatch ------------------------------------------------------------

    def on_message(self, src: str, message: object) -> None:
        term = getattr(message, "term", None)
        if term is not None and term > self.term:
            self._step_down(term)
        if isinstance(message, ClientRequest):
            self._on_client_request(message)
        elif isinstance(message, RequestVote):
            self._on_request_vote(message)
        elif isinstance(message, VoteReply):
            self._on_vote_reply(message)
        elif isinstance(message, AppendEntries):
            self._on_append_entries(message)
        elif isinstance(message, AppendReply):
            self._on_append_reply(message)

    def _on_client_request(self, message: ClientRequest) -> None:
        digest = digest_of(message.value)
        if digest in self._decided_digests:
            return
        self._requests.setdefault(digest, message.value)
        if self.role is Role.LEADER:
            self._leader_append(message.value)

    # -- elections ---------------------------------------------------------------

    def _on_election_timeout(self) -> None:
        if self.role is Role.LEADER:
            return
        self.role = Role.CANDIDATE
        self.term += 1
        self.voted_for = self.node_id
        self._votes = {self.node_id}
        self._known_leader = None
        last_index = len(self.log) - 1
        last_term = self.log[-1][0] if self.log else 0
        self.broadcast(
            RequestVote(
                term=self.term,
                candidate=self.node_id,
                last_log_index=last_index,
                last_log_term=last_term,
            ),
            targets=self.peers,
        )
        self._reset_election_timer()

    def _on_request_vote(self, message: RequestVote) -> None:
        grant = False
        if message.term == self.term and self.voted_for in (None, message.candidate):
            my_last_term = self.log[-1][0] if self.log else 0
            my_last_index = len(self.log) - 1
            up_to_date = (message.last_log_term, message.last_log_index) >= (
                my_last_term,
                my_last_index,
            )
            if up_to_date:
                grant = True
                self.voted_for = message.candidate
                self._reset_election_timer()
        self.send(
            message.candidate,
            VoteReply(term=self.term, voter=self.node_id, granted=grant),
        )

    def _on_vote_reply(self, message: VoteReply) -> None:
        if self.role is not Role.CANDIDATE or message.term != self.term:
            return
        if message.granted:
            self._votes.add(message.voter)
        if len(self._votes) >= self.config.quorum:
            self._become_leader()

    def _become_leader(self) -> None:
        self.role = Role.LEADER
        self._known_leader = self.node_id
        next_index = len(self.log)
        self._next_index = {peer: next_index for peer in self.peers}
        self._match_index = {peer: -1 for peer in self.peers}
        self._appended_digests = {digest_of(v) for _, v in self.log}
        # Propose every undecided value this replica knows about.
        for value in list(self._requests.values()):
            self._leader_append(value)
        # Raft §8 liveness: if the log still ends in uncommitted
        # old-term entries (every pending value was already inherited
        # from the deposed leader, so nothing new was appended above),
        # drive them to commitment with a current-term no-op.
        if (
            self.log
            and self.log[-1][0] != self.term
            and len(self.log) - 1 > self.commit_index
        ):
            self.log.append((self.term, NOOP))
        self._start_heartbeats()

    def _step_down(self, term: int) -> None:
        self.term = term
        self.role = Role.FOLLOWER
        self.voted_for = None
        self._votes = set()
        if self._heartbeat_timer is not None:
            self._heartbeat_timer.cancel()
        self._reset_election_timer()

    # -- log replication --------------------------------------------------------------

    def _replicate_to_all(self) -> None:
        for peer in self.peers:
            self._replicate_to(peer)

    def _replicate_to(self, peer: str) -> None:
        next_index = self._next_index.get(peer, len(self.log))
        prev_index = next_index - 1
        prev_term = self.log[prev_index][0] if prev_index >= 0 else 0
        entries = tuple(self.log[next_index:])
        self.send(
            peer,
            AppendEntries(
                term=self.term,
                leader=self.node_id,
                prev_log_index=prev_index,
                prev_log_term=prev_term,
                entries=entries,
                leader_commit=self.commit_index,
            ),
        )

    def _on_append_entries(self, message: AppendEntries) -> None:
        if message.term < self.term:
            self.send(
                message.leader,
                AppendReply(
                    term=self.term,
                    follower=self.node_id,
                    success=False,
                    match_index=-1,
                ),
            )
            return
        self._known_leader = message.leader
        self.role = Role.FOLLOWER
        self._reset_election_timer()
        # Loss robustness: re-forward undecided client values with each
        # heartbeat window, so a value stranded on a follower (e.g. its
        # original broadcast was lost or its leader was deposed) reaches
        # the current leader eventually.
        if self._requests and self.sim.now - self._last_forward > (
            self.config.base_timeout
        ):
            self._last_forward = self.sim.now
            for value in self._requests.values():
                self.send(message.leader, ClientRequest(value=value))
        # Consistency check on the entry preceding the batch.
        if message.prev_log_index >= 0:
            if (
                message.prev_log_index >= len(self.log)
                or self.log[message.prev_log_index][0] != message.prev_log_term
            ):
                self.send(
                    message.leader,
                    AppendReply(
                        term=self.term,
                        follower=self.node_id,
                        success=False,
                        match_index=-1,
                    ),
                )
                return
        # Truncate conflicts and append.
        insert_at = message.prev_log_index + 1
        for offset, entry in enumerate(message.entries):
            index = insert_at + offset
            if index < len(self.log):
                if self.log[index][0] != entry[0]:
                    del self.log[index:]
                    self.log.append(entry)
            else:
                self.log.append(entry)
        if message.leader_commit > self.commit_index:
            self._advance_commit(
                min(message.leader_commit, len(self.log) - 1)
            )
        self.send(
            message.leader,
            AppendReply(
                term=self.term,
                follower=self.node_id,
                success=True,
                match_index=insert_at + len(message.entries) - 1,
            ),
        )

    def _on_append_reply(self, message: AppendReply) -> None:
        if self.role is not Role.LEADER or message.term != self.term:
            return
        peer = message.follower
        if message.success:
            self._match_index[peer] = max(
                self._match_index.get(peer, -1), message.match_index
            )
            self._next_index[peer] = self._match_index[peer] + 1
            self._advance_leader_commit()
        else:
            # Back up one entry and retry (the classic nextIndex probe).
            self._next_index[peer] = max(0, self._next_index.get(peer, 1) - 1)
            self._replicate_to(peer)

    def _advance_leader_commit(self) -> None:
        for index in range(len(self.log) - 1, self.commit_index, -1):
            if self.log[index][0] != self.term:
                continue  # Raft commits only current-term entries directly
            stored = 1 + sum(
                1 for peer in self.peers if self._match_index.get(peer, -1) >= index
            )
            if stored >= self.config.quorum:
                self._advance_commit(index)
                break

    def _advance_commit(self, new_commit: int) -> None:
        while self.commit_index < new_commit:
            self.commit_index += 1
            term, value = self.log[self.commit_index]
            self._decide(self.commit_index, value)
            self._requests.pop(digest_of(value), None)
