"""Istanbul BFT — the Byzantine consensus protocol of Quorum.

Quorum "introduces two consensus protocols: a crash fault-tolerant
protocol based on Raft and a Byzantine fault-tolerant protocol called
Istanbul BFT" (paper section 2.3.2). IBFT is a PBFT derivative operating
height by height: pre-prepare → prepare (2f + 1) → commit (2f + 1)
decides one block per height, and a ROUND-CHANGE subprotocol (rather
than PBFT's heavier view change) replaces a failed proposer. The
proposer of (height, round) rotates round-robin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.consensus.base import ClusterConfig, ConsensusReplica, digest_of


@dataclass(frozen=True)
class IbftPrePrepare:
    height: int
    round: int
    value: Any
    size_bytes: int = 640


@dataclass(frozen=True)
class IbftPrepare:
    height: int
    round: int
    digest: str
    sender: str
    size_bytes: int = 128


@dataclass(frozen=True)
class IbftCommit:
    height: int
    round: int
    digest: str
    sender: str
    size_bytes: int = 128


@dataclass(frozen=True)
class RoundChange:
    height: int
    round: int  # the round the sender wants to move TO
    prepared_round: int  # -1 when nothing prepared
    prepared_value: Any
    sender: str
    size_bytes: int = 512


@dataclass(frozen=True)
class ClientRequest:
    value: Any
    size_bytes: int = 512


class IbftReplica(ConsensusReplica):
    """One IBFT validator."""

    def __init__(self, node_id, sim, network, config: ClusterConfig, on_decide=None):
        super().__init__(node_id, sim, network, config, on_decide)
        self.height = 0
        self.round = 0
        self._requests: dict[str, Any] = {}
        self._proposal: dict[tuple[int, int], Any] = {}
        self._prepares: dict[tuple[int, int, str], set[str]] = {}
        self._commits: dict[tuple[int, int, str], set[str]] = {}
        self._round_changes: dict[tuple[int, int], dict[str, RoundChange]] = {}
        self._prepared_round = -1
        self._prepared_value: Any = None
        self._sent_prepare: set[tuple[int, int]] = set()
        self._sent_commit: set[tuple[int, int]] = set()
        self._sent_round_change: set[tuple[int, int]] = set()
        self._round_timer = None
        self._active = False
        self._future: list[tuple[str, Any]] = []

    def proposer(self, height: int, round_: int) -> str:
        return self.config.replica_ids[(height + round_) % self.config.n]

    # -- client path -----------------------------------------------------------

    def submit(self, value: Any) -> None:
        digest = digest_of(value)
        if digest in self._decided_digests:
            # Duplicate of a decided request (client retry): retransmit
            # so lagging validators learn of it, but don't reopen it.
            self.broadcast(ClientRequest(value=value), targets=self.peers)
            return
        self._requests[digest] = value
        self.broadcast(ClientRequest(value=value), targets=self.peers)
        self._ensure_active()

    def _ensure_active(self) -> None:
        if self._active or not self._requests:
            return
        self._active = True
        self._start_round(self.round)

    # -- round machinery -----------------------------------------------------------

    def _start_round(self, round_: int) -> None:
        self.round = round_
        if self._round_timer is not None:
            self._round_timer.cancel()
        delay = self.config.base_timeout * (1.0 + 0.5 * round_)
        self._round_timer = self.set_timer(
            delay, self._on_round_timeout, label="round"
        )
        if self.proposer(self.height, round_) != self.node_id:
            return
        value = self._prepared_value
        if value is None:
            value = next(iter(self._requests.values()), None)
        if value is None:
            return
        message = IbftPrePrepare(height=self.height, round=round_, value=value)
        self.broadcast(message, targets=self.peers)
        self._on_preprepare(self.node_id, message)

    def _on_round_timeout(self) -> None:
        if not self._active:
            return
        self._demand_round_change(self.round + 1)

    def _demand_round_change(self, target_round: int) -> None:
        key = (self.height, target_round)
        if key in self._sent_round_change:
            return
        self._sent_round_change.add(key)
        message = RoundChange(
            height=self.height,
            round=target_round,
            prepared_round=self._prepared_round,
            prepared_value=self._prepared_value,
            sender=self.node_id,
        )
        self.broadcast(message, targets=self.peers)
        for value in self._requests.values():
            self.broadcast(ClientRequest(value=value), targets=self.peers)
        self._on_round_change(message)
        # Keep the timer running in case this round change stalls too.
        if self._round_timer is not None:
            self._round_timer.cancel()
        delay = self.config.base_timeout * (1.0 + 0.5 * target_round)
        self._round_timer = self.set_timer(
            delay,
            lambda: self._demand_round_change(target_round + 1),
            label="round-change",
        )

    def on_recover(self) -> None:
        """Restart semantics: if the replica was mid-consensus, re-arm
        the round timer so it can demand a round change and rejoin."""
        super().on_recover()
        if self._active:
            delay = self.config.base_timeout * (1.0 + 0.5 * self.round)
            self._round_timer = self.set_timer(
                delay, self._on_round_timeout, label="round"
            )

    # -- dispatch ----------------------------------------------------------------------

    def on_message(self, src: str, message: object) -> None:
        height = getattr(message, "height", None)
        if height is not None and height > self.height:
            self._future.append((src, message))
            return
        if isinstance(message, ClientRequest):
            digest = digest_of(message.value)
            if digest not in self._decided_digests:
                self._requests.setdefault(digest, message.value)
                self._ensure_active()
        elif isinstance(message, IbftPrePrepare):
            self._on_preprepare(src, message)
        elif isinstance(message, IbftPrepare):
            self._on_prepare(message)
        elif isinstance(message, IbftCommit):
            self._on_commit(message)
        elif isinstance(message, RoundChange):
            self._on_round_change(message)

    # -- normal case ----------------------------------------------------------------------

    def _on_preprepare(self, src: str, message: IbftPrePrepare) -> None:
        if message.height != self.height:
            return
        if src != self.proposer(message.height, message.round):
            return
        key = (message.height, message.round)
        if key in self._proposal:
            return
        self._proposal[key] = message.value
        # Loss robustness: learn the value so this validator can drive
        # round changes that re-propose it.
        self._requests.setdefault(digest_of(message.value), message.value)
        self._ensure_active()
        if message.round < self.round:
            return
        if message.round > self.round:
            # The cluster moved on without us; adopt the newer round.
            self.round = message.round
        digest = digest_of(message.value)
        if key not in self._sent_prepare:
            self._sent_prepare.add(key)
            prepare = IbftPrepare(
                height=self.height, round=message.round, digest=digest,
                sender=self.node_id,
            )
            self.broadcast(prepare, targets=self.peers)
            self._on_prepare(prepare)

    def _on_prepare(self, message: IbftPrepare) -> None:
        if message.height != self.height:
            return
        key = (message.height, message.round, message.digest)
        votes = self._prepares.setdefault(key, set())
        votes.add(message.sender)
        if len(votes) < self.config.quorum:
            return
        proposal_key = (message.height, message.round)
        if proposal_key not in self._proposal:
            return
        value = self._proposal[proposal_key]
        if digest_of(value) != message.digest:
            return
        self._prepared_round = message.round
        self._prepared_value = value
        if proposal_key not in self._sent_commit:
            self._sent_commit.add(proposal_key)
            commit = IbftCommit(
                height=message.height, round=message.round,
                digest=message.digest, sender=self.node_id,
            )
            self.broadcast(commit, targets=self.peers)
            self._on_commit(commit)

    def _on_commit(self, message: IbftCommit) -> None:
        if message.height != self.height:
            return
        key = (message.height, message.round, message.digest)
        votes = self._commits.setdefault(key, set())
        votes.add(message.sender)
        if len(votes) < self.config.quorum:
            return
        proposal_key = (message.height, message.round)
        value = self._proposal.get(proposal_key)
        if value is None or digest_of(value) != message.digest:
            return
        self._decide_height(value)

    def _decide_height(self, value: Any) -> None:
        if self.has_decided(self.height):
            return
        self._decide(self.height, value)
        self._requests.pop(digest_of(value), None)
        self._advance_height()

    def _after_catchup(self, sequence: int, value: Any) -> None:
        while self.has_decided(self.height):
            self._advance_height()

    def _advance_height(self) -> None:
        self.height += 1
        self.round = 0
        self._prepared_round = -1
        self._prepared_value = None
        self._proposal.clear()
        self._prepares.clear()
        self._commits.clear()
        self._round_changes.clear()
        self._sent_prepare.clear()
        self._sent_commit.clear()
        self._sent_round_change.clear()
        self._active = False
        if self._round_timer is not None:
            self._round_timer.cancel()
            self._round_timer = None
        self._ensure_active()
        buffered, self._future = self._future, []
        for src, message in buffered:
            self.deliver(src, message)

    # -- round change --------------------------------------------------------------------------

    def _on_round_change(self, message: RoundChange) -> None:
        if message.height != self.height:
            return
        if message.round <= self.round:
            return
        key = (message.height, message.round)
        votes = self._round_changes.setdefault(key, {})
        votes[message.sender] = message
        # f + 1 round changes prove a correct validator timed out: join.
        if len(votes) >= self.config.f + 1:
            self._demand_round_change(message.round)
        if len(votes) < self.config.quorum:
            return
        # Quorum for the new round: enter it; the new proposer re-proposes
        # the prepared value with the highest prepared round, if any.
        best: RoundChange | None = None
        for vote in votes.values():
            if vote.prepared_round >= 0 and (
                best is None or vote.prepared_round > best.prepared_round
            ):
                best = vote
        if best is not None:
            self._prepared_round = best.prepared_round
            self._prepared_value = best.prepared_value
        self._start_round(message.round)
