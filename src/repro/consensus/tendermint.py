"""Tendermint (Kwon 2014) — PBFT-family consensus with proof-of-stake.

The paper (section 2.3.3) highlights three Tendermint particulars, all
modelled here:

* only *validators* participate, and their **voting power corresponds to
  bonded stake** — "one-third or two-thirds of the validators are defined
  based on the proportions of the total voting power, not the number of
  validators". Thresholds here are power-weighted (> 2/3 of total power).
* **leader rotation**: the proposer changes every round, in a weighted
  round-robin proportional to stake.
* heights are decided strictly one at a time (no pipelining), each
  height running propose → prevote → precommit rounds with value
  locking for safety across rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.common.errors import ConfigError
from repro.consensus.base import ClusterConfig, ConsensusReplica, digest_of


@dataclass(frozen=True)
class TmProposal:
    height: int
    round: int
    value: Any
    valid_round: int  # -1 when proposing fresh
    proposer: str
    size_bytes: int = 768


@dataclass(frozen=True)
class TmPrevote:
    height: int
    round: int
    digest: str | None  # None = nil vote
    sender: str
    size_bytes: int = 128


@dataclass(frozen=True)
class TmPrecommit:
    height: int
    round: int
    digest: str | None
    sender: str
    size_bytes: int = 128


@dataclass(frozen=True)
class ClientRequest:
    value: Any
    size_bytes: int = 512


def proposer_schedule(replica_ids: list[str], weights: dict[str, int]) -> list[str]:
    """Weighted round-robin proposer order: each validator appears in the
    schedule proportionally to its voting power."""
    schedule: list[str] = []
    for rid in replica_ids:
        weight = weights.get(rid, 1)
        if weight <= 0:
            raise ConfigError(f"validator {rid} must have positive power")
        schedule.extend([rid] * weight)
    return schedule


class TendermintReplica(ConsensusReplica):
    """One Tendermint validator."""

    def __init__(self, node_id, sim, network, config: ClusterConfig, on_decide=None):
        super().__init__(node_id, sim, network, config, on_decide)
        self.weights = config.weights or {rid: 1 for rid in config.replica_ids}
        self._schedule = proposer_schedule(config.replica_ids, self.weights)
        self.total_power = sum(self.weights.values())
        self.height = 0
        self.round = 0
        self.locked_value: Any = None
        self.locked_round = -1
        self.valid_value: Any = None
        self.valid_round = -1
        self._requests: dict[str, Any] = {}
        self._proposals: dict[tuple[int, int], TmProposal] = {}
        self._prevotes: dict[tuple[int, int], dict[str, str | None]] = {}
        self._precommits: dict[tuple[int, int], dict[str, str | None]] = {}
        self._values: dict[str, Any] = {}  # digest -> value
        self._prevoted: set[tuple[int, int]] = set()
        self._precommitted: set[tuple[int, int]] = set()
        self._round_timer = None
        self._active = False
        self._future: list[tuple[str, Any]] = []
        #: round -> senders seen at that round of the current height;
        #: drives the round-skip rule (f+1 messages from a higher round
        #: => jump to it).
        self._round_peers: dict[int, set[str]] = {}
        #: height -> the precommits that decided it, resent to any
        #: validator still proposing or prevoting at that height.
        self._commit_votes: dict[int, list[TmPrecommit]] = {}

    # -- power accounting ----------------------------------------------------

    def power_of(self, sender: str) -> int:
        return self.weights.get(sender, 0)

    def _any_supermajority(self, votes: dict[str, str | None]) -> str | None | bool:
        """Digest (or None for nil) holding > 2/3 power, else False."""
        tally: dict[str | None, int] = {}
        for sender, digest in votes.items():
            tally[digest] = tally.get(digest, 0) + self.power_of(sender)
        for digest, power in tally.items():
            if 3 * power > 2 * self.total_power:
                return digest
        return False

    def proposer(self, height: int, round_: int) -> str:
        return self._schedule[(height + round_) % len(self._schedule)]

    # -- client path ------------------------------------------------------------

    def submit(self, value: Any) -> None:
        digest = digest_of(value)
        if digest in self._decided_digests:
            # Duplicate of a decided request (client retry): retransmit
            # so lagging validators learn of it, but don't reopen it —
            # a stale entry in ``_requests`` would get re-proposed (and
            # re-decided) at a fresh height.
            self.broadcast(ClientRequest(value=value), targets=self.peers)
            return
        self._requests[digest] = value
        self.broadcast(ClientRequest(value=value), targets=self.peers)
        self._ensure_active()

    def _ensure_active(self) -> None:
        if not self._active and self._requests:
            self._active = True
            self._start_round(self.round)

    def on_recover(self) -> None:
        """Restart semantics: if the replica was mid-consensus, re-arm
        the round timer so it times out and rejoins via round change."""
        super().on_recover()
        if self._active:
            self._round_timer = self.set_timer(
                self._round_timeout(), self._on_round_timeout, label="round"
            )

    # -- round machinery ----------------------------------------------------------

    def _round_timeout(self) -> float:
        return self.config.base_timeout * (1.0 + 0.25 * self.round)

    def _start_round(self, round_: int) -> None:
        self.round = round_
        key = (self.height, round_)
        self._round_peers = {
            r: s for r, s in self._round_peers.items() if r > round_
        }
        if self._round_timer is not None:
            self._round_timer.cancel()
        self._round_timer = self.set_timer(
            self._round_timeout(), self._on_round_timeout, label="round"
        )
        if self.proposer(self.height, round_) != self.node_id:
            # If this round's proposal already arrived while we lagged
            # behind (round skip), act on it now instead of waiting for
            # a retransmission that will never come.
            pending = self._proposals.get(key)
            if pending is not None and key not in self._prevoted:
                self._on_proposal(pending.proposer, pending)
            return
        if self.valid_value is not None:
            value, valid_round = self.valid_value, self.valid_round
        else:
            value = self._pick_value()
            valid_round = -1
        if value is None:
            return  # nothing to propose; stay silent, others will nil-vote
        proposal = TmProposal(
            height=self.height,
            round=round_,
            value=value,
            valid_round=valid_round,
            proposer=self.node_id,
        )
        self.broadcast(proposal, targets=self.peers)
        self._on_proposal(self.node_id, proposal)

    def _pick_value(self) -> Any:
        for value in self._requests.values():
            return value
        return None

    def _on_round_timeout(self) -> None:
        if not self._active:
            return
        # Retransmit pending values (loss robustness), then nil-precommit
        # the stalled round and move on.
        for value in self._requests.values():
            self.broadcast(ClientRequest(value=value), targets=self.peers)
        key = (self.height, self.round)
        if key not in self._precommitted:
            self._precommitted.add(key)
            self._broadcast_precommit(None)
        self._start_round(self.round + 1)

    # -- dispatch -----------------------------------------------------------------

    def on_message(self, src: str, message: object) -> None:
        # Votes and proposals for heights we have not reached yet are
        # buffered and replayed after we advance (a lagging validator
        # must not lose the traffic of faster ones).
        height = getattr(message, "height", None)
        if height is not None and height > self.height:
            self._future.append((src, message))
            return
        if height is not None and height < self.height:
            # The sender is stuck at a height we finished, and catch-up
            # cannot help while fewer than f+1 validators are ahead:
            # hand it the precommits that decided the height. Never in
            # reply to a precommit — two validators that are both ahead
            # would bounce them back and forth forever.
            if not isinstance(message, TmPrecommit):
                for vote in self._commit_votes.get(height, ()):
                    self.send(src, vote)
            return
        if isinstance(message, ClientRequest):
            digest = digest_of(message.value)
            if digest not in self._decided_digests:
                self._requests.setdefault(digest, message.value)
                self._ensure_active()
        elif isinstance(message, TmProposal):
            self._maybe_skip_round(message.height, message.round, message.proposer)
            self._on_proposal(src, message)
        elif isinstance(message, TmPrevote):
            self._maybe_skip_round(message.height, message.round, message.sender)
            self._on_prevote(message)
        elif isinstance(message, TmPrecommit):
            self._maybe_skip_round(message.height, message.round, message.sender)
            self._on_precommit(message)

    def _maybe_skip_round(self, height: int, round_: int, sender: str) -> None:
        """Round-skip rule (Tendermint arXiv:1807.04938, line 55): upon
        f+1 messages (>1/3 voting power) from a round greater than ours,
        jump straight to that round. Without it, validators whose round
        timers drifted apart chase each other one timeout at a time and
        can stay desynchronised forever — a liveness livelock the DST
        fuzzer found (32 rounds of one height with no two validators in
        the same round long enough to assemble a quorum)."""
        if not self._active or height != self.height or round_ <= self.round:
            return
        senders = self._round_peers.setdefault(round_, set())
        senders.add(sender)
        power = sum(self.power_of(s) for s in senders)
        if 3 * power > self.total_power:
            self._start_round(round_)

    # -- propose / prevote ------------------------------------------------------------

    def _on_proposal(self, src: str, message: TmProposal) -> None:
        if message.height != self.height:
            return
        if src != self.proposer(message.height, message.round):
            return
        key = (message.height, message.round)
        self._proposals.setdefault(key, message)
        digest = digest_of(message.value)
        self._values[digest] = message.value
        if digest not in self._decided_digests:
            self._requests.setdefault(digest, message.value)
            self._ensure_active()
        if key in self._prevoted or message.round != self.round:
            self._maybe_advance(key)
            return
        self._prevoted.add(key)
        # Locking rule: prevote the proposal unless locked on a different
        # value from a later round than the proposal's valid_round.
        acceptable = (
            self.locked_round == -1
            or self.locked_value == message.value
            or message.valid_round >= self.locked_round
        )
        vote_digest = digest if acceptable else None
        vote = TmPrevote(
            height=self.height, round=self.round, digest=vote_digest,
            sender=self.node_id,
        )
        self.broadcast(vote, targets=self.peers)
        self._on_prevote(vote)

    def _on_prevote(self, message: TmPrevote) -> None:
        if message.height != self.height:
            return
        key = (message.height, message.round)
        votes = self._prevotes.setdefault(key, {})
        votes.setdefault(message.sender, message.digest)
        self._maybe_advance(key)

    def _broadcast_precommit(self, digest: str | None) -> None:
        vote = TmPrecommit(
            height=self.height, round=self.round, digest=digest,
            sender=self.node_id,
        )
        self.broadcast(vote, targets=self.peers)
        self._on_precommit(vote)

    def _on_precommit(self, message: TmPrecommit) -> None:
        if message.height != self.height:
            return
        key = (message.height, message.round)
        votes = self._precommits.setdefault(key, {})
        votes.setdefault(message.sender, message.digest)
        self._maybe_advance(key)

    # -- step transitions ----------------------------------------------------------------

    def _maybe_advance(self, key: tuple[int, int]) -> None:
        height, round_ = key
        if height != self.height:
            return
        prevotes = self._prevotes.get(key, {})
        outcome = self._any_supermajority(prevotes)
        if outcome is not False and key not in self._precommitted:
            # 2/3+ prevote power for one digest (or nil) in this round.
            if outcome is not None and outcome in self._values:
                value = self._values[outcome]
                self.locked_value = value
                self.locked_round = round_
                self.valid_value = value
                self.valid_round = round_
                if round_ == self.round:
                    self._precommitted.add(key)
                    self._broadcast_precommit(outcome)
            elif outcome is None and round_ == self.round:
                self._precommitted.add(key)
                self._broadcast_precommit(None)
        precommits = self._precommits.get(key, {})
        decision = self._any_supermajority(precommits)
        if decision is not False and decision is not None:
            if decision in self._values:
                self._commit_votes[height] = [
                    TmPrecommit(height, round_, digest, sender)
                    for sender, digest in precommits.items()
                    if digest == decision
                ]
                self._decide_height(self._values[decision])
            return
        if decision is None and round_ == self.round:
            # 2/3+ nil precommits: this round is dead, move to the next.
            self._start_round(self.round + 1)

    def _decide_height(self, value: Any) -> None:
        if self.has_decided(self.height):
            return
        self._decide(self.height, value)
        self._requests.pop(digest_of(value), None)
        self._advance_height()

    def _advance_height(self) -> None:
        self.height += 1
        self.round = 0
        self.locked_value = None
        self.locked_round = -1
        self.valid_value = None
        self.valid_round = -1
        self._active = False
        if self._round_timer is not None:
            self._round_timer.cancel()
        self._proposals.clear()
        self._prevotes.clear()
        self._precommits.clear()
        self._prevoted.clear()
        self._precommitted.clear()
        self._round_peers.clear()
        self._ensure_active()
        buffered, self._future = self._future, []
        for src, message in buffered:
            self.deliver(src, message)

    def _after_catchup(self, sequence: int, value: Any) -> None:
        # Heights decided through catch-up gossip must move the round
        # machinery forward too, or this validator would nil-vote a
        # finished height forever.
        while self.has_decided(self.height):
            self._advance_height()
