"""Chained HotStuff (Yin et al., PODC 2019).

The linear-communication BFT protocol the paper lists among modern
Byzantine ordering options (section 2.3.3). Each view has one leader who
proposes a node extending the highest known quorum certificate; replicas
vote to the *next* leader, so view change is free ("linearity"). A node
is committed through the three-chain rule: when three consecutive-view
nodes form a chain, the oldest is final.

This implementation follows the event-driven/chained formulation:

* ``highQC`` — highest QC seen; new proposals extend it.
* lock rule — on seeing proposal b*, with b'' = b*.justify.node and
  b' = b''.justify.node: if b' is newer than the locked node, lock b''.
* commit rule — commit b when b'' , b', b are chained with consecutive
  views.
* pacemaker — per-view timers; on timeout replicas send NEW-VIEW with
  their highQC to the next leader, which proposes after n - f of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.consensus.base import ClusterConfig, ConsensusReplica, digest_of
from repro.crypto.digests import sha256_hex


@dataclass(frozen=True)
class QC:
    """Quorum certificate: n - f votes for one node in one view."""

    view: int
    node_digest: str
    signers: frozenset[str]
    size_bytes: int = 256


@dataclass(frozen=True)
class HSNode:
    """One vertex of the HotStuff chain."""

    view: int
    parent: str  # parent digest ("" for genesis)
    value: Any  # None for a leaf that only advances the chain
    justify: QC | None  # QC for the parent (None only at genesis)

    def digest(self) -> str:
        justify_part = (
            f"{self.justify.view}:{self.justify.node_digest}" if self.justify else "-"
        )
        return sha256_hex(f"{self.view}|{self.parent}|{self.value!r}|{justify_part}")


@dataclass(frozen=True)
class Proposal:
    node: HSNode
    size_bytes: int = 768


@dataclass(frozen=True)
class Vote:
    view: int
    node_digest: str
    voter: str
    size_bytes: int = 128


@dataclass(frozen=True)
class NewView:
    view: int  # the view being abandoned
    high_qc: QC
    sender: str
    size_bytes: int = 384


@dataclass(frozen=True)
class ClientRequest:
    value: Any
    size_bytes: int = 512


@dataclass(frozen=True)
class FetchNode:
    """Block-sync request: a replica discovered a hole in its chain
    ancestry (a proposal it never received) and asks peers for it."""

    digest: str
    sender: str
    size_bytes: int = 96


@dataclass(frozen=True)
class NodeReply:
    """Block-sync response. Self-certifying: the receiver recomputes the
    node digest, so a Byzantine responder cannot plant a forged node."""

    node: HSNode
    size_bytes: int = 768


class HotStuffReplica(ConsensusReplica):
    """One chained-HotStuff replica."""

    def __init__(self, node_id, sim, network, config: ClusterConfig, on_decide=None):
        super().__init__(node_id, sim, network, config, on_decide)
        genesis = HSNode(view=0, parent="", value=None, justify=None)
        self._genesis_digest = genesis.digest()
        self._nodes: dict[str, HSNode] = {self._genesis_digest: genesis}
        self._committed: set[str] = {self._genesis_digest}
        qc0 = QC(
            view=0,
            node_digest=self._genesis_digest,
            signers=frozenset(config.replica_ids),
        )
        self.high_qc = qc0
        self.locked_qc = qc0
        self.view = 1
        self._voted_view = 0
        self._votes: dict[tuple[int, str], set[str]] = {}
        self._newviews: dict[int, dict[str, QC]] = {}
        self._sent_newview: set[int] = set()
        self._last_proposed_view = 0
        self._grace_scheduled_view = 0
        self._timeout_quorum_seen = -1
        self._requests: dict[str, Any] = {}
        #: value digest -> view it was last proposed in. An undecided
        #: value becomes proposable again after STALE_PROPOSAL_VIEWS,
        #: covering proposals orphaned by loss or forks.
        self._proposed_at: dict[str, int] = {}
        self._chain_seq = 0
        self._pending_commit_roots: set[str] = set()
        self._view_timer = None
        self._arm_view_timer()
        if self._leader_of(self.view) == self.node_id:
            self.set_timer(0.0, self._maybe_propose)

    # -- helpers ----------------------------------------------------------

    def _leader_of(self, view: int) -> str:
        return self.config.leader_of_view(view)

    def _qc_quorum(self) -> int:
        return self.config.n - self.config.f

    def _node(self, digest: str) -> HSNode | None:
        return self._nodes.get(digest)

    def _arm_view_timer(self) -> None:
        if self._view_timer is not None:
            self._view_timer.cancel()
        # Randomized (Raft-style) timeout: identical deterministic timers
        # across replicas can lock the cluster into a periodic pattern
        # where a replica one view ahead always expires the moment its
        # peers arrive; jitter breaks the alignment.
        delay = self.config.base_timeout * (1.0 + 0.25 * self.sim.rng.random())
        self._view_timer = self.set_timer(
            delay, self._on_view_timeout, label="view"
        )

    def on_recover(self) -> None:
        """Restart semantics: re-arm the view timer so a recovered
        replica rejoins the pacemaker instead of waiting silently."""
        super().on_recover()
        self._arm_view_timer()

    def _has_uncommitted_values(self) -> bool:
        """True while any proposed value has not reached a decision."""
        return any(
            digest not in self._decided_digests
            for digest in self._proposed_at
        )

    # -- client path ---------------------------------------------------------

    def submit(self, value: Any) -> None:
        digest = digest_of(value)
        if digest in self._decided_digests:
            # Duplicate of a decided request (client retry): retransmit
            # so lagging replicas learn of it, but don't reopen it.
            self.broadcast(ClientRequest(value=value), targets=self.peers)
            return
        self._requests[digest] = value
        self.broadcast(ClientRequest(value=value), targets=self.peers)
        if self._leader_of(self.view) == self.node_id:
            self._maybe_propose()

    # -- proposing -------------------------------------------------------------

    STALE_PROPOSAL_VIEWS = 8  # ~2 full 3-chains before re-proposing

    def _next_value(self) -> Any:
        for digest, value in self._requests.items():
            last = self._proposed_at.get(digest)
            if last is None or self.view - last > self.STALE_PROPOSAL_VIEWS:
                self._proposed_at[digest] = self.view
                return value
        return None

    def _maybe_propose(self) -> None:
        if self._leader_of(self.view) != self.node_id:
            return
        if self._last_proposed_view >= self.view:
            return  # one proposal per view; extra values wait their turn
        if self.high_qc.view != self.view - 1:
            # Timeout path: entitled only through a quorum of NEW-VIEWs,
            # and even then after a short grace period — a QC for the
            # previous view may be milliseconds away, and proposing with
            # a stale justify would fork the chain and break the
            # consecutive-view commit rule (all sibling proposals, no
            # 3-chains).
            if not self._newview_quorum(self.view - 1):
                return
            if self._grace_scheduled_view < self.view:
                self._grace_scheduled_view = self.view
                self.set_timer(
                    self.config.base_timeout * 0.05,
                    lambda view=self.view: self._propose_after_grace(view),
                )
                self._arm_view_timer()  # the proposal is coming: be patient
            return
        self._propose_now()

    def _propose_now(self) -> None:
        value = self._next_value()
        if value is None and not self._has_uncommitted_values():
            return  # nothing to order and nothing to flush through the chain
        self._last_proposed_view = self.view
        node = HSNode(
            view=self.view,
            parent=self.high_qc.node_digest,
            value=value,
            justify=self.high_qc,
        )
        self._nodes[node.digest()] = node
        proposal = Proposal(node=node)
        self.broadcast(proposal, targets=self.peers)
        self._on_proposal(self.node_id, proposal)

    def _propose_after_grace(self, view: int) -> None:
        """Timeout-path proposal, after giving the happy path a chance."""
        if self.view != view or self._leader_of(view) != self.node_id:
            return
        if self._last_proposed_view >= view:
            return  # a fresher QC arrived and we proposed the happy way
        self._propose_now()

    def _newview_quorum(self, view: int) -> bool:
        return len(self._newviews.get(view, {})) >= self._qc_quorum()

    # -- dispatch -----------------------------------------------------------------

    def on_message(self, src: str, message: object) -> None:
        if isinstance(message, ClientRequest):
            digest = digest_of(message.value)
            if digest not in self._decided_digests:
                self._requests.setdefault(digest, message.value)
                if self._leader_of(self.view) == self.node_id:
                    self._maybe_propose()
        elif isinstance(message, Proposal):
            self._on_proposal(src, message)
        elif isinstance(message, Vote):
            self._on_vote(message)
        elif isinstance(message, NewView):
            self._on_new_view(message)
        elif isinstance(message, FetchNode):
            node = self._nodes.get(message.digest)
            if node is not None:
                self.send(message.sender, NodeReply(node=node))
        elif isinstance(message, NodeReply):
            self._on_node_reply(message)

    # -- proposal handling -----------------------------------------------------------

    def _safe_node(self, node: HSNode) -> bool:
        """HotStuff's safeNode predicate: extends the lock, or justifies
        with a QC newer than the lock (liveness rule)."""
        if node.justify is None:
            return False
        if node.parent == self.locked_qc.node_digest:
            return True
        return node.justify.view > self.locked_qc.view

    def _on_proposal(self, src: str, message: Proposal) -> None:
        node = message.node
        if src != self._leader_of(node.view):
            return
        if node.justify is None or node.justify.node_digest != node.parent:
            return
        if len(node.justify.signers) < self._qc_quorum():
            return
        # Check the QC's vote signatures; votes already verified in an
        # earlier certificate (chained QCs re-carry them) are cache hits.
        self._note_certificate(
            node.justify.signers,
            f"{node.justify.view}:{node.justify.node_digest}",
        )
        digest = node.digest()
        self._nodes.setdefault(digest, node)
        if node.value is not None:
            value_digest = digest_of(node.value)
            if value_digest not in self._decided_digests:
                self._requests.setdefault(value_digest, node.value)
        # Chain-state update (lock + commit rules) happens regardless of
        # whether we vote — QCs carry information even in stale views.
        self._update_chain_state(node)
        # Event-driven HotStuff voting rule: vote when the node is newer
        # than anything voted for and satisfies safeNode — even if this
        # replica's pacemaker ran ahead (its vote may complete a QC the
        # chain still needs).
        if node.view <= self._voted_view:
            return
        if not self._safe_node(node):
            return
        self.view = max(self.view, node.view)
        self._voted_view = node.view
        self._arm_view_timer()
        vote = Vote(view=node.view, node_digest=digest, voter=self.node_id)
        # Votes go to the next f + 1 leaders, not only the immediate next
        # one: if leader(v+1) is faulty the QC would otherwise be lost and
        # with round-robin rotation a single crashed replica could
        # periodically destroy every forming 3-chain. O(f * n) messages
        # keeps HotStuff's linearity in n.
        targets = sorted(
            {
                self._leader_of(node.view + offset)
                for offset in range(1, self.config.f + 2)
            }
        )
        for target in targets:
            if target == self.node_id:
                self._on_vote(vote)
            else:
                self.send(target, vote)

    def _update_chain_state(self, b_star: HSNode) -> None:
        if b_star.justify is None:
            return
        if b_star.justify.view > self.high_qc.view:
            self.high_qc = b_star.justify
        b2 = self._node(b_star.justify.node_digest)  # b''
        if b2 is None or b2.justify is None:
            return
        b1 = self._node(b2.justify.node_digest)  # b'
        if b1 is None:
            return
        if b1.view > self._locked_view():
            self.locked_qc = b2.justify
        if b1.justify is None:
            return
        b0 = self._node(b1.justify.node_digest)  # b
        if b0 is None:
            return
        if b2.view == b1.view + 1 and b1.view == b0.view + 1:
            self._commit(b0)

    def _locked_view(self) -> int:
        locked = self._node(self.locked_qc.node_digest)
        return locked.view if locked else 0

    def _commit(self, node: HSNode) -> None:
        """Commit ``node`` and every uncommitted ancestor, oldest first.

        If an ancestor is missing (its proposal was lost), nothing is
        committed: assigning sequence numbers across a gap would diverge
        from the rest of the cluster. The catch-up gossip delivers the
        missing decisions instead.
        """
        chain: list[HSNode] = []
        current: HSNode | None = node
        while current is not None and current.digest() not in self._committed:
            chain.append(current)
            parent_digest = current.parent
            current = self._node(parent_digest)
            if current is None:
                # Hole in the ancestry (a lost proposal): fetch it from
                # peers and retry this commit when it arrives.
                self._pending_commit_roots.add(node.digest())
                self.broadcast(
                    FetchNode(digest=parent_digest, sender=self.node_id),
                    targets=self.peers,
                )
                return
        for member in reversed(chain):
            self._committed.add(member.digest())
            if member.value is None:
                continue
            value_digest = digest_of(member.value)
            if value_digest in self._decided_digests:
                continue  # value re-proposed after an orphaned branch
            self._decide(self._chain_seq, member.value)
            self._chain_seq += 1
            self._requests.pop(value_digest, None)

    def _after_catchup(self, sequence: int, value: Any) -> None:
        # Keep the chain-commit sequencing aligned with decisions that
        # arrived through catch-up gossip; the chain itself skips values
        # already decided (dedup in _commit).
        self._chain_seq = max(self._chain_seq, sequence + 1)

    def _on_node_reply(self, message: NodeReply) -> None:
        node = message.node
        digest = node.digest()
        if digest in self._nodes:
            return
        self._nodes[digest] = node
        # A filled hole may unblock stalled commits (possibly exposing
        # deeper holes, which _commit will fetch in turn).
        for root in sorted(self._pending_commit_roots):
            root_node = self._nodes.get(root)
            if root_node is not None:
                self._pending_commit_roots.discard(root)
                self._commit(root_node)

    # -- votes -------------------------------------------------------------------------

    def _on_vote(self, message: Vote) -> None:
        key = (message.view, message.node_digest)
        voters = self._votes.setdefault(key, set())
        voters.add(message.voter)
        if len(voters) < self._qc_quorum():
            return
        qc = QC(
            view=message.view,
            node_digest=message.node_digest,
            signers=frozenset(voters),
        )
        if qc.view > self.high_qc.view:
            self.high_qc = qc
        if message.view + 1 > self.view:
            self.view = message.view + 1
            self._arm_view_timer()
        self._maybe_propose()

    # -- pacemaker ------------------------------------------------------------------------

    def _on_view_timeout(self) -> None:
        # Only escalate when there is work outstanding; otherwise idle.
        if not self._requests and not self._has_uncommitted_values():
            self._arm_view_timer()
            return
        self._abandon_view(self.view)

    def _abandon_view(self, view: int) -> None:
        """Give up on ``view``: broadcast a timeout vote and move on.

        Timeout votes go to *all* replicas (not just the next leader) so
        that replicas whose timers have not fired yet can join as soon
        as they see f + 1 of them — this synchronises views quickly,
        which plain send-to-next-leader pacemakers fail to do.
        """
        if view in self._sent_newview or view < self.view:
            return
        self._sent_newview.add(view)
        self.view = view + 1
        # Values proposed on what may now be an orphaned branch become
        # proposable again; duplicate commits are deduped at decide time.
        for digest in list(self._proposed_at):
            if digest not in self._decided_digests:
                del self._proposed_at[digest]
        message = NewView(view=view, high_qc=self.high_qc, sender=self.node_id)
        self.broadcast(message, targets=self.peers)
        for value in self._requests.values():
            self.broadcast(ClientRequest(value=value), targets=self.peers)
        self._on_new_view(message)
        self._arm_view_timer()

    def _on_new_view(self, message: NewView) -> None:
        self._note_certificate(
            message.high_qc.signers,
            f"{message.high_qc.view}:{message.high_qc.node_digest}",
        )
        if message.high_qc.view > self.high_qc.view:
            self.high_qc = message.high_qc
        votes = self._newviews.setdefault(message.view, {})
        votes[message.sender] = message.high_qc
        # f + 1 timeout votes prove a correct replica gave up: join them.
        if (
            len(votes) >= self.config.f + 1
            and message.view >= self.view
            and message.view not in self._sent_newview
        ):
            self._abandon_view(message.view)
        if len(votes) >= self._qc_quorum():
            self._timeout_quorum_seen = max(
                self._timeout_quorum_seen, message.view
            )
            if message.view + 1 > self.view:
                self.view = message.view + 1
                self._arm_view_timer()
        self._maybe_propose()
