"""Execute-Order-Validate (XOV): Hyperledger Fabric's optimistic pipeline.

"Transactions ... are first executed in parallel by executor nodes
(endorsers) of each enterprise. Transactions are then ordered by a
consensus protocol ... endorsers then validate the transactions and
append them to the ledger" (paper section 2.3.3).

Pipeline modelled here:

1. **Endorse** — on arrival, the transaction is *simulated* against the
   currently committed state, yielding a versioned read/write set. The
   client collects ``endorsers`` signatures (parallel, one RTT).
2. **Order** — the read/write set (not the transaction logic) is
   totally ordered by the consensus cluster into blocks.
3. **Validate** — in block order, each transaction's read versions are
   MVCC-checked against current state; stale reads invalidate the
   transaction and its writes are discarded — the source of XOV's
   contention sensitivity.

Subclasses toggle the published Fabric optimisations through three
class attributes: ``reorder`` (Fabric++ / FabricSharp block reordering),
``parallel_validation`` (FastFabric's pipelined validators), and
``reexecute`` (XOX's post-order step).
"""

from __future__ import annotations

from repro.common.driver import TxRecord
from repro.common.types import Transaction
from repro.core.base import BlockchainSystem
from repro.crypto.sigcache import ModelledSigVerifier
from repro.execution.conflict_index import ConstraintIndex, SealTracker
from repro.execution.mvcc import EndorsedTx, endorse, validate_endorsement
from repro.execution.pipeline import ExecutionPipeline
from repro.execution.reexec import reexecute_invalidated
from repro.execution.reorder import reorder_fabricpp, reorder_fabricsharp
from repro.ledger.store import Version

#: Modelled CPU cost of the reordering analysis, per transaction.
REORDER_COST_PER_TX = 0.00005
#: Modelled CPU cost of one MVCC version check.
MVCC_CHECK_COST = 0.00001


class XovSystem(BlockchainSystem):
    """Plain Hyperledger Fabric (XOV) system."""

    name = "xov"
    #: None, "fabricpp", or "fabricsharp".
    reorder: str | None = None
    #: FabricSharp only: override for the component size above which the
    #: exact minimum-feedback-vertex-set search falls back to the greedy
    #: heuristic (None = ``reorder._EXACT_FVS_LIMIT``).
    reorder_exact_limit: int | None = None
    #: FastFabric: validate with ``config.executors`` parallel lanes.
    parallel_validation = False
    #: XOX: re-execute MVCC-invalidated transactions post-order.
    reexecute = False

    def __init__(
        self, config=None, registry=None,
        peer_group=None, policy=None,
    ) -> None:
        """``peer_group`` / ``policy`` (both from
        ``repro.execution.endorsement``) switch on org-based endorsement:
        the named organisations execute every transaction, sign their
        results, and the transaction proceeds only if the policy is met
        by an agreeing group. Without them, endorsement is the plain
        single-result simulation."""
        super().__init__(config, registry)
        # XOV validates in block order but may overlap the verification
        # work of up to ``pipeline_depth`` consecutive blocks
        # (FastFabric's pipelined validation, available to the whole
        # family); completion stays monotone so commits keep block order.
        self._exec_pipeline = ExecutionPipeline(self.config.pipeline_depth)
        self._endorsed: dict[str, EndorsedTx] = {}
        # Reordering variants index constraint edges incrementally at
        # endorsement time; block analysis is then a subset lookup.
        self._constraint_index = ConstraintIndex()
        self._uid_of: dict[str, int] = {}
        self._seals = SealTracker()
        #: FastFabric-style verification cache of the validating peer:
        #: each (signer, digest) pair charges modelled ``verify_cost``
        #: exactly once; re-encounters (an endorsement already verified
        #: at submission) are free, as the real system skips them too.
        self._sig_ledger = ModelledSigVerifier(self.config.verify_cost)
        self.peer_group = peer_group
        self.policy = policy
        if (peer_group is None) != (policy is None):
            from repro.common.errors import ConfigError

            raise ConfigError("peer_group and policy come together")

    # -- endorsement (execute phase) ---------------------------------------

    def _ingest(self, record: TxRecord) -> None:
        tx = record.tx
        snapshot = self.store.snapshot()
        if self.peer_group is not None:
            outcome = self.peer_group.collect(tx, snapshot, self.policy)
            if outcome.endorsed is None:
                self.sim.metrics.incr("exec.endorsements")
                self.sim.schedule(
                    self.config.endorsement_latency,
                    lambda: self._mark_aborted(tx, outcome.reason),
                )
                return
            endorsed = outcome.endorsed
        else:
            endorsed = endorse(tx, snapshot, self.registry)
        duration = self.config.endorsement_latency + endorsed.rwset.cost
        if self.peer_group is not None:
            # The submitting peer checks each endorser signature once,
            # up front; the validation phase then reuses the verdicts.
            duration += self.config.verify_cost * len(endorsed.endorsements)
        self.sim.metrics.incr("exec.endorsements")

        def endorsement_done() -> None:
            if not endorsed.ok:
                # The endorsers rejected it (business rule); the client
                # never sends it to ordering.
                self._mark_aborted(tx, "business_rule")
                return
            if self.peer_group is not None:
                if not self.peer_group.verify_endorsements(endorsed):
                    self._mark_aborted(tx, "bad_endorsement_signature")
                    return
                for e in endorsed.endorsements:
                    self._sig_ledger.record(e.endorser, e.rwset_digest)
            self._endorsed[tx.tx_id] = endorsed
            if self.reorder is not None:
                self._uid_of[tx.tx_id] = self._constraint_index.ingest(
                    endorsed.rwset.read_keys, endorsed.rwset.write_keys
                )
            self._enqueue_for_ordering(tx.tx_id)

        self.sim.schedule(duration, endorsement_done)

    # -- validation (validate phase) -------------------------------------------

    def _validation_cost(self, entry: EndorsedTx) -> float:
        """Modelled cost of validating one endorsed transaction.

        Signature checks run through the FastFabric-style verification
        ledger: a (signer, digest) pair the peer has already verified —
        e.g. at endorsement collection — is a cache hit and charges
        nothing, exactly as the real system skips the re-check. Plain
        endorsements (no peer group) synthesize one pair per configured
        endorser, each unique to the transaction, so the uncached cost
        matches the classic ``verify_cost * endorsers`` formula.
        """
        if entry.endorsements:
            pairs = [(e.endorser, e.rwset_digest) for e in entry.endorsements]
        else:
            pairs = [
                (f"endorser{i}", entry.tx.tx_id)
                for i in range(self.config.endorsers)
            ]
        cost = self._sig_ledger.charge_batch(pairs) + MVCC_CHECK_COST
        if self.parallel_validation:
            cost /= self.config.executors
        return cost

    def _on_block_decided(self, txs: list[Transaction]) -> None:
        endorsed = [self._endorsed[tx.tx_id] for tx in txs]
        verified_before = self._sig_ledger.verified
        cached_before = self._sig_ledger.cached
        duration = sum(self._validation_cost(entry) for entry in endorsed)
        self.sim.metrics.incr(
            "exec.sig_verified", self._sig_ledger.verified - verified_before
        )
        self.sim.metrics.incr(
            "exec.sig_cached", self._sig_ledger.cached - cached_before
        )
        if self.reorder is not None:
            duration += REORDER_COST_PER_TX * len(endorsed)
        done_at = self._claim_executor(duration)

        def finish() -> None:
            self._validate_and_commit(endorsed)

        self.sim.schedule_at(done_at, finish)

    def _edges_for(self, subset: list[EndorsedTx]) -> dict[int, set[int]]:
        """Constraint edges for a block subset from the incremental index."""
        return self._constraint_index.edges_among(
            [self._uid_of[entry.tx.tx_id] for entry in subset]
        )

    def _apply_reorder(
        self, endorsed: list[EndorsedTx]
    ) -> tuple[list[EndorsedTx], list[EndorsedTx]]:
        """Returns (final order, pre-aborted)."""
        if self.reorder == "fabricpp":
            outcome = reorder_fabricpp(endorsed, edge_fn=self._edges_for)
            return outcome.order, outcome.aborted
        if self.reorder == "fabricsharp":
            outcome = reorder_fabricsharp(
                endorsed, self.store,
                edge_fn=self._edges_for,
                exact_limit=self.reorder_exact_limit,
            )
            return outcome.order, outcome.aborted + outcome.early_aborted
        return list(endorsed), []

    def _validate_and_commit(self, endorsed: list[EndorsedTx]) -> None:
        order, pre_aborted = self._apply_reorder(endorsed)
        if self.reorder is not None:
            uids = [self._uid_of.pop(entry.tx.tx_id) for entry in endorsed]
            self._constraint_index.seal(self._seals.decide(uids))
        for victim in pre_aborted:
            reason = "business_rule" if not victim.ok else "reorder_victim"
            self._mark_aborted(victim.tx, reason)
        height = self.ledger.height + 1
        valid: list[EndorsedTx] = []
        invalid: list[EndorsedTx] = []
        dirty: dict[str, int] = {}
        for index, entry in enumerate(order):
            if validate_endorsement(entry, self.store, dirty):
                valid.append(entry)
                for key in entry.rwset.write_keys:
                    dirty[key] = index
            else:
                invalid.append(entry)
        # Commit the valid write sets in final order.
        for index, entry in enumerate(valid):
            self.store.apply_writes(
                entry.rwset.writes, Version(height=height, tx_index=index)
            )
            self._mark_committed(entry.tx)
        recovered: list = []
        if self.reexecute and invalid:
            recovered = self._post_order_reexecute(invalid, height, len(valid))
        else:
            for entry in invalid:
                reason = "business_rule" if not entry.ok else "mvcc_conflict"
                self._mark_aborted(entry.tx, reason)
        # The ledger records the block in its final order (Fabric keeps
        # invalidated transactions on the ledger, flagged invalid).
        block_txs = (
            [entry.tx for entry in valid]
            + [entry.tx for entry in invalid]
            + [entry.tx for entry in pre_aborted]
        )
        block = self.ledger.next_block(
            block_txs, timestamp=self.sim.now, proposer=self._reference_orderer
        )
        self.ledger.append(block)
        self.sim.metrics.incr("exec.validated_blocks")
        if recovered:
            self.sim.metrics.incr("exec.reexecuted", len(recovered))

    def _post_order_reexecute(
        self, invalid: list[EndorsedTx], height: int, first_index: int
    ) -> list:
        """XOX hook: serially re-run invalidated transactions, charging
        their execution time on the executor timeline."""
        extra = sum(self.registry.cost(entry.tx.contract) for entry in invalid)
        done_at = self._claim_executor(extra)
        report = reexecute_invalidated(
            invalid, self.store, self.registry, height, first_index
        )
        recovered_ids = {rwset.tx_id for rwset in report.recovered}

        def finish() -> None:
            for entry in invalid:
                if entry.tx.tx_id in recovered_ids:
                    self._mark_committed(entry.tx)
                else:
                    self._mark_aborted(entry.tx, "business_rule")

        self.sim.schedule_at(done_at, finish)
        return report.recovered
