"""Order-Parallel-Execute (OXII): ParBlockchain (Amiri et al., ICDCS 2019).

Like OX, transactions are ordered before execution (pessimistic), but
"once a block is constructed, orderer nodes generate a dependency graph
for the transactions within a block ... enabling the parallel execution
of non-conflicting transactions" (paper section 2.3.3).

The dependency graph is built from *declared* read/write sets
incrementally, as transactions arrive: each declared read/write set is
ingested into a persistent
:class:`~repro.execution.conflict_index.BlockConflictIndex`, so cutting
a block only extracts the already-known intra-block edges instead of
re-scanning the block's key sets. The execute phase then costs the
makespan of list scheduling on the executor pool instead of the serial
sum. Under low contention this approaches serial-cost / executors;
under total contention it degrades gracefully to OX.
"""

from __future__ import annotations

from repro.common.driver import TxRecord
from repro.common.errors import ExecutionError
from repro.common.types import Transaction
from repro.core.base import BlockchainSystem
from repro.execution.conflict_index import BlockConflictIndex, SealTracker
from repro.execution.depgraph import (
    schedule_multi_enterprise,
    schedule_parallel,
)
from repro.execution.serial import execute_block_serially

#: Modelled orderer-side cost of conflict analysis, per transaction.
DEPENDENCY_ANALYSIS_COST = 0.00002


class OxiiSystem(BlockchainSystem):
    """ParBlockchain-style order-parallel-execute system.

    With ``per_enterprise=True`` the system uses ParBlockchain's
    multi-enterprise deployment: each enterprise (``tx.submitter``) owns
    its own executor pool, and cross-enterprise dependency edges pay a
    state-handoff latency between pools.
    """

    name = "oxii"

    def __init__(
        self, config=None, registry=None,
        per_enterprise: bool = False,
        executors_per_enterprise: int = 2,
        cross_enterprise_latency: float = 0.002,
    ) -> None:
        super().__init__(config, registry)
        self.per_enterprise = per_enterprise
        self.executors_per_enterprise = executors_per_enterprise
        self.cross_enterprise_latency = cross_enterprise_latency
        self._conflict_index = BlockConflictIndex()
        self._uid_of: dict[str, int] = {}
        self._seals = SealTracker()

    def _ingest(self, record: TxRecord) -> None:
        tx = record.tx
        if not tx.declared_ops:
            raise ExecutionError(
                f"OXII requires declared operations; tx {tx.tx_id} has none"
            )
        self._uid_of[tx.tx_id] = self._conflict_index.ingest(
            tx.read_keys, tx.write_keys
        )
        self._enqueue_for_ordering(tx.tx_id)

    def _on_block_decided(self, txs: list[Transaction]) -> None:
        block = self.ledger.next_block(
            txs, timestamp=self.sim.now, proposer=self._reference_orderer
        )
        self.ledger.append(block)
        uids = [self._uid_of.pop(tx.tx_id) for tx in txs]
        graph = self._conflict_index.graph_for(uids, list(txs))
        self._conflict_index.seal(self._seals.decide(uids))
        costs = [self.registry.cost(tx.contract) for tx in txs]
        if self.per_enterprise:
            owners = [tx.submitter for tx in txs]
            makespan, _ = schedule_multi_enterprise(
                graph, costs, owners,
                self.executors_per_enterprise,
                self.cross_enterprise_latency,
            )
        else:
            makespan, _ = schedule_parallel(
                graph, costs, self.config.executors
            )
        makespan += DEPENDENCY_ANALYSIS_COST * len(txs)
        self.sim.metrics.incr("exec.parallel_seconds", makespan)
        self.sim.metrics.incr("order.dependency_edges", graph.edge_count)
        done_at = self._claim_executor(makespan)

        def finish() -> None:
            # Any conflict-respecting schedule is equivalent to serial
            # block order, so the state transition is computed serially.
            report = execute_block_serially(block, self.store, self.registry)
            for tx, rwset in zip(block.transactions, report.rwsets):
                if rwset.ok:
                    self._mark_committed(tx)
                else:
                    self._mark_aborted(tx, "business_rule")

        self.sim.schedule_at(done_at, finish)
