"""Order-Execute (OX): the pessimistic baseline architecture.

"A set of nodes (orderers) establishes agreement on a unique order of
the incoming transactions ... executor nodes execute the transactions of
a block sequentially in the same order" (paper section 2.3.3). Used by
Tendermint, Quorum, MultiChain, Chain Core, Iroha and Corda.

Strengths: no aborts from concurrency (contention is irrelevant),
deterministic replicas for free. Weakness: the execute phase is strictly
sequential, so throughput is bounded by single-lane execution speed —
the "low performance" the Discussion paragraph attributes to OX.
"""

from __future__ import annotations

from repro.common.driver import TxRecord
from repro.common.types import Transaction
from repro.core.base import BlockchainSystem
from repro.execution.serial import execute_block_serially


class OxSystem(BlockchainSystem):
    """Order-execute blockchain system."""

    name = "ox"

    def _ingest(self, record: TxRecord) -> None:
        # Pessimistic: the raw transaction goes straight to ordering.
        self._enqueue_for_ordering(record.tx.tx_id)

    def _on_block_decided(self, txs: list[Transaction]) -> None:
        block = self.ledger.next_block(
            txs, timestamp=self.sim.now, proposer=self._reference_orderer
        )
        self.ledger.append(block)
        # Sequential execution: the block costs the *sum* of tx costs.
        serial_cost = sum(self.registry.cost(tx.contract) for tx in txs)
        done_at = self._claim_executor(serial_cost)
        self.sim.metrics.incr("exec.serial_seconds", serial_cost)

        def finish() -> None:
            report = execute_block_serially(block, self.store, self.registry)
            for tx, rwset in zip(block.transactions, report.rwsets):
                if rwset.ok:
                    self._mark_committed(tx)
                else:
                    self._mark_aborted(tx, "business_rule")

        self.sim.schedule_at(done_at, finish)
