"""The unified blockchain-system API shared by every architecture.

Paper section 2.3.3 contrasts three transaction-processing architectures
— order-execute (OX), order-parallel-execute (OXII), and
execute-order-validate (XOV) — plus four XOV refinements. Every one of
them is modelled here as a :class:`BlockchainSystem` with an identical
surface:

    system = OxSystem(SystemConfig(block_size=100))
    for tx in workload:
        system.submit(tx)
    result = system.run()          # -> RunResult

Internally a system drives a real consensus cluster (message-level PBFT
/ Raft / ...) on a shared discrete-event simulation, cuts blocks from an
ordering queue, and charges modelled execution/validation time on
executor timelines. Committed state lives in a versioned
:class:`~repro.ledger.store.StateStore`; the ordered blocks in a
:class:`~repro.ledger.chain.Blockchain`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.common.driver import RunDriver
from repro.common.errors import ConfigError
from repro.common.types import Transaction
from repro.consensus import PROTOCOLS, ConsensusCluster
from repro.execution.contracts import ContractRegistry, standard_registry
from repro.execution.pipeline import ExecutionPipeline
from repro.ledger.chain import Blockchain
from repro.ledger.store import StateStore
from repro.sim.core import Simulation
from repro.sim.network import LanLatency


@dataclass
class SystemConfig:
    """Knobs shared by all architectures.

    Attributes:
        orderers: Size of the ordering cluster.
        protocol: Ordering protocol name (see ``repro.consensus.PROTOCOLS``).
        executors: Parallel execution/validation lanes available to a peer.
        endorsers: Endorsement-policy size (XOV family only).
        pipeline_depth: Blocks that may occupy the validation pipeline
            concurrently (XOV family only; commit order is preserved).
            1 = the classic strictly-serial block pipeline.
        block_size: Transactions per block.
        block_interval: Maximum time a partial block waits before cutting.
        arrival_rate: Client submission rate in tx/s (None = all at t=0).
        endorsement_latency: Client -> endorser round trip (XOV family).
        verify_cost: Modelled CPU seconds per signature verification.
        seed: Simulation seed (runs are deterministic per seed).
        max_time: Safety horizon; a run never simulates past this.
    """

    orderers: int = 4
    protocol: str = "pbft"
    executors: int = 4
    endorsers: int = 3
    pipeline_depth: int = 1
    block_size: int = 50
    block_interval: float = 0.1
    arrival_rate: float | None = 2000.0
    endorsement_latency: float = 0.002
    verify_cost: float = 0.0005
    seed: int = 0
    max_time: float = 600.0

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ConfigError(
                f"unknown protocol {self.protocol!r}; "
                f"choose from {sorted(PROTOCOLS)}"
            )
        if self.block_size < 1:
            raise ConfigError("block_size must be >= 1")
        if self.executors < 1:
            raise ConfigError("executors must be >= 1")
        if self.pipeline_depth < 1:
            raise ConfigError("pipeline_depth must be >= 1")


class BlockchainSystem(RunDriver):
    """Abstract base: ordering service + architecture-specific pipeline.

    Subclasses implement :meth:`_ingest` (what happens when a client
    transaction arrives) and :meth:`_on_block_decided` (what happens
    after the ordering service totally orders a block payload).
    """

    extra_prefixes = ("abort.", "exec.", "order.")
    abort_metric = "abort."

    def __init__(
        self, config: SystemConfig | None = None,
        registry: ContractRegistry | None = None,
    ) -> None:
        super().__init__()
        self.config = config or SystemConfig()
        self.registry = registry or standard_registry()
        self.sim = Simulation(seed=self.config.seed)
        protocol_cls, byzantine = PROTOCOLS[self.config.protocol]
        self.cluster = ConsensusCluster(
            protocol_cls,
            n=self.config.orderers,
            byzantine=byzantine,
            sim=self.sim,
            latency=LanLatency(),
            decide_listener=self._on_decide,
        )
        self._reference_orderer = self.cluster.config.replica_ids[0]
        self.ledger = Blockchain()
        self.store = StateStore()
        self._order_queue: list[str] = []  # tx ids awaiting a block
        self._block_timer = None
        self._payload_of: dict[tuple[str, ...], list[str]] = {}
        # Execution/validation timeline. Depth 1 (strictly serial
        # blocks) unless a subclass opts into pipelined validation.
        self._exec_pipeline = ExecutionPipeline(depth=1)

    # -- ordering service ----------------------------------------------------------

    def _enqueue_for_ordering(self, tx_id: str) -> None:
        self._order_queue.append(tx_id)
        if len(self._order_queue) >= self.config.block_size:
            self._cut_block()
        elif self._block_timer is None:
            self._block_timer = self.sim.schedule(
                self.config.block_interval, self._cut_partial_block
            )

    def _cut_partial_block(self) -> None:
        self._block_timer = None
        if self._order_queue:
            self._cut_block()

    def _cut_block(self) -> None:
        batch, self._order_queue = (
            self._order_queue[: self.config.block_size],
            self._order_queue[self.config.block_size:],
        )
        if self._block_timer is not None:
            self._block_timer.cancel()
            self._block_timer = None
        if self._order_queue:
            self._block_timer = self.sim.schedule(
                self.config.block_interval, self._cut_partial_block
            )
        payload = tuple(batch)
        self._payload_of[payload] = batch
        self.cluster.submit(payload, via=self._reference_orderer)

    def _on_decide(self, node_id: str, sequence: int, value: Any) -> None:
        if node_id != self._reference_orderer:
            return
        # Pop, not get: a payload decided twice is applied once, and the
        # map holds only batches still in flight.
        batch = self._payload_of.pop(tuple(value), None)
        if batch is None:
            return
        records = [self._records[tx_id] for tx_id in batch]
        now = self.sim.now
        for record in records:
            if record.order is None and not record.terminal:
                record.order = now
        self._on_block_decided([record.tx for record in records])

    # -- executor timeline --------------------------------------------------------------

    def _claim_executor(self, duration: float) -> float:
        """Occupy the peer's execution pipeline for ``duration`` simulated
        seconds; returns the (in-order) completion time.

        With ``pipeline_depth > 1`` (XOV family) up to that many blocks'
        validation work overlaps on the virtual timeline, but completion
        times stay monotone in claim order so state transitions apply in
        exact block order."""
        return self._exec_pipeline.claim(self.sim.now, duration)

    # -- subclass hooks ---------------------------------------------------------------------

    def _on_block_decided(self, txs: list[Transaction]) -> None:
        """The ordering service totally ordered a block of ``txs``."""
        raise NotImplementedError
