"""Transaction execution engines.

"Order" and "execute" are the two main phases of processing transactions
in permissioned blockchains (paper section 1). This package provides the
building blocks every architecture in ``repro.core`` composes:

* a smart-contract registry with read/write-set capture,
* the serial executor used by order-execute (OX) systems,
* the dependency-graph parallel executor used by OXII (ParBlockchain),
* incremental per-key conflict indexes feeding the OXII dependency
  graphs, the reorderers' constraint analysis, and the sharded systems'
  lock tables,
* MVCC endorsement/validation used by XOV (Fabric),
* the Fabric++ / FabricSharp block-reordering algorithms,
* the pipelined block-validation timeline (FastFabric-style overlap),
* the XOX post-order re-execution step.
"""

from repro.execution.conflict_index import (
    BlockConflictIndex,
    ConstraintIndex,
    KeyLockIndex,
    SealTracker,
    wave_is_conflict_free,
)
from repro.execution.contracts import ContractContext, ContractRegistry
from repro.execution.endorsement import (
    And,
    EndorsementPolicy,
    EndorsingPeerGroup,
    KOutOf,
    Or,
    Org,
    all_of,
    any_of,
    majority_of,
)
from repro.execution.depgraph import (
    DependencyGraph,
    build_dependency_graph,
    partition_wave,
    schedule_multi_enterprise,
    schedule_parallel,
    schedule_waves,
)
from repro.execution.parallel_backend import (
    ParallelExecutionReport,
    ParallelExecutor,
    ReplicaStateView,
    block_effects_digest,
    execute_block_parallel,
    resolve_workers,
)
from repro.execution.mvcc import EndorsedTx, endorse, validate_endorsement
from repro.execution.pipeline import ExecutionPipeline
from repro.execution.reorder import (
    ReorderOutcome,
    partition_endorsed,
    reorder_fabricpp,
    reorder_fabricsharp,
)
from repro.execution.reexec import ReexecutionReport, reexecute_invalidated
from repro.execution.rwsets import RWSet, execute_with_capture
from repro.execution.serial import SerialExecutionReport, execute_block_serially

__all__ = [
    "And",
    "BlockConflictIndex",
    "ConstraintIndex",
    "ContractContext",
    "ContractRegistry",
    "DependencyGraph",
    "EndorsedTx",
    "EndorsementPolicy",
    "EndorsingPeerGroup",
    "ExecutionPipeline",
    "KOutOf",
    "KeyLockIndex",
    "Or",
    "Org",
    "ParallelExecutionReport",
    "ParallelExecutor",
    "RWSet",
    "ReexecutionReport",
    "ReorderOutcome",
    "ReplicaStateView",
    "SealTracker",
    "SerialExecutionReport",
    "all_of",
    "any_of",
    "block_effects_digest",
    "build_dependency_graph",
    "endorse",
    "execute_block_parallel",
    "execute_block_serially",
    "execute_with_capture",
    "majority_of",
    "partition_endorsed",
    "partition_wave",
    "reexecute_invalidated",
    "reorder_fabricpp",
    "reorder_fabricsharp",
    "resolve_workers",
    "schedule_multi_enterprise",
    "schedule_parallel",
    "schedule_waves",
    "validate_endorsement",
    "wave_is_conflict_free",
]
