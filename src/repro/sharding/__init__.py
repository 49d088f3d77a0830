"""Scalability techniques (paper section 2.3.4).

Four systems spanning the design space:

=============  ==============  =======================================
System         Ledger          Cross-shard processing
=============  ==============  =======================================
ResilientDB    single, global  none — every cluster executes everything
AHL            sharded         centralized: reference committee, 2PC/2PL
SharPer        sharded         decentralized flattened consensus
Saguaro        sharded         hierarchical: LCA cluster coordinates
=============  ==============  =======================================

Plus the committee-safety calculator behind AHL's "80 nodes instead of
~600" claim (:func:`~repro.sharding.ahl.min_committee_size`).
"""

from repro.sharding.ahl import (
    AhlSystem,
    committee_failure_probability,
    min_committee_size,
)
from repro.sharding.clusters import ClusterPort, ShardedConfig, ShardedSystem
from repro.sharding.resilientdb import ResilientDbSystem
from repro.sharding.saguaro import SaguaroConfig, SaguaroSystem
from repro.sharding.sharper import SharPerSystem

#: The four sharded designs by name, like ``repro.core.SYSTEMS``; the
#: order is what ``python -m repro list`` prints and the E6a claim sweeps.
SYSTEMS = {
    "sharper": SharPerSystem,
    "ahl": AhlSystem,
    "saguaro": SaguaroSystem,
    "resilientdb": ResilientDbSystem,
}

__all__ = [
    "SYSTEMS",
    "AhlSystem",
    "ClusterPort",
    "ResilientDbSystem",
    "SaguaroConfig",
    "SaguaroSystem",
    "ShardedConfig",
    "ShardedSystem",
    "SharPerSystem",
    "committee_failure_probability",
    "min_committee_size",
]
