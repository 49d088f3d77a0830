"""Scalability techniques (paper section 2.3.4).

Four systems spanning the design space:

=============  ==============  =======================================
System         Ledger          Cross-shard processing
=============  ==============  =======================================
ResilientDB    single, global  none — every cluster executes everything
AHL            sharded         2PC/2PL coordinated by the reference
                               committee
SharPer        sharded         decentralized flattened consensus
Saguaro        sharded         2PC/2PL coordinated by the LCA cluster
=============  ==============  =======================================

AHL and Saguaro share one 2PC/2PL,
:class:`~repro.sharding.clusters.CoordinatedShardedSystem`, and differ
only in the cluster they pick to coordinate. SharPer and both of them
share the per-shard steps of :class:`ShardedSystem`: lock the keys a
shard owns, then apply or roll back.

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
