"""AHL (Dang et al., SIGMOD 2019) — coordinator-based sharding.

Paper section 2.3.4, three modelled ingredients:

* **Committee safety math** — nodes are *randomly* assigned to
  committees, so safety is probabilistic: a committee fails when a third
  or more of its members are malicious. :func:`committee_failure_probability`
  computes the hypergeometric tail the paper's "at least 80 nodes
  (instead of ~600 in OmniLedger)" figure comes from, and
  :func:`min_committee_size` inverts it (benchmark E7).
* **Trusted hardware** — attested messages make equivocation impossible,
  so committees need only ``2f + 1`` members instead of ``3f + 1``
  (``trusted_hardware=True`` in the cluster config).
* **Coordinator-based 2PC/2PL** — cross-shard transactions are driven by
  an extra *reference committee*: it orders a BEGIN, sends PREPAREs to
  the involved committees (each anchoring a lock through its own local
  consensus), collects votes, orders the global COMMIT/ABORT decision,
  and distributes it — the "large number of intra- and cross-cluster
  communication phases" the Discussion paragraph charges this design
  with. The protocol is
  :class:`~repro.sharding.clusters.CoordinatedShardedSystem`, shared
  with Saguaro; AHL only adds the ``refcom`` cluster and always picks
  it as the coordinator.
"""

from __future__ import annotations

import math

from repro.common.errors import ConfigError
from repro.common.types import Transaction
from repro.sharding.clusters import CoordinatedShardedSystem


# -- committee-safety calculator (pure math, used by benchmark E7) ----------


def committee_failure_probability(
    total_nodes: int, byzantine_nodes: int, committee_size: int,
    resilience: float = 1.0 / 3.0,
) -> float:
    """P[a random committee draws >= resilience * size malicious nodes].

    Hypergeometric tail: committees are sampled without replacement from
    ``total_nodes`` of which ``byzantine_nodes`` are malicious.
    """
    if committee_size > total_nodes:
        raise ConfigError("committee larger than the population")
    threshold = math.ceil(committee_size * resilience)
    total = math.comb(total_nodes, committee_size)
    probability = 0.0
    for bad in range(threshold, committee_size + 1):
        good = committee_size - bad
        if bad > byzantine_nodes or good > total_nodes - byzantine_nodes:
            continue
        probability += (
            math.comb(byzantine_nodes, bad)
            * math.comb(total_nodes - byzantine_nodes, good)
            / total
        )
    return probability


def min_committee_size(
    total_nodes: int, byzantine_fraction: float, epsilon: float = 2 ** -20,
    resilience: float = 1.0 / 3.0,
) -> int:
    """Smallest committee with failure probability below ``epsilon``.

    With trusted hardware the resilience threshold rises from 1/3 to
    1/2, which is how AHL shrinks its committees.
    """
    byzantine = int(total_nodes * byzantine_fraction)
    for size in range(3, total_nodes + 1):
        if committee_failure_probability(
            total_nodes, byzantine, size, resilience
        ) < epsilon:
            return size
    return total_nodes


# -- the AHL system -----------------------------------------------------------


class AhlSystem(CoordinatedShardedSystem):
    """AHL: sharded ledger, reference committee coordinating 2PC/2PL."""

    name = "ahl"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # The extra set of nodes the decentralized designs avoid.
        self._add_cluster("refcom")
        for shard in self.shards:
            self._wan.matrix[(shard, "refcom")] = self.config.wan_latency

    def coordinator_for(self, tx: Transaction) -> str:
        return "refcom"
