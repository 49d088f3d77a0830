"""Read/write sets: the unit of conflict detection everywhere.

``execute_with_capture`` runs a contract against a state view and returns
the resulting :class:`RWSet` — the versions read and the values written —
plus whether the contract succeeded. Endorsement (XOV), dependency
analysis (Fabric++/Sharp) and deterministic re-execution (XOX) all
operate on these captured sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.errors import ExecutionError
from repro.common.types import Transaction
from repro.crypto.digests import sha256_hex
from repro.execution.contracts import ContractContext, ContractRegistry
from repro.ledger.store import StateSnapshot, StateStore, Version


@dataclass
class RWSet:
    """Captured effects of one contract invocation.

    Attributes:
        tx_id: Transaction this set belongs to.
        reads: ``key -> version observed`` at execution time.
        writes: ``key -> new value`` (None means delete).
        ok: False when the contract raised (business-rule abort).
        result: The contract's return value (None on failure).
        cost: Modelled execution time in simulated seconds.
    """

    tx_id: str
    reads: dict[str, Version] = field(default_factory=dict)
    writes: dict[str, Any] = field(default_factory=dict)
    ok: bool = True
    result: Any = None
    cost: float = 0.0

    @property
    def read_keys(self) -> frozenset[str]:
        return frozenset(self.reads)

    @property
    def write_keys(self) -> frozenset[str]:
        return frozenset(self.writes)

    def digest(self) -> str:
        """Stable digest endorsers sign over (XOV endorsement compare)."""
        reads = sorted(
            (k, v.height, v.tx_index) for k, v in self.reads.items()
        )
        writes = sorted((k, repr(v)) for k, v in self.writes.items())
        return sha256_hex(f"{self.tx_id}|{reads!r}|{writes!r}|{self.ok}")

    def conflicts_with(self, other: "RWSet") -> bool:
        """Write-read / write-write overlap between two captured sets."""
        return bool(
            self.write_keys & (other.read_keys | other.write_keys)
            or other.write_keys & self.read_keys
        )


def execute_with_capture(
    registry: ContractRegistry,
    tx: Transaction,
    view: StateStore | StateSnapshot,
) -> RWSet:
    """Run ``tx``'s contract against ``view``, capturing its effects.

    A contract that raises :class:`ExecutionError` yields an unsuccessful
    RWSet with empty writes — business-rule aborts leave no side effects.
    Any other exception propagates: contracts are required to be
    deterministic and total, so an unexpected error is a library bug,
    not a transaction abort.
    """
    ctx = ContractContext(view)
    cost = registry.cost(tx.contract)
    fn = registry.contract(tx.contract)
    try:
        result = fn(ctx, *tx.args)
    except ExecutionError:
        return RWSet(tx_id=tx.tx_id, reads=ctx.reads, ok=False, cost=cost)
    return RWSet(
        tx_id=tx.tx_id,
        reads=ctx.reads,
        writes=ctx.writes,
        ok=True,
        result=result,
        cost=cost,
    )


class RoutedView:
    """Read view over several stores, routing each key to its owner's.

    ``owner_of`` names a key's owner (a shard, an enterprise); a key
    whose owner has no store here reads from the first store.
    """

    def __init__(
        self,
        stores: dict[str, StateStore | StateSnapshot],
        owner_of: Callable[[str], str | None],
    ) -> None:
        self._stores = stores
        self._owner_of = owner_of

    def get_versioned(self, key: str):
        store = self._stores.get(self._owner_of(key))
        if store is None:
            store = next(iter(self._stores.values()))
        return store.get_versioned(key)
