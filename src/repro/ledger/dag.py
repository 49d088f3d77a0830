"""The Caper-style DAG ledger (paper section 2.3.1).

In Caper the ledger is a directed acyclic graph of transactions: each
enterprise's *internal* transactions form a chain, and *cross-enterprise*
transactions join the chains of every involved enterprise. Crucially,
"the blockchain ledger is not maintained by any node" — each enterprise
materialises only its own view (its internal transactions plus all
cross-enterprise transactions).

:class:`CaperDag` here is the *logical* ledger used by audits and tests;
the runtime system in ``repro.confidentiality.caper`` gives each
enterprise only the :meth:`view` projection.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import LedgerError
from repro.common.types import Transaction, TxType
from repro.crypto.digests import sha256_hex


@dataclass(frozen=True)
class DagVertex:
    """One transaction in the DAG, hash-linked to its parents."""

    tx: Transaction
    parents: tuple[str, ...]
    enterprise: str | None  # None for cross-enterprise transactions

    def digest(self) -> str:
        material = f"{self.tx.digest()}|{','.join(self.parents)}|{self.enterprise}"
        return sha256_hex(material)


class CaperDag:
    """Append-only transaction DAG with per-enterprise views."""

    def __init__(self, enterprises: list[str]) -> None:
        if not enterprises:
            raise LedgerError("a Caper ledger needs at least one enterprise")
        self.enterprises = list(enterprises)
        self._vertices: dict[str, DagVertex] = {}
        self._order: list[str] = []  # insertion order of digests
        self._last_of: dict[str, str | None] = {e: None for e in enterprises}

    def __len__(self) -> int:
        return len(self._order)

    def vertex(self, digest: str) -> DagVertex:
        try:
            return self._vertices[digest]
        except KeyError:
            raise LedgerError(f"unknown DAG vertex: {digest[:12]}…") from None

    def _append(self, vertex: DagVertex) -> str:
        digest = vertex.digest()
        for parent in vertex.parents:
            if parent not in self._vertices:
                raise LedgerError(f"vertex parent missing: {parent[:12]}…")
        self._vertices[digest] = vertex
        self._order.append(digest)
        return digest

    def add_internal(self, enterprise: str, tx: Transaction) -> str:
        """Append an internal transaction to ``enterprise``'s chain."""
        if enterprise not in self._last_of:
            raise LedgerError(f"unknown enterprise: {enterprise}")
        last = self._last_of[enterprise]
        parents = (last,) if last else ()
        digest = self._append(
            DagVertex(tx=tx, parents=parents, enterprise=enterprise)
        )
        self._last_of[enterprise] = digest
        return digest

    def add_cross(self, tx: Transaction) -> str:
        """Append a cross-enterprise transaction joining every chain.

        Following Caper, a cross-enterprise transaction is globally
        ordered and has an edge from the latest transaction of *every*
        enterprise, making it a synchronisation point of the DAG.
        """
        if tx.tx_type != TxType.CROSS_ENTERPRISE:
            raise LedgerError("add_cross requires a CROSS_ENTERPRISE transaction")
        parents = tuple(
            digest for digest in (self._last_of[e] for e in self.enterprises) if digest
        )
        digest = self._append(DagVertex(tx=tx, parents=parents, enterprise=None))
        for enterprise in self.enterprises:
            self._last_of[enterprise] = digest
        return digest

    def view(self, enterprise: str) -> list[DagVertex]:
        """``enterprise``'s view: its internal txs plus all cross-enterprise
        txs, in ledger order. This is all a Caper enterprise ever stores."""
        if enterprise not in self._last_of:
            raise LedgerError(f"unknown enterprise: {enterprise}")
        return [
            self._vertices[digest]
            for digest in self._order
            if self._vertices[digest].enterprise in (enterprise, None)
        ]

    def verify(self) -> None:
        """Audit: every parent exists and precedes its child (acyclicity)."""
        seen: set[str] = set()
        for digest in self._order:
            vertex = self._vertices[digest]
            for parent in vertex.parents:
                if parent not in seen:
                    raise LedgerError(
                        f"vertex {digest[:12]}… references parent "
                        f"{parent[:12]}… that does not precede it"
                    )
            if vertex.digest() != digest:
                raise LedgerError(f"vertex digest mismatch at {digest[:12]}…")
            seen.add(digest)

    def views_consistent(self) -> bool:
        """True when all views agree on the shared cross-enterprise spine.

        Two enterprise views overlap exactly on cross-enterprise
        transactions; consistency means they observe those in the same
        order — which holds by construction here and is asserted by
        integration tests against the distributed runtime.
        """
        spines = []
        for enterprise in self.enterprises:
            spine = [
                v.digest() for v in self.view(enterprise) if v.enterprise is None
            ]
            spines.append(spine)
        return all(spine == spines[0] for spine in spines)
