"""Quorum (JP Morgan) — public + private transactions with ZK verification.

Paper section 2.3.2: Quorum orders public and private transactions with
the same consensus protocol (Raft-based CFT or Istanbul BFT) and "uses
the zero-knowledge proof technique to ensure verifiability of private
transactions ... while ensuring that: sender is authorized to transfer
ownership of the assets, assets have not been spent previously
(double-spend), and transaction inputs equal its outputs (mass
conservation)."

The private-transfer construction here delivers exactly those three
checks without revealing amounts or balances:

* account balances live on-chain only as Pedersen commitments;
* a transfer ships a commitment to the amount, the sender's new balance
  commitment, range proofs that both are non-negative (no overdraft ⇒
  no double spending of balance), and a Schnorr signature proof for
  authorization;
* every validator checks conservation *homomorphically*:
  ``C_balance == C_new_balance * C_amount`` — inputs equal outputs.

:class:`PrivateWallet` is the client-side helper that tracks the real
values and blindings (which never go on chain).
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Any

from repro.common.driver import RunDriver, TxRecord
from repro.common.errors import CryptoError, ValidationError
from repro.common.types import Transaction
from repro.consensus import PROTOCOLS, ConsensusCluster
from repro.crypto.commitments import PedersenCommitment, PedersenParams
from repro.crypto.group import default_group, simulation_group
from repro.execution.contracts import ContractRegistry, standard_registry
from repro.execution.rwsets import execute_with_capture
from repro.ledger.chain import Blockchain
from repro.ledger.store import StateStore, Version
from repro.sim.core import Simulation
from repro.sim.network import LanLatency
from repro.verifiability.zkp import RangeProof, SchnorrProof


@dataclass
class QuorumConfig:
    """Deployment knobs for a Quorum network."""

    orderers: int = 4
    protocol: str = "ibft"  # or "raft" — Quorum ships both
    range_bits: int = 16
    #: "simulation" (256-bit, fast) or "default" (1024-bit, strong).
    group: str = "simulation"
    seed: int = 0
    max_time: float = 600.0
    arrival_rate: float | None = 500.0
    #: Modelled per-validator CPU time for verifying one private tx.
    zkp_verify_cost: float = 0.010
    #: Modelled client-side proof generation time.
    zkp_prove_cost: float = 0.015


@dataclass(frozen=True)
class PrivateTransfer:
    """The on-chain payload of a private transaction. No plaintext."""

    tx_id: str
    sender_account: str
    receiver_account: str
    amount_commitment: int
    new_sender_commitment: int
    amount_range_proof: RangeProof
    balance_range_proof: RangeProof
    authorization: SchnorrProof


class PrivateWallet:
    """Client-side secret state: real balances, blindings, signing key."""

    def __init__(self, owner: str, params: PedersenParams) -> None:
        self.owner = owner
        self.params = params
        group = params.group
        self._signing_key = secrets.randbelow(group.q - 1) + 1
        self.public_key = group.exp(group.g, self._signing_key)
        self._balances: dict[str, int] = {}
        self._blindings: dict[str, int] = {}

    def open_account(self, account: str, balance: int) -> PedersenCommitment:
        """Create an account; returns the initial on-chain commitment."""
        blinding = self.params.random_blinding()
        self._balances[account] = balance
        self._blindings[account] = blinding
        return self.params.commit(balance, blinding)

    def balance(self, account: str) -> int:
        return self._balances[account]

    def receive(self, account: str, amount: int, blinding: int) -> None:
        """Record an incoming transfer (amount and blinding arrive via a
        private channel, as in Quorum's private payload distribution)."""
        self._balances[account] = self._balances.get(account, 0) + amount
        self._blindings[account] = (
            self._blindings.get(account, 0) + blinding
        ) % self.params.group.q

    def build_transfer(
        self, src: str, dst_account: str, amount: int, bits: int = 16
    ) -> tuple[PrivateTransfer, int, int]:
        """Create a private transfer plus the (amount, blinding) secret
        the receiver needs. Raises on overdraft — an honest wallet will
        not generate an unprovable statement."""
        balance = self._balances.get(src)
        if balance is None:
            raise ValidationError(f"unknown account: {src}")
        if not 0 <= amount <= balance:
            raise CryptoError(
                f"cannot prove transfer of {amount} from balance {balance}"
            )
        params = self.params
        group = params.group
        amount_blinding = params.random_blinding()
        new_balance = balance - amount
        new_blinding = (self._blindings[src] - amount_blinding) % group.q
        tx_id = secrets.token_hex(8)
        transfer = PrivateTransfer(
            tx_id=tx_id,
            sender_account=src,
            receiver_account=dst_account,
            amount_commitment=params.commit(amount, amount_blinding).point,
            new_sender_commitment=params.commit(new_balance, new_blinding).point,
            amount_range_proof=RangeProof.prove(
                params, amount, amount_blinding, bits, context=f"{tx_id}|amt"
            ),
            balance_range_proof=RangeProof.prove(
                params, new_balance, new_blinding, bits, context=f"{tx_id}|bal"
            ),
            authorization=SchnorrProof.prove(
                group, self._signing_key, context=f"{tx_id}|auth"
            ),
        )
        self._balances[src] = new_balance
        self._blindings[src] = new_blinding
        return transfer, amount, amount_blinding


class QuorumSystem(RunDriver):
    """A Quorum network ordering public and private transactions."""

    name = "quorum"
    extra_prefixes = ("quorum.",)

    def __init__(
        self,
        config: QuorumConfig | None = None,
        registry: ContractRegistry | None = None,
    ) -> None:
        super().__init__()
        self.config = config or QuorumConfig()
        self.registry = registry or standard_registry()
        group = (
            simulation_group()
            if self.config.group == "simulation"
            else default_group()
        )
        self.params = PedersenParams.create(group)
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
        self._reference = self.cluster.config.replica_ids[0]
        self.ledger = Blockchain()
        self.store = StateStore()  # public state
        #: On-chain private state: account -> balance commitment point.
        self.commitments: dict[str, int] = {}
        self.account_keys: dict[str, int] = {}  # account -> owner pubkey
        self._height = 0

    # -- accounts ---------------------------------------------------------------

    def register_account(
        self, account: str, commitment: PedersenCommitment, owner_key: int
    ) -> None:
        """Genesis registration of a private account (trusted setup)."""
        if account in self.commitments:
            raise ValidationError(f"account exists: {account}")
        self.commitments[account] = commitment.point
        self.account_keys[account] = owner_key

    # -- submission -----------------------------------------------------------------

    def submit_public(self, tx: Transaction) -> None:
        self.submit(tx)

    def submit_private(self, transfer: PrivateTransfer) -> None:
        self.submit(transfer)

    def _arrival_delay(self, tx: Transaction | PrivateTransfer) -> float:
        # A private transfer reaches the orderers only once the client
        # has generated its proofs.
        if isinstance(tx, PrivateTransfer):
            return self.config.zkp_prove_cost
        return 0.0

    def _ingest(self, record: TxRecord) -> None:
        kind = "private" if isinstance(record.tx, PrivateTransfer) else "public"
        self.cluster.submit((kind, record.tx.tx_id), via=self._reference)

    # -- ordered records --------------------------------------------------------------------

    def _on_decide(self, node_id: str, sequence: int, value: Any) -> None:
        if node_id != self._reference:
            return
        kind, tx_id = value
        if kind == "public":
            self._apply_public(self._tx_by_id[tx_id])
        else:
            # Every validator verifies the proofs; charge the modelled
            # CPU cost once on the critical path.
            self.sim.metrics.incr("quorum.zkp_verifications", self.config.orderers)
            self.sim.schedule(
                self.config.zkp_verify_cost,
                lambda: self._apply_private(self._tx_by_id[tx_id]),
            )

    def _apply_public(self, tx: Transaction) -> None:
        rwset = execute_with_capture(self.registry, tx, self.store)
        self._height += 1
        if not rwset.ok:
            self._mark_aborted(tx, "business_rule")
            return
        self.store.apply_writes(rwset.writes, Version(self._height, 0))
        block = self.ledger.next_block([tx], timestamp=self.sim.now)
        self.ledger.append(block)
        self._mark_committed(tx)
        self.sim.metrics.incr("quorum.public_commits")

    def verify_private(self, transfer: PrivateTransfer) -> bool:
        """The validator-side check: authorization, no double-spend
        (non-negative new balance), conservation. Zero knowledge of
        amounts is required or gained."""
        group = self.params.group
        sender_point = self.commitments.get(transfer.sender_account)
        owner_key = self.account_keys.get(transfer.sender_account)
        if sender_point is None or owner_key is None:
            return False
        if transfer.receiver_account not in self.commitments:
            return False
        # 1. Authorization: the prover holds the account owner's key.
        if not transfer.authorization.verify(
            group, owner_key, context=f"{transfer.tx_id}|auth"
        ):
            return False
        # 2. Conservation: old balance = new balance + amount.
        recombined = group.mul(
            transfer.new_sender_commitment, transfer.amount_commitment
        )
        if recombined != sender_point:
            return False
        # 3. Range proofs: amount >= 0 and new balance >= 0.
        amount_c = PedersenCommitment(
            params=self.params, point=transfer.amount_commitment
        )
        balance_c = PedersenCommitment(
            params=self.params, point=transfer.new_sender_commitment
        )
        if not transfer.amount_range_proof.verify(
            self.params, amount_c, context=f"{transfer.tx_id}|amt"
        ):
            return False
        if not transfer.balance_range_proof.verify(
            self.params, balance_c, context=f"{transfer.tx_id}|bal"
        ):
            return False
        return True

    def _apply_private(self, transfer: PrivateTransfer) -> None:
        self._height += 1
        if not self.verify_private(transfer):
            self._mark_aborted(transfer, "zkp_rejected")
            self.sim.metrics.incr("quorum.zkp_rejections")
            return
        group = self.params.group
        self.commitments[transfer.sender_account] = (
            transfer.new_sender_commitment
        )
        self.commitments[transfer.receiver_account] = group.mul(
            self.commitments[transfer.receiver_account],
            transfer.amount_commitment,
        )
        marker = Transaction.create(
            "private_transfer",
            (transfer.tx_id,),
            submitter=transfer.sender_account,
        )
        block = self.ledger.next_block([marker], timestamp=self.sim.now)
        self.ledger.append(block)
        self._mark_committed(transfer)
        self.sim.metrics.incr("quorum.private_commits")
