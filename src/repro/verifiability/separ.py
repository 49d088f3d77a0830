"""Separ (Amiri et al., WWW 2021) — token-based verifiability.

Paper section 2.3.2: "a centralized trusted authority models global
regulations using anonymous tokens and distributes them to participants.
For example, if a global constraint declares that the total work hours
of a worker per week must not exceed 40 hours to follow FLSA, the
authority assigns 40 tokens to each worker where a worker can consume
its tokens whenever the worker contributes to a task."

Pieces modelled:

* :class:`TokenAuthority` — the trusted issuer. Tokens carry a random
  serial and a Schnorr signature from the authority; nothing in a token
  identifies its worker (anonymity), and the authority enforces the
  per-worker issuance cap (the regulation).
* :class:`SeparSystem` — the multi-platform ledger. Platforms order
  work claims through consensus; validation checks every attached token
  (authority signature, serial unspent *anywhere*) so the 40-hour cap
  holds globally even when the worker splits hours across platforms that
  never share identities.
* Spent-token receipts double as portable proofs of hours worked, which
  is how a worker demonstrates crossing California Prop 22's 25-hour
  healthcare threshold without platforms sharing records.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Any

from repro.common.driver import RunDriver, TxRecord
from repro.common.errors import ConfigError, ValidationError
from repro.consensus import PROTOCOLS, ConsensusCluster
from repro.crypto.group import SchnorrGroup, simulation_group
from repro.sim.core import Simulation
from repro.sim.network import LanLatency
from repro.verifiability.zkp import SchnorrProof
from repro.workloads.crowdworking import FLSA_WEEKLY_CAP, WorkClaim


@dataclass(frozen=True)
class Token:
    """One anonymous hour-token: a serial plus the authority's signature.

    The signature is a Schnorr proof bound to the serial, so any
    platform holding the authority's public key verifies it offline.
    """

    serial: str
    week: int
    constraint: str
    signature: SchnorrProof

    def verify(self, group: SchnorrGroup, authority_key: int) -> bool:
        context = f"token|{self.serial}|{self.week}|{self.constraint}"
        return self.signature.verify(group, authority_key, context=context)


class TokenAuthority:
    """The trusted, centralized token issuer.

    The authority is the trust trade-off the Discussion paragraph
    names: it must be trusted by all platforms, but in exchange no
    zero-knowledge machinery is needed at validation time.
    """

    def __init__(self, weekly_cap: int = FLSA_WEEKLY_CAP,
                 group: SchnorrGroup | None = None) -> None:
        self.group = group or simulation_group()
        self.weekly_cap = weekly_cap
        self._signing_key = secrets.randbelow(self.group.q - 1) + 1
        self.public_key = self.group.exp(self.group.g, self._signing_key)
        self._issued: dict[tuple[str, int], int] = {}

    def issue(self, worker: str, week: int, count: int,
              constraint: str = "flsa-40h") -> list[Token]:
        """Issue up to the remaining weekly allowance for ``worker``."""
        if count < 0:
            raise ValidationError("cannot issue a negative token count")
        already = self._issued.get((worker, week), 0)
        if already + count > self.weekly_cap:
            raise ValidationError(
                f"{worker} would exceed the weekly cap "
                f"({already} + {count} > {self.weekly_cap})"
            )
        self._issued[(worker, week)] = already + count
        tokens = []
        for _ in range(count):
            serial = secrets.token_hex(16)
            context = f"token|{serial}|{week}|{constraint}"
            tokens.append(Token(
                serial=serial,
                week=week,
                constraint=constraint,
                signature=SchnorrProof.prove(
                    self.group, self._signing_key, context=context
                ),
            ))
        return tokens


@dataclass(frozen=True)
class TokenizedClaim:
    """A work claim plus the hour-tokens paying for it.

    ``pseudonym`` is the worker's per-platform identity; the real worker
    id never reaches the ledger (anonymity audit in the tests).
    """

    tx_id: str
    pseudonym: str
    platform: str
    task: str
    hours: int
    week: int
    tokens: tuple[Token, ...]


@dataclass
class SeparConfig:
    """Deployment knobs for a Separ network."""

    protocol: str = "pbft"
    seed: int = 0
    max_time: float = 600.0
    arrival_rate: float | None = 1000.0
    #: Modelled per-token validation cost (one signature check).
    token_verify_cost: float = 0.0005


class SeparSystem(RunDriver):
    """The shared multi-platform ledger enforcing token spends."""

    name = "separ"
    extra_prefixes = ("separ.",)
    abort_metric = "separ.reject."

    def __init__(
        self,
        platforms: list[str],
        authority: TokenAuthority,
        config: SeparConfig | None = None,
    ) -> None:
        if len(platforms) < 2:
            raise ConfigError("Separ targets multi-platform settings")
        super().__init__()
        self.platforms = list(platforms)
        self.authority = authority
        self.config = config or SeparConfig()
        self.sim = Simulation(seed=self.config.seed)
        protocol_cls, byzantine = PROTOCOLS[self.config.protocol]
        n = max(len(platforms), 4 if byzantine else 3)
        self.cluster = ConsensusCluster(
            protocol_cls,
            n=n,
            byzantine=byzantine,
            sim=self.sim,
            latency=LanLatency(),
            id_prefix="plat",
            decide_listener=self._on_decide,
        )
        self._reference = self.cluster.config.replica_ids[0]
        self.spent_serials: set[str] = set()
        self.committed_claims: list[TokenizedClaim] = []
        self._rejected: dict[str, str] = {}

    # -- client helpers -----------------------------------------------------------

    @staticmethod
    def tokenize(
        claim: WorkClaim, tokens: list[Token], pseudonym: str | None = None
    ) -> TokenizedClaim:
        """Attach tokens to a claim under a per-platform pseudonym."""
        if len(tokens) != claim.hours:
            raise ValidationError(
                f"claim of {claim.hours}h needs {claim.hours} tokens, "
                f"got {len(tokens)}"
            )
        return TokenizedClaim(
            tx_id=secrets.token_hex(8),
            pseudonym=pseudonym or f"{claim.platform}:{secrets.token_hex(4)}",
            platform=claim.platform,
            task=claim.task,
            hours=claim.hours,
            week=claim.week,
            tokens=tuple(tokens),
        )

    # -- validation -----------------------------------------------------------------

    def validate_claim(self, claim: TokenizedClaim) -> str | None:
        """None when valid, else the rejection reason."""
        if len(claim.tokens) != claim.hours:
            return "token_count_mismatch"
        serials = {token.serial for token in claim.tokens}
        if len(serials) != len(claim.tokens):
            return "duplicate_token_in_claim"
        if serials & self.spent_serials:
            return "double_spend"
        for token in claim.tokens:
            if token.week != claim.week:
                return "wrong_week_token"
            if not token.verify(self.authority.group, self.authority.public_key):
                return "forged_token"
        return None

    # -- run --------------------------------------------------------------------------

    def _ingest(self, record: TxRecord) -> None:
        self.cluster.submit(record.tx.tx_id, via=self._reference)

    def _on_decide(self, node_id: str, sequence: int, value: Any) -> None:
        if node_id != self._reference:
            return
        claim = self._tx_by_id[value]
        cost = self.config.token_verify_cost * max(1, len(claim.tokens))
        self.sim.schedule(cost, lambda: self._apply(claim))

    def _apply(self, claim: TokenizedClaim) -> None:
        reason = self.validate_claim(claim)
        self.sim.metrics.incr(
            "separ.token_verifications", len(claim.tokens)
        )
        if reason is not None:
            self._rejected[claim.tx_id] = reason
            self._mark_aborted(claim, reason)
            return
        self.spent_serials.update(token.serial for token in claim.tokens)
        self.committed_claims.append(claim)
        self._mark_committed(claim)
        self.sim.metrics.incr("separ.commits")

    # -- audits & queries -----------------------------------------------------------------

    def hours_proven_by(self, serials: list[str]) -> int:
        """Count of presented receipts that are genuinely on the ledger —
        how a worker proves total hours (e.g. Prop 22's 25h threshold)
        without any platform revealing its records."""
        return len(set(serials) & self.spent_serials)

    def ledger_identifiers(self) -> set[str]:
        """Every identity-like string on the shared ledger (pseudonyms
        only — the anonymity audit asserts no real worker ids appear)."""
        return {claim.pseudonym for claim in self.committed_claims}

    def rejection_reasons(self) -> dict[str, str]:
        return dict(self._rejected)
