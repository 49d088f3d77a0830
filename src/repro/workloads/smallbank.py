"""SmallBank: the banking workload behind the scalability experiments.

SmallBank is the standard OLTP benchmark sharded-blockchain papers
(AHL, SharPer) evaluate on: each customer has a checking and a savings
account, and six transaction profiles mix single-customer updates with
two-customer payments. Two-customer payments are what become
*cross-shard* transactions once accounts are partitioned (experiment
E6) — the generator therefore controls the probability that the two
customers live in different shards.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.common.types import Operation, OpType, Transaction, TxType
from repro.execution.contracts import ContractContext, ContractRegistry


def _checking(customer: str) -> str:
    return f"checking:{customer}"


def _savings(customer: str) -> str:
    return f"savings:{customer}"


def _transact_savings(ctx: ContractContext, customer: str, amount: int) -> int:
    balance = ctx.get(_savings(customer), 0) + amount
    ctx.require(balance >= 0, f"savings of {customer} would go negative")
    ctx.put(_savings(customer), balance)
    return balance


def _deposit_checking(ctx: ContractContext, customer: str, amount: int) -> int:
    balance = ctx.get(_checking(customer), 0) + amount
    ctx.put(_checking(customer), balance)
    return balance


def _send_payment(ctx: ContractContext, src: str, dst: str, amount: int) -> int:
    balance = ctx.get(_checking(src), 0)
    ctx.require(balance >= amount, f"checking of {src} too low")
    ctx.put(_checking(src), balance - amount)
    ctx.put(_checking(dst), ctx.get(_checking(dst), 0) + amount)
    return amount


def _write_check(ctx: ContractContext, customer: str, amount: int) -> int:
    total = ctx.get(_checking(customer), 0) + ctx.get(_savings(customer), 0)
    ctx.require(total >= amount, f"total balance of {customer} too low")
    ctx.put(_checking(customer), ctx.get(_checking(customer), 0) - amount)
    return amount


def _amalgamate(ctx: ContractContext, customer: str) -> int:
    total = ctx.get(_checking(customer), 0) + ctx.get(_savings(customer), 0)
    ctx.put(_savings(customer), 0)
    ctx.put(_checking(customer), total)
    return total


def _balance(ctx: ContractContext, customer: str) -> int:
    return ctx.get(_checking(customer), 0) + ctx.get(_savings(customer), 0)


def smallbank_registry() -> ContractRegistry:
    """A contract registry with the six SmallBank profiles."""
    registry = ContractRegistry()
    registry.register("transact_savings", _transact_savings)
    registry.register("deposit_checking", _deposit_checking)
    registry.register("send_payment", _send_payment)
    registry.register("write_check", _write_check)
    registry.register("amalgamate", _amalgamate)
    registry.register("balance", _balance)
    return registry


@dataclass
class SmallBankWorkload:
    """SmallBank transaction stream over ``n_customers`` customers.

    ``cross_shard_fraction`` only matters when ``shard_of`` is provided:
    it is the probability that a ``send_payment`` picks its two customers
    from *different* shards (making the transaction cross-shard).
    """

    n_customers: int = 1000
    payment_fraction: float = 0.4
    query_fraction: float = 0.15
    cross_shard_fraction: float = 0.1
    n_shards: int = 1
    initial_balance: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ConfigError("n_shards must be >= 1")
        # Two per shard, so an intra-shard payment has a payee.
        if self.n_customers < 2 * self.n_shards:
            raise ConfigError("SmallBank needs at least two customers per shard")
        self._rng = random.Random(self.seed)

    # -- sharding helpers ----------------------------------------------------

    def shard_of(self, customer: str) -> str:
        """Deterministic customer -> shard assignment (range partitioned)."""
        index = int(customer.split("c")[1])
        return f"shard{index * self.n_shards // self.n_customers}"

    def _customer(self, shard: str | None = None) -> str:
        if shard is None:
            return f"c{self._rng.randrange(self.n_customers)}"
        # Exactly the customers shard_of maps here: index * n_shards //
        # n_customers == i  <=>  ceil(i * n / s) <= index < ceil((i+1) * n / s).
        shard_index = int(shard.removeprefix("shard"))
        lo = -(-shard_index * self.n_customers // self.n_shards)
        hi = -(-(shard_index + 1) * self.n_customers // self.n_shards)
        return f"c{lo + self._rng.randrange(hi - lo)}"

    # -- generation --------------------------------------------------------------

    def setup_transactions(self) -> list[Transaction]:
        """Deposits that give every customer an initial balance."""
        txs = []
        for i in range(self.n_customers):
            customer = f"c{i}"
            txs.append(self._single_tx(
                "deposit_checking", (customer, self.initial_balance), customer))
        return txs

    def _single_tx(self, contract: str, args: tuple, customer: str) -> Transaction:
        ops = _DECLARED_OPS[contract](*args)
        shard = self.shard_of(customer)
        return Transaction.create(
            contract,
            args,
            tx_type=TxType.INTRA_SHARD if self.n_shards > 1 else TxType.PUBLIC,
            declared_ops=ops,
            involved={shard} if self.n_shards > 1 else frozenset(),
        )

    def next_tx(self) -> Transaction:
        roll = self._rng.random()
        if roll < self.query_fraction:
            customer = self._customer()
            return self._single_tx("balance", (customer,), customer)
        if roll < self.query_fraction + self.payment_fraction:
            return self._payment_tx()
        customer = self._customer()
        contract = self._rng.choice(
            ["transact_savings", "deposit_checking", "write_check", "amalgamate"]
        )
        if contract == "amalgamate":
            return self._single_tx(contract, (customer,), customer)
        amount = self._rng.randrange(1, 100)
        return self._single_tx(contract, (customer, amount), customer)

    def _payment_tx(self) -> Transaction:
        src = self._customer()
        cross = (
            self.n_shards > 1
            and self._rng.random() < self.cross_shard_fraction
        )
        if cross:
            other_shards = [
                f"shard{i}"
                for i in range(self.n_shards)
                if f"shard{i}" != self.shard_of(src)
            ]
            dst = self._customer(self._rng.choice(other_shards))
        else:
            dst = self._customer(self.shard_of(src) if self.n_shards > 1 else None)
            while dst == src:
                dst = self._customer(
                    self.shard_of(src) if self.n_shards > 1 else None
                )
        amount = self._rng.randrange(1, 50)
        involved = (
            {self.shard_of(src), self.shard_of(dst)}
            if self.n_shards > 1
            else frozenset()
        )
        tx_type = TxType.PUBLIC
        if self.n_shards > 1:
            tx_type = (
                TxType.CROSS_SHARD if len(involved) > 1 else TxType.INTRA_SHARD
            )
        return Transaction.create(
            "send_payment",
            (src, dst, amount),
            tx_type=tx_type,
            declared_ops=_DECLARED_OPS["send_payment"](src, dst, amount),
            involved=involved,
        )

    def generate(self, count: int) -> list[Transaction]:
        return [self.next_tx() for _ in range(count)]


def _ops_transact_savings(customer: str, amount: int) -> tuple[Operation, ...]:
    return (Operation(OpType.READ_WRITE, _savings(customer)),)


def _ops_deposit_checking(customer: str, amount: int) -> tuple[Operation, ...]:
    return (Operation(OpType.READ_WRITE, _checking(customer)),)


def _ops_send_payment(src: str, dst: str, amount: int) -> tuple[Operation, ...]:
    return (
        Operation(OpType.READ_WRITE, _checking(src)),
        Operation(OpType.READ_WRITE, _checking(dst)),
    )


def _ops_write_check(customer: str, amount: int) -> tuple[Operation, ...]:
    return (
        Operation(OpType.READ_WRITE, _checking(customer)),
        Operation(OpType.READ, _savings(customer)),
    )


def _ops_amalgamate(customer: str) -> tuple[Operation, ...]:
    return (
        Operation(OpType.READ_WRITE, _checking(customer)),
        Operation(OpType.READ_WRITE, _savings(customer)),
    )


def _ops_balance(customer: str) -> tuple[Operation, ...]:
    return (
        Operation(OpType.READ, _checking(customer)),
        Operation(OpType.READ, _savings(customer)),
    )


_DECLARED_OPS = {
    "transact_savings": _ops_transact_savings,
    "deposit_checking": _ops_deposit_checking,
    "send_payment": _ops_send_payment,
    "write_check": _ops_write_check,
    "amalgamate": _ops_amalgamate,
    "balance": _ops_balance,
}
