"""Smart contracts: deterministic Python functions over versioned state.

A contract is a function ``fn(ctx, *args)`` that reads and writes keys
through a :class:`ContractContext`. The context records which versions
were read and which keys were written — the read/write sets on which
every architecture's conflict handling is built.

The registry also carries a modelled *execution cost* per contract
(simulated CPU seconds), which is how the simulator charges time for the
execute phase without the host machine's speed leaking into results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.common.errors import ExecutionError
from repro.ledger.store import StateSnapshot, StateStore, Version, VersionedValue

#: Default modelled execution cost of one contract call, in simulated
#: seconds. Roughly a lightweight chaincode invocation.
DEFAULT_CONTRACT_COST = 0.001

ContractFn = Callable[..., Any]


@dataclass(frozen=True)
class _RegisteredContract:
    name: str
    fn: ContractFn
    cost: float


class ContractContext:
    """State access handle passed to a running contract.

    Reads go to the underlying view (a live store or a snapshot) unless
    the contract already wrote the key in this invocation — contracts
    read their own writes. Every foreign read records the key's version;
    every write is buffered until the engine decides to commit it.
    """

    def __init__(self, view: StateStore | StateSnapshot) -> None:
        self._view = view
        self.reads: dict[str, Version] = {}
        self.writes: dict[str, Any] = {}

    def get(self, key: str, default: Any = None) -> Any:
        if key in self.writes:
            return self.writes[key]
        entry: VersionedValue = self._view.get_versioned(key)
        self.reads[key] = entry.version
        return entry.value if entry.value is not None else default

    def put(self, key: str, value: Any) -> None:
        if value is None:
            raise ExecutionError("use delete() to remove a key, not put(None)")
        self.writes[key] = value

    def delete(self, key: str) -> None:
        # None is the delete sentinel understood by StateStore.apply_writes.
        self.writes[key] = None

    def require(self, condition: bool, reason: str) -> None:
        """Abort the contract when a business rule is violated."""
        if not condition:
            raise ExecutionError(reason)


class ContractRegistry:
    """Named, deterministic contract functions with modelled costs."""

    def __init__(self) -> None:
        self._contracts: dict[str, _RegisteredContract] = {}

    def register(
        self, name: str, fn: ContractFn, cost: float = DEFAULT_CONTRACT_COST
    ) -> None:
        if name in self._contracts:
            raise ExecutionError(f"contract already registered: {name}")
        if cost < 0:
            raise ExecutionError(f"contract cost must be non-negative: {cost}")
        self._contracts[name] = _RegisteredContract(name=name, fn=fn, cost=cost)

    def contract(self, name: str) -> ContractFn:
        return self._lookup(name).fn

    def cost(self, name: str) -> float:
        return self._lookup(name).cost

    def __contains__(self, name: str) -> bool:
        return name in self._contracts

    def _lookup(self, name: str) -> _RegisteredContract:
        try:
            return self._contracts[name]
        except KeyError:
            raise ExecutionError(f"unknown contract: {name}") from None


def standard_registry() -> ContractRegistry:
    """A registry with the library's stock contracts.

    These cover the workload generators: plain key/value writes,
    read-modify-write counters, and account transfers (the SmallBank and
    financial-application shapes the paper motivates with).
    """
    registry = ContractRegistry()
    registry.register("kv_set", _kv_set)
    registry.register("kv_get", _kv_get)
    registry.register("increment", _increment)
    registry.register("transfer", _transfer)
    registry.register("deposit", _deposit)
    registry.register("read_many", _read_many)
    return registry


def _kv_set(ctx: ContractContext, key: str, value: Any) -> Any:
    ctx.put(key, value)
    return value


def _kv_get(ctx: ContractContext, key: str) -> Any:
    return ctx.get(key)


def _increment(ctx: ContractContext, key: str, amount: int = 1) -> int:
    current = ctx.get(key, 0)
    updated = current + amount
    ctx.put(key, updated)
    return updated


def _transfer(ctx: ContractContext, src: str, dst: str, amount: int) -> int:
    balance = ctx.get(src, 0)
    ctx.require(balance >= amount, f"insufficient funds in {src}")
    ctx.put(src, balance - amount)
    ctx.put(dst, ctx.get(dst, 0) + amount)
    return amount


def _deposit(ctx: ContractContext, account: str, amount: int) -> int:
    updated = ctx.get(account, 0) + amount
    ctx.put(account, updated)
    return updated


def _read_many(ctx: ContractContext, *keys: str) -> list[Any]:
    return [ctx.get(key) for key in keys]
