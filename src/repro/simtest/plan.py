"""Serializable fault-plan specs: the unit the DST engine searches over.

:class:`~repro.sim.faults.FaultPlan` is an *executable* object (it holds
predicates and one-shot rule state), so the explorer, fuzzer, shrinker
and capsule format all work on a declarative twin instead: a
:class:`PlanSpec` is an ordered tuple of :class:`FaultSpec` records that
round-trips through JSON and compiles to a fresh ``FaultPlan`` on every
run. That split is what makes shrinking exact — each probe builds a new
plan from the (possibly mutated) spec and re-runs it deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping

from repro.common.errors import ConfigError
from repro.sim.faults import FaultPlan, match

#: Fault kinds a spec may carry, in the vocabulary of FaultPlan.
KINDS = ("crash", "recover", "partition", "drop", "delay", "duplicate", "reorder")

#: Point faults act at ``time``; window faults span ``[time, end)``.
WINDOW_KINDS = ("partition", "drop", "delay", "duplicate", "reorder")

#: Timestamps are rounded to this many decimals so that shrunk plans and
#: capsules serialize to stable, human-readable JSON.
TIME_DECIMALS = 4


def _round(value: float) -> float:
    return round(float(value), TIME_DECIMALS)


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault.

    ``src``/``dst``/``message_type`` describe the message predicate of a
    message-level fault (``None`` = wildcard), mirroring
    :func:`repro.sim.faults.match`.
    """

    kind: str
    time: float
    end: float | None = None
    node: str | None = None
    groups: tuple[tuple[str, ...], ...] | None = None
    src: str | None = None
    dst: str | None = None
    message_type: str | None = None
    probability: float = 1.0
    extra: float = 0.0
    copies: int = 1

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"unknown fault kind {self.kind!r}")
        if self.kind in ("crash", "recover") and not self.node:
            raise ConfigError(f"{self.kind} fault needs a node")
        if self.kind in WINDOW_KINDS and self.end is None:
            raise ConfigError(f"{self.kind} fault needs an end time")
        if self.kind == "partition" and not self.groups:
            raise ConfigError("partition fault needs groups")

    def shifted(self, time: float, end: float | None = None) -> "FaultSpec":
        """Copy with new (rounded) timestamps — the shrinker's mutator."""
        return replace(
            self,
            time=_round(time),
            end=_round(end) if end is not None else self.end,
        )

    def to_dict(self) -> dict[str, Any]:
        """Compact dict: defaults are omitted so capsules stay readable."""
        out: dict[str, Any] = {"kind": self.kind, "time": self.time}
        if self.end is not None:
            out["end"] = self.end
        if self.node is not None:
            out["node"] = self.node
        if self.groups is not None:
            out["groups"] = [list(group) for group in self.groups]
        for key in ("src", "dst", "message_type"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.probability != 1.0:
            out["probability"] = self.probability
        if self.extra != 0.0:
            out["extra"] = self.extra
        if self.copies != 1:
            out["copies"] = self.copies
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        groups = data.get("groups")
        return cls(
            kind=data["kind"],
            time=float(data["time"]),
            end=float(data["end"]) if "end" in data else None,
            node=data.get("node"),
            groups=(
                tuple(tuple(group) for group in groups)
                if groups is not None
                else None
            ),
            src=data.get("src"),
            dst=data.get("dst"),
            message_type=data.get("message_type"),
            probability=float(data.get("probability", 1.0)),
            extra=float(data.get("extra", 0.0)),
            copies=int(data.get("copies", 1)),
        )

    def _predicate(self):
        if self.src is None and self.dst is None and self.message_type is None:
            return None
        return match(src=self.src, dst=self.dst, message_type=self.message_type)


@dataclass(frozen=True)
class PlanSpec:
    """An ordered, immutable, serializable fault schedule."""

    faults: tuple[FaultSpec, ...] = ()

    def __len__(self) -> int:
        return len(self.faults)

    def without(self, index: int) -> "PlanSpec":
        return PlanSpec(self.faults[:index] + self.faults[index + 1:])

    def with_fault(self, index: int, fault: FaultSpec) -> "PlanSpec":
        faults = list(self.faults)
        faults[index] = fault
        return PlanSpec(tuple(faults))

    def key(self) -> tuple:
        """Hashable identity, for shrinker memoization."""
        import json

        return tuple(
            json.dumps(f.to_dict(), sort_keys=True) for f in self.faults
        )

    def build(self) -> FaultPlan:
        """Compile to a fresh, single-use :class:`FaultPlan`.

        Raises :class:`ConfigError` when the spec is invalid (e.g. a
        bisected window collapsed to ``end <= start``); callers probing
        mutated plans treat that as "does not reproduce".
        """
        plan = FaultPlan()
        for fault in self.faults:
            if fault.kind == "crash":
                plan.crash(fault.time, fault.node)
            elif fault.kind == "recover":
                plan.recover(fault.time, fault.node)
            elif fault.kind == "partition":
                plan.partition_window(fault.time, fault.end, fault.groups)
            elif fault.kind == "drop":
                plan.drop_messages(
                    fault.time, fault.end, fault._predicate(),
                    probability=fault.probability,
                )
            elif fault.kind == "delay":
                plan.delay_messages(
                    fault.time, fault.end, fault._predicate(),
                    extra=fault.extra, probability=fault.probability,
                )
            elif fault.kind == "duplicate":
                plan.duplicate_messages(
                    fault.time, fault.end, fault._predicate(),
                    copies=fault.copies, probability=fault.probability,
                )
            else:  # reorder
                plan.reorder_once(
                    fault.time, fault.end, fault._predicate(), hold=fault.extra
                )
        return plan

    def to_jsonable(self) -> list[dict[str, Any]]:
        return [fault.to_dict() for fault in self.faults]

    @classmethod
    def from_jsonable(cls, data: list[Mapping[str, Any]]) -> "PlanSpec":
        return cls(tuple(FaultSpec.from_dict(entry) for entry in data))
