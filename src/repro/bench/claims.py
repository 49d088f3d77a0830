"""The tutorial's claims (E1–E24) as one checked registry.

The paper has no result tables; its falsifiable content is the
comparative claims at the end of each technique section. Each
:class:`Claim` pairs one of them with a small sweep over the library's
entry points and a tuple of named :class:`Shape` predicates over the
sweep's rows. Every shape reports the values it compared with its
verdict, so the rendered table is claim vs. measured and a failure
reads ``E1: XOV goodput falls below OX at skew 1.1 — 363.5 vs 914.1``.
E1–E17 are the Discussion claims; E18–E24 are the performance and
storage techniques the tutorial surveys (FastFabric's caching and
pipelining, OXII's dependency graph, Fabric's block store and state
database), checked as counts at small sizes.

``python -m repro claims`` runs the registry and prints the markdown
table that EXPERIMENTS.md carries; ``tests/test_claims.py`` runs it in
tier-1 and checks that the table in EXPERIMENTS.md is the fresh render.
Everything is virtual time or a count, so the table is byte-identical
run to run. Crypto cost is counted in modular exponentiations, not
milliseconds; storage work in fsyncs, blocks read and bytes written.
"""

from __future__ import annotations

import itertools
import operator
import random
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, NamedTuple

from repro.bench.harness import run_architecture, sweep
from repro.bench.profiling import hotpath_counters, reset_hotpath_counters
from repro.bench.reporting import format_cell, to_markdown
from repro.bench.resilience import (
    LOSS_RATES, TXS_BEFORE, TXS_DURING, resilience_cases, run_case,
)
from repro.common.types import Operation, OpType, Transaction, TxType
from repro.confidentiality import (
    AssetChain, AtomicSwap, CaperConfig, CaperSystem, ChannelConfig,
    MultiChannelFabric, PrivateDataChannel,
)
from repro.consensus import (
    PROTOCOLS, ConsensusCluster, hybrid_cluster_size, pure_byzantine_size,
)
from repro.consensus.base import ClusterConfig
from repro.consensus.tendermint import TendermintReplica, proposer_schedule
from repro.core import SYSTEMS, OxiiSystem, OxSystem, SystemConfig, XovSystem
from repro.crypto import MembershipService
from repro.crypto.commitments import PedersenParams
from repro.crypto.group import SchnorrGroup, simulation_group
from repro.execution import ParallelExecutor
from repro.execution.contracts import standard_registry
from repro.execution.endorsement import EndorsingPeerGroup, all_of, any_of, majority_of
from repro.execution.mvcc import endorse
from repro.execution.reorder import reorder_fabricpp, reorder_fabricsharp
from repro.gateway import GatewayConfig, GatewayRun
from repro.ledger.block import GENESIS_PREV_HASH, Block
from repro.ledger.chain import Blockchain
from repro.ledger.store import STORE_COUNTERS, StateStore, Version, reset_store_counters
from repro.sharding import (
    SYSTEMS as SHARDED_SYSTEMS, SaguaroConfig, ShardedConfig,
    committee_failure_probability, min_committee_size,
)
from repro.sim.core import Simulation
from repro.simtest import FuzzConfig, ScenarioSpec, run_fuzz
from repro.storage import (
    STORAGE_COUNTERS, BlockCache, DurableLedger, MemoryBackend, PagedRun,
    PagedStateStore, RunWriter, SnapshotStore, build_canonical_chain, state_root,
)
from repro.storage.codec import entry_to_row
from repro.storage.snapshots import run_name
from repro.verifiability import (
    PrivateWallet, QuorumConfig, QuorumSystem, RangeProof, SeparConfig,
    SeparSystem, TokenAuthority,
)
from repro.verifiability.shielded import ShieldedPool
from repro.workloads import (
    CrowdworkWorkload, KvWorkload, SmallBankWorkload, SupplyChainWorkload,
    smallbank_registry, supply_chain_registry,
)
from repro.workloads.openloop import (
    OpenLoopConfig, OpenLoopWorkload, ScalableZipfSampler, ramp_steady_burst,
)
from repro.workloads.supply_chain import balance_key
from repro.workloads.ycsb import profiles, ycsb

Row = dict[str, Any]
Measure = Callable[[list[Row]], Any]


# -- the registry's types ------------------------------------------------------


def grid(**axes: tuple) -> tuple[Row, ...]:
    """Every combination of the axis values, first axis outermost."""
    return tuple(
        dict(zip(axes, values)) for values in itertools.product(*axes.values())
    )


class Sweep(NamedTuple):
    """Grid points (axis values) and the function that measures one."""

    points: tuple[Row, ...]
    point: Callable[..., Row]

    def rows(self) -> list[Row]:
        """One row per point: its axis values, then what ``point``
        measured. Goes through :func:`repro.bench.sweep`, so
        ``REPRO_BENCH_WORKERS`` fans the points out with identical rows."""
        rows = sweep("point", list(self.points), lambda at: self.point(**at))
        return [{**row.pop("point"), **row} for row in rows]


class Shape(NamedTuple):
    """A named predicate over a sweep's rows; ``check`` returns the
    verdict and the measured values it compared."""

    name: str
    check: Callable[[list[Row]], tuple[bool, tuple]]


class Claim(NamedTuple):
    id: str
    section: str
    quote: str
    sweep: Sweep
    shapes: tuple[Shape, ...]


class Verdict(NamedTuple):
    shape: str
    ok: bool
    measured: str


# -- reading rows --------------------------------------------------------------


def select(rows: list[Row], **where: Any) -> list[Row]:
    """Rows matching every ``where`` item; a tuple value matches any of
    its members."""
    def matches(row: Row, key: str, want: Any) -> bool:
        return row[key] in want if isinstance(want, tuple) else row[key] == want

    return [
        row for row in rows
        if all(matches(row, key, want) for key, want in where.items())
    ]


def pick(rows: list[Row], field: str, **where: Any) -> Any:
    """``field`` of the one row matching ``where``."""
    found = select(rows, **where)
    if len(found) != 1:
        raise LookupError(f"{len(found)} rows match {where}")
    return found[0][field]


def at(field: str, **where: Any) -> Measure:
    return lambda rows: pick(rows, field, **where)


def each(field: str, **where: Any) -> Measure:
    return lambda rows: [row[field] for row in select(rows, **where)]


# -- shapes ----------------------------------------------------------------------

_OPS = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt,
    ">=": operator.ge, "==": operator.eq,
}


def compare(name: str, left: Measure, op: str, right: Measure | Any,
            factor: float = 1) -> Shape:
    """``left op factor * right``. ``right`` may be a constant, which the
    shape's name states; only measured values are reported."""
    def check(rows):
        a = left(rows)
        if not callable(right):
            return _OPS[op](a, right), (a,)
        b = right(rows)
        return _OPS[op](a, factor * b), (a, b)

    return Shape(name, check)


def versus(name: str, field: str, left: Row, op: str, right: Row,
           factor: float = 1) -> Shape:
    """``field`` at the ``left`` point against ``field`` at ``right``."""
    return compare(name, at(field, **left), op, at(field, **right), factor)


def _tally(rows: list[Row], failed: list[Row]) -> tuple[bool, tuple]:
    """Verdict plus ``k/n rows``, naming failed rows by their first
    column (the first grid axis)."""
    text = f"{len(rows) - len(failed)}/{len(rows)} rows"
    if failed:
        text += ", not " + ", ".join(
            format_cell(next(iter(row.values()))) for row in failed
        )
    return not failed, (text,)


def every_against(name: str, test: Callable[[Row, list[Row]], bool],
                  **where: Any) -> Shape:
    """``test(row, rows)`` holds on every row matching ``where``; the
    test may read other rows (a baseline)."""
    def check(rows):
        chosen = select(rows, **where)
        if not chosen:
            raise LookupError(f"no rows match {where}")
        return _tally(chosen, [row for row in chosen if not test(row, rows)])

    return Shape(name, check)


def every(name: str, test: Callable[[Row], bool], **where: Any) -> Shape:
    """``test`` holds on every row matching ``where``."""
    return every_against(name, lambda row, _rows: test(row), **where)


def ordered(name: str, measure: Measure, relation=operator.le) -> Shape:
    """Consecutive values satisfy ``relation`` (default: non-decreasing)."""
    def check(rows):
        values = measure(rows)
        ok = all(relation(a, b) for a, b in itertools.pairwise(values))
        return ok, (" → ".join(map(format_cell, values)),)

    return Shape(name, check)


# -- running and rendering ----------------------------------------------------------


def check(claim: Claim) -> list[Verdict]:
    """Run the claim's sweep and judge each shape. A sweep or shape that
    raises fails the claim with the exception as its measurement, so one
    broken claim never hides the verdicts of the others."""
    try:
        rows = claim.sweep.rows()
        judged = [(shape.name, *shape.check(rows)) for shape in claim.shapes]
    except Exception as exc:  # noqa: BLE001 - reported as the claim's failure
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return [Verdict("runs to completion", False,
                        f"{type(exc).__name__}: {exc} "
                        f"({Path(where.filename).name}:{where.lineno})")]
    return [
        Verdict(name, bool(ok), " vs ".join(map(format_cell, values)))
        for name, ok, values in judged
    ]


def run_claims() -> dict[str, list[Verdict]]:
    return {claim.id: check(claim) for claim in CLAIMS}


def failures(results: dict[str, list[Verdict]]) -> list[str]:
    return [
        f"{claim_id}: {verdict.shape} — {verdict.measured}"
        for claim_id, verdicts in results.items()
        for verdict in verdicts
        if not verdict.ok
    ]


def render(results: dict[str, list[Verdict]]) -> str:
    """The claim-vs-measured markdown table, one row per shape."""
    table = []
    for claim in CLAIMS:
        for index, verdict in enumerate(results[claim.id]):
            first = index == 0
            table.append({
                "claim": claim.id if first else "",
                "§": claim.section if first else "",
                "paper": claim.quote if first else "",
                "shape": verdict.shape,
                "measured": verdict.measured,
                "ok": "✓" if verdict.ok else "✗",
            })
    return to_markdown(table)


# -- point functions: one grid point in, one row out ---------------------------------


def _run(system, txs):
    for tx in txs:
        system.submit(tx)
    return system.run()


def _mean(values) -> float:
    return round(sum(values) / len(values), 4) if values else 0.0


def _architecture(system, workload, seed, txs=300, **config) -> Row:
    return run_architecture(
        system, workload.generate(txs),
        SystemConfig(block_size=50, seed=seed, **config),
    ).to_row()


def _e1(skew, system) -> Row:
    workload = KvWorkload(n_keys=5000, theta=skew, read_fraction=0.2,
                          rmw_fraction=0.7, seed=11)
    return _architecture(system, workload, seed=21)


def _e2(skew, system) -> Row:
    # Mixed readers and writers: the asymmetric conflicts reordering can
    # actually fix (pure RMW cycles are unfixable by any order).
    workload = KvWorkload(n_keys=2000, theta=skew, read_fraction=0.45,
                          rmw_fraction=0.3, seed=13)
    return _architecture(system, workload, seed=23)


_DECISIONS = 20


def _e3a(size, protocol) -> Row:
    cls, byzantine = PROTOCOLS[protocol]
    n = 3 if not byzantine and size == 4 else size
    cluster = ConsensusCluster(cls, n=n, byzantine=byzantine, seed=31)
    for i in range(_DECISIONS):
        cluster.submit(f"{protocol}-{n}-{i}")
    return {
        "n": n, "fault_model": "byzantine" if byzantine else "crash",
        "decided": cluster.run_until_decided(_DECISIONS, timeout=120),
        "agreement": cluster.agreement_holds(),
        "quorum": cluster.config.quorum,
        "msgs_per_decision": round(cluster.message_count() / _DECISIONS, 1),
    }


def _e3b(protocol) -> Row:
    cls, byzantine = PROTOCOLS[protocol]
    cluster = ConsensusCluster(cls, n=4 if byzantine else 3,
                               byzantine=byzantine, seed=33)
    leader, other = cluster.config.replica_ids[:2]
    cluster.replicas[leader].crash()
    cluster.submit("recovery-probe", via=other)
    return {"recovered": cluster.run_until_decided(1, timeout=120)}


def _supply_chain(internal_fraction, seed, n_txs):
    workload = SupplyChainWorkload(seed=seed, internal_fraction=internal_fraction)
    return workload, workload.setup_transactions() + workload.generate(n_txs)


def _e4a(cross_fraction, system) -> Row:
    workload, txs = _supply_chain(1.0 - cross_fraction, seed=41, n_txs=150)
    if system == "caper":
        caper = CaperSystem(workload.enterprises, supply_chain_registry(),
                            CaperConfig(seed=42))
        result = _run(caper, txs)
        return {"global_consensus": int(result.extra["global_decisions"]),
                "mean_latency": round(result.latencies.mean(), 4),
                "leaks": len(caper.leakage_report())}
    channels = MultiChannelFabric({e: {e} for e in workload.enterprises},
                                  supply_chain_registry(), ChannelConfig(seed=42))
    for tx in txs:
        internal = tx.tx_type is TxType.INTERNAL
        channels.submit(tx, [tx.submitter] if internal else sorted(tx.involved))
    result = channels.run()
    return {"global_consensus": int(result.extra.get("channels.2pc_prepares", 0)
                                    + result.extra.get("channels.cross_commits", 0)),
            "mean_latency": round(result.latencies.mean(), 4)}


def _e4b(peer) -> Row:
    channel = PrivateDataChannel({"a", "b", "c", "d"})
    channel.define_collection("ab", {"a", "b"})
    for i in range(50):
        channel.put_private("ab", "a", f"k{i}", i)
    values, hashes = channel.bytes_stored_by(peer)
    return {"private_values": values, "ledger_hashes": hashes}


@dataclass(frozen=True)
class CountingGroup(SchnorrGroup):
    """A :class:`SchnorrGroup` that counts its modular exponentiations,
    the unit every proof and ring signature pays: crypto cost as a count
    that repeats exactly, where milliseconds moved by up to 8 % a run."""

    exps: list[int] = field(default_factory=lambda: [0], compare=False,
                            repr=False)

    @classmethod
    def simulation(cls) -> "CountingGroup":
        group = simulation_group()
        return cls(group.p, group.q, group.g)

    def exp(self, base: int, exponent: int) -> int:
        self.exps[0] += 1
        return super().exp(base, exponent)

    def count(self, fn: Callable[[], Any]) -> tuple[Any, int]:
        """``fn()`` and the exponentiations it made."""
        before = self.exps[0]
        result = fn()
        return result, self.exps[0] - before


def _e5a(range_bits) -> Row:
    group = CountingGroup.simulation()
    params = PedersenParams.create(group)
    r = params.random_blinding()
    value = (1 << range_bits) - 1
    commitment = params.commit(value, r)
    proof = RangeProof.prove(params, value, r, bits=range_bits, context="e5")
    verified, verify_exps = group.count(
        lambda: proof.verify(params, commitment, "e5"))
    return {"verify_exps": verify_exps, "verified": verified}


_PRIVATE_OPS = 40


def _e5b(system) -> Row:
    if system == "quorum-zkp":
        quorum = QuorumSystem(QuorumConfig(seed=51, range_bits=8))
        alice = PrivateWallet("alice", quorum.params)
        bob = PrivateWallet("bob", quorum.params)
        # The balance must fit the 8-bit range proofs on new balances.
        for wallet, account, balance in ((alice, "acc:alice", 250),
                                         (bob, "acc:bob", 0)):
            quorum.register_account(account, wallet.open_account(account, balance),
                                    wallet.public_key)
        for _ in range(_PRIVATE_OPS):
            transfer, amount, blinding = alice.build_transfer(
                "acc:alice", "acc:bob", 3, bits=8)
            bob.receive("acc:bob", amount, blinding)
            quorum.submit_private(transfer)
        result, authority = quorum.run(), "no"
    else:
        tokens = TokenAuthority()
        workload = CrowdworkWorkload(workers=20, platforms=3, seed=51)
        separ = SeparSystem(workload.platform_ids, tokens, SeparConfig(seed=51))
        wallets = {w: tokens.issue(w, 0, 40) for w in workload.worker_ids}
        submitted = 0
        while submitted < _PRIVATE_OPS:
            claim = workload.next_claim(0)
            wallet = wallets[claim.worker]
            if len(wallet) >= claim.hours:
                spent = [wallet.pop() for _ in range(claim.hours)]
                separ.submit(SeparSystem.tokenize(claim, spent))
                submitted += 1
        result, authority = separ.run(), "yes"
    return {"throughput_tps": round(result.throughput, 1),
            "mean_latency": round(result.latencies.mean(), 4),
            "trusted_authority": authority}


def _sharded(system, workload, txs, **config) -> Row:
    """SmallBank ``workload`` over one sharded design, a cluster per
    shard."""
    def shard_of_key(key):
        return workload.shard_of(key.split(":")[1])

    config_cls = SaguaroConfig if system == "saguaro" else ShardedConfig
    result = _run(
        SHARDED_SYSTEMS[system](smallbank_registry(), shard_of_key,
                                config_cls(n_clusters=workload.n_shards, **config)),
        workload.setup_transactions() + workload.generate(txs),
    )
    return {"committed": result.committed,
            "throughput_tps": round(result.throughput, 1),
            "intra_latency": round(result.extra["intra_mean_latency"], 4),
            "cross_latency": round(result.extra["cross_mean_latency"], 4)}


def _saturated(system, clusters, cross_fraction, seed) -> Row:
    # Saturating arrivals: per-shard execution (1 ms/tx) must be the
    # bottleneck for scale-out to show.
    workload = SmallBankWorkload(n_customers=400, n_shards=clusters,
                                 cross_shard_fraction=cross_fraction, seed=seed)
    return _sharded(system, workload, 200, seed=seed, arrival_rate=20_000.0)


_POPULATION = 2000
_BYZANTINE_SHARE = 0.2
#: Byzantine resilience without and with trusted hardware.
_RESILIENCE = {"plain": 1 / 3, "trusted_hw": 1 / 2}


def _e7a(committee_size) -> Row:
    byzantine = int(_POPULATION * _BYZANTINE_SHARE)
    return {f"p_fail_{label}": committee_failure_probability(
                _POPULATION, byzantine, committee_size, resilience=resilience)
            for label, resilience in _RESILIENCE.items()}


def _e7b(epsilon_exp) -> Row:
    return {f"min_size_{label}": min_committee_size(
                _POPULATION, _BYZANTINE_SHARE, epsilon=2**-epsilon_exp,
                resilience=resilience)
            for label, resilience in _RESILIENCE.items()}


def _e7c(committee_size) -> Row:
    ids = [f"r{i}" for i in range(committee_size)]
    row = {}
    for label, trusted in (("plain", False), ("trusted_hw", True)):
        config = ClusterConfig(replica_ids=ids, byzantine=True,
                               trusted_hardware=trusted)
        row |= {f"f_{label}": config.f, f"quorum_{label}": config.quorum}
    return row


_STAKE = {"r0": 40, "r1": 30, "r2": 20, "r3": 5, "r4": 3, "r5": 2}


def _e8a(crashed) -> Row:
    down = crashed.split(",") if crashed else []
    cluster = ConsensusCluster(TendermintReplica, n=6, seed=81, weights=_STAKE)
    for rid in down:
        cluster.replicas[rid].crash()
    alive = next(r for r in cluster.config.replica_ids if r not in down)
    for i in range(3):
        cluster.submit(f"stake-{'-'.join(down) or 'none'}-{i}", via=alive)
    return {"live": cluster.run_until_decided(3, timeout=20)}


def _e8b(validator) -> Row:
    slots = Counter(proposer_schedule(sorted(_STAKE), _STAKE))
    return {"proposer_share": round(slots[validator] / slots.total(), 3),
            "stake_share": round(_STAKE[validator] / sum(_STAKE.values()), 3)}


def _e9(internal_fraction) -> Row:
    workload, txs = _supply_chain(internal_fraction, seed=91, n_txs=120)
    caper = CaperSystem(workload.enterprises, supply_chain_registry(),
                        CaperConfig(seed=91))
    result = _run(caper, txs)
    latencies: dict[bool, list[float]] = {True: [], False: []}
    for tx in txs:
        record = caper.record(tx.tx_id)
        if record.committed:
            latencies[tx.tx_type is TxType.INTERNAL].append(record.latency)
    return {"global_decisions": int(result.extra["global_decisions"]),
            "internal_latency": _mean(latencies[True]),
            "cross_latency": _mean(latencies[False]),
            "leaks": len(caper.leakage_report())}


def _e10() -> Row:
    membership = MembershipService()
    for i in range(5):
        membership.register(f"node{i}")
    system = OxSystem(SystemConfig(orderers=5, protocol="pbft", block_size=20,
                                   seed=101))
    result = _run(system, [Transaction.create("kv_set", (f"key{i}", i))
                           for i in range(100)])
    # Rebuild each replica's ledger from its decided block sequence: the
    # replication Figure 1 depicts.
    ledgers = {}
    for rid, orderer in system.cluster.replicas.items():
        ledger = ledgers[rid] = Blockchain()
        for payload in orderer.decided:
            ledger.append(ledger.next_block(
                [system._tx_by_id[tx_id] for tx_id in payload]))
        ledger.verify_chain()
    return {
        "members": sum(membership.is_member(f"node{rid[1:]}") for rid in ledgers),
        "identical_ledgers": sum(ledger.same_ledger_as(ledgers["r0"])
                                 for ledger in ledgers.values()),
        "committed": result.committed,
    }


_COLLABORATIONS = 20


def _e11a(approach) -> Row:
    if approach == "swap":
        sim = Simulation(seed=111)
        chain_a, chain_b = AssetChain("enterpriseA", sim), AssetChain("enterpriseB", sim)
        chain_a.deposit("alice", 10_000)
        chain_b.deposit("bob", 10_000)

        def swap():
            return AtomicSwap(chain_a, chain_b, "alice", "bob", 10, 8, delta=1.0)

        outcomes = [swap().execute() for _ in range(_COLLABORATIONS)]
        failed_at = sim.now
        swap().execute(bob_cooperates=False)
        return {"completed": sum(o.completed for o in outcomes),
                "onchain_txs_per_collab": sum(o.on_chain_txs for o in outcomes)
                / _COLLABORATIONS,
                "failure_unwind_s": sim.now - failed_at,
                "global_decisions": 0}
    enterprises = ["enterpriseA", "enterpriseB"]
    funding = [Transaction.create(
        "fund", (e, 10_000), submitter=e, tx_type=TxType.INTERNAL, involved={e},
        declared_ops=(Operation(OpType.READ_WRITE, balance_key(e)),),
    ) for e in enterprises]
    payments = [Transaction.create(
        "pay", ("enterpriseA", "enterpriseB", 10), submitter="enterpriseA",
        tx_type=TxType.CROSS_ENTERPRISE, involved=set(enterprises),
        declared_ops=tuple(Operation(OpType.READ_WRITE, balance_key(e))
                           for e in enterprises),
    ) for _ in range(_COLLABORATIONS)]
    result = _run(CaperSystem(enterprises, supply_chain_registry(),
                              CaperConfig(seed=112)), funding + payments)
    return {"completed": result.committed - len(funding),
            "onchain_txs_per_collab": 1.0, "failure_unwind_s": 0.0,
            "global_decisions": int(result.extra["global_decisions"])}


def _e11b(byzantine, crash) -> Row:
    return {"hybrid_nodes": hybrid_cluster_size(byzantine, crash),
            "all_byzantine_nodes": pure_byzantine_size(byzantine + crash)}


def _fastfabric_speedup(verify_cost) -> Measure:
    return lambda rows: (
        pick(rows, "throughput_tps", verify_cost=verify_cost, system="fastfabric")
        / pick(rows, "throughput_tps", verify_cost=verify_cost, system="xov"))


def _e12c() -> Row:
    registry = standard_registry()
    rng = random.Random(17)
    greedy = exact = 0
    blocks = 40
    for _ in range(blocks):
        store = StateStore()
        txs = []
        for _ in range(10):
            key = f"hot{rng.randrange(3)}"
            if rng.random() < 0.5:
                op, contract = Operation(OpType.READ_WRITE, key), "increment"
            else:
                op, contract = Operation(OpType.READ, key), "kv_get"
            txs.append(Transaction.create(contract, (key,), declared_ops=(op,)))
        endorsed = [endorse(tx, store.snapshot(), registry) for tx in txs]
        greedy += len(reorder_fabricpp(endorsed).aborted)
        sharp = reorder_fabricsharp(endorsed, store)
        exact += len(sharp.aborted) + len(sharp.early_aborted)
    return {"greedy_aborts_per_block": round(greedy / blocks, 2),
            "exact_aborts_per_block": round(exact / blocks, 2)}


def _e12d(wan_latency) -> Row:
    workload = SmallBankWorkload(n_customers=200, n_shards=4,
                                 cross_shard_fraction=0.4, seed=7)
    row = _sharded("sharper", workload, 150, seed=18, wan_latency=wan_latency)
    row["cross_penalty_x"] = round(
        row["cross_latency"] / max(row["intra_latency"], 1e-9), 1)
    return row


_ORGS = ("acme", "globex", "initech")
_POLICIES = {"any-of-3": any_of(*_ORGS), "majority-of-3": majority_of(*_ORGS),
             "all-of-3": all_of(*_ORGS)}


def _e13a(policy, liar) -> Row:
    group = EndorsingPeerGroup(standard_registry(), MembershipService(), _ORGS)
    if liar != "-":
        group.faulty_orgs.add(liar)
    system = XovSystem(SystemConfig(block_size=40, seed=131),
                       peer_group=group, policy=_POLICIES[policy])
    result = _run(system, KvWorkload(n_keys=5000, theta=0.0, seed=13).generate(150))
    return {"committed": result.committed,
            "mismatch_aborts": int(result.extra.get("abort.endorsement_mismatch", 0))}


def _e13b(internal_fraction, executors) -> Row:
    split = {"per_enterprise": True, "executors_per_enterprise": 1,
             "cross_enterprise_latency": 0.005}
    system = OxiiSystem(SystemConfig(block_size=40, seed=132, executors=4),
                        registry=supply_chain_registry(),
                        **(split if executors == "per-enterprise" else {}))
    _, txs = _supply_chain(internal_fraction, seed=14, n_txs=150)
    return {"throughput_tps": round(_run(system, txs).throughput, 1)}


def _pool_gap(internal_fraction) -> Measure:
    def gap(rows):
        shared, split = (pick(rows, "throughput_tps", executors=executors,
                              internal_fraction=internal_fraction)
                         for executors in ("shared-pool", "per-enterprise"))
        return round(shared - split, 1)

    return gap


def _shielded_pool(ring_size, group=None):
    pool = ShieldedPool(group=group, ring_size=ring_size)
    owners = []
    for _ in range(ring_size + 4):
        secret, public = pool.keygen()
        pool.deposit(public)
        owners.append(secret)
    return pool, owners, pool.keygen()[1]


def _e14a(ring_size) -> Row:
    group = CountingGroup.simulation()
    pool, owners, receiver = _shielded_pool(ring_size, group)
    spend = pool.build_spend(0, owners[0], receiver)
    verdict, verify_exps = group.count(lambda: pool.verify_spend(spend))
    return {"verify_exps": verify_exps, "verdict": verdict}


def _e14b(ring_size) -> Row:
    pool, owners, receiver = _shielded_pool(ring_size)
    pool.apply_spend(pool.build_spend(1, owners[1], receiver))
    return {"second_spend": pool.verify_spend(pool.build_spend(1, owners[1], receiver))}


def _e16(case) -> Row:
    row = run_case(case)
    row["beyond_f"] = row["regime"] == "crash" and row["intensity"] > row["crash_tolerance"]
    return row


#: Protocols whose recovery paths the ghost-timer bug wedges (the bug
#: needs a replica that crashes, recovers, and then trusts a timer).
_GHOST_DETECTORS = ("pbft", "tendermint", "ibft")


def _e17(campaign, protocol) -> Row:
    flags = () if campaign == "clean" else (campaign,)  # a FLAGS name
    report = run_fuzz(FuzzConfig(
        scenario=ScenarioSpec(protocol=protocol, n=4, txs=4, seed=0, flags=flags),
        runs=15 if campaign == "clean" else 12, seed=7,
    ))
    return {"violations": report.violations,
            "shrunk_sizes": [f["shrunk_faults"] for f in report.failures]}


def _e18(state_keys, system) -> Row:
    architecture = SYSTEMS[system](SystemConfig(block_size=50, seed=21))
    for i in range(state_keys + 1):
        architecture.store.put(f"k{i}", 0, Version(0, 0))
    architecture.store.snapshot()  # seal the preload: count the run's work
    txs = KvWorkload(n_keys=state_keys, theta=0.6, read_fraction=0.2,
                     rmw_fraction=0.7, seed=11).generate(300)
    for tx in txs:
        architecture.submit(tx)
    reset_hotpath_counters()
    result = architecture.run()
    counters = hotpath_counters()
    return {"committed": result.committed,
            "snapshots": counters["store.snapshots_taken"],
            "sig_verifies": int(result.extra["exec.sig_verified"]),
            "merkle_nodes": counters["merkle.nodes_hashed"]}


def _e19a(system, depth) -> Row:
    txs = KvWorkload(n_keys=400, theta=1.1, read_fraction=0.2,
                     rmw_fraction=0.6, seed=31).generate(240)
    architecture = SYSTEMS[system](SystemConfig(block_size=40, seed=29,
                                                pipeline_depth=depth))
    result = _run(architecture, txs)
    committed = architecture.committed_tx_ids()
    return {"throughput_tps": result.to_row()["throughput_tps"],
            # By submit position: tx ids differ from point to point.
            "commit_set": tuple(i for i, tx in enumerate(txs)
                                if tx.tx_id in committed)}


def _e19b(skew, system) -> Row:
    txs = KvWorkload(n_keys=60, theta=skew, read_fraction=0.2,
                     rmw_fraction=0.7, seed=17).generate(240)
    result = run_architecture(system, txs, SystemConfig(block_size=40, seed=19))
    return {"mean_latency": result.to_row()["mean_latency"],
            "exec_seconds": round(result.extra.get("exec.parallel_seconds", 0.0), 4)}


def _oxii_advantage(skew) -> Measure:
    return lambda rows: round(
        pick(rows, "mean_latency", skew=skew, system="ox")
        / pick(rows, "mean_latency", skew=skew, system="oxii"), 2)


def _e20(workers) -> Row:
    txs = KvWorkload(n_keys=1600, theta=0.2, read_fraction=0.2,
                     rmw_fraction=0.6, seed=71).generate(400)
    block = Block.create(height=1, prev_hash=GENESIS_PREV_HASH, transactions=txs)
    with ParallelExecutor(standard_registry(), StateStore(), workers) as executor:
        report = executor.execute_block(block)
    return {"makespan_s": round(report.modelled_parallel_seconds, 4),
            "waves": report.n_waves, "committed": report.committed,
            "digest": report.state_digest, "backend": report.backend,
            "oracle_matches": report.oracle_matches,
            "fallback_waves": report.fallback_waves}


def _commit(ledger, chain) -> str:
    """Every block of ``chain`` through the durable commit path; the
    last root."""
    registry = standard_registry()
    for height in range(1, chain.height + 1):
        root = ledger.apply_block(chain.block(height), registry)
    return root


def _e21(policy, interval) -> Row:
    """Commit one chain, shut down cleanly, crash, restart."""
    chain = build_canonical_chain(txs=30, seed=21)
    backend = MemoryBackend()
    ledger = DurableLedger(backend, policy=policy, snapshot_interval=interval)
    fsyncs = STORAGE_COUNTERS["fsyncs"]
    root = _commit(ledger, chain)
    fsyncs = STORAGE_COUNTERS["fsyncs"] - fsyncs
    ledger.flush()
    backend.simulate_crash()
    restarted = DurableLedger(backend, policy=policy, snapshot_interval=interval)
    tail = restarted.tail_record_count()
    recovered = restarted.recover(standard_registry)
    return {"fsyncs": fsyncs, "blocks": chain.height,
            "snapshot_height": recovered.snapshot_height, "wal_tail": tail,
            "replayed": recovered.replayed,
            "whole_chain": recovered.tail.tip_hash() == chain.tip_hash(),
            "root": state_root(recovered.store), "oracle_root": root}


def _e22(system, offered) -> Row:
    workload = OpenLoopWorkload(OpenLoopConfig(
        clients=200_000, invalid_fraction=0.01, seed=11,
        phases=ramp_steady_burst(offered, steady=1.0),
    ))
    report = GatewayRun(
        system, workload,
        gateway_config=GatewayConfig(rate=100.0, burst=10.0, queue_capacity=300,
                                     max_in_flight=600, batch_size=50),
        system_config=SystemConfig(block_size=50, seed=11,
                                   max_time=workload.config.duration + 60.0),
    ).run()
    return report.to_row()


def _run_set(backend, keys: int, seed: int) -> list[dict]:
    """Four runs, as a life of spills leaves them: the first writes every
    key, each later one overwrites a sixteenth and tombstones a tenth of
    that."""
    rng = random.Random(seed)
    writer = RunWriter(backend, run_name(1), keys)
    for i in range(keys):
        writer.add(entry_to_row(f"key{i:07d}", f"v1-{i}", Version(1, i)))
    entries = [writer.finish()]
    for run_id in range(2, 5):
        touched = sorted(rng.sample(range(keys), keys // 16))
        writer = RunWriter(backend, run_name(run_id), len(touched))
        for index, i in enumerate(touched):
            tombstone = rng.random() < 0.1
            writer.add(entry_to_row(
                f"key{i:07d}", None if tombstone else f"v{run_id}-{i}",
                Version(-1, -1) if tombstone else Version(run_id, index)))
        entries.append(writer.finish())
    return entries


def _e23a(mix, cache_kb) -> Row:
    keys = 4000
    backend = MemoryBackend()
    entries = _run_set(backend, keys, seed=29)
    oracle = SnapshotStore(backend).load_state({"runs": entries})
    paged = PagedStateStore(backend, entries, BlockCache(cache_kb * 1024))
    sampler = ScalableZipfSampler(keys, 0.9 if mix == "zipf" else 0.0,
                                  random.Random(30))
    probes = [f"key{sampler.sample():07d}" for _ in range(800)]
    probes += [f"key{keys + i:07d}" for i in range(64)]  # absent keys
    reset_store_counters()
    mismatches = sum(paged.get_versioned(key) != oracle.get_versioned(key)
                     for key in probes)
    hits = STORE_COUNTERS["block_cache_hits"]
    return {"mismatches": mismatches, "same_len": len(paged) == len(oracle),
            "state_bytes": sum(entry["bytes"] for entry in entries),
            "hit_rate": round(hits / (hits + STORE_COUNTERS["block_cache_misses"]), 4),
            "evictions": STORE_COUNTERS["block_cache_evictions"],
            "resident_bytes": paged.cache.resident_bytes}


def _e23b(bulk_keys) -> Row:
    """Bulk state plus a chain on top, crashed, recovered both ways."""
    backend = MemoryBackend()
    ledger = DurableLedger(backend)
    for i in range(bulk_keys):
        ledger.store.put(f"bulk{i:07d}", f"b{i}", Version(0, i))
        ledger.spill.put(f"bulk{i:07d}", f"b{i}", Version(0, i))
    chain = build_canonical_chain(txs=30, seed=37)
    _commit(ledger, chain)
    ledger.flush()
    backend.simulate_crash()
    tail = DurableLedger(backend).tail_record_count()
    materialized = DurableLedger(backend).recover(standard_registry)
    reset_store_counters()
    paged = DurableLedger(backend, paged=True).recover(standard_registry)
    return {"wal_tail": tail, "replayed": paged.replayed,
            "agree": isinstance(paged.store, PagedStateStore)
            and paged.tail.tip_hash() == materialized.tail.tip_hash()
            and paged.tail.height == chain.height,
            "blocks_read": STORE_COUNTERS["block_cache_misses"],
            "snapshot_blocks": _blocks(
                backend, SnapshotStore(backend).read_manifest()["runs"])}


def _blocks(backend, entries) -> int:
    return sum(PagedRun(backend, entry).block_count() for entry in entries)


def _e24a(budget, compaction) -> Row:
    """One chain through the durable commit path under an overlay byte
    budget (0 = spill on the snapshot interval only)."""
    chain = build_canonical_chain(txs=400, seed=41)
    backend = MemoryBackend()
    ledger = DurableLedger(backend, snapshot_interval=40, compaction=compaction,
                           overlay_budget_bytes=budget)
    reset_hotpath_counters()
    _commit(ledger, chain)
    manifest = ledger.snapshots.read_manifest()
    oracle = ledger.snapshots.load_state(manifest)
    paged = PagedStateStore(backend, manifest["runs"], BlockCache(32 * 1024))
    return {"overlay_peak": STORE_COUNTERS["overlay_resident_peak"],
            "budget_spills": STORE_COUNTERS["budget_spills"],
            "compaction_bytes": STORE_COUNTERS["compaction_bytes_written"],
            "root": state_root(oracle),
            "runs_read_back": list(paged.scan()) == list(oracle.scan())
            and state_root(oracle) == manifest["state_root"]}


def _e24b(keys) -> Row:
    backend = MemoryBackend()
    entries = _run_set(backend, keys, seed=43)
    oracle = SnapshotStore(backend).load_state({"runs": entries})
    paged = PagedStateStore(backend, entries, BlockCache(64 * 1024))
    # Fixed 48-key ranges inside the smallest key space, plus an empty
    # and a one-key range.
    bounds = [(f"key{base:07d}", f"key{base + 48:07d}")
              for base in (0, 333, 951)]
    bounds += [("key9999998", "key9999999"), (bounds[0][0], bounds[0][0])]
    reset_store_counters()
    scans = [(list(paged.scan(start, end)), list(oracle.scan(start, end)))
             for start, end in bounds]
    return {"rows_scanned": sum(len(want) for _, want in scans),
            "mismatches": sum(got != want for got, want in scans),
            "range_decodes": STORE_COUNTERS["range_block_decodes"],
            "total_blocks": _blocks(backend, entries)}


# -- the registry -------------------------------------------------------------------------

_TOTAL = TXS_BEFORE + TXS_DURING


def _no_aborts(row: Row) -> bool:
    return row["abort_rate"] == 0.0


CLAIMS: tuple[Claim, ...] = (
    Claim(
        "E1", "2.3.3",
        '"the OX architecture suffers from low performance due to the '
        "sequential execution of all transactions whereas both OXII and XOV "
        "architectures are able to execute transactions in parallel. OXII "
        "also supports contentious workloads ... while XOV validates "
        'read-write conflicts last resulting in poor performance"',
        Sweep(grid(skew=(0.0, 0.6, 0.9, 1.1), system=("ox", "oxii", "xov")), _e1),
        (
            versus("OXII out-runs OX at skew 0", "throughput_tps",
                   dict(skew=0.0, system="oxii"), ">", dict(skew=0.0, system="ox")),
            every("OX never aborts", _no_aborts, system="ox"),
            every("OXII never aborts", _no_aborts, system="oxii"),
            versus("XOV aborts more at skew 1.1 than at 0", "abort_rate",
                   dict(skew=1.1, system="xov"), ">", dict(skew=0.0, system="xov")),
            compare("XOV aborts over 20% at skew 1.1",
                    at("abort_rate", skew=1.1, system="xov"), ">", 0.2),
            versus("XOV goodput falls below OX at skew 1.1", "throughput_tps",
                   dict(skew=1.1, system="xov"), "<", dict(skew=1.1, system="ox")),
        ),
    ),
    Claim(
        "E2", "2.3.3",
        'FastFabric "parallelizes the transaction validation pipeline to '
        "increase Fabric's throughput for conflict-free transaction "
        'workloads"; Fabric++ reorders "to reconcile the potential '
        'conflicts"; FabricSharp "eliminates unnecessary aborts"; XOX '
        're-executes "transactions that are invalidated due to read-write '
        'conflicts"',
        Sweep(grid(skew=(0.0, 0.8, 1.1),
                   system=("xov", "fastfabric", "fabricpp", "fabricsharp", "xox")),
              _e2),
        (
            versus("FastFabric out-runs XOV by over 1.5× at skew 0", "throughput_tps",
                   dict(skew=0.0, system="fastfabric"), ">",
                   dict(skew=0.0, system="xov"), factor=1.5),
            versus("Fabric++ aborts no more than XOV at skew 1.1", "abort_rate",
                   dict(skew=1.1, system="fabricpp"), "<=",
                   dict(skew=1.1, system="xov")),
            every_against("FabricSharp aborts ≤ Fabric++ + 0.02 at every skew",
                          lambda r, rows: r["abort_rate"] <= pick(
                              rows, "abort_rate", skew=r["skew"],
                              system="fabricpp") + 0.02,
                          system="fabricsharp"),
            compare("XOX aborts nothing at skew 1.1",
                    at("abort_rate", skew=1.1, system="xox"), "==", 0.0),
            versus("XOX pays latency over XOV at skew 1.1", "mean_latency",
                   dict(skew=1.1, system="xox"), ">=", dict(skew=1.1, system="xov")),
        ),
    ),
    Claim(
        "E3a", "2.2",
        "ordering runs crash (Paxos, Raft) or Byzantine (PBFT, HotStuff, "
        "Tendermint, IBFT) protocols; the fault model sets the quorum "
        "(majority vs 2f+1 of 3f+1) and the protocols differ in message "
        "complexity",
        Sweep(grid(size=(4, 7, 10), protocol=tuple(sorted(PROTOCOLS))), _e3a),
        (
            every(f"every run decides all {_DECISIONS} values in agreement",
                  lambda r: r["decided"] and r["agreement"]),
            versus("Raft's quorum is smaller than PBFT's at n=7", "quorum",
                   dict(size=7, protocol="raft"), "<", dict(size=7, protocol="pbft")),
            versus("PBFT sends more messages per decision than Raft at n=10",
                   "msgs_per_decision", dict(size=10, protocol="pbft"), ">",
                   dict(size=10, protocol="raft")),
            versus("PBFT's messages per decision grow from n=4 to n=10",
                   "msgs_per_decision", dict(size=10, protocol="pbft"), ">",
                   dict(size=4, protocol="pbft")),
        ),
    ),
    Claim(
        "E3b", "2.2",
        "every protocol replaces a crashed leader and keeps ordering",
        Sweep(grid(protocol=tuple(sorted(PROTOCOLS))), _e3b),
        (every("every protocol decides after its first leader crashes",
               lambda r: r["recovered"]),),
    ),
    Claim(
        "E4a", "2.3.1",
        'view-based techniques: "processing public transactions requires '
        'establishing consensus among all involved views"',
        Sweep(grid(cross_fraction=(0.1, 0.3, 0.5), system=("caper", "channels")),
              _e4a),
        (
            every("Caper leaks no confidential state", lambda r: r["leaks"] == 0,
                  system="caper"),
            versus("Caper's global consensus grows with the cross share",
                   "global_consensus", dict(cross_fraction=0.5, system="caper"),
                   ">", dict(cross_fraction=0.1, system="caper")),
            versus("channel 2PC work grows with the cross share",
                   "global_consensus", dict(cross_fraction=0.5, system="channels"),
                   ">", dict(cross_fraction=0.1, system="channels")),
            versus("channel latency grows with the cross share", "mean_latency",
                   dict(cross_fraction=0.5, system="channels"), ">",
                   dict(cross_fraction=0.1, system="channels")),
        ),
    ),
    Claim(
        "E4b", "2.3.1",
        'cryptographic techniques: "the overhead of maintaining data in the '
        "blockchain ledger and blockchain state of irrelevant enterprises\"",
        Sweep(grid(peer=("a", "b", "c", "d")), _e4b),
        (
            compare("collection member a stores all 50 private values",
                    at("private_values", peer="a"), "==", 50),
            compare("outsider c stores no private value",
                    at("private_values", peer="c"), "==", 0),
            compare("outsider c still stores all 50 hashes",
                    at("ledger_hashes", peer="c"), "==", 50),
        ),
    ),
    Claim(
        "E5a", "2.3.2",
        '"Zero-knowledge proofs, however, have considerable overhead"',
        Sweep(grid(range_bits=(4, 8, 16, 32)), _e5a),
        (
            every("every range proof verifies", lambda r: r["verified"]),
            ordered("verify exponentiations grow with the bit width",
                    each("verify_exps")),
            versus("a 32-bit proof costs over 4× a 4-bit one to verify",
                   "verify_exps", dict(range_bits=32), ">", dict(range_bits=4),
                   factor=4),
        ),
    ),
    Claim(
        "E5b", "2.3.2",
        '"Token-based techniques ... require a centralized authority ... '
        "There is, however, no need to replicate all transactions on every "
        'node resulting in improved performance"',
        Sweep(grid(system=("quorum-zkp", "separ-tokens")), _e5b),
        (
            versus("Separ tokens out-run Quorum ZKP transfers", "throughput_tps",
                   dict(system="separ-tokens"), ">", dict(system="quorum-zkp")),
            versus("Separ tokens commit sooner than Quorum ZKP transfers",
                   "mean_latency", dict(system="separ-tokens"), "<",
                   dict(system="quorum-zkp")),
            compare("Quorum ZKP needs no trusted authority",
                    at("trusted_authority", system="quorum-zkp"), "==", "no"),
            compare("Separ tokens need a trusted authority",
                    at("trusted_authority", system="separ-tokens"), "==", "yes"),
        ),
    ),
    Claim(
        "E6a", "2.3.4",
        'single-ledger ResilientDB replicates "the entire data on every '
        "cluster. However, exchanging messages between all clusters for "
        'every single transaction still results in high latency"',
        Sweep(grid(clusters=(2, 4, 8), system=tuple(SHARDED_SYSTEMS)),
              lambda clusters, system: _saturated(system, clusters, 0.1, 61)),
        (
            versus("SharPer scales from 2 to 8 clusters", "throughput_tps",
                   dict(clusters=8, system="sharper"), ">",
                   dict(clusters=2, system="sharper")),
            compare("ResilientDB has no cross-shard latency",
                    at("cross_latency", clusters=4, system="resilientdb"), "==", 0.0),
            versus("ResilientDB's every-tx latency exceeds SharPer's intra",
                   "intra_latency", dict(clusters=4, system="resilientdb"), ">",
                   dict(clusters=4, system="sharper")),
        ),
    ),
    Claim(
        "E6b", "2.3.4",
        'AHL needs "a large number of intra- and cross-cluster communication '
        'phases"; SharPer "processes transactions in less number of phases"; '
        'Saguaro\'s coordination gives "lower latency"',
        Sweep(grid(cross_fraction=(0.0, 0.2, 0.5), system=("sharper", "ahl", "saguaro")),
              lambda cross_fraction, system: _saturated(system, 4, cross_fraction, 62)),
        (
            every_against("cross-shard work costs every sharded design throughput",
                          lambda r, rows: r["throughput_tps"] < pick(
                              rows, "throughput_tps", cross_fraction=0.0,
                              system=r["system"]),
                          cross_fraction=0.5),
            versus("AHL's cross-shard latency exceeds Saguaro's", "cross_latency",
                   dict(cross_fraction=0.5, system="ahl"), ">",
                   dict(cross_fraction=0.5, system="saguaro")),
            versus("AHL's cross-shard latency exceeds SharPer's", "cross_latency",
                   dict(cross_fraction=0.5, system="ahl"), ">",
                   dict(cross_fraction=0.5, system="sharper")),
        ),
    ),
    Claim(
        "E7a", "2.3.4",
        '"To ensure safety with a high probability, each committee must '
        'include at least 80 nodes (instead of ~600 nodes in OmniLedger)"',
        Sweep(grid(committee_size=(20, 40, 60, 80, 120, 200)), _e7a),
        (ordered("failure probability falls with committee size "
                 "(N=2000, 20% Byzantine)", each("p_fail_plain"), operator.ge),),
    ),
    Claim(
        "E7b", "2.3.4",
        '"To decrease the number of required nodes within each committee, '
        'AHL employs trusted hardware"',
        Sweep(grid(epsilon_exp=(10, 16, 20)), _e7b),
        (
            every("trusted hardware shrinks the minimum committee",
                  lambda r: r["min_size_trusted_hw"] < r["min_size_plain"]),
            Shape("at 2^-20 the plain committee is tens of nodes (40–300)",
                  lambda rows: (
                      40 <= pick(rows, "min_size_plain", epsilon_exp=20) <= 300,
                      (pick(rows, "min_size_plain", epsilon_exp=20),),
                  )),
        ),
    ),
    Claim(
        "E7c", "2.3.4",
        'trusted hardware "restricts the malicious behavior of a node": '
        "2f+1 replicas instead of 3f+1",
        Sweep(grid(committee_size=(4, 7, 10)), _e7c),
        (
            every("trusted hardware tolerates at least as many faults",
                  lambda r: r["f_trusted_hw"] >= r["f_plain"]),
            every("trusted hardware needs no larger quorum",
                  lambda r: r["quorum_trusted_hw"] <= r["quorum_plain"]),
        ),
    ),
    Claim(
        "E8a", "2.3.3",
        '"one-third or two-thirds of the validators are defined based on the '
        'proportions of the total voting power not the number of validators"',
        Sweep(grid(crashed=("", "r3,r4,r5", "r0")), _e8a),
        (
            compare("Tendermint is live with nobody down",
                    at("live", crashed=""), "==", True),
            compare("three validators with 10% of stake down: live",
                    at("live", crashed="r3,r4,r5"), "==", True),
            compare("one validator with 40% of stake down: halted",
                    at("live", crashed="r0"), "==", False),
        ),
    ),
    Claim(
        "E8b", "2.3.3",
        '"the voting power of a validator corresponds to the number of its '
        'bounded coins"',
        Sweep(grid(validator=tuple(sorted(_STAKE))), _e8b),
        (every("proposer slots equal stake share for every validator",
               lambda r: r["proposer_share"] == r["stake_share"]),),
    ),
    Claim(
        "E9", "2.3.1",
        '"each enterprise orders and executes its internal transactions '
        "locally while ... ordering cross-enterprise transactions requires "
        'global agreement among all enterprises"',
        Sweep(grid(internal_fraction=(1.0, 0.8, 0.5, 0.2)), _e9),
        (
            compare("an all-internal workload runs no global consensus",
                    at("global_decisions", internal_fraction=1.0), "==", 0),
            versus("global consensus tracks the cross-enterprise share",
                   "global_decisions", dict(internal_fraction=0.2), ">",
                   dict(internal_fraction=0.8)),
            every("no confidential state leaks at any mix", lambda r: r["leaks"] == 0),
            compare("cross-enterprise commits are slower than internal ones",
                    at("cross_latency", internal_fraction=0.5), ">",
                    at("internal_latency", internal_fraction=0.5)),
        ),
    ),
    Claim(
        "E10", "Fig. 1",
        "five known, identified nodes each maintain a copy of the ledger: a "
        "consistent view of all transactions by all participants",
        Sweep(({},), _e10),
        (
            compare("all five replicas hold the same verified ledger",
                    at("identical_ledgers"), "==", 5),
            compare("all five nodes are enrolled members", at("members"), "==", 5),
            compare("all 100 transactions commit", at("committed"), "==", 100),
        ),
    ),
    Claim(
        "E11a", "2.3.1",
        'disjoint chains with "atomic cross-chain transactions or '
        'Interledger protocol ... Such techniques are often costly, complex"',
        Sweep(grid(approach=("swap", "caper")), _e11a),
        (
            compare(f"all {_COLLABORATIONS} cooperative swaps complete",
                    at("completed", approach="swap"), "==", _COLLABORATIONS),
            compare("a swap costs at least 4 on-chain transactions",
                    at("onchain_txs_per_collab", approach="swap"), ">=", 4),
            compare("the single chain costs one transaction",
                    at("onchain_txs_per_collab", approach="caper"), "==", 1),
            compare("a failed swap waits out its hashlock timeouts (s)",
                    at("failure_unwind_s", approach="swap"), ">", 0),
            compare("the single chain pays with global consensus instead",
                    at("global_decisions", approach="caper"), ">", 0),
        ),
    ),
    Claim(
        "E11b", "2.3.3",
        "hybrid protocols (SeeMoRe, UpRight) tolerate crash and Byzantine "
        "faults with fewer replicas than an all-Byzantine cluster",
        Sweep(tuple({"byzantine": b, "crash": c}
                    for b, c in ((1, 0), (1, 1), (1, 2), (2, 2))), _e11b),
        (every("every budget with crash faults saves replicas",
               lambda r: r["hybrid_nodes"] < r["all_byzantine_nodes"],
               crash=(1, 2)),),
    ),
    Claim(
        "E12a", "2.3.3",
        'ablation: FastFabric "parallelizes the transaction validation '
        'pipeline"; that pays only when validation costs something',
        Sweep(grid(verify_cost=(0.0, 0.0005, 0.002), system=("xov", "fastfabric")),
              lambda verify_cost, system: _architecture(
                  system, KvWorkload(n_keys=5000, theta=0.0, seed=5), seed=15,
                  txs=200, verify_cost=verify_cost)),
        (
            compare("with free crypto FastFabric is within 1.2× of XOV",
                    _fastfabric_speedup(0.0), "<", 1.2),
            ordered("FastFabric's speedup grows with verify cost (0, 0.5, 2 ms)",
                    lambda rows: [_fastfabric_speedup(cost)(rows)
                                  for cost in (0.0, 0.0005, 0.002)],
                    operator.lt),
        ),
    ),
    Claim(
        "E12b", "2.3.3",
        "ablation: OXII executes transactions in parallel on its executor pool",
        Sweep(grid(executors=(1, 2, 4, 8)),
              lambda executors: _architecture(
                  "oxii", KvWorkload(n_keys=5000, theta=0.0, seed=6), seed=16,
                  txs=200, executors=executors, arrival_rate=None)),
        (
            versus("2 executors out-run 1 by over 1.5×", "throughput_tps",
                   dict(executors=2), ">", dict(executors=1), factor=1.5),
            ordered("OXII throughput grows with 1, 2, 4, 8 executors",
                    each("throughput_tps")),
        ),
    ),
    Claim(
        "E12c", "2.3.3",
        'ablation: FabricSharp "eliminates unnecessary aborts" with an exact '
        "minimum feedback vertex set where Fabric++ breaks cycles greedily",
        Sweep(({},), _e12c),
        (compare("exact reordering aborts no more than greedy (per block)",
                 at("exact_aborts_per_block"), "<=",
                 at("greedy_aborts_per_block")),),
    ),
    Claim(
        "E12d", "2.3.4",
        "ablation: cross-shard transactions pay cross-cluster communication; "
        "the penalty is the WAN, not the protocol",
        Sweep(grid(wan_latency=(0.001, 0.05)), _e12d),
        (versus("SharPer's cross/intra penalty on a 50 ms WAN is over 3× the LAN one",
                "cross_penalty_x", dict(wan_latency=0.05), ">",
                dict(wan_latency=0.001), factor=3),),
    ),
    Claim(
        "E13a", "2.3.3",
        'XOV "supports non-deterministic execution of transactions by '
        'executing transactions first and detecting any inconsistencies '
        'early on"',
        Sweep(grid(policy=tuple(_POLICIES), liar=("-", "initech")), _e13a),
        (
            every("an honest network commits ≥ 148 of 150 under every policy",
                  lambda r: r["committed"] >= 148, liar="-"),
            compare("majority-of-3 outvotes one lying endorser (≥ 148)",
                    at("committed", policy="majority-of-3", liar="initech"),
                    ">=", 148),
            compare("any-of-3 outvotes one lying endorser (≥ 148)",
                    at("committed", policy="any-of-3", liar="initech"), ">=", 148),
            compare("all-of-3 commits nothing a liar endorsed",
                    at("committed", policy="all-of-3", liar="initech"), "==", 0),
            compare("all-of-3 aborts all 150 on the result mismatch",
                    at("mismatch_aborts", policy="all-of-3", liar="initech"),
                    "==", 150),
        ),
    ),
    Claim(
        "E13b", "2.3.1",
        '"each enterprise has its own set of executor (endorser) nodes"; '
        'ParBlockchain "is able to support multi-enterprise systems"',
        Sweep(grid(internal_fraction=(0.9, 0.5),
                   executors=("shared-pool", "per-enterprise")), _e13b),
        (compare("per-enterprise pools lose no less to the shared pool at 50% "
                 "cross than at 10% (30 tx/s slack)",
                 _pool_gap(0.5), ">=",
                 lambda rows: round(_pool_gap(0.9)(rows) - 30, 1)),),
    ),
    Claim(
        "E14a", "2.3.2",
        'nodes "verify the transaction without knowing the sender, receiver '
        'or transaction amount", at "considerable overhead"',
        Sweep(grid(ring_size=(2, 4, 8, 16, 32)), _e14a),
        (
            every("every ring signature verifies", lambda r: r["verdict"] is None),
            ordered("verify exponentiations grow with the ring size",
                    each("verify_exps")),
            versus("a 32-ring costs over 5× a 2-ring to verify", "verify_exps",
                   dict(ring_size=32), ">", dict(ring_size=2), factor=5),
        ),
    ),
    Claim(
        "E14b", "2.3.2",
        "the anonymous spend still cannot be spent twice",
        Sweep(grid(ring_size=(2, 8)), _e14b),
        (every("a second spend of one note is a double spend across rings",
               lambda r: r["second_spend"] == "double_spend"),),
    ),
    Claim(
        "E15", "2.3.3",
        "the Fabric-family papers evaluate on YCSB; read-only mixes cannot "
        "conflict, write-heavy ones abort most",
        Sweep(grid(profile=tuple(profiles()), system=("xov", "fabricsharp", "xox")),
              lambda profile, system: _architecture(
                  system, ycsb(profile, n_keys=300, theta=0.99, seed=151),
                  seed=151, txs=250)),
        (
            every("YCSB-C aborts nothing on any system", _no_aborts, profile="c"),
            versus("XOV aborts more on YCSB-A than on B", "abort_rate",
                   dict(profile="a", system="xov"), ">",
                   dict(profile="b", system="xov")),
            versus("FabricSharp aborts no more than XOV on YCSB-A", "abort_rate",
                   dict(profile="a", system="fabricsharp"), "<=",
                   dict(profile="a", system="xov")),
            every("XOX aborts nothing on A, B and F", _no_aborts, system="xox",
                  profile=("a", "b", "f")),
        ),
    ),
    Claim(
        "E16", "2.2",
        "crash protocols need 2f+1 replicas, Byzantine ones 3f+1; without a "
        "quorum a protocol may stall but never commits inconsistently",
        Sweep(grid(case=tuple(resilience_cases())), _e16),
        (
            every("no fault case commits inconsistently", lambda r: r["safety_ok"]),
            every("within f crashes every protocol recovers",
                  lambda r: r["recovered"], regime="crash", beyond_f=False),
            every(f"within f crashes all {_TOTAL} values commit",
                  lambda r: r["committed"] == _TOTAL, regime="crash",
                  beyond_f=False),
            every("beyond f crashes the protocol stalls",
                  lambda r: not r["recovered"], beyond_f=True),
            every(f"a stalled protocol keeps its {TXS_BEFORE} pre-fault values",
                  lambda r: r["committed"] == TXS_BEFORE, beyond_f=True),
            every("the watchdog names every stall",
                  lambda r: bool(r["stall_reason"]), beyond_f=True),
            every("at 3 of 7 crashed, CFT recovers and BFT does not",
                  lambda r: r["recovered"] == (r["fault_model"] == "crash"),
                  regime="crash", intensity=3.0),
            every("every protocol converges after a partition heals",
                  lambda r: r["recovered"], regime="partition"),
            every(f"after the heal all {_TOTAL} values commit",
                  lambda r: r["committed"] == _TOTAL, regime="partition"),
            every("a 4-of-7 majority keeps CFT deciding in the partition",
                  lambda r: r["decided_during_fault"] > 0, regime="partition",
                  fault_model="crash"),
            every("4 of 7 is below the BFT quorum: nothing decided in it",
                  lambda r: r["decided_during_fault"] == 0, regime="partition",
                  fault_model="byzantine"),
            every("every protocol recovers once a loss window closes",
                  lambda r: r["recovered"], regime="loss"),
            every(f"after a loss window all {_TOTAL} values commit",
                  lambda r: r["committed"] == _TOTAL, regime="loss"),
            every_against("message loss never raises throughput",
                          lambda r, rows: r["throughput"] <= pick(
                              rows, "throughput", case=f"{r['protocol']}/loss/0.0"),
                          regime="loss", intensity=LOSS_RATES[1:]),
        ),
    ),
    Claim(
        "E17", "2.2",
        "fault tolerance, tested as search: seeded fault schedules find no "
        "violation in the hardened protocols and still find a planted bug",
        Sweep(grid(campaign=("clean",), protocol=tuple(sorted(PROTOCOLS)))
              + grid(campaign=("ghost-timers",), protocol=_GHOST_DETECTORS), _e17),
        (
            every("15 clean fuzz runs find no violation in any protocol",
                  lambda r: r["violations"] == 0, campaign="clean"),
            every("12 runs find the planted ghost-timer bug",
                  lambda r: r["violations"] >= 1, campaign="ghost-timers"),
            every("each ghost-timer failure shrinks to at most 2 faults",
                  lambda r: all(size <= 2 for size in r["shrunk_sizes"]),
                  campaign="ghost-timers"),
        ),
    ),
    Claim(
        "E18", "2.3.3",
        "FastFabric does not redo work: a signature is verified once, and a "
        "block's work follows its write set, not the size of the state",
        Sweep(grid(system=("xov", "fastfabric"), state_keys=(1_000, 10_000)), _e18),
        (
            ordered("snapshots taken, 1k then 10k keys, XOV then FastFabric",
                    each("snapshots"), operator.eq),
            ordered("signature verifies, same order", each("sig_verifies"),
                    operator.eq),
            ordered("Merkle nodes hashed, same order", each("merkle_nodes"),
                    operator.eq),
            every("every run commits", lambda r: r["committed"] > 0),
        ),
    ),
    Claim(
        "E19a", "2.3.3",
        'FastFabric "parallelizes the transaction validation pipeline"; '
        "pipelining moves commit times, never the commit set",
        Sweep(grid(system=("xov", "fastfabric", "fabricpp", "fabricsharp"),
                   depth=(1, 2, 4)), _e19a),
        (
            every_against("the commit set is identical at pipeline depth 1, 2 and 4",
                          lambda r, rows: r["commit_set"] == pick(
                              rows, "commit_set", system=r["system"], depth=1)),
            every_against("modelled throughput never falls below depth 1's",
                          lambda r, rows: r["throughput_tps"] >= pick(
                              rows, "throughput_tps", system=r["system"], depth=1)),
            ordered("XOV throughput rises with depth 1, 2, 4",
                    each("throughput_tps", system="xov"), operator.lt),
        ),
    ),
    Claim(
        "E19b", "2.3.3",
        "OXII orders a dependency graph to execute in parallel; as contention "
        "chains the graph up, its advantage over OX's serial execution shrinks",
        Sweep(grid(skew=(0.0, 1.1), system=("ox", "oxii")), _e19b),
        (
            versus("OXII commits sooner than OX at skew 0", "mean_latency",
                   dict(skew=0.0, system="oxii"), "<", dict(skew=0.0, system="ox")),
            versus("OXII's latency grows from skew 0 to 1.1", "mean_latency",
                   dict(skew=1.1, system="oxii"), ">", dict(skew=0.0, system="oxii")),
            compare("OXII's latency advantage (OX / OXII) narrows from skew 0 to 1.1",
                    _oxii_advantage(1.1), "<", _oxii_advantage(0.0)),
            versus("OXII's scheduled makespan (s) grows as the graph serialises",
                   "exec_seconds", dict(skew=1.1, system="oxii"), ">",
                   dict(skew=0.0, system="oxii")),
        ),
    ),
    Claim(
        "E20", "2.3.3",
        "OXII executes a block's conflict-free transactions concurrently, "
        "to the same outcome as serial execution",
        Sweep(grid(workers=(1, 2, 4)), _e20),
        (
            ordered("modelled makespan (s) falls with 1, 2, 4 pool workers",
                    each("makespan_s"), operator.gt),
            every_against("one block_effects_digest at every worker count",
                          lambda r, rows: r["digest"] == pick(rows, "digest", workers=1)),
            every("the pool runs every wave, and the serial oracle agrees",
                  lambda r: r["oracle_matches"] and not r["fallback_waves"]
                  and r["backend"] == ("serial" if r["workers"] == 1 else "process-pool")),
        ),
    ),
    Claim(
        "E21", "2.3",
        "the ledger survives crashes: the fsync policy trades only the crash "
        "loss window, and a restart replays the log past the last snapshot",
        Sweep(grid(policy=("per-block", "group:4", "async"), interval=(3, 8, 24)),
              _e21),
        (
            ordered("fsyncs fall per-block > group:4 > async (snapshot every 8)",
                    each("fsyncs", interval=8), operator.gt),
            every("a clean shutdown recovers the whole chain at its last root",
                  lambda r: r["whole_chain"] and r["root"] == r["oracle_root"]),
            every_against("one recovered root for every policy and interval",
                          lambda r, rows: r["root"] == rows[0]["root"]),
            every("replayed == blocks − snapshot height == WAL tail records",
                  lambda r: r["replayed"] == r["blocks"] - r["snapshot_height"]
                  == r["wal_tail"]),
            ordered("replay grows with the snapshot interval 3, 8, 24 (per-block)",
                    each("replayed", policy="per-block"), operator.lt),
        ),
    ),
    Claim(
        "E22", "1",
        "clients of a permissioned network see end-to-end latency and goodput; "
        "past the saturation knee the front door sheds load and counts it",
        Sweep(grid(system=("ox", "fastfabric"), offered=(300, 2400, 4800)), _e22),
        (
            every("committed + aborted + shed + timeouts == arrivals",
                  lambda r: r["committed"] + r["aborted"] + r["shed"]
                  + r["timeouts"] == r["arrivals"]),
            every("below the knee goodput tracks offered load (≥ 0.7× at 300 tx/s)",
                  lambda r: r["goodput_tps"] >= 0.7 * r["offered"], offered=300),
            every("each system has a knee: goodput < 0.8× offered at 4800 tx/s",
                  lambda r: r["goodput_tps"] < 0.8 * r["offered"], offered=4800),
            every_against("goodput plateaus: 4800 tx/s ≤ 1.25× the best below",
                          lambda r, rows: r["goodput_tps"] <= 1.25 * max(
                              each("goodput_tps", system=r["system"],
                                   offered=(300, 2400))(rows)),
                          offered=4800),
            every("overload is counted: sheds + timeouts > 0 at 4800 tx/s",
                  lambda r: r["shed"] + r["timeouts"] > 0, offered=4800),
            every("bounded queues: p50 ≤ p99 ≤ 10 s",
                  lambda r: 0 <= r["p50_latency"] <= r["p99_latency"] <= 10.0),
        ),
    ),
    Claim(
        "E23a", "2.3",
        "the state database pages state larger than memory through a block "
        "cache, and a paged read returns what the materialized state returns",
        Sweep(grid(mix=("uniform", "zipf"), cache_kb=(8, 32, 128)), _e23a),
        (
            every("paged equals materialized on every probe, absent key and len",
                  lambda r: r["mismatches"] == 0 and r["same_len"]),
            ordered("uniform hit rate rises with 8, 32, 128 KB of cache",
                    each("hit_rate", mix="uniform"), operator.lt),
            ordered("Zipf hit rate rises with 8, 32, 128 KB of cache",
                    each("hit_rate", mix="zipf"), operator.lt),
            every("resident bytes stay within the cache budget",
                  lambda r: r["resident_bytes"] <= r["cache_kb"] * 1024),
            every("the state outgrows the 8 KB cache, which evicts",
                  lambda r: r["state_bytes"] > 8 * 1024 and r["evictions"] > 0,
                  cache_kb=8),
        ),
    ),
    Claim(
        "E23b", "2.3",
        "restart cost follows the log tail past the last snapshot, not the "
        "size of the state",
        Sweep(grid(bulk_keys=(1_000, 10_000)), _e23b),
        (
            every("paged recovery replays exactly the non-empty WAL tail",
                  lambda r: r["replayed"] == r["wal_tail"] > 0),
            every("paged and materialized recovery agree on the whole chain",
                  lambda r: r["agree"]),
            versus("snapshot blocks grow ≥ 5× from 1k to 10k bulk keys",
                   "snapshot_blocks", dict(bulk_keys=10_000), ">=",
                   dict(bulk_keys=1_000), factor=5),
            versus("recovery reads no more blocks at 10k bulk keys than at 1k",
                   "blocks_read", dict(bulk_keys=10_000), "<=",
                   dict(bulk_keys=1_000)),
        ),
    ),
    Claim(
        "E24a", "2.3",
        "a byte budget on the in-memory overlay bounds resident memory, and "
        "size-tiered compaction rewrites fewer bytes than full merges",
        Sweep(grid(budget=(0, 256, 1024), compaction=("full", "tiered")), _e24a),
        (
            every("overlay peak ≤ budget + 256 B", lambda r: r["overlay_peak"]
                  <= r["budget"] + 256, budget=(256, 1024)),
            every("the budget forces spills between snapshots",
                  lambda r: r["budget_spills"] > 0, budget=(256, 1024)),
            every("unbudgeted, the overlay outgrows 1024 B",
                  lambda r: r["overlay_peak"] > 1024, budget=0),
            every_against("tiered compaction writes fewer bytes than full at an "
                          "equal root",
                          lambda r, rows: r["root"] == pick(
                              rows, "root", budget=r["budget"], compaction="full")
                          and r["compaction_bytes"] < pick(
                              rows, "compaction_bytes", budget=r["budget"],
                              compaction="full"),
                          compaction="tiered"),
            every("each final run set reads back the same paged, materialized "
                  "and at the manifest's root", lambda r: r["runs_read_back"]),
        ),
    ),
    Claim(
        "E24b", "2.3",
        "a range scan decodes only the blocks that intersect the range",
        Sweep(grid(keys=(1_000, 10_000)), _e24b),
        (
            every("every range, empty and one-key range scans the same paged",
                  lambda r: r["mismatches"] == 0 and r["rows_scanned"] > 0),
            versus("total blocks grow ≥ 5× from 1k to 10k keys", "total_blocks",
                   dict(keys=10_000), ">=", dict(keys=1_000), factor=5),
            versus("range decodes stay flat: 10k keys within 1.5× of 1k",
                   "range_decodes", dict(keys=10_000), "<=", dict(keys=1_000),
                   factor=1.5),
        ),
    ),
)
