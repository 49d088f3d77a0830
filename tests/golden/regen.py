"""Golden digests: committed digests of seeded runs, one file per tier.

``consensus_digests.json`` pins the *virtual* behaviour of the ordering
tier across commits: every replica's decided log, every decide time,
the message and byte totals, the event count and the final clock.
``storage_digests.json`` pins the durable tier the same way, two rows
per (mode, seed): ``state`` covers what was committed and how many
bytes each sink wrote, ``checksums`` only the run files' content
checksums — so a change of on-disk encoding that moves no size, root or
byte total shows as ``checksums`` rows moving and ``state`` rows not.
``systems_digests.json`` pins every architecture in ``core.SYSTEMS``
over both ordering fault models: what each block committed, the final
state root, the result row with its ``abort.``/``exec.``/``order.``
counters, and the message, byte and clock totals. The same file pins
the families outside ``core.SYSTEMS`` on their own workloads: the four
sharded designs over cross-shard SmallBank, once at 30 % cross-shard
(``sharding/<name>``) and once contended (``sharding-contended/<name>``),
Caper and multi-channel Fabric over the supply chain (``caper``,
``channels``), SEPAR over crowdwork claims (``separ``), Quorum over
public and private transfers (``quorum``) and the HTLC atomic swap
(``atomicswap``). Those rows digest the result row and its ``extra``,
the network message and byte totals, the final clock, every state root
and every ledger as (contract, args); values drawn from ``secrets`` —
SEPAR pseudonyms and token serials, Quorum commitments and private tx
ids, HTLC contract ids, hashlocks and preimages — are left out, so
each row depends on its seed alone. A PR that only changes how fast
the code runs leaves every file untouched; a PR that moves a row must
say so.

Regenerate (from the repo root)::

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import json
import random
from functools import cache, partial
from pathlib import Path

from repro.common.types import Transaction, TxType
from repro.confidentiality import (
    AssetChain,
    AtomicSwap,
    CaperConfig,
    CaperSystem,
    ChannelConfig,
    MultiChannelFabric,
)
from repro.consensus import PROTOCOLS, ConsensusCluster
from repro.core import SYSTEMS, SystemConfig
from repro.crypto.digests import sha256_hex
from repro.gateway import GatewayConfig, GatewayRun
from repro.ledger.store import STORE_COUNTERS
from repro.sharding import SYSTEMS as SHARDED_SYSTEMS
from repro.sharding import SaguaroConfig, ShardedConfig
from repro.sim.core import Simulation
from repro.sim.faults import FaultPlan
from repro.sim.network import LanLatency
from repro.storage import DurableCluster, SnapshotStore, state_root
from repro.verifiability import (
    PrivateWallet,
    QuorumConfig,
    QuorumSystem,
    SeparConfig,
    SeparSystem,
    TokenAuthority,
)
from repro.workloads import (
    CrowdworkWorkload,
    KvWorkload,
    SmallBankWorkload,
    SupplyChainWorkload,
    smallbank_registry,
    supply_chain_registry,
)
from repro.workloads.openloop import (
    OpenLoopConfig,
    OpenLoopWorkload,
    ramp_steady_burst,
)

CONSENSUS_FILE = Path(__file__).with_name("consensus_digests.json")
STORAGE_FILE = Path(__file__).with_name("storage_digests.json")
SYSTEMS_FILE = Path(__file__).with_name("systems_digests.json")

SEEDS = (1, 11)
PLANS = ("retries", "chaos")
PROPOSALS = 24
HORIZON = 40.0


def run_consensus(protocol: str, seed: int, plan: str) -> ConsensusCluster:
    """One small ordering run in which every client retries.

    Each value is submitted through the first live replica, again 0.3 s
    later through ``r1`` (usually already decided by then) and a third
    time through ``r2`` long after the last decision. The ``chaos`` plan
    also crashes ``r0`` mid-stream and restarts it, so the leader role
    moves and ``r0`` learns what it missed through catch-up gossip.
    """
    replica_cls, byzantine = PROTOCOLS[protocol]
    cluster = ConsensusCluster(
        replica_cls, n=4 if byzantine else 3, byzantine=byzantine,
        seed=seed, latency=LanLatency(),
    )
    sim = cluster.sim
    if plan == "chaos":
        FaultPlan().crash(2.2, "r0").recover(6.0, "r0").apply(
            sim, cluster.network, cluster.replicas
        )
    for index in range(PROPOSALS):
        value = (f"p{index:03d}",)
        at = 2.0 + 0.02 * index
        sim.schedule_at(at, cluster.submit, value)
        sim.schedule_at(at + 0.3, cluster.submit, value, "r1")
        sim.schedule_at(HORIZON - 10.0, cluster.submit, value, "r2")
    sim.run(until=HORIZON)
    return cluster


def consensus_digest(cluster: ConsensusCluster) -> str:
    sim = cluster.sim
    return sha256_hex(repr((
        [(rid, r.decided) for rid, r in cluster.replicas.items()],
        sorted(cluster._decide_times.items()),
        sim.metrics.get("net.messages"),
        sim.metrics.get("net.bytes"),
        sim.events_processed,
        sim.now,
    )))


def gateway_fingerprint() -> str:
    workload = OpenLoopWorkload(OpenLoopConfig(
        clients=2_000, invalid_fraction=0.01,
        phases=ramp_steady_burst(300.0, steady=0.5), seed=11,
    ))
    run = GatewayRun(
        "xov", workload,
        gateway_config=GatewayConfig(batch_size=20),
        system_config=SystemConfig(
            orderers=4, protocol="pbft", block_size=20, seed=11,
            max_time=workload.config.duration + 30.0,
        ),
    )
    return run.run().fingerprint


def consensus_row(protocol: str, seed: int, plan: str) -> str:
    return consensus_digest(run_consensus(protocol, seed, plan))


#: Durable-cluster configurations, by row name.
DURABLE_MODES = {
    "materialized": {},
    "paged": {"paged": True},
    "paged-tiered-budget": {
        "paged": True, "compaction": "tiered", "overlay_budget_bytes": 256,
    },
}
WRITE_SINKS = ("spill_bytes_written", "compaction_bytes_written",
               "wal_bytes_written")


@cache
def durable_digests(mode: str, seed: int) -> dict[str, str]:
    """One small durable-cluster run: ``d0`` crashes mid-stream and
    recovers (in the paged modes it serves from run files from then on,
    collapsing onto every later spill), ``d1`` never stops.

    Transactions are digested as (contract, args), as in the systems
    rows. A durable tx id hashes (seed, index), not the process-global
    sequence number, so the compressed WAL byte total — like run rows,
    state roots and the other sinks — depends on the seed alone.
    """
    before = {sink: STORE_COUNTERS[sink] for sink in WRITE_SINKS}
    cluster = DurableCluster(n=2, txs=60, seed=seed, **DURABLE_MODES[mode])
    FaultPlan().crash(2.9, "d0").recover(3.9, "d0").apply(
        cluster.sim, cluster.network, cluster.nodes
    )
    caught_up = cluster.run(timeout=30.0, min_time=5.0)
    manifests = {
        node_id: SnapshotStore(backend).read_manifest() or {}
        for node_id, backend in sorted(cluster.backends.items())
    }
    state = (
        caught_up,
        cluster.durable_audit(),
        [(tx.contract, tx.args) for block in cluster.chain
         for tx in block.transactions],
        [
            (node_id, node.tail.height, state_root(node.store),
             node.recoveries, node.last_recovery and (
                 node.last_recovery.replayed, node.last_recovery.torn,
                 node.last_recovery.resync))
            for node_id, node in sorted(cluster.nodes.items())
        ],
        [
            (node_id, manifest.get("snapshot_height"),
             manifest.get("state_root"),
             [(run["rows"], run["bytes"], run["tier"])
              for run in manifest.get("runs", ())])
            for node_id, manifest in manifests.items()
        ],
        [STORE_COUNTERS[sink] - before[sink] for sink in WRITE_SINKS],
    )
    checksums = [
        (node_id, [run["checksum"] for run in manifest.get("runs", ())])
        for node_id, manifest in manifests.items()
    ]
    return {"state": sha256_hex(repr(state)),
            "checksums": sha256_hex(repr(checksums))}


def durable_row(mode: str, seed: int, part: str) -> str:
    return durable_digests(mode, seed)[part]


#: Ordering protocols the architecture rows run over: one crash, one
#: Byzantine fault model.
SYSTEM_PROTOCOLS = ("pbft", "raft")


def systems_row(system: str, protocol: str, seed: int) -> str:
    """One architecture over a small contended KV workload.

    Committed transactions are digested as (contract, args) per block,
    for the same reason as the durable rows: tx ids carry a
    process-global sequence number.
    """
    txs = KvWorkload(n_keys=24, theta=0.9, read_fraction=0.2,
                     rmw_fraction=0.6, seed=seed).generate(60)
    architecture = SYSTEMS[system](SystemConfig(
        protocol=protocol, block_size=10, seed=seed,
    ))
    for tx in txs:
        architecture.submit(tx)
    result = architecture.run()
    committed = architecture.committed_tx_ids()
    return sha256_hex(repr((
        [[(tx.contract, tx.args) for tx in block.transactions
          if tx.tx_id in committed] for block in architecture.ledger],
        state_root(architecture.store),
        result.to_row(),
        sorted(result.extra.items()),
        result.messages,
        result.bytes_sent,
        architecture.sim.now,
    )))


def _ledger(chain) -> list[tuple]:
    return [(tx.contract, tx.args) for tx in chain.all_transactions()]


def family_digest(system, result, stores, ledgers) -> str:
    """Digest of one run of a family outside ``core.SYSTEMS``.

    ``stores`` and ``ledgers`` map a name (shard, enterprise, channel)
    to a state store and to a list of (contract, args) pairs.
    """
    metrics = system.sim.metrics
    return sha256_hex(repr((
        result.to_row(),
        sorted(result.extra.items()),
        metrics.get("net.messages"),
        metrics.get("net.bytes"),
        system.sim.now,
        sorted((name, state_root(store)) for name, store in stores.items()),
        sorted(ledgers.items()),
    )))


#: SmallBank shapes of the sharded rows, by row-name prefix. The
#: contended shape (few customers, 70 % cross-shard, low balances) is
#: there for the cross-shard commit paths: each sharded-ledger design
#: commits some cross-shard txs and aborts others on a lock conflict
#: and on a business rule, at both seeds.
SHARDED_WORKLOADS = {
    "sharding": {"n_customers": 60, "cross_shard_fraction": 0.3},
    "sharding-contended": {"n_customers": 30, "cross_shard_fraction": 0.7,
                           "initial_balance": 40},
}


def sharded_row(shape: str, system: str, seed: int) -> str:
    """One sharded design over SmallBank: 3 clusters, 60 generated txs."""
    workload = SmallBankWorkload(n_shards=3, seed=seed,
                                 **SHARDED_WORKLOADS[shape])

    def shard_of_key(key: str) -> str:
        return workload.shard_of(key.split(":")[1])

    config_cls = SaguaroConfig if system == "saguaro" else ShardedConfig
    sharded = SHARDED_SYSTEMS[system](
        smallbank_registry(), shard_of_key,
        config_cls(n_clusters=3, seed=seed),
    )
    for tx in workload.setup_transactions() + workload.generate(60):
        sharded.submit(tx)
    result = sharded.run()
    stores = dict(sharded.stores)
    ledgers = {shard: _ledger(chain) for shard, chain in sharded.ledgers.items()}
    if system == "resilientdb":
        stores["global"] = sharded.global_store
        ledgers["global"] = _ledger(sharded.global_ledger)
    return family_digest(sharded, result, stores, ledgers)


def _supply_chain(seed: int) -> tuple[SupplyChainWorkload, list[Transaction]]:
    workload = SupplyChainWorkload(items=4, internal_fraction=0.5, seed=seed)
    return workload, workload.setup_transactions() + workload.generate(60)


def caper_row(seed: int) -> str:
    workload, txs = _supply_chain(seed)
    caper = CaperSystem(workload.enterprises, supply_chain_registry(),
                        CaperConfig(seed=seed))
    for tx in txs:
        caper.submit(tx)
    result = caper.run()
    ledgers = {
        enterprise: [(v.tx.contract, v.tx.args) for v in caper.view(enterprise)]
        for enterprise in caper.enterprises
    }
    return family_digest(caper, result, caper.stores, ledgers)


def channels_row(seed: int) -> str:
    workload, txs = _supply_chain(seed)
    fabric = MultiChannelFabric({e: {e} for e in workload.enterprises},
                                supply_chain_registry(), ChannelConfig(seed=seed))
    for tx in txs:
        internal = tx.tx_type is TxType.INTERNAL
        fabric.submit(tx, [tx.submitter] if internal else sorted(tx.involved))
    result = fabric.run()
    return family_digest(
        fabric, result,
        {name: channel.store for name, channel in fabric.channels.items()},
        {name: _ledger(channel.ledger)
         for name, channel in fabric.channels.items()},
    )


def separ_row(seed: int) -> str:
    """Crowdwork claims paid in tokens, plus one double-spend replay."""
    authority = TokenAuthority()
    workload = CrowdworkWorkload(workers=8, platforms=3, seed=seed)
    separ = SeparSystem(workload.platform_ids, authority, SeparConfig(seed=seed))
    wallets = {w: authority.issue(w, 0, 40) for w in workload.worker_ids}
    for _ in range(30):
        claim = workload.next_claim(0)
        wallet = wallets[claim.worker]
        if len(wallet) >= claim.hours:
            spent = [wallet.pop() for _ in range(claim.hours)]
            separ.submit(SeparSystem.tokenize(claim, spent))
            last = claim, spent
    separ.submit(SeparSystem.tokenize(*last))
    result = separ.run()
    claims = [(c.platform, c.task, c.hours, c.week)
              for c in separ.committed_claims]
    return family_digest(separ, result, {}, {"claims": claims})


def quorum_row(seed: int) -> str:
    """Public kv writes interleaved with private transfers; the last two
    transfers arrive out of order, so validation rejects the first."""
    quorum = QuorumSystem(QuorumConfig(seed=seed, range_bits=8))
    alice = PrivateWallet("alice", quorum.params)
    bob = PrivateWallet("bob", quorum.params)
    for wallet, account, balance in ((alice, "acc:alice", 200),
                                     (bob, "acc:bob", 0)):
        quorum.register_account(account, wallet.open_account(account, balance),
                                wallet.public_key)
    rng = random.Random(seed)
    for index in range(24):
        if index % 3:
            quorum.submit_public(Transaction.create(
                "kv_set", (f"k{rng.randrange(6)}", index)))
            continue
        transfer, amount, blinding = alice.build_transfer(
            "acc:alice", "acc:bob", rng.randrange(1, 20), bits=8)
        bob.receive("acc:bob", amount, blinding)
        quorum.submit_private(transfer)
    for transfer in reversed([alice.build_transfer("acc:alice", "acc:bob",
                                                   amount, bits=8)[0]
                              for amount in (3, 4)]):
        quorum.submit_private(transfer)
    result = quorum.run()
    ledger = [(tx.contract, () if tx.contract == "private_transfer" else tx.args)
              for tx in quorum.ledger.all_transactions()]
    return family_digest(quorum, result, {"public": quorum.store},
                         {"quorum": ledger})


def atomicswap_row(seed: int) -> str:
    """A completed swap, one Bob walks away from and one Alice walks
    away from, on two chains sharing one clock."""
    sim = Simulation(seed=seed)
    chain_a, chain_b = AssetChain("a", sim), AssetChain("b", sim)
    chain_a.deposit("alice", 100)
    chain_b.deposit("bob", 1_000)
    swaps, outcomes = [], []
    for bob_cooperates, alice_cooperates in ((True, True), (False, True),
                                             (True, False)):
        swap = AtomicSwap(chain_a, chain_b, "alice", "bob",
                          amount_a=10, amount_b=50, delta=2.0 + seed)
        swaps.append(swap)
        outcomes.append(swap.execute(bob_cooperates=bob_cooperates,
                                     alice_cooperates=alice_cooperates))
    hidden = {value for chain in (chain_a, chain_b) for value in chain.htlcs}
    hidden |= {value for swap in swaps for value in (swap.preimage,
                                                      swap.hashlock)}
    ledgers = {
        chain.name: [(tx.contract, tuple("?" if arg in hidden else arg
                                         for arg in tx.args))
                     for tx in chain.ledger.all_transactions()]
        for chain in (chain_a, chain_b)
    }
    return sha256_hex(repr((
        outcomes,
        sorted(ledgers.items()),
        [sorted(chain.balances.items()) for chain in (chain_a, chain_b)],
        [sorted((h.sender, h.receiver, h.amount, h.timeout_at, h.state)
                for h in chain.htlcs.values()) for chain in (chain_a, chain_b)],
        sim.now,
    )))


#: Families outside ``core.SYSTEMS``, by row-name prefix.
FAMILY_ROWS = {
    **{f"{shape}/{system}": partial(sharded_row, shape, system)
       for shape in SHARDED_WORKLOADS for system in SHARDED_SYSTEMS},
    "caper": caper_row,
    "channels": channels_row,
    "separ": separ_row,
    "quorum": quorum_row,
    "atomicswap": atomicswap_row,
}


#: Golden file -> {row name -> thunk computing that row's digest}.
FILES = {
    CONSENSUS_FILE: {
        **{
            f"{protocol}/seed{seed}/{plan}":
                partial(consensus_row, protocol, seed, plan)
            for protocol in PROTOCOLS for seed in SEEDS for plan in PLANS
        },
        "gateway/xov-pbft/seed11": gateway_fingerprint,
    },
    STORAGE_FILE: {
        f"durable/{mode}/seed{seed}/{part}":
            partial(durable_row, mode, seed, part)
        for mode in DURABLE_MODES for seed in SEEDS
        for part in ("state", "checksums")
    },
    SYSTEMS_FILE: {
        f"{system}/{protocol}/seed{seed}":
            partial(systems_row, system, protocol, seed)
        for system in SYSTEMS for protocol in SYSTEM_PROTOCOLS
        for seed in SEEDS
    } | {
        f"{family}/seed{seed}": partial(compute, seed)
        for family, compute in FAMILY_ROWS.items() for seed in SEEDS
    },
}
ROWS = {
    name: compute for rows in FILES.values() for name, compute in rows.items()
}


def load_golden() -> dict[str, str]:
    """Every committed row, over all golden files."""
    return {
        name: digest
        for path in FILES
        for name, digest in json.loads(path.read_text()).items()
    }


if __name__ == "__main__":
    for path, rows in FILES.items():
        table = {name: compute() for name, compute in rows.items()}
        path.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(table)} rows to {path}")
