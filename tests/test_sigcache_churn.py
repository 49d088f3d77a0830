"""SignatureCache under gateway churn: revocation-before-cache through
the admission pre-check path, and bounded LRU behaviour under eviction
pressure from tens of thousands of distinct signers."""

from repro.common.driver import TxRecord
from repro.common.types import Operation, OpType, Transaction
from repro.crypto.signatures import HmacSignatureScheme, MembershipService
from repro.gateway import Gateway, GatewayConfig
from repro.sim.core import Simulation


def make_tx(i: int, client: str) -> Transaction:
    return Transaction(
        tx_id=f"t{i:06d}",
        contract="kv_set",
        args=(f"k{i}", i),
        submitter=client,
        declared_ops=(Operation(OpType.WRITE, f"k{i}"),),
    )


def make_gateway(membership: MembershipService) -> Gateway:
    return Gateway(
        Simulation(seed=0),
        GatewayConfig(rate=1e6, burst=1e6, queue_capacity=100_000,
                      max_in_flight=100_000),
        sink=lambda batch: None,
        membership=membership,
    )


def test_revocation_beats_cached_verdict_on_the_precheck_path():
    """A cached True must never outlive enrollment: after revocation the
    gateway's pre-check rejects the exact (identity, message, signature)
    triple it previously admitted, without consulting the cache."""
    membership = MembershipService(scheme=HmacSignatureScheme())
    membership.register("alice")
    tx = make_tx(0, "alice")
    digest = tx.digest().encode()
    signature = membership.sign("alice", digest)

    gateway = make_gateway(membership)
    assert gateway.submit(TxRecord(tx), signature).admitted
    # The verdict is now cached: re-verifying the same triple is a hit.
    before = membership.cache_stats["hits"]
    assert membership.verify("alice", digest, signature)
    assert membership.cache_stats["hits"] == before + 1

    membership.revoke("alice")
    assert not membership.verify("alice", digest, signature)
    # The rejection came from the revocation check, not a cache lookup.
    assert membership.cache_stats["hits"] == before + 1

    tx2 = make_tx(1, "alice")
    stale = membership.sign("alice", tx2.digest().encode())
    decision = gateway.submit(TxRecord(tx2), stale)
    assert not decision.admitted
    assert decision.reason == "bad-signature"


def test_gateway_retries_hit_the_cache_not_the_scheme():
    """A retried submission re-presents the same triple; the second
    verification must be a cache hit (the FastFabric fast path)."""
    membership = MembershipService(scheme=HmacSignatureScheme())
    membership.register("bob")
    gateway = make_gateway(membership)
    tx = make_tx(0, "bob")
    signature = membership.sign("bob", tx.digest().encode())
    assert membership.cache_stats == {"hits": 0, "misses": 0}
    gateway.submit(TxRecord(tx), signature)
    assert membership.cache_stats["misses"] == 1
    # Same triple again (a client retransmit): pure cache hit.
    assert membership.verify("bob", tx.digest().encode(), signature)
    assert membership.cache_stats == {"hits": 1, "misses": 1}


def test_eviction_pressure_with_ten_thousand_distinct_signers():
    """Gateway churn over far more signers than the cache holds: the LRU
    stays at capacity, evicts deterministically (oldest first), and
    evicted verdicts simply re-verify — correctness never depends on
    residency."""
    capacity = 2048
    signers = 10_000
    membership = MembershipService(
        scheme=HmacSignatureScheme(), cache_size=capacity
    )
    gateway = make_gateway(membership)
    signatures = {}
    for i in range(signers):
        client = f"c{i}"
        membership.register(client)
        tx = make_tx(i, client)
        signatures[i] = (tx, membership.sign(client, tx.digest().encode()))
        assert gateway.submit(TxRecord(tx), signatures[i][1]).admitted
    assert len(membership._cache) == capacity
    assert membership.cache_stats["misses"] == signers
    assert membership.cache_stats["hits"] == 0

    # The most recent `capacity` triples are resident; older ones were
    # evicted and must re-verify (a miss), still succeeding.
    hits_before = membership.cache_stats["hits"]
    tx, sig = signatures[signers - 1]
    assert membership.verify(tx.submitter, tx.digest().encode(), sig)
    assert membership.cache_stats["hits"] == hits_before + 1

    old_tx, old_sig = signatures[0]
    misses_before = membership.cache_stats["misses"]
    assert membership.verify(
        old_tx.submitter, old_tx.digest().encode(), old_sig
    )
    assert membership.cache_stats["misses"] == misses_before + 1
    assert len(membership._cache) == capacity

    # Revocation still wins for a freshly re-cached verdict.
    membership.revoke("c0")
    assert not membership.verify(
        old_tx.submitter, old_tx.digest().encode(), old_sig
    )
