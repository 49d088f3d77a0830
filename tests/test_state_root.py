"""The incremental state root: an additive multiset hash the store keeps
current in O(write set), checked against a from-scratch fold over
``scan()`` — the oracle lives here, not in ``src/`` — across overlays,
snapshots, spills, collapses, rebases and crash-restarts; plus the
recovery audit it makes affordable in paged mode."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.storage.durable
from repro.common.errors import LedgerError
from repro.execution.contracts import standard_registry
from repro.execution.serial import execute_block_serially
from repro.ledger.store import (
    MISSING,
    STORE_COUNTERS,
    StateStore,
    Version,
    reset_store_counters,
)
from repro.storage import (
    DurableLedger,
    MemoryBackend,
    SnapshotStore,
    SpillBuffer,
    build_canonical_chain,
    state_root,
)
from repro.storage.paged import PagedStateStore
from repro.storage.snapshots import RunWriter


def fold_root(store) -> str:
    """The root from scratch: one pass over ``scan()``, no bookkeeping."""
    total = 0
    for key, entry in store.scan():
        leaf = (
            f"{key}|{entry.value!r}|{entry.version.height}|"
            f"{entry.version.tx_index}"
        )
        total += int.from_bytes(hashlib.sha256(leaf.encode()).digest(), "big")
    return f"{total % (1 << 256):064x}"


def rebuilt_root(model: dict) -> str:
    """Root of a plain store holding ``model``, written in reverse key
    order — a different write order and layer layout than any driver."""
    store = StateStore()
    for key in sorted(model, reverse=True):
        value, version = model[key]
        store.put(key, value, version)
    return state_root(store)


# -- the property ---------------------------------------------------------------

KEYS = [f"k{i}" for i in range(6)]

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(KEYS), st.integers(0, 3)),
        st.tuples(st.just("delete"), st.sampled_from(KEYS)),
        st.sampled_from(
            [("root",), ("snapshot",), ("spill",), ("compact",), ("crash",)]
        ),
    ),
    max_size=40,
)


class MemoryDriver:
    """A plain ``StateStore``; the disk operations do not apply."""

    def __init__(self) -> None:
        self.store = StateStore()

    def put(self, key, value, version) -> None:
        self.store.put(key, value, version)

    def delete(self, key) -> None:
        self.store.delete(key)

    def spill(self) -> None:
        pass

    compact = crash = spill


class PagedDriver:
    """A ``PagedStateStore`` over real run files, driven the way the
    durable commit path drives it: writes mirrored into a spill buffer,
    spill + ``collapse``, compaction + ``rebase``, and crash-restart as
    reopen + seed from the manifest's root + replay of the tail."""

    def __init__(self) -> None:
        self.backend = MemoryBackend()
        self.snapshots = SnapshotStore(self.backend, policy="tiered:2")
        self.manifest = {"runs": [], "next_run_id": 1}
        self.store = PagedStateStore(self.backend, [])
        self.buffer = SpillBuffer()
        self.tail: list[tuple] = []

    def put(self, key, value, version) -> None:
        self.store.put(key, value, version)
        self.buffer.put(key, value, version)
        self.tail.append((key, value, version))

    def delete(self, key) -> None:
        self.store.delete(key)
        self.buffer.delete(key)
        self.tail.append((key, None, None))

    def spill(self) -> None:
        if not self.tail:
            return
        # The recorded root comes from the oracle, so the store's dirty
        # set stays pending across the collapse.
        self.manifest = self.snapshots.spill(
            self.buffer, self.manifest, state_root=fold_root(self.store)
        )
        self.store.collapse(self.manifest["runs"])
        self.buffer, self.tail = SpillBuffer(), []

    def compact(self) -> None:
        self.manifest = self.snapshots.compact(self.manifest)
        self.store.rebase(self.manifest["runs"])

    def crash(self) -> None:
        self.store = PagedStateStore(self.backend, self.manifest["runs"])
        if "state_root" in self.manifest:
            self.store.seed_state_root(self.manifest["state_root"])
        tail, self.buffer, self.tail = self.tail, SpillBuffer(), []
        for key, value, version in tail:
            if version is None:
                self.delete(key)
            else:
                self.put(key, value, version)


@pytest.mark.parametrize("driver_type", [MemoryDriver, PagedDriver])
@given(ops=OPS)
@settings(max_examples=120, deadline=None)
def test_incremental_root_equals_fold_and_rebuilt_store(driver_type, ops):
    driver = driver_type()
    model: dict = {}
    for step, op in enumerate(ops, start=1):
        if op[0] == "put":
            version = Version(step, 0)
            driver.put(op[1], op[2], version)
            model[op[1]] = (op[2], version)
        elif op[0] == "delete":  # absent keys included
            driver.delete(op[1])
            model.pop(op[1], None)
        elif op[0] == "root":
            assert state_root(driver.store) == fold_root(driver.store)
        elif op[0] == "snapshot":
            driver.store.snapshot()
        else:
            getattr(driver, op[0])()
    root = state_root(driver.store)
    assert root == fold_root(driver.store)
    assert root == rebuilt_root(model)
    assert root == state_root(driver.store)  # asking again changes nothing


# -- the bookkeeping ------------------------------------------------------------


def test_dirty_map_keeps_the_entry_the_last_root_covered():
    store = StateStore()
    store.put("a", 1, Version(1, 0))
    store.put("b", 1, Version(1, 1))
    state_root(store)
    covered = store.get_versioned("a")
    store.put("a", 2, Version(2, 0))
    store.put("a", 3, Version(3, 0))
    store.delete("a")
    store.put("a", 4, Version(4, 0))
    store.put("c", 1, Version(4, 1))
    assert store._dirty == {"a": covered, "c": MISSING}
    assert state_root(store) == fold_root(store)
    assert store._dirty == {}


def test_a_store_never_asked_for_a_root_tracks_nothing():
    store = StateStore()
    store.put("a", 1, Version(1, 0))
    store.delete("a")
    assert store._dirty is None


def test_root_is_64_hex_chars_and_empty_store_is_zero():
    assert state_root(StateStore()) == "0" * 64
    store = StateStore()
    store.put("a", 1, Version(1, 0))
    root = state_root(store)
    assert len(root) == 64 and int(root, 16) > 0
    store.delete("a")
    assert state_root(store) == "0" * 64


@pytest.mark.parametrize("bad", [None, 7, "", "abc", "zz" * 32, "0" * 66])
def test_seeding_rejects_a_malformed_root(bad):
    with pytest.raises(LedgerError):
        StateStore().seed_state_root(bad)


# -- the commit path and recovery ------------------------------------------------


def paged_ledger(backend):
    return DurableLedger(
        backend, snapshot_interval=4, paged=True, compaction="tiered"
    )


def committed(backend, chain, upto):
    ledger = paged_ledger(backend)
    registry = standard_registry()
    for height in range(1, upto + 1):
        ledger.apply_block(chain.block(height), registry)
    ledger.flush()
    backend.simulate_crash()
    return ledger.store


def test_commits_on_a_seeded_paged_store_never_scan_the_state(monkeypatch):
    chain = build_canonical_chain(txs=120, seed=5, block_txs=4)
    backend = MemoryBackend()
    committed(backend, chain, upto=14)
    ledger = paged_ledger(backend)
    recovered = ledger.recover(standard_registry)
    store = recovered.store
    assert isinstance(store, PagedStateStore) and recovered.replayed == 2
    registry = standard_registry()
    reset_store_counters()
    writes = lookups_in_root = roots_taken = 0

    def counted_root(store):
        nonlocal lookups_in_root, roots_taken
        before = STORE_COUNTERS["paged_lookups"]
        root = state_root(store)
        lookups_in_root += STORE_COUNTERS["paged_lookups"] - before
        roots_taken += 1
        return root

    monkeypatch.setattr(repro.storage.durable, "state_root", counted_root)
    for height in range(15, chain.height + 1):
        block = chain.block(height)
        ledger.apply_block(block, registry)
        # Serial execution commits every transaction of this workload,
        # so the declared keys are exactly the keys the block wrote.
        writes += len({
            op.key for tx in block.transactions for op in tx.declared_ops
        })
    monkeypatch.undo()
    assert ledger.store is store and roots_taken == chain.height - 14
    assert STORE_COUNTERS["range_block_decodes"] == 0
    assert lookups_in_root <= writes
    oracle = StateStore()
    for height in range(1, chain.height + 1):
        execute_block_serially(chain.block(height), oracle, registry)
    assert state_root(store) == state_root(oracle) == fold_root(store)


def rewrite_visible_row(backend, key, value):
    """Give ``key`` a wrong value in the newest run holding it, with
    every checksum valid — what a buggy writer leaves, not a bit flip."""
    snapshots = SnapshotStore(backend)
    manifest = snapshots.read_manifest()
    for position in reversed(range(len(manifest["runs"]))):
        entry = manifest["runs"][position]
        rows = snapshots.read_run(entry)
        if any(row[0] == key for row in rows):
            break
    else:
        raise AssertionError(f"{key!r} is in no run")
    writer = RunWriter(backend, entry["name"], len(rows))
    for row in rows:
        writer.add([row[0], value, row[2], row[3]] if row[0] == key else row)
    manifest["runs"][position] = {**writer.finish(), "tier": entry["tier"]}
    snapshots.write_manifest(manifest)


def test_paged_recovery_audits_the_tail_root():
    chain = build_canonical_chain(txs=120, seed=5, block_txs=4)
    tail_keys = {
        tx.args[0] for height in (13, 14)
        for tx in chain.block(height).transactions
    }
    resyncs = 0
    for touched in (True, False):
        backend = MemoryBackend()
        live = committed(backend, chain, upto=14)
        on_disk = PagedStateStore(
            backend, SnapshotStore(backend).read_manifest()["runs"]
        )
        victim = next(
            key for key in sorted(on_disk.keys())
            if (key in tail_keys) == touched
        )
        rewrite_visible_row(backend, victim, 10**6)
        result = paged_ledger(backend).recover(standard_registry)
        resyncs += result.resync
        if touched:
            # Detected when the replayed tail reads the row: wiped, to
            # be refetched from peers — never served.
            assert result.resync and result.tail.height == 0
            assert backend.list() == []
        else:
            # The boundary: a wrong row the tail never touches is still
            # only caught by a root over the whole state.
            assert not result.resync and result.replayed == 2
            assert state_root(result.store) == state_root(live)
            assert state_root(result.store) != fold_root(result.store)
    assert resyncs == 1


def test_paged_recovery_resyncs_on_a_malformed_manifest_root():
    chain = build_canonical_chain(txs=120, seed=5, block_txs=4)
    backend = MemoryBackend()
    committed(backend, chain, upto=14)
    snapshots = SnapshotStore(backend)
    manifest = snapshots.read_manifest()
    manifest["state_root"] = "not-a-root"
    snapshots.write_manifest(manifest)
    assert paged_ledger(backend).recover(standard_registry).resync
