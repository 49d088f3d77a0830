"""The WAL layer: record format, torn-tail detection, fsync policies,
segment bookkeeping — all over the deterministic MemoryBackend and its
explicit durability model (unsynced bytes die with the process) — and
the block codec whose payloads the durable ledger writes into it."""

import json
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import StorageError
from repro.common.types import Operation, OpType, Transaction, TxType
from repro.ledger.block import Block
from repro.storage import (
    BlockLog,
    FaultProfile,
    FsyncPolicy,
    MemoryBackend,
    build_canonical_chain,
    decode_block,
    encode_block,
    encode_record,
    replay_records,
    segment_name,
)


def payloads(n):
    return [f"record-{i}".encode() for i in range(n)]


# -- block payloads --------------------------------------------------------------

# No lone surrogates (Cs): a transaction digests its UTF-8 bytes.
TEXT = st.text(alphabet=st.characters(exclude_categories=("Cs",)),
               max_size=8)
ARGS = st.lists(st.one_of(
    st.none(), st.booleans(), st.integers(), TEXT,
    st.floats(allow_nan=False),
), max_size=4).map(tuple)


def transactions(tx_type):
    return st.builds(
        Transaction, tx_id=TEXT, contract=TEXT, args=ARGS, submitter=TEXT,
        tx_type=st.just(tx_type),
        declared_ops=st.lists(
            st.builds(Operation, st.sampled_from(OpType), TEXT), max_size=3
        ).map(tuple),
        involved=st.frozensets(TEXT, max_size=3),
        submitted_at=st.floats(allow_nan=False),
    )


@st.composite
def blocks(draw):
    """Every TxType at least once, then a few more of any type."""
    types = list(TxType) + draw(st.lists(st.sampled_from(TxType), max_size=4))
    return Block.create(
        height=draw(st.integers(min_value=0, max_value=2**40)),
        prev_hash=draw(st.text(alphabet="0123456789abcdef", max_size=64)),
        transactions=[draw(transactions(tx_type)) for tx_type in types],
        timestamp=draw(st.floats(allow_nan=False)),
        proposer=draw(TEXT),
    )


@settings(max_examples=100, deadline=None)
@given(blocks(), st.text(alphabet="0123456789abcdef", max_size=64))
def test_block_record_round_trips(block, root):
    decoded, decoded_root = decode_block(encode_block(block, root))
    assert decoded == block and decoded_root == root
    assert decoded.block_hash == block.block_hash


def test_edited_payload_with_a_resealed_crc_is_rejected():
    """The CRC only says the bytes are the ones written: a payload edited
    and re-sealed passes replay, and the tx-root check must catch it."""
    block = build_canonical_chain(txs=4, seed=1, block_txs=4).block(1)
    header, root, rows = json.loads(
        zlib.decompress(encode_block(block, "ab" * 32))
    )
    rows[0][2] = ["k0", 999]
    forged = zlib.compress(json.dumps([header, root, rows]).encode())
    assert replay_records(encode_record(forged)).payloads == [forged]
    with pytest.raises(StorageError, match="tx root mismatch"):
        decode_block(forged)


# -- record format -------------------------------------------------------------


def test_encode_replay_round_trip():
    data = b"".join(encode_record(p) for p in payloads(5))
    result = replay_records(data)
    assert result.payloads == payloads(5)
    assert not result.torn
    assert result.valid_bytes == len(data)


def test_replay_empty_log_is_clean():
    result = replay_records(b"")
    assert result.payloads == [] and not result.torn


@pytest.mark.parametrize("cut", [1, 5, 11, 12, 13])
def test_truncated_tail_is_torn_and_prefix_survives(cut):
    records = [encode_record(p) for p in payloads(3)]
    intact = b"".join(records[:2])
    data = intact + records[2][:cut]
    result = replay_records(data)
    assert result.torn
    assert result.payloads == payloads(2)
    # The repair point is exactly the end of the intact prefix.
    assert result.valid_bytes == len(intact)


def test_bit_flip_in_payload_is_torn():
    records = [encode_record(p) for p in payloads(3)]
    corrupt = bytearray(records[1])
    corrupt[-1] ^= 0x40  # flip a payload bit: CRC must catch it
    result = replay_records(records[0] + bytes(corrupt) + records[2])
    assert result.torn
    assert result.payloads == payloads(1)
    assert result.valid_bytes == len(records[0])


def test_bad_magic_stops_replay():
    good = encode_record(b"ok")
    result = replay_records(good + b"XXXX" + good)
    assert result.torn and result.payloads == [b"ok"]


def test_overlong_length_stops_replay():
    good = encode_record(b"ok")
    lying = bytearray(encode_record(b"short"))
    lying[4:8] = (2**20).to_bytes(4, "big")  # claims a megabyte
    result = replay_records(good + bytes(lying))
    assert result.torn and result.payloads == [b"ok"]


# -- fsync policies ------------------------------------------------------------


def test_policy_parse():
    assert FsyncPolicy.parse("per-block").group_size == 1
    assert FsyncPolicy.parse("group:8").group_size == 8
    assert FsyncPolicy.parse("async").group_size == 0
    for bad in ("", "group:0", "group:x", "sometimes"):
        with pytest.raises(StorageError):
            FsyncPolicy.parse(bad)


def read_or_empty(backend, name):
    """A file with no durable bytes vanishes entirely at the crash."""
    return backend.read(name) if backend.exists(name) else b""


def surviving_records(policy, n=5, flush=False):
    backend = MemoryBackend()
    log = BlockLog(backend, policy)
    for p in payloads(n):
        log.append(p)
    if flush:
        log.flush()
    backend.simulate_crash()
    return replay_records(read_or_empty(backend, log.current_segment)).payloads


def test_per_block_loses_nothing():
    assert surviving_records("per-block") == payloads(5)


def test_group_commit_loses_at_most_the_open_group():
    # 5 appends under group:2 → fsyncs after 2 and 4; record 5 volatile.
    assert surviving_records("group:2") == payloads(4)


def test_async_loses_everything_unsynced():
    assert surviving_records("async") == []


def test_flush_closes_the_loss_window():
    assert surviving_records("async", flush=True) == payloads(5)


def test_roll_flushes_and_advances_segment():
    backend = MemoryBackend()
    log = BlockLog(backend, "async")
    log.append(b"a")
    finished = log.roll()
    assert finished == segment_name(1)
    assert log.current_segment == segment_name(2)
    log.append(b"b")
    backend.simulate_crash()
    # Rolled segment was flushed; the new one's append was not.
    assert replay_records(backend.read(segment_name(1))).payloads == [b"a"]
    assert replay_records(read_or_empty(backend, segment_name(2))).payloads == []


# -- the backend's fault model -------------------------------------------------


def test_lost_fsync_reports_success_but_drops_data():
    backend = MemoryBackend(FaultProfile(seed=7, fsync_lost=1.0))
    log = BlockLog(backend, "per-block")
    log.append(b"gone")
    backend.simulate_crash()
    assert (
        replay_records(read_or_empty(backend, log.current_segment)).payloads
        == []
    )


def test_partial_write_leaves_a_detectable_torn_tail():
    torn_seen = clean_seen = False
    for seed in range(40):
        backend = MemoryBackend(FaultProfile(seed=seed, partial_write=1.0))
        log = BlockLog(backend, "async")
        for p in payloads(3):
            log.append(p)
        backend.simulate_crash()
        result = replay_records(read_or_empty(backend, log.current_segment))
        # Whatever prefix survived, replay never yields a wrong record.
        assert result.payloads == payloads(len(result.payloads))
        torn_seen = torn_seen or result.torn
        clean_seen = clean_seen or not result.torn
    assert torn_seen, "partial_write=1.0 never produced a torn tail"


def test_replace_is_atomic_across_crash():
    backend = MemoryBackend()
    backend.replace("f", b"old")
    backend.fsync("f")
    backend.simulate_crash()
    assert backend.read("f") == b"old"
    backend.replace("f", b"new")
    backend.simulate_crash()
    # Old or new, never a mixture — and replace models rename-durable.
    assert backend.read("f") in (b"old", b"new")


def test_same_seed_backend_replays_identically():
    def run(seed):
        backend = MemoryBackend(
            FaultProfile(seed=seed, partial_write=0.5, bit_flip=0.5)
        )
        log = BlockLog(backend, "group:2")
        for p in payloads(6):
            log.append(p)
        backend.simulate_crash()
        return read_or_empty(backend, log.current_segment)

    assert run(3) == run(3)
