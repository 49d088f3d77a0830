"""The run-block frame (format v3): rows between newlines.

What the frame promises, checked without a wall clock: a key's row is
found exactly whatever the keys and values contain; a framed block is
byte for byte as long as the JSON list of the same rows, so no offset or
byte total moved; a point get decodes one row, never a block; and a
band merge copies each surviving row's verified text, writing the very
bytes a fresh run of the merged rows would hold."""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import StorageError
from repro.execution.contracts import standard_registry
from repro.ledger.store import STORE_COUNTERS, Version, reset_store_counters
from repro.storage import DurableLedger, MemoryBackend, SnapshotStore
from repro.storage import codec, paged, snapshots
from repro.storage.codec import (
    KeyFilter,
    decode_block_rows,
    encode_block_rows,
    encode_row,
    entry_to_row,
)
from repro.storage.paged import BlockCache, PagedRun, PagedStateStore
from repro.storage.snapshots import RunWriter, read_run_footer, run_name
from repro.workloads.openloop import ScalableZipfSampler


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# Characters the frame or the row search could trip over — quote,
# backslash, newline, comma, brackets, and ones sorting below ``"`` —
# mixed with arbitrary unicode; short keys over a small alphabet are
# often prefixes of each other.
TRICKY = '"\\\n,[]: !\x00\x1f\x7faé中\U0001f600'
# No lone surrogates (Cs): run files are UTF-8, which cannot encode them.
UNICODE = st.characters(exclude_categories=("Cs",))
key_text = st.text(
    alphabet=st.one_of(st.sampled_from(TRICKY), UNICODE), max_size=5
)
plain_values = st.recursive(
    st.one_of(
        st.booleans(), st.integers(), st.floats(allow_nan=False,
                                                allow_infinity=False),
        st.text(alphabet=st.one_of(st.sampled_from(TRICKY), UNICODE),
                max_size=12),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=6,
)


def values_mimicking(keys: list[str]):
    """Values built to look like the start of another key's row."""
    other = st.sampled_from(keys)
    return st.one_of(
        plain_values,
        st.none(),  # a tombstone row
        other.map(lambda key: f'\n["{key}",'),
        other.map(lambda key: "\n[" + canonical(key) + ","),
        other.map(lambda key: [key, "nested", 1, 0]),
        other.map(lambda key: [[key, None, -1, -1], {"\n": [key]}]),
    )


@st.composite
def runs(draw):
    keys = sorted(draw(st.sets(key_text, min_size=1, max_size=24)))
    rows = [
        entry_to_row(key, draw(values_mimicking(keys)), Version(7, index))
        for index, key in enumerate(keys)
    ]
    probes = draw(st.lists(key_text, max_size=8))
    probes += [key + suffix for key in keys[:4] for suffix in ('"', ",", "\\")]
    probes += [key[:-1] for key in keys[:4] if key]
    return rows, [probe for probe in probes if probe not in keys], draw(
        st.integers(min_value=1, max_value=400)
    )


def written(rows, block_bytes):
    backend = MemoryBackend()
    writer = RunWriter(backend, run_name(1), len(rows), block_bytes)
    for row in rows:
        writer.add(row)
    return PagedRun(backend, writer.finish())


@settings(max_examples=150, deadline=None)
@given(runs())
def test_lookup_through_the_frame_equals_the_dict_oracle(run_spec):
    rows, absent, block_bytes = run_spec
    run = written(rows, block_bytes)
    cache = BlockCache()
    for row in rows:
        assert run.lookup(row[0], KeyFilter.hash_pair(row[0]), cache) == row
    for probe in absent:
        assert run.lookup(probe, KeyFilter.hash_pair(probe), cache) is None
    decoded = [
        decode_block_rows(run.read_block(index), run.name)
        for index in range(run.block_count())
    ]
    assert [row for block in decoded for row in block] == rows
    assert [block[0][0] for block in decoded] == run.firsts


@settings(max_examples=100, deadline=None)
@given(runs())
def test_framed_block_is_exactly_as_long_as_the_json_list(run_spec):
    """So block boundaries, offsets, footers' sizes and every byte
    counter are where format v2 put them."""
    rows, _absent, block_bytes = run_spec
    assert len(encode_block_rows(rows)) == len(canonical(rows).encode())
    run = written(rows, block_bytes)
    offset = 0
    for index, spec in enumerate(run.blocks):
        block = decode_block_rows(run.read_block(index), run.name)
        assert spec["off"] == offset
        assert spec["len"] == len(canonical(block).encode())
        assert spec["rows"] == len(block)
        offset += spec["len"]


def test_point_gets_decode_one_row_and_scans_whole_blocks(monkeypatch):
    """The count guard: 2 000 Zipf gets over a 10-run store make zero
    whole-block decodes and at most one row decode each (format v2
    decoded 0.91 blocks, ~55 rows, per get); scans decode whole blocks,
    as many as ``range_block_decodes`` says, and nothing else."""
    counts = {"blocks": 0, "rows": 0}
    assert paged.decode_block_rows is codec.decode_block_rows
    assert snapshots.decode_block_rows is codec.decode_block_rows
    assert paged.find_row is codec.find_row

    def counting_block_decode(payload, where):
        counts["blocks"] += 1
        return codec.decode_block_rows(payload, where)

    row_decoder = codec._SCAN_JSON

    def counting_row_decode(text, at):
        counts["rows"] += 1
        return row_decoder(text, at)

    rng = random.Random(22)
    keys = [f"key{index:05d}" for index in range(4_000)]
    shuffled = keys[:]
    rng.shuffle(shuffled)
    backend, entries, oracle = MemoryBackend(), [], {}
    for run_id in range(1, 11):
        writer = RunWriter(backend, run_name(run_id), 440)
        # 400 fresh keys a run plus 40 rewrites of older ones.
        chosen = shuffled[(run_id - 1) * 400:run_id * 400]
        chosen += rng.sample(shuffled[:(run_id - 1) * 400], 40 * (run_id > 1))
        for index, key in enumerate(sorted(chosen)):
            value = None if rng.random() < 0.02 else "v" * rng.randrange(8, 49)
            writer.add(entry_to_row(key, value, Version(run_id, index)))
            oracle[key] = value
        entries.append(writer.finish())
    zipf = ScalableZipfSampler(len(keys), 0.9, rng)
    probes = [
        f"absent{rng.randrange(10 ** 6):06d}" if rng.random() < 0.02
        else shuffled[zipf.sample()]
        for _ in range(2_000)
    ]

    monkeypatch.setattr(paged, "decode_block_rows", counting_block_decode)
    monkeypatch.setattr(snapshots, "decode_block_rows", counting_block_decode)
    monkeypatch.setattr(codec, "_SCAN_JSON", counting_row_decode)
    store = PagedStateStore(backend, entries, BlockCache(16 * 1024))
    reset_store_counters()
    assert [store.get(key) for key in probes] == [
        oracle.get(key) for key in probes
    ]
    assert STORE_COUNTERS["block_cache_misses"] > 200  # it did page
    assert counts["blocks"] == 0
    assert 0 < counts["rows"] <= len(probes)

    gets_decoded = counts["rows"]
    live = sorted(key for key, value in oracle.items() if value is not None)
    for _ in range(50):
        first = rng.randrange(len(keys) - 100)
        start, end = keys[first], keys[first + 99]
        assert [key for key, _entry in store.scan(start, end)] == [
            key for key in live if start <= key <= end
        ]
    assert counts["blocks"] == STORE_COUNTERS["range_block_decodes"] > 0
    assert counts["rows"] == gets_decoded


# -- the row codec and the key filter ------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.tuples(
            key_text,
            st.one_of(plain_values, st.none()),
            st.one_of(st.integers(), st.booleans()),
            st.one_of(st.integers(), st.booleans()),
        ).map(list),
        st.lists(plain_values, max_size=5),
    )
)
def test_encode_row_is_the_canonical_json(row):
    """The direct path for ``[str, str | int | None, int, int]`` and the
    shared encoder both give ``json.dumps``'s bytes; a bool is never
    formatted as an int."""
    assert encode_row(row) == canonical(row)


def test_key_filter_bits_are_pinned():
    """The filter bytes of a fixed key list, as every run footer written
    so far holds them: a change to how ``add`` derives its positions
    shows here before it strands a footer's filter."""
    keys = [f"key{index:05d}" for index in range(1_000)]
    keys += ["", "é", "中文", "\U0001f600", 'a"b', "line\nbreak"]
    sized = KeyFilter.sized_for(len(keys))
    for key in keys:
        sized.add(key)
    assert sized.nbits == 8048
    assert hashlib.sha256(bytes(sized.bits)).hexdigest() == (
        "7817b6a414a94dcc05bc8cbbee737697524e8f06dcbeeb3efad7be49e2ff23a5"
    )
    # A shape whose steps wrap the bit array, with seven probes a key.
    odd = KeyFilter(72, 7, bytearray(9))
    for key in ["a", "b", "key00042", "é"]:
        odd.add(key)
    assert bytes(odd.bits).hex() == "a48833421d889e4051"
    for key in keys[:50] + ["a", "b", "é"]:
        flt = sized if key in keys else odd
        assert flt.might_contain(KeyFilter.hash_pair(key))


# -- band merges copy verified row text ----------------------------------------


def write_runs(backend, specs):
    """One run per ``(rows, block_bytes)`` spec, run ids from 1."""
    entries = []
    for run_id, (rows, block_bytes) in enumerate(specs, start=1):
        writer = RunWriter(backend, run_name(run_id), len(rows), block_bytes)
        for row in rows:
            writer.add(row)
        entries.append(writer.finish())
    return entries


def merged_rows(band_rows, drop_tombstones):
    """The band merge by a dict: the newest run's row wins per key."""
    newest = {}
    for rows in band_rows:
        newest.update((row[0], row) for row in rows)
    return [
        newest[key] for key in sorted(newest)
        if not (drop_tombstones and newest[key][1] is None)
    ]


def assert_merge_equals_reference(specs, start):
    """Merge the runs from ``start`` on; its file must equal, byte for
    byte, a fresh run of the expected rows, each encoded by the writer
    (its key filter sized as the merge sizes it: one slot per input
    row)."""
    backend = MemoryBackend()
    entries = write_runs(backend, specs)
    store = SnapshotStore(backend, policy="tiered")
    manifest = {"runs": entries, "next_run_id": len(entries) + 1}
    merged = store.merge_band(manifest, start, len(entries) - start)
    entry = merged["runs"][start]
    band = [rows for rows, _block_bytes in specs[start:]]
    expected = merged_rows(band, start == 0)
    assert store.read_run(entry) == expected

    reference = MemoryBackend()
    writer = RunWriter(
        reference, entry["name"], sum(len(rows) for rows in band),
        purpose="compaction",
    )
    for row in expected:
        writer.add(row)
    ref_entry = writer.finish()
    assert backend.read(entry["name"]) == reference.read(entry["name"])
    for field in ("checksum", "rows", "bytes", "format"):
        assert entry[field] == ref_entry[field]
    return backend, entry


@settings(max_examples=120, deadline=None)
@given(st.lists(runs(), min_size=2, max_size=4), st.integers(0, 1))
def test_band_merge_writes_the_reference_run_bytes(run_specs, start):
    """Tombstones, escaped and unicode strings, ints, bools, floats,
    None and nested values; at band start 0 tombstones drop, above it
    they are kept."""
    specs = [(rows, block_bytes) for rows, _absent, block_bytes in run_specs]
    assert_merge_equals_reference(specs, start)


def test_multi_block_band_merge_writes_the_reference_run_bytes():
    """Thousands of rows, so the merged run spans many blocks."""
    rng = random.Random(52)
    values = [
        None, True, False, 0, -7, 2 ** 70, 1.5, -0.0, "plain", 'q"uote',
        "back\\slash", "new\nline", "é中\U0001f600", [1, [None, "x"]],
        {"b": 1, "a": [True, 2.5]},
    ]
    specs = []
    for run_id in range(1, 5):
        keys = sorted(rng.sample(range(6_000), 1_500))
        specs.append(([
            entry_to_row(f"key{key:05d}", rng.choice(values) if rng.random()
                         < 0.3 else f"r{run_id}-{key}", Version(run_id, i))
            for i, key in enumerate(keys)
        ], rng.choice([128, 512, 4096])))
    for start in (0, 1, 2):
        backend, entry = assert_merge_equals_reference(specs, start)
        assert len(read_run_footer(backend, entry)["blocks"]) > 5


def test_band_merge_encodes_no_row(monkeypatch):
    """The merge copies rows' text out of their verified blocks: it
    never calls ``encode_row``."""
    assert snapshots.encode_row is codec.encode_row is encode_row
    calls = {"encode_row": 0}

    def counting_encode_row(row):
        calls["encode_row"] += 1
        return encode_row(row)

    rng = random.Random(7)
    specs = [
        ([entry_to_row(f"k{key:04d}", None if rng.random() < 0.1 else
                       f"v{run_id}-{key}", Version(run_id, key))
          for key in sorted(rng.sample(range(3_000), 800))], 256)
        for run_id in range(1, 5)
    ]
    backend = MemoryBackend()
    entries = write_runs(backend, specs)
    monkeypatch.setattr(snapshots, "encode_row", counting_encode_row)
    monkeypatch.setattr(codec, "encode_row", counting_encode_row)
    store = SnapshotStore(backend, policy="tiered")
    manifest = store.merge_band(
        {"runs": entries, "next_run_id": 5}, 0, len(entries)
    )
    assert manifest["runs"][0]["rows"] > 1_500
    assert calls["encode_row"] == 0


def test_corrupt_band_input_fails_the_merge_and_leaves_an_orphan():
    """One flipped byte in an input block: the merge raises, the
    manifest still names the old runs, none of that block's rows reach
    the partial output, and recovery's orphan sweep deletes it."""
    backend = MemoryBackend()
    specs = [
        ([entry_to_row(f"k{key:05d}", f"r{run_id}-{key}", Version(run_id, i))
          for i, key in enumerate(range(0, 2_400, run_id))], 256)
        for run_id in (1, 2, 3)
    ]
    entries = write_runs(backend, specs)
    store = SnapshotStore(backend, policy="tiered")
    manifest = {"runs": entries, "next_run_id": 4}
    store.write_manifest(manifest)
    before = store.read_manifest()

    # The newest run wins every key it holds, so each row of its damaged
    # block would be copied were the block not rejected.
    newest = entries[-1]
    blocks = read_run_footer(backend, newest)["blocks"]
    damaged = blocks[len(blocks) * 3 // 4]
    payload = backend.read(newest["name"])
    lost = codec.block_text(
        payload[damaged["off"]:damaged["off"] + damaged["len"]], "test"
    )[1:-1].split("\n")
    flip = damaged["off"] + damaged["len"] // 2
    backend.replace(newest["name"], payload[:flip] + bytes([
        payload[flip] ^ 0x01
    ]) + payload[flip + 1:])

    with pytest.raises(StorageError, match="checksum mismatch"):
        store.merge_band(manifest, 0, len(entries))
    assert store.read_manifest() == before
    partial = run_name(4)
    assert store.orphan_runs(store.read_manifest()) == [partial]
    written = backend.read(partial)
    assert written  # earlier output blocks were flushed before the fault
    assert not any(row.encode() in written for row in lost)

    result = DurableLedger(backend, paged=True).recover(standard_registry)
    assert result.orphans_removed == 1
    assert not backend.exists(partial)
    assert all(backend.exists(entry["name"]) for entry in entries)
