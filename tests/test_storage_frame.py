"""The run-block frame (format v3): rows between newlines.

What the frame promises, checked without a wall clock: a key's row is
found exactly whatever the keys and values contain; a framed block is
byte for byte as long as the JSON list of the same rows, so no offset or
byte total moved; and a point get decodes one row, never a block."""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ledger.store import STORE_COUNTERS, Version, reset_store_counters
from repro.storage import MemoryBackend
from repro.storage import codec, paged, snapshots
from repro.storage.codec import (
    KeyFilter,
    decode_block_rows,
    encode_block_rows,
    entry_to_row,
)
from repro.storage.paged import BlockCache, PagedRun, PagedStateStore
from repro.storage.snapshots import RunWriter, run_name
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
