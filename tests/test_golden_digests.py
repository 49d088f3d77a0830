"""Golden digests: seeded behaviour pinned across commits.

``tests/golden/consensus_digests.json`` holds one digest per (protocol,
seed, plan) ordering run plus one gateway run's ledger fingerprint;
``tests/golden/storage_digests.json`` two per durable-cluster (mode,
seed): committed state and byte totals, and run-file checksums;
``tests/golden/systems_digests.json`` one per (architecture, protocol,
seed) plus one per seed for each family outside ``core.SYSTEMS``
(sharding, Caper, channels, SEPAR, Quorum, the atomic swap). A change that moves messages, decide times, event order, a state
root, a commit or abort, a run's size or an on-disk byte fails here by
row name; regenerate with
``PYTHONPATH=src python tests/golden/regen.py`` and say so in
CHANGES.md.
"""

import importlib.util
from pathlib import Path

import pytest

_REGEN = Path(__file__).parent / "golden" / "regen.py"
_spec = importlib.util.spec_from_file_location("golden_regen", _REGEN)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

GOLDEN = regen.load_golden()


def test_golden_file_lists_exactly_the_rows():
    assert sorted(GOLDEN) == sorted(regen.ROWS)


@pytest.mark.parametrize("row", sorted(regen.ROWS))
def test_golden_digest(row):
    assert regen.ROWS[row]() == GOLDEN[row]
