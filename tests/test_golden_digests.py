"""Golden consensus digests: virtual behaviour pinned across commits.

``tests/golden/consensus_digests.json`` holds one digest per (protocol,
seed, plan) ordering run plus one gateway run's ledger fingerprint. A
change that moves messages, decide times or event order fails here by
row name; regenerate with ``PYTHONPATH=src python tests/golden/regen.py``
and say so in CHANGES.md.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_REGEN = Path(__file__).parent / "golden" / "regen.py"
_spec = importlib.util.spec_from_file_location("golden_regen", _REGEN)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

GOLDEN = json.loads(regen.GOLDEN_FILE.read_text())


def test_golden_file_lists_exactly_the_rows():
    assert sorted(GOLDEN) == sorted(regen.ROWS)


@pytest.mark.parametrize("row", sorted(regen.ROWS))
def test_golden_digest(row):
    assert regen.ROWS[row]() == GOLDEN[row]
