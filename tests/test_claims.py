"""The paper's claims (E1–E24), checked in tier-1.

The registry runs once per module. Each claim id is its own test, so a
regression fails by name (``E1: OX never aborts — 3/4 rows, not 1.1``),
and the claims table in EXPERIMENTS.md must be the fresh render, which
also pins every architecture's virtual-time numbers across commits.
"""

from pathlib import Path

import pytest

from repro.bench.claims import CLAIMS, failures, render, run_claims

EXPERIMENTS = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
BEGIN, END = "<!-- claims:begin -->", "<!-- claims:end -->"


@pytest.fixture(scope="module")
def results():
    return run_claims()


def test_ids_are_unique():
    ids = [claim.id for claim in CLAIMS]
    assert len(ids) == len(set(ids)) == 40


@pytest.mark.parametrize("claim_id", [claim.id for claim in CLAIMS])
def test_claim_holds(results, claim_id):
    failed = failures({claim_id: results[claim_id]})
    assert not failed, "\n".join(failed)


def test_experiments_md_carries_the_render(results):
    text = EXPERIMENTS.read_text(encoding="utf-8")
    block = text.split(BEGIN, 1)[1].split(END, 1)[0]
    assert block == "\n" + render(results) + "\n", (
        "EXPERIMENTS.md's claims table is stale: replace the block between "
        f"{BEGIN} and {END} with the output of `python -m repro claims`"
    )
