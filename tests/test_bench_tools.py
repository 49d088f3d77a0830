"""Tests for the benchmark harness, table rendering, and YCSB presets."""

import pytest

from repro.bench import format_table, run_architecture, sweep
from repro.bench.reporting import to_markdown
from repro.common.errors import ConfigError
from repro.core import SystemConfig
from repro.workloads import KvWorkload
from repro.workloads.ycsb import profiles, ycsb


class TestHarness:
    def test_run_architecture_returns_result(self):
        result = run_architecture(
            "ox",
            KvWorkload(seed=1).generate(30),
            SystemConfig(block_size=10, seed=1),
        )
        assert result.system == "ox"
        assert result.committed == 30

    def test_sweep_labels_rows_with_variable(self):
        rows = sweep(
            "skew",
            [0.0, 0.9],
            lambda theta: run_architecture(
                "ox",
                KvWorkload(theta=theta, seed=2).generate(20),
                SystemConfig(block_size=10, seed=2),
            ),
        )
        assert [row["skew"] for row in rows] == [0.0, 0.9]
        assert all("throughput_tps" in row for row in rows)

    def test_sweep_extra_fields(self):
        # A runner adds fields by returning a dict row instead of a
        # RunResult; the swept variable still comes first.
        def runner(_x):
            result = run_architecture(
                "ox", KvWorkload(seed=3).generate(10),
                SystemConfig(block_size=10, seed=3),
            )
            return {**result.to_row(), "double": result.committed * 2}

        rows = sweep("x", [1], runner)
        assert rows[0]["double"] == 20
        assert next(iter(rows[0])) == "x"


class TestReporting:
    def test_format_table_aligns_columns(self):
        text = format_table(
            [{"name": "a", "value": 1}, {"name": "bbbb", "value": 22}],
            title="T",
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_empty_rows(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_floats_rendered_compactly(self):
        text = format_table([{"v": 0.123456789}])
        assert "0.1235" in text


class TestExport:
    ROWS = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]

    def test_markdown_table(self):
        text = to_markdown(self.ROWS)
        lines = text.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert lines[2] == "| 1 | x |"


class TestYcsbProfiles:
    def test_profiles_listed(self):
        assert profiles() == ["a", "b", "c", "f"]

    def test_profile_c_is_read_only(self):
        txs = ycsb("c", seed=5).generate(100)
        assert all(tx.contract == "read_many" for tx in txs)

    def test_profile_a_is_half_updates_blind(self):
        txs = ycsb("a", seed=6).generate(400)
        writes = [tx for tx in txs if tx.contract == "kv_set"]
        reads = [tx for tx in txs if tx.contract == "read_many"]
        assert not any(tx.contract == "increment" for tx in txs)
        assert 120 < len(writes) < 280
        assert len(writes) + len(reads) == 400

    def test_profile_f_uses_rmw(self):
        txs = ycsb("f", seed=7).generate(400)
        assert any(tx.contract == "increment" for tx in txs)
        assert not any(tx.contract == "kv_set" for tx in txs)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigError):
            ycsb("e")

    def test_default_zipf_constant_is_canonical(self):
        assert ycsb("a").theta == pytest.approx(0.99)

    def test_profiles_run_through_a_system(self):
        result = run_architecture(
            "xov", ycsb("a", seed=8).generate(60),
            SystemConfig(block_size=20, seed=8),
        )
        assert result.committed + result.aborted == 60
