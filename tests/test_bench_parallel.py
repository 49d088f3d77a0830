"""``sweep`` under ``REPRO_BENCH_WORKERS`` must be a drop-in for the
serial sweep: identical rows, identical order, and loud (not hanging)
failures."""

import pytest

from repro.bench import harness, run_architecture, sweep
from repro.common.errors import ConfigError
from repro.core import SystemConfig
from repro.execution.parallel_backend import WORKERS_ENV
from repro.workloads import KvWorkload


def _skew_runner(theta):
    return run_architecture(
        "ox",
        KvWorkload(theta=theta, seed=21).generate(30),
        SystemConfig(block_size=10, seed=21),
    )


@pytest.fixture
def two_workers(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "2")


@pytest.fixture
def serial_rows(monkeypatch):
    """Run a sweep with the env var unset; the fixture restores it."""
    def run(*args):
        with monkeypatch.context() as patch:
            patch.delenv(WORKERS_ENV, raising=False)
            return sweep(*args)

    return run


@pytest.mark.usefixtures("two_workers")
class TestSweepParallel:
    def test_rows_identical_to_serial_sweep(self, serial_rows):
        grid = [0.0, 0.5, 0.9]
        serial = serial_rows("skew", grid, _skew_runner)
        assert sweep("skew", grid, _skew_runner) == serial

    def test_lambda_runner_and_extra_fields(self, serial_rows):
        # Runners are typically closures; fork-based workers must cope,
        # and a runner's dict row may add fields to the result's row.
        grid = [10, 20]

        def make(n):
            result = run_architecture(
                "ox",
                KvWorkload(seed=22).generate(n),
                SystemConfig(block_size=10, seed=22),
            )
            return {**result.to_row(), "double": result.committed * 2}

        serial = serial_rows("txs", grid, make)
        parallel = sweep("txs", grid, make)
        assert parallel == serial
        assert [row["double"] for row in parallel] == [20, 40]

    def test_worker_exception_surfaces_clear_error(self):
        def exploding(value):
            if value == 2:
                raise ValueError("boom at point 2")
            return _skew_runner(0.0)

        with pytest.raises(RuntimeError, match="point 2"):
            sweep("x", [1, 2, 3], exploding)

    def test_dead_worker_raises_instead_of_hanging(self):
        import os

        def hard_exit(value):
            os._exit(13)

        with pytest.raises(RuntimeError, match="worker process died"):
            sweep("x", [1, 2], hard_exit)

    def test_single_point_grid_runs_serially(self, monkeypatch, serial_rows):
        monkeypatch.setenv(WORKERS_ENV, "4")
        monkeypatch.setattr(harness, "_map_parallel", _no_fork)
        rows = sweep("skew", [0.5], _skew_runner)
        assert rows == serial_rows("skew", [0.5], _skew_runner)


def _no_fork(*_args):
    raise AssertionError("sweep forked workers")


class TestWorkersEnvOptIn:
    def test_unset_or_small_means_serial(self, monkeypatch):
        monkeypatch.setattr(harness, "_map_parallel", _no_fork)
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert len(sweep("skew", [0.0, 0.9], _skew_runner)) == 2
        monkeypatch.setenv(WORKERS_ENV, "1")
        assert len(sweep("skew", [0.0, 0.9], _skew_runner)) == 2

    @pytest.mark.parametrize("raw", ["abc", "0", "-2"])
    def test_invalid_value_raises_config_error(self, monkeypatch, raw):
        # One parser for the knob: the sweep rejects what the
        # process-pool backend rejects, instead of running serially.
        monkeypatch.setenv(WORKERS_ENV, raw)
        with pytest.raises(ConfigError, match=WORKERS_ENV):
            sweep("skew", [0.0], _skew_runner)

    def test_env_opts_sweep_into_parallel(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        serial = sweep("skew", [0.0, 0.9], _skew_runner)
        forked = []
        real_map = harness._map_parallel

        def spy(job, values, workers):
            forked.append(workers)
            return real_map(job, values, workers)

        monkeypatch.setattr(harness, "_map_parallel", spy)
        monkeypatch.setenv(WORKERS_ENV, "2")
        assert sweep("skew", [0.0, 0.9], _skew_runner) == serial
        assert forked == [2]


class TestResilienceSweepParallel:
    def test_fault_rows_identical_serial_and_parallel(
        self, monkeypatch, serial_rows
    ):
        # The determinism guarantee must extend to fault injection:
        # every resilience case is a pure function of its case string,
        # so fanning the grid out over workers changes nothing.
        from repro.bench.resilience import run_case

        cases = [
            "raft/crash/3",        # CFT surviving its full tolerance
            "pbft/crash/3",        # BFT stalled beyond tolerance
            "hotstuff/partition/2.0",
            "paxos/loss/0.25",
        ]
        serial = serial_rows("case", cases, run_case)
        monkeypatch.setenv(WORKERS_ENV, "2")
        parallel = sweep("case", cases, run_case)
        assert parallel == serial
        assert [row["case"] for row in serial] == cases
