"""Tests for the perf time-series harness (benchmarks/bench_series.py).

The measurement itself is too slow (and too host-dependent) for tier-1;
these tests pin the series file format, the append semantics, and the
regression gate's arithmetic, loading the script by path since
``benchmarks/`` is not a package.
"""

import importlib.util
import json
import pathlib

import pytest

_SCRIPT = (
    pathlib.Path(__file__).parents[2] / "benchmarks" / "bench_series.py"
)


@pytest.fixture(scope="module")
def series_mod():
    spec = importlib.util.spec_from_file_location("bench_series", _SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _sample(median, **extra):
    return {
        "schema": 1,
        "git_rev": "deadbeef",
        "round_seconds_median": median,
        **extra,
    }


class TestLoadSeries:
    def test_absent_file_is_fresh_series(self, series_mod, tmp_path):
        series = series_mod.load_series(tmp_path / "none.json")
        assert series == {
            "benchmark": "engine_series",
            "schema": series_mod.SERIES_SCHEMA,
            "samples": [],
        }

    def test_wrong_benchmark_rejected(self, series_mod, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"benchmark": "other", "schema": 1}))
        with pytest.raises(ValueError, match="engine_series"):
            series_mod.load_series(path)

    def test_wrong_schema_rejected(self, series_mod, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"benchmark": "engine_series", "schema": 99, "samples": []})
        )
        with pytest.raises(ValueError, match="schema"):
            series_mod.load_series(path)


class TestAppend:
    def test_appends_and_round_trips(self, series_mod, tmp_path):
        path = tmp_path / "series.json"
        series_mod.append_sample(path, _sample(0.01))
        series = series_mod.append_sample(path, _sample(0.02))
        assert len(series["samples"]) == 2
        on_disk = json.loads(path.read_text())
        assert on_disk == series
        assert [s["round_seconds_median"] for s in on_disk["samples"]] == [
            0.01,
            0.02,
        ]


class TestRegressionGate:
    def test_empty_series_passes(self, series_mod):
        series = {"benchmark": "engine_series", "schema": 1, "samples": []}
        assert series_mod.check_regression(series, _sample(1.0)) == []

    def test_within_threshold_passes(self, series_mod):
        series = {"samples": [_sample(0.010)]}
        assert series_mod.check_regression(series, _sample(0.0124)) == []

    def test_beyond_threshold_fails(self, series_mod):
        series = {"samples": [_sample(0.010)]}
        failures = series_mod.check_regression(series, _sample(0.013))
        assert len(failures) == 1
        assert "regressed 1.30x" in failures[0]
        assert "deadbeef" in failures[0]

    def test_compares_against_last_sample_only(self, series_mod):
        # An old slow sample must not mask a regression vs the latest.
        series = {"samples": [_sample(0.100), _sample(0.010)]}
        assert series_mod.check_regression(series, _sample(0.013))
        assert not series_mod.check_regression(series, _sample(0.011))

    def test_custom_threshold(self, series_mod):
        series = {"samples": [_sample(0.010)]}
        assert not series_mod.check_regression(
            series, _sample(0.018), threshold=2.0
        )
        assert series_mod.check_regression(
            series, _sample(0.021), threshold=2.0
        )

    def test_speedups_always_pass(self, series_mod):
        series = {"samples": [_sample(0.010)]}
        assert series_mod.check_regression(series, _sample(0.001)) == []


class TestHistoricalLabels:
    def test_gates_against_newest_sample(self, series_mod):
        # Samples from when the engine had selectable kernels carry a
        # backend label; the gate ignores it and takes the newest one.
        series = {
            "samples": [
                _sample(0.010, backend="python"),
                _sample(0.004, backend="batched"),
            ]
        }
        assert not series_mod.check_regression(series, _sample(0.0045))
        assert series_mod.check_regression(series, _sample(0.006))


class TestRepoSeries:
    def test_checked_in_series_is_valid_and_seeded(self, series_mod):
        """The repo-root series exists with >= 1 schema-versioned sample."""
        series = series_mod.load_series(series_mod.DEFAULT_SERIES)
        assert series["samples"], "BENCH_engine.json must ship with a sample"
        for sample in series["samples"]:
            assert sample["schema"] == series_mod.SERIES_SCHEMA
            assert sample["round_seconds_median"] > 0
            assert sample["events_per_round"] > 0
            assert set(sample["stages"]) == {
                "build_events",
                "resolve",
                "finalise",
            }
            assert sample["cpu_count"] >= 1
            assert "git_rev" in sample and "python" in sample
            # Historical kernel label, absent from newer samples.
            assert sample.get("backend", "python") in (
                "python", "vectorized", "batched"
            )


class TestLedgerRecording:
    def test_record_sample_writes_bench_row(self, series_mod, tmp_path):
        from repro.observability import RunLedger

        sample = _sample(
            0.01,
            backend="vectorized",
            taken_unix=123.0,
            workload="mesh_random_function(16, 2)",
            round_seconds_best=0.009,
            stages={"build_events": 0.002, "resolve": 0.005},
        )
        with RunLedger(tmp_path / "ledger.db") as ledger:
            run_id = series_mod.record_sample(ledger, sample, wall=0.5)
            record = ledger.get(run_id)
        assert record.kind == "bench"
        assert record.backend == "vectorized"
        assert record.wall_seconds == 0.5
        # Bench rows compare on the round median, not wall seconds.
        assert record.headline() == ("round_seconds_median", 0.01)
        assert record.stage_means() == {"build_events": 0.002, "resolve": 0.005}
        assert record.fingerprint
        (fields,) = record.groups.values()
        assert fields["round_seconds_median"]["count"] == 1


class TestSleepHook:
    def test_injected_sleep_slows_round_median(self, series_mod, monkeypatch):
        # The CI smoke job uses REPRO_BENCH_SLEEP to manufacture a
        # regression; the hook must show up in the measured median.
        monkeypatch.setattr(series_mod, "SIDE", 4)
        monkeypatch.setattr(series_mod, "ROUND_REPEATS", 3)
        monkeypatch.setattr(series_mod, "TRIALS", 1)
        monkeypatch.setenv("REPRO_BENCH_SLEEP", "0.02")
        sample = series_mod.collect_sample()
        assert sample["round_seconds_median"] >= 0.02

    def test_empty_env_means_no_sleep(self, series_mod, monkeypatch):
        monkeypatch.setattr(series_mod, "SIDE", 4)
        monkeypatch.setattr(series_mod, "ROUND_REPEATS", 2)
        monkeypatch.setattr(series_mod, "TRIALS", 1)
        monkeypatch.setenv("REPRO_BENCH_SLEEP", "")
        sample = series_mod.collect_sample()
        assert sample["round_seconds_median"] < 0.5
