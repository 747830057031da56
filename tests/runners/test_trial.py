"""Unit tests for the TrialRunner execution substrate."""

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.runners.trial as trial_module
from repro.errors import TrialError
from repro.observability import MetricsRegistry
from repro.runners import TrialProgress, TrialRunner, spawn_seeds

_FAIL_UNTIL = {}


def _double(seed):
    """Picklable trial: a pure function of the seed."""
    return seed * 2


def _double_batch(seeds):
    return [seed * 2 for seed in seeds]


def _sleepy(seed):
    """Picklable trial that outlives any reasonable per-trial timeout."""
    time.sleep(2.0)
    return seed


def _sleepy_batch(seeds):
    time.sleep(2.0)
    return list(seeds)


def _sleepy_odd(seed):
    """Instant for even seeds, outlives the timeout for odd ones."""
    if seed % 2:
        time.sleep(2.0)
    return seed


def _always_raises(seed):
    raise RuntimeError(f"boom for {seed}")


def _always_raises_batch(seeds):
    raise RuntimeError(f"boom for {seeds}")


def _flaky(seed):
    """Fails once per seed, then succeeds (serial retry path only)."""
    if _FAIL_UNTIL.get(seed, 0) < 1:
        _FAIL_UNTIL[seed] = _FAIL_UNTIL.get(seed, 0) + 1
        raise RuntimeError("transient")
    return seed


def _flaky_batch(seeds):
    """Fails once per seed slice, then succeeds (serial retry path only)."""
    key = tuple(seeds)
    if _FAIL_UNTIL.get(key, 0) < 1:
        _FAIL_UNTIL[key] = _FAIL_UNTIL.get(key, 0) + 1
        raise RuntimeError("transient")
    return list(seeds)


def _shapes(per_seed, batch):
    """Both callable shapes as ``(fn, batch_size)``: per seed, and slices of 2."""
    return [(per_seed, None), (batch, 2)]


class TestSpawnSeeds:
    def test_prefix_stable(self):
        assert spawn_seeds(7, 3) == spawn_seeds(7, 10)[:3]

    def test_distinct_roots_distinct_streams(self):
        assert spawn_seeds(0, 4) != spawn_seeds(1, 4)


class TestValidation:
    def test_bad_jobs(self):
        with pytest.raises(TrialError):
            TrialRunner(_double, jobs=0)

    def test_bad_timeout(self):
        with pytest.raises(TrialError):
            TrialRunner(_double, timeout=0)

    def test_bad_retries(self):
        with pytest.raises(TrialError):
            TrialRunner(_double, retries=-1)

    def test_bad_trials_is_also_value_error(self):
        with pytest.raises(ValueError):
            TrialRunner(_double).run(0)

    def test_empty_seed_list(self):
        assert TrialRunner(_double).run_seeds([]) == []


class TestDeterminism:
    def test_pool_matches_serial(self):
        serial = TrialRunner(_double, jobs=1).run(6, seed=3)
        pooled = TrialRunner(_double, jobs=3).run(6, seed=3)
        assert serial == pooled == [s * 2 for s in spawn_seeds(3, 6)]

    def test_results_in_seed_order(self):
        seeds = [9, 1, 5, 5, 2]
        assert TrialRunner(_double, jobs=2).run_seeds(seeds) == [
            s * 2 for s in seeds
        ]


class TestFallbacks:
    def test_unpicklable_fn_falls_back_to_serial(self, caplog):
        captured = []
        fn = lambda s: captured.append(s) or s  # noqa: E731 - deliberately unpicklable
        with caplog.at_level("WARNING", logger="repro.runners.trial"):
            out = TrialRunner(fn, jobs=4).run(3, seed=0)
        assert out == spawn_seeds(0, 3)
        assert captured == spawn_seeds(0, 3)  # ran in this process
        record = next(
            r for r in caplog.records if "not picklable" in r.getMessage()
        )
        # Structured context: how many trials, and the jobs requested.
        assert "3 trial(s)" in record.getMessage()
        assert "jobs=4" in record.getMessage()

    def test_fallback_counted_in_metrics(self):
        reg = MetricsRegistry()
        fn = lambda s: s  # noqa: E731 - deliberately unpicklable
        TrialRunner(fn, jobs=4, metrics=reg).run(2, seed=0)
        assert reg.value("runner_serial_fallbacks_total") == 1
        assert reg.value("runner_trials_total", mode="serial") == 2


class TestFailureHandling:
    def test_serial_retry_then_success(self):
        for fn, batch_size in _shapes(_flaky, _flaky_batch):
            _FAIL_UNTIL.clear()
            reg = MetricsRegistry()
            out = TrialRunner(
                fn, retries=1, metrics=reg, batch_size=batch_size
            ).run(3, seed=5)
            assert out == spawn_seeds(5, 3)
            # One retry per unit: three seeds, or two slices.
            units = 3 if batch_size is None else 2
            assert reg.value("runner_retries_total", mode="serial") == units

    def test_serial_exhausted_retries_raise(self):
        with pytest.raises(TrialError, match="failed after 2 attempt"):
            TrialRunner(_always_raises, retries=1).run(2, seed=0)

    def test_pool_exception_raises_trial_error(self):
        for fn, batch_size in _shapes(_always_raises, _always_raises_batch):
            with pytest.raises(TrialError, match="failed after 1 attempt"):
                TrialRunner(fn, jobs=2, batch_size=batch_size).run(4, seed=0)
            reg = MetricsRegistry()
            with pytest.raises(TrialError, match="failed after 2 attempt"):
                TrialRunner(
                    fn, jobs=2, retries=1, metrics=reg, batch_size=batch_size
                ).run(4, seed=0)
            assert reg.value("runner_retries_total", mode="pool") == 1
            assert reg.value("runner_trials_failed_total", mode="pool") == 1

    def test_pool_timeout_raises_trial_error(self):
        for fn, batch_size in _shapes(_sleepy, _sleepy_batch):
            runner = TrialRunner(
                fn, jobs=2, timeout=0.2, batch_size=batch_size
            )
            with pytest.raises(TrialError, match="timed out"):
                runner.run(4, seed=0)

    def test_pool_timeout_enforced_for_a_single_unit(self, tmp_path):
        # One unit left must still go to the pool when a timeout is set:
        # a fresh one-trial batch, one slice, and a resume with one
        # trial remaining all time out instead of sleeping through.
        for fn, seeds, batch_size in (
            (_sleepy, [7], None),
            (_sleepy_batch, [7, 9], 2),
        ):
            t0 = time.perf_counter()
            with pytest.raises(TrialError, match="timed out"):
                TrialRunner(
                    fn, jobs=2, timeout=0.2, batch_size=batch_size
                ).run_seeds(seeds)
            assert time.perf_counter() - t0 < 1.5

        ckpt = tmp_path / "batch.json"
        seeds = [2, 4, 7]
        with pytest.raises(TrialError, match="timed out"):
            TrialRunner(
                _sleepy_odd, jobs=2, timeout=0.2, checkpoint=ckpt
            ).run_seeds(seeds)
        reg = MetricsRegistry()
        t0 = time.perf_counter()
        with pytest.raises(TrialError, match="timed out"):
            TrialRunner(
                _sleepy_odd, jobs=2, timeout=0.2, checkpoint=ckpt, metrics=reg
            ).run_seeds(seeds)
        assert time.perf_counter() - t0 < 1.5
        assert reg.value("runner_checkpoint_loaded_total") == 2
        assert not reg.value("runner_timeout_unenforced_total")

    def test_broken_pool_on_submit_is_rebuilt(self, monkeypatch):
        for fn, batch_size in _shapes(_double, _double_batch):
            submits = []

            class BreaksOnFirstSubmit(ProcessPoolExecutor):
                def submit(self, *args, **kwargs):
                    submits.append(args)
                    if len(submits) == 1:
                        raise BrokenProcessPool("worker died during submit")
                    return super().submit(*args, **kwargs)

            monkeypatch.setattr(
                trial_module, "ProcessPoolExecutor", BreaksOnFirstSubmit
            )
            reg = MetricsRegistry()
            seeds = spawn_seeds(4, 5)
            out = TrialRunner(
                fn, jobs=2, metrics=reg, batch_size=batch_size
            ).run_seeds(seeds)
            assert out == [s * 2 for s in seeds]
            assert reg.value("runner_pool_rebuilds_total") == 1
            assert reg.value("runner_trials_total", mode="pool") == 5


class TestProgress:
    def test_progress_stream(self):
        events: list[TrialProgress] = []
        out = TrialRunner(_double, progress=events.append).run(3, seed=1)
        assert len(out) == 3
        assert [e.index for e in events] == [0, 1, 2]
        assert [e.done for e in events] == [1, 2, 3]
        assert all(e.total == 3 and e.error is None for e in events)
        assert events[0].seed == spawn_seeds(1, 3)[0]

    def test_progress_reports_final_failure(self):
        events: list[TrialProgress] = []
        with pytest.raises(TrialError):
            TrialRunner(_always_raises, progress=events.append).run(1, seed=0)
        assert events and events[-1].error is not None


class TestPoolRebuildCap:
    def test_negative_cap_rejected(self):
        with pytest.raises(TrialError, match="pool_rebuilds"):
            TrialRunner(_double, pool_rebuilds=-1)

    def test_cap_is_recorded(self):
        assert TrialRunner(_double).pool_rebuilds == 3
        assert TrialRunner(_double, pool_rebuilds=0).pool_rebuilds == 0


class TestSerialTimeoutWarning:
    def test_serial_timeout_warns_and_counts(self, caplog):
        reg = MetricsRegistry()
        with caplog.at_level("WARNING", logger="repro.runners.trial"):
            out = TrialRunner(
                _double, timeout=5.0, metrics=reg
            ).run_seeds([1, 2])
        assert out == [2, 4]
        assert any(
            "cannot be" in r.getMessage() and "enforced" in r.getMessage()
            for r in caplog.records
        )
        assert reg.value("runner_timeout_unenforced_total") == 1

    def test_no_timeout_no_warning(self, caplog):
        reg = MetricsRegistry()
        with caplog.at_level("WARNING", logger="repro.runners.trial"):
            TrialRunner(_double, metrics=reg).run_seeds([1, 2])
        assert not [
            r for r in caplog.records if "enforced" in r.getMessage()
        ]
        assert not reg.value("runner_timeout_unenforced_total")
