"""TrialRunner batch dispatch: seed *slices* as the unit of work.

``batch_size=`` switches the runner to batch mode: the trial fn takes a
list of seeds and returns one result per seed. These tests pin the
contract the batched protocol backend depends on -- results, merged
metrics and the checkpoint journal are bit-identical to per-seed
execution for any ``jobs`` and any slice boundary -- plus the
batch-specific failure modes (a fn returning the wrong shape, a unit
failing after retries).
"""

import json

import pytest

from repro.errors import TrialError
from repro.observability.metrics import MetricsRegistry
from repro.runners import TrialProgress, TrialRunner, spawn_seeds


def _double(seed):
    return seed * 2


def _double_batch(seeds):
    return [seed * 2 for seed in seeds]


def _bad_shape_batch(seeds):
    return [0] * (len(seeds) + 1)


def _not_iterable_batch(seeds):
    return 42


def _boom_batch(seeds):
    raise RuntimeError("unit boom")


class TestValidation:
    def test_bad_batch_size(self):
        with pytest.raises(TrialError):
            TrialRunner(_double_batch, batch_size=0)

    def test_wrong_result_length_raises(self):
        runner = TrialRunner(_bad_shape_batch, batch_size=2)
        with pytest.raises(TrialError, match="result"):
            runner.run(4, seed=0)

    def test_non_iterable_result_raises(self):
        runner = TrialRunner(_not_iterable_batch, batch_size=2)
        with pytest.raises(TrialError):
            runner.run(4, seed=0)

    def test_failed_unit_names_the_slice(self):
        runner = TrialRunner(_boom_batch, batch_size=3)
        with pytest.raises(TrialError, match=r"trial unit 0\.\.2"):
            runner.run(3, seed=0)


class TestBitIdentity:
    def test_serial_batch_matches_per_seed(self):
        per_seed = TrialRunner(_double, jobs=1).run(10, seed=5)
        for batch_size in (1, 3, 10, 64):
            batched = TrialRunner(
                _double_batch, jobs=1, batch_size=batch_size
            ).run(10, seed=5)
            assert batched == per_seed

    def test_pool_batch_matches_serial(self):
        serial = TrialRunner(_double_batch, jobs=1, batch_size=4).run(
            11, seed=9
        )
        pooled = TrialRunner(_double_batch, jobs=2, batch_size=4).run(
            11, seed=9
        )
        assert pooled == serial == [s * 2 for s in spawn_seeds(9, 11)]

    def test_progress_reports_every_trial(self):
        events: list[TrialProgress] = []
        TrialRunner(
            _double_batch, jobs=1, batch_size=4, progress=events.append
        ).run(6, seed=0)
        assert [e.done for e in events] == list(range(1, 7))
        assert all(e.total == 6 for e in events)

    def test_trials_counted_in_metrics(self):
        registry = MetricsRegistry()
        TrialRunner(
            _double_batch, jobs=1, batch_size=2, metrics=registry
        ).run(5, seed=1)
        snap = registry.snapshot()
        counts = snap["runner_trials_total"]["values"]
        assert sum(counts.values()) == 5


_CALLS = {"count": 0}


def _counting_batch(seeds):
    _CALLS["count"] += 1
    return [seed * 2 for seed in seeds]


class TestCheckpointing:
    def test_checkpoint_bytes_identical_across_jobs_and_slices(
        self, tmp_path
    ):
        # batch_size is deliberately NOT part of the checkpoint context:
        # a resume may re-slice, so the final journal must be a pure
        # function of (fn, seeds, results) -- same bytes for any jobs
        # and any slice width.
        # The per-seed shape obeys the same rule for any jobs; its
        # journal differs from the batch one only in the context digest
        # (another trial function), never in the completed trials.
        journals = {}
        for fn, jobs, batch_size in (
            (_double_batch, 1, 3), (_double_batch, 1, 2),
            (_double_batch, 2, 4), (_double, 1, None), (_double, 2, None),
        ):
            path = tmp_path / f"{fn.__name__}-{jobs}-{batch_size}.json"
            TrialRunner(
                fn, jobs=jobs, batch_size=batch_size, checkpoint=path,
            ).run(7, seed=3)
            journals.setdefault(fn, []).append(path.read_bytes())
        batch, per_seed = journals[_double_batch], journals[_double]
        assert batch[0] == batch[1] == batch[2]
        assert per_seed[0] == per_seed[1]
        assert (
            json.loads(batch[0])["completed"]
            == json.loads(per_seed[0])["completed"]
        )

    def test_resume_skips_completed_and_reslices(self, tmp_path):
        ckpt = tmp_path / "c.json"
        first = TrialRunner(
            _counting_batch, jobs=1, batch_size=2, checkpoint=ckpt
        ).run(8, seed=7)
        calls_before = _CALLS["count"]
        # Resume with a *different* slice width: every trial preloads
        # from the journal, the fn never runs again, output unchanged.
        second = TrialRunner(
            _counting_batch, jobs=1, batch_size=3, checkpoint=ckpt
        ).run(8, seed=7)
        assert second == first == [s * 2 for s in spawn_seeds(7, 8)]
        assert _CALLS["count"] == calls_before
