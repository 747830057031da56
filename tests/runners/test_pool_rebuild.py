"""BrokenProcessPool recovery: rebuild the pool, resubmit, bounded cap.

Every test runs both callable shapes: per-seed ``fn(seed)`` and batch
``fn(seeds)`` dispatched in slices of two.
"""

import os
from functools import partial

import pytest

from repro.errors import TrialError
from repro.observability import MetricsRegistry
from repro.runners import TrialRunner, spawn_seeds


def _crash_once(seed, marker):
    """Hard-kill the first worker to claim the marker file, then behave.

    ``os._exit`` bypasses every Python-level except clause, so the parent
    sees a BrokenProcessPool -- the same signature as an OOM kill or a
    segfaulting extension -- rather than a catchable trial exception.
    """
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        os.close(fd)
    except FileExistsError:
        return seed * 2
    os._exit(1)


def _crash_once_batch(seeds, marker):
    return [_crash_once(seed, marker) for seed in seeds]


def _always_crashes(seed):
    os._exit(1)


def _always_crashes_batch(seeds):
    os._exit(1)


def _shapes(per_seed, batch):
    """Both callable shapes as ``(fn, batch_size)``: per seed, and slices of 2."""
    return [(per_seed, None), (batch, 2)]


class TestPoolRebuild:
    def test_one_crash_is_absorbed(self, tmp_path):
        seeds = spawn_seeds(3, 5)
        for k, (fn, batch_size) in enumerate(
            _shapes(_crash_once, _crash_once_batch)
        ):
            marker = str(tmp_path / f"crashed-{k}.marker")
            reg = MetricsRegistry()
            runner = TrialRunner(
                partial(fn, marker=marker),
                jobs=2,
                retries=0,  # rebuilds must not consume per-trial retries
                metrics=reg,
                batch_size=batch_size,
            )
            assert runner.run_seeds(seeds) == [s * 2 for s in seeds]
            assert reg.value("runner_pool_rebuilds_total") >= 1

    def test_rebuild_logs_resubmission(self, tmp_path, caplog):
        for k, (fn, batch_size) in enumerate(
            _shapes(_crash_once, _crash_once_batch)
        ):
            marker = str(tmp_path / f"crashed-{k}.marker")
            caplog.clear()
            with caplog.at_level("WARNING", logger="repro.runners.trial"):
                TrialRunner(
                    partial(fn, marker=marker), jobs=2, batch_size=batch_size
                ).run_seeds(spawn_seeds(1, 4))
            assert any(
                "worker pool broke" in r.getMessage() for r in caplog.records
            )

    def test_persistent_breakage_hits_cap(self):
        for fn, batch_size in _shapes(_always_crashes, _always_crashes_batch):
            reg = MetricsRegistry()
            runner = TrialRunner(
                fn, jobs=2, metrics=reg, batch_size=batch_size
            )
            with pytest.raises(TrialError, match="pool broke"):
                runner.run_seeds(spawn_seeds(0, 4))
            # The cap is separate from retries: 3 rebuilds + the final one.
            assert reg.value("runner_pool_rebuilds_total") == 4

    def test_rebuild_preserves_checkpoint_flow(self, tmp_path):
        """A crash mid-batch still journals every settled trial."""
        seeds = spawn_seeds(8, 5)
        for k, (fn, batch_size) in enumerate(
            _shapes(_crash_once, _crash_once_batch)
        ):
            marker = str(tmp_path / f"crashed-{k}.marker")
            ckpt = tmp_path / f"batch-{k}.json"
            out = TrialRunner(
                partial(fn, marker=marker),
                jobs=2,
                checkpoint=ckpt,
                batch_size=batch_size,
            ).run_seeds(seeds)
            assert out == [s * 2 for s in seeds]
            # A rerun resumes entirely from the journal (fn would crash
            # no worker this time anyway, but nothing should even be
            # submitted).
            reg = MetricsRegistry()
            again = TrialRunner(
                partial(fn, marker=marker),
                jobs=2,
                checkpoint=ckpt,
                metrics=reg,
                batch_size=batch_size,
            ).run_seeds(seeds)
            assert again == out
            assert reg.value("runner_checkpoint_loaded_total") == len(seeds)
