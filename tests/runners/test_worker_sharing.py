"""Per-worker trial-function sharing in the process pool.

The pool's initializer unpickles the trial function once per worker and
each submit carries only the seed, so a heavyweight callable (closing
over a large path collection, say) is deserialized ``jobs`` times per
batch instead of ``trials`` times. These tests pin that contract: the
unpickle count is bounded by the worker count and results stay
identical to serial.
"""

import os

from repro.runners import TrialRunner


class CountingTrial:
    """Trial callable that logs every unpickle to a marker file."""

    def __init__(self, marker_path):
        self.marker_path = marker_path

    def __getstate__(self):
        return {"marker_path": self.marker_path}

    def __setstate__(self, state):
        self.marker_path = state["marker_path"]
        # One line per deserialization, tagged by worker pid.
        with open(self.marker_path, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")

    def __call__(self, seed):
        return seed % 97


class TestWorkerSharing:
    def test_fn_unpickled_once_per_worker(self, tmp_path):
        marker = tmp_path / "unpickles.txt"
        fn = CountingTrial(str(marker))
        pooled = TrialRunner(fn, jobs=2).run(12, seed=3)
        serial = TrialRunner(CountingTrial(str(tmp_path / "s.txt"))).run(
            12, seed=3
        )
        assert pooled == serial
        lines = marker.read_text(encoding="utf-8").splitlines()
        # One unpickle per worker that actually started -- never one per
        # trial. (A worker may not start if the batch drains first.)
        assert 1 <= len(lines) <= 2, lines
        assert len(lines) < 12
