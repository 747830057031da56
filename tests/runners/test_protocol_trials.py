"""Parallel protocol trials must be bit-identical to serial execution."""

import json

import pytest

from repro.core import protocol
from repro.experiments.workloads import mesh_random_function
from repro.faults.models import TransientLinkFaults
from repro.optics.coupler import CollisionRule
from repro.runners import protocol_trial, route_collection_trials, spawn_seeds
from repro.runners.protocol_trials import LOCKSTEP_SLICE, lockstep_width


def _fingerprint(result):
    """Everything observable about one ProtocolResult, ordered."""
    return (
        result.completed,
        result.rounds,
        result.total_time,
        tuple(
            (r.index, r.delay_range, r.active_before, r.delivered,
             r.observed_span)
            for r in result.records
        ),
    )


@pytest.fixture(scope="module")
def collection():
    return mesh_random_function(4, 2, rng=0)


class TestSeedForSeedDeterminism:
    def test_pool_matches_serial_fingerprints(self, collection):
        serial = route_collection_trials(
            collection, bandwidth=2, trials=4, seed=11, jobs=1
        )
        pooled = route_collection_trials(
            collection, bandwidth=2, trials=4, seed=11, jobs=2
        )
        assert [_fingerprint(r) for r in serial] == [
            _fingerprint(r) for r in pooled
        ]

    def test_matches_direct_protocol_runs(self, collection):
        from repro.core.protocol import ProtocolConfig

        config = ProtocolConfig(bandwidth=2, worm_length=4)
        seeds = spawn_seeds(11, 3)
        direct = [
            _fingerprint(protocol_trial(s, collection, config)) for s in seeds
        ]
        batched = [
            _fingerprint(r)
            for r in route_collection_trials(
                collection, bandwidth=2, trials=3, seed=11, jobs=2
            )
        ]
        assert direct == batched

    def test_priority_rule_passthrough(self, collection):
        serial = route_collection_trials(
            collection, bandwidth=2, trials=2, seed=3,
            rule=CollisionRule.PRIORITY, jobs=1,
        )
        pooled = route_collection_trials(
            collection, bandwidth=2, trials=2, seed=3,
            rule=CollisionRule.PRIORITY, jobs=2,
        )
        assert [_fingerprint(r) for r in serial] == [
            _fingerprint(r) for r in pooled
        ]


class TestBatchedBackendDispatch:
    """Seed-slice dispatch: slices of two or more seeds run in lockstep.

    The runner cuts the trials into ``min(ceil(trials / jobs),
    LOCKSTEP_SLICE)``-seed slices. The results, the merged metrics
    (modulo run-dependent wall-clock histogram values and
    runner-internal counters) and the checkpoint journal must be
    bit-identical to per-seed serial execution for any ``jobs``. (The names predate the single round kernel, when lockstep
    dispatch was opted into with ``backend="batched"``.)
    """

    @staticmethod
    def _strip(snapshot):
        out = {}
        for name, metric in snapshot.items():
            if name.startswith("runner_"):
                continue
            if metric.get("kind") == "histogram":
                out[name] = {
                    k: v.get("count") for k, v in metric["values"].items()
                }
            else:
                out[name] = metric["values"]
        return out

    def test_results_match_vectorized_for_any_jobs(self, collection):
        from repro.core.protocol import ProtocolConfig

        config = ProtocolConfig(bandwidth=2, worm_length=4)
        base = [protocol_trial(s, collection, config) for s in spawn_seeds(11, 6)]
        # jobs=6 cuts one-seed slices (per-seed runs); the rest lockstep.
        for jobs in (1, 2, 3, 6):
            got = route_collection_trials(
                collection, bandwidth=2, trials=6, seed=11, jobs=jobs,
            )
            assert got == base, jobs

    def test_merged_metrics_match_serial(self, collection):
        from repro.observability.metrics import MetricsRegistry

        serial = MetricsRegistry()
        route_collection_trials(
            collection, bandwidth=2, trials=6, seed=11, jobs=1,
            metrics=serial,
        )
        pooled = MetricsRegistry()
        route_collection_trials(
            collection, bandwidth=2, trials=6, seed=11, jobs=2,
            metrics=pooled,
        )
        assert self._strip(pooled.snapshot()) == self._strip(serial.snapshot())

    def test_checkpoint_bytes_match_across_jobs(self, collection, tmp_path):
        a, b = tmp_path / "serial.json", tmp_path / "pooled.json"
        serial = route_collection_trials(
            collection, bandwidth=2, trials=5, seed=4, jobs=1,
            checkpoint=a,
        )
        pooled = route_collection_trials(
            collection, bandwidth=2, trials=5, seed=4, jobs=2,
            checkpoint=b,
        )
        assert serial == pooled
        assert a.read_bytes() == b.read_bytes()

    def test_faulty_config_still_bit_identical(self, collection):
        kwargs = dict(
            bandwidth=2, trials=4, seed=17, faults=TransientLinkFaults(0.05),
            repair="reroute",
        )
        base = route_collection_trials(collection, jobs=4, **kwargs)
        got = route_collection_trials(collection, jobs=2, **kwargs)
        assert got == base


class _Killed(Exception):
    """Stands in for a kill: raised from a progress callback."""


class TestLockstepSlices:
    """Slices are capped at ``LOCKSTEP_SLICE`` seeds, and a timeout
    makes every slice one seed, so a slice never outgrows the unit of
    checkpoint write, progress report and memory that was measured."""

    TRIALS = LOCKSTEP_SLICE + 4

    @pytest.fixture
    def lockstep_calls(self, monkeypatch):
        calls = []
        real = protocol.run_protocol_batch

        def spy(collection, config, seeds, **kwargs):
            calls.append(len(seeds))
            return real(collection, config, seeds, **kwargs)

        monkeypatch.setattr(protocol, "run_protocol_batch", spy)
        return calls

    def test_serial_slices_are_capped(self, collection, lockstep_calls):
        got = route_collection_trials(
            collection, bandwidth=2, trials=self.TRIALS, seed=5, jobs=1
        )
        assert lockstep_calls == [LOCKSTEP_SLICE, 4]
        config = protocol.ProtocolConfig(bandwidth=2, worm_length=4)
        assert got == [
            protocol_trial(s, collection, config)
            for s in spawn_seeds(5, self.TRIALS)
        ]

    def test_width_rule(self):
        # Shared by route_collection_trials and sweep shards (jobs=1).
        assert lockstep_width(self.TRIALS) == LOCKSTEP_SLICE
        assert lockstep_width(self.TRIALS, jobs=2) == 10
        assert lockstep_width(7, jobs=2) == 4
        assert lockstep_width(3, jobs=4) == 1
        assert lockstep_width(self.TRIALS, jobs=2, timeout=5.0) == 1

    def test_timeout_runs_one_seed_slices(self, collection, lockstep_calls):
        route_collection_trials(
            collection, bandwidth=2, trials=4, seed=5, jobs=1, timeout=60.0
        )
        assert lockstep_calls == []

    def test_killed_run_resumes_from_settled_slice(self, collection, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        kwargs = dict(bandwidth=2, trials=self.TRIALS, seed=5, jobs=1)

        def kill(_event):
            raise _Killed

        with pytest.raises(_Killed):
            route_collection_trials(
                collection, checkpoint=ckpt, progress=kill, **kwargs
            )
        saved = json.loads(ckpt.read_text(encoding="utf-8"))["completed"]
        assert sorted(map(int, saved)) == list(range(LOCKSTEP_SLICE))

        settled = []
        resumed = route_collection_trials(
            collection, checkpoint=ckpt, progress=settled.append, **kwargs
        )
        assert len(settled) == self.TRIALS - LOCKSTEP_SLICE
        assert resumed == route_collection_trials(collection, **kwargs)
