"""Sweep plans: prefix-stable seeds, sharding arithmetic, identity."""

import json

import pytest

from repro.errors import SweepError
from repro.runners import spawn_seeds
from repro.sweep import SweepConfig, SweepPlan, build_collection, default_plan


def _plan(**overrides) -> SweepPlan:
    defaults = dict(trials=6, shard_size=2, side=3)
    defaults.update(overrides)
    return default_plan(**defaults)


class TestSeeds:
    def test_child_seeds_are_spawn_seeds(self):
        cfg = SweepConfig(trials=5, seed=42)
        assert cfg.child_seeds() == spawn_seeds(42, 5)

    def test_prefix_stable_in_trial_budget(self):
        small = SweepConfig(trials=4, seed=7).child_seeds()
        grown = SweepConfig(trials=9, seed=7).child_seeds()
        assert grown[:4] == small


class TestSharding:
    def test_shards_partition_the_seed_stream(self):
        plan = _plan()
        for ci, cfg in enumerate(plan.configs):
            pieces = [
                list(s.seeds) for s in plan.shards() if s.config == ci
            ]
            assert sum(pieces, []) == cfg.child_seeds()

    def test_global_indices_are_config_major(self):
        shards = _plan().shards()
        assert [s.index for s in shards] == list(range(len(shards)))
        assert [s.config for s in shards] == sorted(s.config for s in shards)

    def test_configs_never_share_a_shard(self):
        for shard in _plan(trials=5, shard_size=2).shards():
            cfg = _plan(trials=5, shard_size=2).configs[shard.config]
            assert set(shard.seeds) <= set(cfg.child_seeds())

    def test_total_trials(self):
        assert _plan().total_trials() == 12  # 2 fault configs x 6 trials


class TestIdentity:
    def test_json_round_trip(self):
        plan = _plan()
        assert SweepPlan.from_json(plan.to_json()) == plan

    def test_digest_stable_and_content_sensitive(self):
        assert _plan().digest() == _plan().digest()
        assert _plan().digest() != _plan(trials=7).digest()

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(SweepError, match="not found"):
            SweepPlan.load(tmp_path / "nope.json")

    def test_load_bad_json(self, tmp_path):
        p = tmp_path / "plan.json"
        p.write_text("{torn")
        with pytest.raises(SweepError, match="not valid JSON"):
            SweepPlan.load(p)

    def test_unknown_keys_refused(self):
        with pytest.raises(SweepError, match="unknown sweep plan keys"):
            SweepPlan.from_dict({"name": "x", "configs": [], "bogus": 1})


class TestValidation:
    def test_empty_plan_refused(self):
        with pytest.raises(SweepError):
            SweepPlan(name="x", configs=())

    def test_bad_shard_size(self):
        with pytest.raises(SweepError, match="shard_size"):
            SweepPlan(name="x", configs=(SweepConfig(),), shard_size=0)

    def test_bad_trials_is_value_error(self):
        with pytest.raises(ValueError):
            SweepConfig(trials=0)


class TestBuildCollection:
    @pytest.mark.parametrize(
        "workload",
        [
            {"kind": "mesh", "side": 3, "d": 2},
            {"kind": "torus", "side": 3, "d": 2},
            {"kind": "hypercube", "dim": 3},
            {"kind": "butterfly", "dim": 3},
        ],
    )
    def test_kinds_build(self, workload):
        collection = build_collection(workload)
        assert len(collection) > 0

    def test_deterministic_in_rng(self):
        w = {"kind": "mesh", "side": 3, "d": 2, "rng": 5}
        assert repr(build_collection(w)) == repr(build_collection(w))

    def test_unknown_kind_refused(self):
        with pytest.raises(SweepError, match="unknown workload kind"):
            build_collection({"kind": "klein-bottle"})

    def test_unknown_params_refused(self):
        with pytest.raises(SweepError, match="unknown mesh params"):
            build_collection({"kind": "mesh", "side": 3, "wings": 2})

    def test_missing_kind_refused(self):
        with pytest.raises(SweepError, match="'kind'"):
            build_collection({"side": 3})


class TestBackendValidation:
    def test_known_backends_accepted(self):
        # Plans written while the engine had selectable backends carry a
        # per-config "backend" key; they still load (the key is dropped),
        # and their digest differs from the stored one, so a journal
        # written under them refuses to resume.
        fresh = SweepPlan(configs=(SweepConfig(trials=3),))
        for backend in (None, "python", "vectorized", "batched"):
            data = fresh.to_dict()
            data["configs"][0]["backend"] = backend
            loaded = SweepPlan.from_dict(data)
            assert loaded == fresh
            assert SweepPlan.from_json(json.dumps(data)) == fresh


class TestBatchedShardExecution:
    def test_shard_results_match_vectorized_up_to_label(self, tmp_path):
        # A shard of several seeds runs them in lockstep; its merged
        # groups must equal one-seed shards, which run each trial alone.
        from repro.observability.groupstats import GroupedStats
        from repro.sweep.worker import execute_shard

        def merged(shard_size, where):
            plan = SweepPlan(
                configs=[SweepConfig(trials=5)], shard_size=shard_size
            )
            groups = GroupedStats()
            for shard_index in range(len(plan.shards())):
                result = execute_shard(plan, shard_index, where)
                groups.merge(result["groups"])
            return groups.snapshot()

        assert merged(3, tmp_path / "lockstep") == merged(1, tmp_path / "solo")
