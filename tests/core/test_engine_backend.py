"""Engine boundary fixes: empty rounds, launch validation, eviction, fork.

Covers: the empty-launch observability fix (rounds are tallied even
when nothing launches), launch validation at the engine boundary
(negative delays / wavelengths raise ``ProtocolError`` even from
launch-shaped objects that bypassed ``Launch``'s own checks), the
stale-occupancy eviction (the dict stays bounded across a long round)
and :meth:`RoutingEngine.fork`. The equivalence of the kernel's two
event walks is property-tested in
``tests/property/test_differential_backend.py``.
"""

import pytest

import repro.core.engine as engine_mod
from repro.core.engine import RoundCall, RoutingEngine, run_round_batch
from repro.core.records import RoundResult
from repro.errors import ProtocolError
from repro.observability.metrics import MetricsRegistry
from repro.optics.coupler import CollisionRule
from repro.worms.worm import Launch, Worm


def _chain_worms(n, path=(0, 1, 2), length=2):
    return [Worm(uid=i, path=path, length=length) for i in range(n)]


class _RawLaunch:
    """A launch-shaped object that skips Launch's own validation."""

    def __init__(self, worm, delay, wavelength, priority=0):
        self.worm = worm
        self.delay = delay
        self.wavelength = wavelength
        self.priority = priority


# Three paths into the one round kernel: ``RoutingEngine.run_round`` on
# the tuple walk, ``RoutingEngine.run_round`` on the columnar partition,
# and a batch of one through ``run_round_batch``. The ids are the labels
# of the three kernels it replaced, kept so the test ids stay stable.
_PATHS = {
    "python": (10**9, False),
    "vectorized": (0, False),
    "batched": (None, True),
}


@pytest.fixture(params=list(_PATHS))
def play(request, monkeypatch):
    """Return ``play(engine, launches)`` running one round on a path."""
    walk, batched = _PATHS[request.param]
    if walk is not None:
        monkeypatch.setattr(engine_mod, "_PARTITION_MIN_EVENTS", walk)
    if batched:
        return lambda engine, launches: run_round_batch(
            [RoundCall(engine, launches)]
        )[0]
    return lambda engine, launches: engine.run_round(launches)


class TestEmptyRoundAccounting:
    """An empty-launch round must still be visible to observability."""

    def test_empty_round_counted(self, play):
        registry = MetricsRegistry()
        engine = RoutingEngine(
            _chain_worms(2), CollisionRule.SERVE_FIRST, metrics=registry
        )
        result = play(engine, [])
        assert result == RoundResult(outcomes={}, collisions=(), makespan=None)
        assert registry.value("engine_rounds_total", rule="serve_first") == 1
        assert registry.value("engine_events_total", rule="serve_first") == 0
        assert registry.value("engine_worms_launched_total", rule="serve_first") == 0
        # A real round afterwards keeps counting from there.
        play(engine, [Launch(worm=0, delay=0, wavelength=0)])
        assert registry.value("engine_rounds_total", rule="serve_first") == 2

    def test_empty_round_observes_wall_time(self):
        registry = MetricsRegistry()
        engine = RoutingEngine(
            _chain_worms(1), CollisionRule.SERVE_FIRST, metrics=registry
        )
        engine.run_round([])
        hist = registry.value("engine_round_seconds", rule="serve_first")
        assert hist["count"] == 1


class TestLaunchValidationAtEngine:
    """The engine revalidates launches; garbage must not corrupt a round."""

    def test_negative_delay_rejected(self, play):
        engine = RoutingEngine(_chain_worms(1), CollisionRule.SERVE_FIRST)
        with pytest.raises(ProtocolError, match="negative launch delay"):
            play(engine, [_RawLaunch(0, delay=-1, wavelength=0)])

    def test_negative_wavelength_rejected(self, play):
        engine = RoutingEngine(_chain_worms(1), CollisionRule.SERVE_FIRST)
        with pytest.raises(ProtocolError, match="negative wavelength"):
            play(engine, [_RawLaunch(0, delay=0, wavelength=-2)])

    def test_unknown_uid_rejected(self, play):
        engine = RoutingEngine(_chain_worms(2), CollisionRule.SERVE_FIRST)
        launches = [Launch(worm=0, delay=0, wavelength=0),
                    Launch(worm=7, delay=0, wavelength=0)]
        with pytest.raises(ProtocolError,
                           match="^launch names unknown worm uid 7$"):
            play(engine, launches)

    def test_duplicate_launch_rejected(self, play):
        engine = RoutingEngine(_chain_worms(3), CollisionRule.SERVE_FIRST)
        launches = [Launch(worm=i, delay=i, wavelength=0) for i in (1, 0, 1)]
        with pytest.raises(ProtocolError, match="^worm uid 1 launched twice$"):
            play(engine, launches)

    def test_first_bad_launch_named(self, play):
        # Validation reports the first offending launch in launch order,
        # whichever check it fails.
        engine = RoutingEngine(_chain_worms(3), CollisionRule.SERVE_FIRST)
        launches = [
            Launch(worm=0, delay=0, wavelength=0),
            Launch(worm=0, delay=1, wavelength=0),
            Launch(worm=9, delay=0, wavelength=0),
        ]
        with pytest.raises(ProtocolError, match="^worm uid 0 launched twice$"):
            play(engine, launches)
        launches = [
            Launch(worm=0, delay=0, wavelength=0),
            _RawLaunch(1, delay=-3, wavelength=0),
            Launch(worm=0, delay=1, wavelength=0),
        ]
        with pytest.raises(ProtocolError,
                           match="^worm 1: negative launch delay -3$"):
            play(engine, launches)

    def test_retired_uid_rejected(self, play):
        engine = RoutingEngine(_chain_worms(2), CollisionRule.SERVE_FIRST)
        engine.retire_worms([1])
        with pytest.raises(ProtocolError,
                           match="^launch names unknown worm uid 1$"):
            play(engine, [Launch(worm=1, delay=0, wavelength=0)])

    def test_negative_per_link_wavelength_rejected(self):
        engine = RoutingEngine(_chain_worms(1), CollisionRule.SERVE_FIRST)
        with pytest.raises(ProtocolError, match="negative per-link wavelength"):
            engine.run_round([_RawLaunch(0, delay=0, wavelength=(0, -1))])

    def test_per_link_length_mismatch_still_rejected(self):
        engine = RoutingEngine(_chain_worms(1), CollisionRule.SERVE_FIRST)
        with pytest.raises(ProtocolError, match="per-link wavelengths"):
            engine.run_round([_RawLaunch(0, delay=0, wavelength=(0, 0, 0))])

    def test_valid_raw_launch_passes(self):
        engine = RoutingEngine(_chain_worms(1), CollisionRule.SERVE_FIRST)
        result = engine.run_round([_RawLaunch(0, delay=1, wavelength=(1, 0))])
        assert result.outcomes[0].delivered


class TestOccupancyEviction:
    """Stale records are evicted on detection, not re-checked forever."""

    def _spy_install(self, engine, captured):
        original = engine._install

        def spy(occupancy, key, run, pos, t):
            captured.setdefault("occupancy", occupancy)
            original(occupancy, key, run, pos, t)

        engine._install = spy

    def test_stale_records_evicted(self):
        # One seed worm delivers; staggered all-lose pairs then arrive at
        # the first link long after each predecessor's tail cleared. Each
        # pair finds a stale record (evict) and eliminates itself without
        # installing, so without eviction the first link's key would pin
        # a dead record until the end of the round.
        worms = _chain_worms(8)
        engine = RoutingEngine(worms, CollisionRule.SERVE_FIRST)
        captured = {}
        self._spy_install(engine, captured)
        launches = [Launch(worm=0, delay=0, wavelength=0)]
        launches += [Launch(worm=1, delay=10, wavelength=0)]
        for batch, base in enumerate((20, 30, 40)):
            launches += [
                Launch(worm=2 + 2 * batch + k, delay=base, wavelength=0)
                for k in range(2)
            ]
        result = engine.run_round(launches)
        assert result.outcomes[0].delivered and result.outcomes[1].delivered
        assert sum(not o.delivered for o in result.outcomes.values()) == 6
        occupancy = captured["occupancy"]
        # Only the last surviving worm's last-link record may remain; the
        # contended first-link key was evicted, not left stale.
        assert len(occupancy) == 1
        (key, record), = occupancy.items()
        assert key == (engine._link_index[(1, 2)], 0)
        assert record.run.uid == 1

    def test_dict_bounded_by_live_keys_not_arrivals(self):
        # Many far-apart worms over one path: every arrival evicts its
        # predecessor's stale record, so the dict never exceeds the two
        # (link, wavelength) keys no matter how many worms pass through.
        n = 30
        worms = _chain_worms(n)
        engine = RoutingEngine(worms, CollisionRule.SERVE_FIRST)
        captured = {}
        self._spy_install(engine, captured)
        launches = [Launch(worm=i, delay=10 * i, wavelength=0) for i in range(n)]
        result = engine.run_round(launches)
        assert all(o.delivered for o in result.outcomes.values())
        assert len(captured["occupancy"]) <= 2


class TestFork:
    """``fork()``: a clone sharing precomputed layout, not metrics."""

    def _engine(self, **kwargs):
        return RoutingEngine(
            _chain_worms(3), CollisionRule.SERVE_FIRST, **kwargs
        )

    def test_fork_inherits_metrics_by_default(self):
        registry = MetricsRegistry()
        parent = self._engine(metrics=registry)
        assert parent.fork()._metrics is registry

    def test_fork_overrides_metrics(self):
        parent = self._engine(metrics=MetricsRegistry())
        mine = MetricsRegistry()
        clone = parent.fork(metrics=mine)
        assert clone._metrics is mine
        clone2 = parent.fork(metrics=None)
        assert clone2._metrics is None

    def test_fork_rounds_bit_identical(self):
        launches = [Launch(worm=i, delay=i, wavelength=0) for i in range(3)]
        parent = self._engine()
        clone = parent.fork()
        assert clone.run_round(launches) == parent.run_round(launches)

    def test_fork_registration_does_not_leak_to_parent(self):
        parent = self._engine()
        clone = parent.fork()
        clone._register(Worm(uid=99, path=(0, 1), length=1))
        assert 99 in clone._worms
        assert 99 not in parent._worms
