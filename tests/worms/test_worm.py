"""Tests for worm records."""

import pytest

from repro.worms.worm import (
    FailureKind,
    Launch,
    LaunchColumns,
    Worm,
    WormOutcome,
    make_worms,
)


class TestWorm:
    def test_basic_properties(self):
        w = Worm(uid=3, path=("a", "b", "c"), length=4)
        assert w.source == "a"
        assert w.destination == "c"
        assert w.n_links == 2
        assert w.links() == [("a", "b"), ("b", "c")]

    def test_path_coerced_to_tuple(self):
        w = Worm(uid=0, path=["a", "b"], length=1)
        assert isinstance(w.path, tuple)

    def test_non_positive_length_rejected(self):
        with pytest.raises(ValueError):
            Worm(uid=0, path=("a", "b"), length=0)

    def test_single_node_path_rejected(self):
        with pytest.raises(ValueError):
            Worm(uid=0, path=("a",), length=1)

    def test_make_worms_assigns_uids_in_order(self):
        worms = make_worms([("a", "b"), ("b", "c"), ("c", "d")], length=2)
        assert [w.uid for w in worms] == [0, 1, 2]
        assert all(w.length == 2 for w in worms)


class TestLaunch:
    def test_defaults(self):
        launch = Launch(worm=0, delay=0, wavelength=0)
        assert launch.priority == 0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Launch(worm=0, delay=-1, wavelength=0)

    def test_negative_wavelength_rejected(self):
        with pytest.raises(ValueError):
            Launch(worm=0, delay=0, wavelength=-1)

    def test_scalar_wavelength_at(self):
        launch = Launch(worm=0, delay=0, wavelength=3)
        assert launch.wavelength_at(0) == 3
        assert launch.wavelength_at(7) == 3

    def test_per_link_wavelengths(self):
        launch = Launch(worm=0, delay=0, wavelength=(1, 0, 2))
        assert [launch.wavelength_at(i) for i in range(3)] == [1, 0, 2]

    def test_empty_per_link_rejected(self):
        with pytest.raises(ValueError):
            Launch(worm=0, delay=0, wavelength=())

    def test_negative_per_link_rejected(self):
        with pytest.raises(ValueError):
            Launch(worm=0, delay=0, wavelength=(0, -1))


class TestLaunchColumns:
    def test_round_trip_through_launches(self):
        launches = [
            Launch(worm=4, delay=2, wavelength=1, priority=7),
            Launch(worm=0, delay=0, wavelength=(1, 0, 1), priority=-3),
        ]
        cols = LaunchColumns.from_launches(launches)
        assert len(cols) == 2
        assert cols.worm.tolist() == [4, 0]
        assert cols.per_link == {1: (1, 0, 1)}
        assert list(cols) == launches

    def test_empty(self):
        cols = LaunchColumns.from_launches([])
        assert len(cols) == 0 and list(cols) == []


class TestOutcome:
    def test_delivered_cannot_carry_failure(self):
        with pytest.raises(ValueError):
            WormOutcome(
                worm=0,
                delivered=True,
                delivered_flits=4,
                failure=FailureKind.ELIMINATED,
            )

    def test_failed_must_carry_failure(self):
        with pytest.raises(ValueError):
            WormOutcome(worm=0, delivered=False, delivered_flits=0)

    def test_negative_flits_rejected(self):
        with pytest.raises(ValueError):
            WormOutcome(
                worm=0,
                delivered=False,
                delivered_flits=-1,
                failure=FailureKind.ELIMINATED,
            )

    def test_truncated_outcome(self):
        o = WormOutcome(
            worm=1,
            delivered=False,
            delivered_flits=2,
            failure=FailureKind.TRUNCATED,
            completion_time=9,
            blockers=(5,),
        )
        assert o.failure is FailureKind.TRUNCATED
        assert o.blockers == (5,)
