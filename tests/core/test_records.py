"""Direct tests of the result record types."""

import numpy as np
import pytest

from repro.core.records import (
    CollisionEvent,
    CollisionKind,
    OutcomeColumns,
    ProtocolResult,
    RoundRecord,
    RoundResult,
)
from repro.worms.worm import FailureKind, WormOutcome


def _outcome(uid, delivered, flits=4):
    if delivered:
        return WormOutcome(
            worm=uid, delivered=True, delivered_flits=flits, completion_time=9
        )
    return WormOutcome(
        worm=uid,
        delivered=False,
        delivered_flits=0,
        failure=FailureKind.ELIMINATED,
        failed_at_link=0,
        blockers=(99,),
    )


class TestRoundResult:
    def test_views(self):
        rr = RoundResult(
            outcomes={0: _outcome(0, True), 1: _outcome(1, False), 2: _outcome(2, True)},
            collisions=(),
            makespan=9,
        )
        assert sorted(rr.delivered) == [0, 2]
        assert rr.failed == [1]
        assert rr.n_delivered == 2 and rr.n_failed == 1

    def test_empty_failures(self):
        rr = RoundResult(outcomes={0: _outcome(0, True)}, collisions=(), makespan=9)
        assert rr.failed == [] and rr.n_failed == 0


    def test_columns_build_the_same_outcomes(self):
        # Rows: 7 delivered, 3 eliminated at link 2 by worm 7, 5
        # truncated to 2 flits, 1 faulted at link 0.
        cols = OutcomeColumns(
            worm=np.array([7, 3, 5, 1]),
            kind=np.array([0, 1, 2, 3], dtype=np.int8),
            flits=np.array([4, 0, 2, 0]),
            failed_at=np.array([-1, 2, -1, 0]),
            completion=np.array([9, -1, 11, -1]),
            blockers={1: (7,), 2: (3,)},
        )
        rr = RoundResult(collisions=(), makespan=12, columns=cols)
        assert list(rr.outcomes) == [7, 3, 5, 1]
        assert rr.outcomes == {
            7: WormOutcome(worm=7, delivered=True, delivered_flits=4,
                           completion_time=9),
            3: WormOutcome(worm=3, delivered=False, delivered_flits=0,
                           failure=FailureKind.ELIMINATED, failed_at_link=2,
                           blockers=(7,)),
            5: WormOutcome(worm=5, delivered=False, delivered_flits=2,
                           failure=FailureKind.TRUNCATED, completion_time=11,
                           blockers=(3,)),
            1: WormOutcome(worm=1, delivered=False, delivered_flits=0,
                           failure=FailureKind.FAULTED, failed_at_link=0),
        }
        assert rr.delivered == [7] and rr.n_failed == 3
        assert cols.counts() == [1, 1, 1, 1]
        assert rr == RoundResult(outcomes=dict(rr.outcomes), makespan=12)

    def test_needs_exactly_one_form(self):
        with pytest.raises(ValueError):
            RoundResult(makespan=1)


class TestRoundRecord:
    def test_defaults(self):
        rec = RoundRecord(
            index=1,
            delay_range=8,
            active_before=10,
            delivered=4,
            eliminated=5,
            truncated=1,
            acked=4,
            duration=30,
            observed_span=25,
        )
        assert rec.active_congestion is None
        assert rec.faulted == 0


class TestProtocolResult:
    def _result(self):
        recs = (
            RoundRecord(1, 8, 3, 2, 1, 0, 2, 30, 25),
            RoundRecord(2, 4, 1, 1, 0, 0, 1, 26, 12),
        )
        return ProtocolResult(
            completed=True,
            rounds=2,
            total_time=56,
            observed_time=37,
            records=recs,
            delivered_round={0: 1, 1: 1, 2: 2},
        )

    def test_histogram(self):
        assert self._result().rounds_histogram() == {1: 2, 2: 1}

    def test_histogram_sorted(self):
        r = ProtocolResult(
            completed=True,
            rounds=3,
            total_time=1,
            observed_time=1,
            records=(),
            delivered_round={0: 3, 1: 1, 2: 3},
        )
        assert list(r.rounds_histogram()) == [1, 3]

    def test_n_worms_delivered(self):
        assert self._result().n_worms_delivered == 3

    def test_default_collision_logs_empty(self):
        assert self._result().collisions_per_round == ()


class TestCollisionEvent:
    def test_fields(self):
        ev = CollisionEvent(
            time=5,
            link=("a", "b"),
            wavelength=2,
            blocked=1,
            blocker=0,
            link_pos=3,
            kind=CollisionKind.TRUNCATED,
        )
        assert ev.kind is CollisionKind.TRUNCATED
        assert ev.link == ("a", "b")

    def test_frozen(self):
        ev = CollisionEvent(
            time=5, link=("a", "b"), wavelength=0, blocked=1, blocker=0,
            link_pos=0, kind=CollisionKind.ELIMINATED,
        )
        with pytest.raises(AttributeError):
            ev.time = 6
