"""Differential testing: both event walks of the round kernel vs the oracle.

The engine has one round kernel with two event walks, chosen per round
from its head-event count (``_PARTITION_MIN_EVENTS``): small rounds sort
plain tuples and walk every group through the scalar resolver, large
rounds partition columnar arrays first and walk only their clashing and
dead-link events, settling the rest by arithmetic. Every test here runs each instance through *both* walks by
patching the crossover to 0 (always partition) and to a huge value
(always the tuple walk), and checks each against the brute-force
:func:`~repro.core.reference.reference_run_round`, which shares no
algorithmic structure with the engine. Blocker identities may
legitimately differ from the reference in all-lose ties, so that
comparison covers the observables (outcome kind, flit counts, cut
positions, completion times, makespan). The two walks must moreover be
*bit-identical* to each other -- full ``RoundResult`` equality including
collision events and faulted-link order, plus the flight-recorder
stream -- because checkpoint resume, golden traces and lockstep trials
all assume the walk is an implementation detail.

The class and test names predate the single kernel, when the three
compared implementations were selectable backends.
"""

import contextlib

from hypothesis import given, settings, strategies as st

import repro.core.engine as engine_mod
from repro.core.engine import RoundCall, RoutingEngine, run_round_batch
from repro.core.reference import reference_run_round
from repro.observability.analysis import verify_replay
from repro.observability.flightrec import FlightRecorder
from repro.optics.coupler import CollisionRule, TieRule
from repro.worms.worm import Launch, Worm

NODES = 5

RULES = [
    (CollisionRule.SERVE_FIRST, TieRule.ALL_LOSE),
    (CollisionRule.SERVE_FIRST, TieRule.LOWEST_ID_WINS),
    (CollisionRule.PRIORITY, TieRule.ALL_LOSE),
    (CollisionRule.PRIORITY, TieRule.LOWEST_ID_WINS),
]

#: Crossover values forcing each walk: 0 partitions every round, a huge
#: value sends every round through the tuple walk.
PARTITION, TUPLE_WALK = 0, 10**9
WALKS = (PARTITION, TUPLE_WALK)


@contextlib.contextmanager
def crossover(value):
    """Patch the kernel's event-count crossover for the block."""
    saved = engine_mod._PARTITION_MIN_EVENTS
    engine_mod._PARTITION_MIN_EVENTS = value
    try:
        yield
    finally:
        engine_mod._PARTITION_MIN_EVENTS = saved


@st.composite
def instances(draw, max_worms=5, max_len=4, max_delay=6, max_bandwidth=2,
              max_dead=2):
    """Random instances exercising every engine feature at once.

    Beyond ``test_differential_engine``'s strategy this also draws
    per-link wavelength tuples (some worms) and a small set of dead
    links sampled from the union of path links, so fault attribution
    and the per-link-wavelength event layout are covered too.
    """
    n_worms = draw(st.integers(1, max_worms))
    L = draw(st.integers(1, max_len))
    B = draw(st.integers(1, max_bandwidth))
    worms, launches = [], []
    ranks = draw(st.permutations(range(n_worms)))
    for uid in range(n_worms):
        path = draw(
            st.lists(st.integers(0, NODES - 1), min_size=2, max_size=NODES,
                     unique=True)
        )
        worm = Worm(uid=uid, path=tuple(path), length=L)
        worms.append(worm)
        if draw(st.booleans()):
            wavelength = tuple(
                draw(st.integers(0, B - 1)) for _ in range(worm.n_links)
            )
        else:
            wavelength = draw(st.integers(0, B - 1))
        launches.append(
            Launch(
                worm=uid,
                delay=draw(st.integers(0, max_delay)),
                wavelength=wavelength,
                priority=int(ranks[uid]),
            )
        )
    all_links = sorted({link for w in worms for link in w.links()})
    dead_links = draw(
        st.lists(st.sampled_from(all_links), max_size=max_dead, unique=True)
    )
    return worms, launches, tuple(dead_links)


@st.composite
def spine_instances(draw, max_len=10, max_spine_links=8, max_crossers=6,
                    max_dead=2):
    """One long spine worm crossed by short worms at chosen links and times.

    Every worm is on wavelength 0. Each crosser is one or two flits long. It joins the spine from a
    private node, rides one or two spine links, and reaches its first
    spine link while the spine is mid-transmission there, so crossers
    clash with the spine (or with each other) while the rest of the
    round stays free. Priorities are drawn around the spine's, so a
    crosser outranks it, loses to it or ties with it. Under the priority
    rule this builds repeated truncations of one occupant at different
    links -- where cut lengths must compose per link -- and, as the
    crossers are short, leaves the spine's drain visible in the
    makespan. ``instances()`` (short worms, few links) almost never
    reaches these cases.
    """
    L = draw(st.integers(2, max_len))
    n_spine = draw(st.integers(3, max_spine_links))
    n_cross = draw(st.integers(1, max_crossers))
    spine_delay = draw(st.integers(0, 2))
    worms = [Worm(uid=0, path=tuple(range(n_spine + 1)), length=L)]
    launches = [Launch(worm=0, delay=spine_delay, wavelength=0, priority=2)]
    for uid in range(1, n_cross + 1):
        at = draw(st.integers(0, n_spine - 1))
        span = draw(st.integers(1, min(2, n_spine - at)))
        worms.append(Worm(
            uid=uid,
            path=(100 + uid,) + tuple(range(at, at + span + 1)),
            length=draw(st.integers(1, 2)),
        ))
        # The crosser's link 1 is spine link ``at``: the spine's head
        # enters it at spine_delay + at and holds it for L steps.
        offset = draw(st.integers(1, L - 1))
        launches.append(Launch(
            worm=uid,
            delay=spine_delay + at + offset - 1,
            wavelength=0,
            priority=draw(st.integers(1, 3)),
        ))
    all_links = sorted({link for w in worms for link in w.links()})
    dead_links = draw(
        st.lists(st.sampled_from(all_links), max_size=max_dead, unique=True)
    )
    return worms, launches, tuple(dead_links)


class _Collector:
    """Minimal in-memory trace writer: ``.records`` of plain dicts."""

    def __init__(self):
        self.records = []

    def write(self, kind, **fields):
        self.records.append({"kind": kind, **fields})


def _round(worms, launches, rule, tie_rule, dead_links=(), recorder=None):
    return RoutingEngine(worms, rule, tie_rule).run_round(
        launches,
        collect_collisions=True,
        dead_links=dead_links or None,
        recorder=recorder,
    )


def _batch_round(worms, launches, rule, tie_rule, dead_links=(),
                 recorder=None):
    """One round through ``run_round_batch`` (a singleton batch)."""
    call = RoundCall(
        engine=RoutingEngine(worms, rule, tie_rule),
        launches=launches,
        collect_collisions=True,
        dead_links=dead_links or None,
        recorder=recorder,
    )
    [result] = run_round_batch([call])
    return result


def _assert_matches_reference(fast, worms, launches, dead_links, rule,
                              tie_rule):
    slow = reference_run_round(worms, launches, rule, tie_rule,
                               dead_links=dead_links or None)
    assert set(fast.outcomes) == set(slow.outcomes)
    for uid in fast.outcomes:
        f, s = fast.outcomes[uid], slow.outcomes[uid]
        assert f.delivered == s.delivered, (uid, f, s)
        assert f.delivered_flits == s.delivered_flits, (uid, f, s)
        assert f.failure == s.failure, (uid, f, s)
        assert f.failed_at_link == s.failed_at_link, (uid, f, s)
        assert f.completion_time == s.completion_time, (uid, f, s)
    assert fast.makespan == slow.makespan


def _compare(worms, launches, dead_links, rule, tie_rule):
    results = []
    for walk in WALKS:
        with crossover(walk):
            solo = _round(worms, launches, rule, tie_rule, dead_links)
            kern = _batch_round(worms, launches, rule, tie_rule, dead_links)
        assert solo == kern, (walk, solo, kern)
        assert solo.faulted_links == kern.faulted_links, walk
        _assert_matches_reference(solo, worms, launches, dead_links, rule,
                                  tie_rule)
        results.append(solo)
    part, tup = results
    # Full structural equality across the walks: outcomes (including
    # blocker identities), the collision event sequence in order,
    # makespan, faulted links.
    assert part == tup, (part, tup)
    assert part.faulted_links == tup.faulted_links


class TestBackendBitIdentity:
    @given(instances())
    @settings(max_examples=150, deadline=None)
    def test_serve_first_all_lose(self, inst):
        _compare(*inst, CollisionRule.SERVE_FIRST, TieRule.ALL_LOSE)

    @given(instances())
    @settings(max_examples=150, deadline=None)
    def test_priority_all_lose(self, inst):
        _compare(*inst, CollisionRule.PRIORITY, TieRule.ALL_LOSE)

    @given(instances())
    @settings(max_examples=100, deadline=None)
    def test_serve_first_lowest_id(self, inst):
        _compare(*inst, CollisionRule.SERVE_FIRST, TieRule.LOWEST_ID_WINS)

    @given(instances())
    @settings(max_examples=100, deadline=None)
    def test_priority_lowest_id(self, inst):
        _compare(*inst, CollisionRule.PRIORITY, TieRule.LOWEST_ID_WINS)

    @given(instances(max_worms=3, max_len=6, max_delay=3))
    @settings(max_examples=100, deadline=None)
    def test_long_worms_heavy_overlap(self, inst):
        # Longer worms + tight delays = more truncation cascades, which
        # stress the contended-subset handoff the hardest.
        _compare(*inst, CollisionRule.PRIORITY, TieRule.ALL_LOSE)


class TestSpineTruncations:
    """Long spine worms crossed at chosen links: repeated truncations."""

    @given(spine_instances())
    @settings(max_examples=200, deadline=None)
    def test_priority(self, inst):
        _compare(*inst, CollisionRule.PRIORITY, TieRule.ALL_LOSE)

    @given(spine_instances())
    @settings(max_examples=100, deadline=None)
    def test_priority_lowest_id(self, inst):
        _compare(*inst, CollisionRule.PRIORITY, TieRule.LOWEST_ID_WINS)

    @given(spine_instances())
    @settings(max_examples=100, deadline=None)
    def test_serve_first(self, inst):
        _compare(*inst, CollisionRule.SERVE_FIRST, TieRule.ALL_LOSE)

    def test_upstream_retruncation_caps_records(self):
        # The spine (worm 0) is cut at link 5 (at t=7, fragment 2) and
        # then at link 1 (at t=8, fragment 7). The second cut is longer
        # than the first, yet still caps links 1..4: worm 3 reaching
        # link 2 at t=9 finds the spine's fragment already past, so it
        # is delivered rather than eliminated.
        worms = [
            Worm(uid=0, path=(0, 1, 2, 3, 4, 5, 6, 7), length=10),
            Worm(uid=1, path=(50, 5, 6), length=10),
            Worm(uid=2, path=(60, 1, 2), length=10),
            Worm(uid=3, path=(70, 2, 3), length=10),
        ]
        launches = [
            Launch(worm=0, delay=0, wavelength=0, priority=1),
            Launch(worm=1, delay=6, wavelength=0, priority=3),
            Launch(worm=2, delay=7, wavelength=0, priority=2),
            Launch(worm=3, delay=8, wavelength=0, priority=0),
        ]
        rule, tie_rule = CollisionRule.PRIORITY, TieRule.ALL_LOSE
        _compare(worms, launches, (), rule, tie_rule)
        for walk in WALKS:
            with crossover(walk):
                for run in (_round, _batch_round):
                    result = run(worms, launches, rule, tie_rule)
                    assert result.outcomes[3].delivered
                    assert result.makespan == 18
        collector = _Collector()
        fr = FlightRecorder(collector)
        fr.describe_worms(worms)
        fr.begin_round(1)
        result = _round(worms, launches, rule, tie_rule, recorder=fr)
        fr.end_round(result.makespan)
        assert verify_replay(collector).mismatches == ()


class TestVectorizedVsReference:
    """The columnar partition vs the per-flit brute-force simulator."""

    @given(instances(max_dead=0))
    @settings(max_examples=100, deadline=None)
    def test_serve_first(self, inst):
        worms, launches, _ = inst
        with crossover(PARTITION):
            fast = _round(worms, launches, CollisionRule.SERVE_FIRST,
                          TieRule.ALL_LOSE)
        _assert_matches_reference(fast, worms, launches, (),
                                  CollisionRule.SERVE_FIRST, TieRule.ALL_LOSE)


class TestCrossoverBoundary:
    """Rounds of exactly N-1 and N head events, N the real crossover."""

    def test_one_below_and_at_crossover(self, monkeypatch):
        n = engine_mod._PARTITION_MIN_EVENTS
        # Two-link worms around a 7-node ring plus one or two single-link
        # worms, N events in all; dropping one single-link worm leaves
        # N-1. Tight delays on two wavelengths make both rounds contend.
        singles = 1 if (n - 1) % 2 == 0 else 2
        ring = 7
        worms = [
            Worm(uid=i, path=(i % ring, (i + 1) % ring, (i + 2) % ring),
                 length=3)
            for i in range((n - singles) // 2)
        ]
        worms += [
            Worm(uid=len(worms) + k, path=(k, k + 1), length=3)
            for k in range(singles)
        ]
        launches = [
            Launch(worm=w.uid, delay=(5 * w.uid) % 11, wavelength=w.uid % 2,
                   priority=w.uid)
            for w in worms
        ]
        assert sum(w.n_links for w in worms) == n
        walks = []
        spy = engine_mod.RoutingEngine._resolve_partitioned

        def counting(self, *args, **kwargs):
            walks.append("partition")
            return spy(self, *args, **kwargs)

        monkeypatch.setattr(engine_mod.RoutingEngine, "_resolve_partitioned",
                            counting)
        for rule, tie_rule in RULES:
            for subset, walk in ((launches[:-1], None),
                                 (launches, "partition")):
                walks.clear()
                actual = _round(worms, subset, rule, tie_rule)
                assert walks == ([walk] if walk else [])
                assert actual.collisions
                _assert_matches_reference(actual, worms, subset, (), rule,
                                          tie_rule)
                for forced in WALKS:
                    with crossover(forced):
                        assert _round(worms, subset, rule, tie_rule) == actual


class TestWideKeyFallback:
    """Rounds whose (trial, channel, time) key does not fit 63 bits."""

    @given(st.lists(instances(), min_size=1, max_size=3),
           st.integers(0, 2**4))
    @settings(max_examples=40, deadline=None)
    def test_huge_delays_take_lexsort(self, insts, jitter):
        # Delays near 2**62 leave no room for the channel and trial
        # fields, so the partition falls back to a three-key lexsort;
        # shifting every delay by the same amount must change nothing
        # but the times.
        shift = 2**62 + jitter
        rule, tie_rule = CollisionRule.PRIORITY, TieRule.ALL_LOSE
        shifted = [
            (worms, [Launch(worm=l.worm, delay=l.delay + shift,
                            wavelength=l.wavelength, priority=l.priority)
                     for l in launches], dead)
            for worms, launches, dead in insts
        ]
        with crossover(TUPLE_WALK):
            solo = [_round(*inst[:2], rule, tie_rule, inst[2])
                    for inst in shifted]
        calls = [
            RoundCall(RoutingEngine(worms, rule, tie_rule), launches, True,
                      dead or None)
            for worms, launches, dead in shifted
        ]
        with crossover(PARTITION):
            stacked = run_round_batch(calls)
        assert stacked == solo
        for base, big in zip(insts, solo):
            with crossover(TUPLE_WALK):
                plain = _round(*base[:2], rule, tie_rule, base[2])
            assert (plain.makespan is None) == (big.makespan is None)
            if plain.makespan is not None:
                assert big.makespan - plain.makespan == shift


class TestRecorderStream:
    @given(instances())
    @settings(max_examples=75, deadline=None)
    def test_flight_records_bit_identical(self, inst):
        worms, launches, dead_links = inst
        streams = []
        for walk in WALKS:
            for batched in (False, True):
                collector = _Collector()
                fr = FlightRecorder(collector)
                fr.describe_worms(worms)
                fr.begin_round(1)
                run = _batch_round if batched else _round
                with crossover(walk):
                    result = run(worms, launches, CollisionRule.SERVE_FIRST,
                                 TieRule.ALL_LOSE, dead_links, recorder=fr)
                fr.end_round(result.makespan)
                streams.append(collector.records)
        assert all(s == streams[0] for s in streams[1:])

    @given(instances())
    @settings(max_examples=75, deadline=None)
    def test_vectorized_trace_replays(self, inst):
        # The replay verifier re-derives the makespan from the recorded
        # events alone; a partitioned round's trace must satisfy it just
        # like a tuple-walk one (free-run records included).
        worms, launches, dead_links = inst
        for walk in WALKS:
            collector = _Collector()
            fr = FlightRecorder(collector)
            fr.describe_worms(worms)
            fr.begin_round(1)
            with crossover(walk):
                result = _round(worms, launches, CollisionRule.PRIORITY,
                                TieRule.ALL_LOSE, dead_links, recorder=fr)
            fr.end_round(result.makespan)
            report = verify_replay(collector)
            assert report.rounds_checked == 1
            assert report.mismatches == ()


class TestBatchKernelStacking:
    """Many trials stacked into ONE ``run_round_batch`` call.

    Stacking K independent rounds into one set of
    ``(trial, link, wavelength)``-keyed arrays must change nothing:
    every trial's RoundResult -- and its recorder stream -- must equal
    the same trial run alone through the tuple walk.
    """

    @given(st.lists(instances(), min_size=2, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_stacked_rounds_bit_identical(self, insts):
        for rule, tie_rule in RULES:
            with crossover(TUPLE_WALK):
                solo = [
                    _round(worms, launches, rule, tie_rule, dead)
                    for worms, launches, dead in insts
                ]
            calls = [
                RoundCall(
                    engine=RoutingEngine(worms, rule, tie_rule),
                    launches=launches,
                    collect_collisions=True,
                    dead_links=dead or None,
                )
                for worms, launches, dead in insts
            ]
            with crossover(PARTITION):
                stacked = run_round_batch(calls)
            for i, (a, b) in enumerate(zip(solo, stacked)):
                assert a == b, (i, a, b)
                assert a.faulted_links == b.faulted_links, i
                _assert_matches_reference(b, *insts[i][:2], insts[i][2],
                                          rule, tie_rule)

    @given(st.lists(instances(), min_size=2, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_stacked_recorder_streams_bit_identical(self, insts):
        solo_streams, stacked_streams = [], []
        recorders = []
        for worms, launches, dead in insts:
            collector = _Collector()
            fr = FlightRecorder(collector)
            fr.describe_worms(worms)
            fr.begin_round(1)
            with crossover(TUPLE_WALK):
                result = _round(worms, launches, CollisionRule.SERVE_FIRST,
                                TieRule.ALL_LOSE, dead, recorder=fr)
            fr.end_round(result.makespan)
            solo_streams.append(collector.records)

            collector2 = _Collector()
            fr2 = FlightRecorder(collector2)
            fr2.describe_worms(worms)
            fr2.begin_round(1)
            recorders.append((fr2, collector2))
        calls = [
            RoundCall(
                engine=RoutingEngine(worms, CollisionRule.SERVE_FIRST,
                                     TieRule.ALL_LOSE),
                launches=launches,
                collect_collisions=True,
                dead_links=dead or None,
                recorder=recorders[i][0],
            )
            for i, (worms, launches, dead) in enumerate(insts)
        ]
        with crossover(PARTITION):
            results = run_round_batch(calls)
        for (fr2, collector2), result in zip(recorders, results):
            fr2.end_round(result.makespan)
            stacked_streams.append(collector2.records)
        assert solo_streams == stacked_streams
