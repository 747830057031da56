"""Differential testing: the streaming engine's drain mode vs the protocol.

With ``arrivals=None`` the streaming engine promises to replay
:class:`~repro.core.protocol.TrialAndFailureProtocol` *bit-for-bit*: the
same per-round draw order against the same root generator, on either
event walk of the round kernel. Hypothesis drives random small workloads (mesh backlogs with
varying bandwidth, worm length, collision rule, fault rate and backoff)
and asserts full per-round record equality, so any drift in the mirrored
round loop -- an extra RNG draw, a reordered fault call, a different
congestion source -- fails loudly rather than skewing scenario results.
"""

from hypothesis import given, settings, strategies as st

import repro.core.engine as engine_mod
from repro._util import as_generator, spawn_generator
from repro.core.protocol import ProtocolConfig, TrialAndFailureProtocol
from repro.faults.models import TransientLinkFaults
from repro.optics.coupler import CollisionRule
from repro.paths.collection import PathCollection
from repro.scenarios import StreamingConfig, StreamingEngine, build_network
from repro.scenarios.traffic import traffic_from_dict


@st.composite
def drain_instances(draw):
    """A small mesh backlog plus a protocol config exercising the knobs."""
    n_worms = draw(st.integers(2, 16))
    seed = draw(st.integers(0, 2**32 - 1))
    bandwidth = draw(st.integers(1, 3))
    worm_length = draw(st.integers(1, 5))
    rule = draw(st.sampled_from([CollisionRule.SERVE_FIRST,
                                 CollisionRule.PRIORITY]))
    fault_rate = draw(st.sampled_from([0.0, 0.05, 0.15]))
    backoff_after = draw(st.sampled_from([0, 2]))
    # Kernel crossover: 0 partitions every round, 10**9 never does.
    walk = draw(st.sampled_from([0, 10**9]))

    net = build_network({"kind": "mesh", "side": 3})
    rng = as_generator(seed)
    stream = traffic_from_dict({"kind": "uniform"}).start(net.nodes)
    pairs = stream.pairs(n_worms, spawn_generator(rng))
    paths = [tuple(net.path_fn(s, d)) for s, d in pairs]
    coll = PathCollection(paths, topology=net.topology, require_simple=False)
    proto = ProtocolConfig(
        bandwidth=bandwidth,
        worm_length=worm_length,
        rule=rule,
        max_rounds=120,
        faults=TransientLinkFaults(fault_rate) if fault_rate else None,
        backoff_after=backoff_after,
        backoff_cooldown=1 if backoff_after else 0,
    )
    run_seed = draw(st.integers(0, 2**32 - 1))
    return coll, proto, run_seed, walk


@given(drain_instances())
@settings(max_examples=40, deadline=None)
def test_drain_mode_replays_static_protocol(instance):
    coll, proto, run_seed, walk = instance
    saved = engine_mod._PARTITION_MIN_EVENTS
    engine_mod._PARTITION_MIN_EVENTS = walk
    try:
        static = TrialAndFailureProtocol(coll, proto).run(
            as_generator(run_seed)
        )
        stream = StreamingEngine(
            StreamingConfig(protocol=proto), collection=coll
        ).run(as_generator(run_seed))
    finally:
        engine_mod._PARTITION_MIN_EVENTS = saved

    assert stream.completed == static.completed
    assert stream.rounds == static.rounds
    assert stream.total_time == static.total_time
    assert dict(stream.delivered_round) == dict(static.delivered_round)
    assert len(stream.records) == len(static.records)
    for a, b in zip(static.records, stream.records):
        assert a.index == b.index
        assert a.delay_range == b.delay_range
        assert a.active_before == b.active_before
        assert a.delivered == b.delivered
        assert a.acked == b.acked
        assert a.duration == b.duration
    # Drain mode accounts the backlog as round-1 admissions.
    assert stream.offered == stream.admitted == coll.n
    assert stream.rejected == stream.expired == 0
    assert stream.acked == len(stream.delivered_round)
