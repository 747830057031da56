"""The incremental congestion oracle against a brute-force count.

``brute_congestion`` never touches :class:`PathCollection`: for each
present path it counts the present paths whose directed-link sets meet
its own, and takes the maximum. The oracle must agree after every step
of random removal sequences over mesh collections, a type-2 bundle
larger than any dense pairwise matrix would hold, collections
re-anchored after reroute repairs, and open worm sets with
non-contiguous uids.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.protocol import ProtocolConfig, TrialAndFailureProtocol
from repro.experiments.workloads import mesh_random_function
from repro.faults.models import TransientLinkFaults
from repro.paths.collection import ActiveCongestion, PathCollection
from repro.paths.gadgets import bundle_paths
from repro.scenarios import build_network
from repro.worms.worm import Worm


def brute_congestion(paths) -> int:
    """Max over paths of the paths sharing a directed link with it."""
    paths = [tuple(p) for p in paths]
    links = [set(zip(p, p[1:])) for p in paths]
    per_path: dict[tuple, int] = {}  # identical paths count alike
    for path, mine in zip(paths, links):
        if path not in per_path:
            per_path[path] = sum(not mine.isdisjoint(other) for other in links)
    return max(per_path.values())


def _check_removals(paths, coll, removal_seed, chunks):
    """Remove random chunks of ``coll``'s paths, checking every step."""
    rng = np.random.default_rng(removal_seed)
    order = rng.permutation(len(paths)).tolist()
    cuts = sorted(rng.choice(len(paths), size=min(chunks, len(paths) - 1),
                             replace=False).tolist())
    oracle = ActiveCongestion(coll)
    for cut in cuts:
        ids = sorted(order[cut:])
        assert oracle.measure(ids) == brute_congestion(
            [paths[i] for i in ids]
        )


@given(
    side=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    removal_seed=st.integers(0, 2**32 - 1),
    chunks=st.integers(1, 8),
)
@settings(max_examples=60, deadline=None)
def test_mesh_collections(side, seed, removal_seed, chunks):
    coll = mesh_random_function(side, 2, rng=seed)
    if coll.n < 2:
        return
    _check_removals(coll.paths, coll, removal_seed, chunks)


@given(
    removal_seed=st.integers(0, 2**32 - 1),
    chunks=st.integers(1, 6),
)
@settings(max_examples=10, deadline=None)
def test_oversize_type2_bundle(removal_seed, chunks):
    # 2100 identical paths plus a few that share some of their links.
    bundle = [tuple(p) for p in bundle_paths(2100, 3)]
    a, b, c, d = bundle[0]
    paths = bundle + [(a, b, "x"), ("y", c, d), ("x", "y"), ("y", c, d)]
    coll = PathCollection(paths)
    assert ActiveCongestion(coll).measure(range(len(paths))) == 2103
    _check_removals(paths, coll, removal_seed, chunks)


def _spy_measurements(checks):
    """Patch the stepper's congestion measure to check it as it runs."""
    measure = TrialAndFailureProtocol._measure_congestion

    def spy(self, state):
        value = measure(self, state)
        active = [state.live_paths[uid] for uid in state.active]
        rerouted = state.live_coll is not self.collection
        checks.append((rerouted, value == brute_congestion(active)))
        return value

    return mock.patch.object(TrialAndFailureProtocol, "_measure_congestion", spy)


@given(
    seed=st.integers(0, 2**32 - 1),
    run_seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_reanchored_after_reroute(seed, run_seed):
    coll = mesh_random_function(4, 2, rng=seed)
    cfg = ProtocolConfig(
        bandwidth=1,
        worm_length=2,
        max_rounds=60,
        faults=TransientLinkFaults(0.1),
        repair="reroute",
        suspect_after=1,
    )
    checks: list[tuple[bool, bool]] = []
    with _spy_measurements(checks):
        TrialAndFailureProtocol(coll, cfg).run(run_seed)
    assert all(ok for _, ok in checks)


def test_reroute_case_measures_rerouted_collections():
    # The property above only holds weight if repaired trials measure
    # re-anchored collections; this instance does.
    coll = mesh_random_function(4, 2, rng=3)
    cfg = ProtocolConfig(
        bandwidth=1,
        worm_length=2,
        max_rounds=60,
        faults=TransientLinkFaults(0.1),
        repair="reroute",
        suspect_after=1,
    )
    checks: list[tuple[bool, bool]] = []
    with _spy_measurements(checks):
        result = TrialAndFailureProtocol(coll, cfg).run(5)
    assert result.repairs
    assert any(rerouted for rerouted, _ in checks)
    assert all(ok for _, ok in checks)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_open_worm_set_with_sparse_uids(data):
    net = build_network({"kind": "mesh", "side": 4})
    proto = TrialAndFailureProtocol._open(
        net.topology, ProtocolConfig(bandwidth=1, worm_length=2)
    )
    state = proto._start_trial(0)
    uid = 0
    for _ in range(data.draw(st.integers(1, 10))):
        op = data.draw(st.sampled_from(["admit", "retire", "ack"]))
        if op == "admit" or not state.active:
            worms = []
            for _ in range(data.draw(st.integers(1, 6))):
                uid += data.draw(st.integers(1, 9))  # uids with gaps
                src, dst = data.draw(
                    st.lists(st.sampled_from(net.nodes), min_size=2,
                             max_size=2, unique=True)
                )
                worms.append(
                    Worm(uid=uid, path=tuple(net.path_fn(src, dst)), length=2)
                )
            proto._admit(state, worms)
        elif op == "retire":
            gone = data.draw(
                st.lists(st.sampled_from(list(state.live_paths)), min_size=1,
                         unique=True)
            )
            proto._retire(state, gone)
        else:  # acknowledged: leaves the active set, not (yet) retired
            acked = set(data.draw(st.lists(st.sampled_from(state.active))))
            state.active = [u for u in state.active if u not in acked]
        if state.active:
            expected = brute_congestion(
                [state.live_paths[u] for u in state.active]
            )
            assert proto._measure_congestion(state) == expected
