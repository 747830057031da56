"""The per-collection engine template behind every protocol.

Each :class:`TrialAndFailureProtocol` forks the engines of its
collection's template instead of building them. Repairs must never
reach the template, and a template (with the collection's congestion
oracle) must die with its collection.
"""

import gc
import weakref

import pytest

from repro.core import protocol
from repro.core.protocol import ProtocolConfig, TrialAndFailureProtocol
from repro.experiments.workloads import mesh_random_function
from repro.faults import PersistentLinkFailures
from repro.worms.worm import Worm


def _paths(engine):
    return {uid: w.path for uid, w in engine.worms.items()}


class TestTemplate:
    def test_protocols_share_one_template(self):
        coll = mesh_random_function(4, 2, rng=0)
        cfg = ProtocolConfig(bandwidth=2, ack_mode="simulated")
        a = TrialAndFailureProtocol(coll, cfg)
        b = TrialAndFailureProtocol(
            coll, ProtocolConfig(bandwidth=1, ack_mode="simulated")
        )
        worms, engine, ack_engine = protocol._template(coll, cfg)
        assert a.worms is worms and b.worms is worms
        assert a.engine is not engine and a.engine is not b.engine
        assert a._ack_engine is not ack_engine
        # Only the engine-shaping fields key a template.
        other = protocol._template(coll, ProtocolConfig(bandwidth=2, worm_length=5))
        assert other[0] is not worms

    def test_template_worms_refuse_mutation(self):
        coll = mesh_random_function(4, 2, rng=0)
        worms = TrialAndFailureProtocol(coll, ProtocolConfig(bandwidth=2)).worms
        with pytest.raises(AttributeError):
            worms.extend([Worm(uid=coll.n, path=coll.paths[0], length=4)])

    def test_repairs_leave_the_template_pristine(self):
        coll = mesh_random_function(4, 2, rng=0)
        cfg = ProtocolConfig(
            bandwidth=2,
            worm_length=3,
            max_rounds=200,
            ack_mode="simulated",
            faults=PersistentLinkFailures(0.02),
            repair="reroute",
        )
        before = TrialAndFailureProtocol(coll, cfg).run(123)
        worms, engine, ack_engine = protocol._template(coll, cfg)
        fwd_paths, ack_paths = _paths(engine), _paths(ack_engine)
        assert fwd_paths == dict(enumerate(coll.paths))

        proto = TrialAndFailureProtocol(coll, cfg)
        repaired = proto.run(123)
        assert repaired.repairs  # paths were replaced mid-run
        assert proto.worms is not worms
        assert _paths(proto.engine) != fwd_paths

        assert _paths(engine) == fwd_paths and _paths(ack_engine) == ack_paths
        assert all(w.path == p for w, p in zip(worms, coll.paths))
        after = TrialAndFailureProtocol(coll, cfg).run(123)
        assert before == repaired == after
        # A rerun of the repaired instance starts from a fresh fork.
        proto._start_trial(0)
        assert proto.worms is worms and proto.engine is not engine
        assert _paths(proto.engine) == fwd_paths
        assert proto.run(123) == repaired

    def test_template_and_oracle_die_with_collection(self):
        coll = mesh_random_function(4, 2, rng=3)
        cfg = ProtocolConfig(bandwidth=1, worm_length=3)
        result = TrialAndFailureProtocol(coll, cfg).run(0)
        assert result.rounds > 1  # so later rounds consulted the oracle
        assert "_sharing" in vars(coll)
        refs = [
            weakref.ref(coll),
            weakref.ref(protocol._template(coll, cfg)[1]),
            weakref.ref(coll._sharing[3]),  # the oracle's sharing lists
        ]
        assert coll in protocol._TEMPLATES
        del coll
        gc.collect()
        assert [ref() for ref in refs] == [None, None, None]
