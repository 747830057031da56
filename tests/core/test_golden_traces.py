"""Golden round fixtures: committed engine rounds that must replay exactly.

Each fixture under ``tests/fixtures/traces/`` holds one engine's worms
and a few rounds of launches, with the full ``RoundResult`` and the
flight-recorder stream the engine produced when the fixture was
recorded (see ``tests/fixtures/traces/record.py``). The fixtures cover
serve-first contention, priority truncation, dark fibers and per-link
wavelength tuples; every one has rounds of a few dozen head events and
rounds of several hundred.

Replaying a round through :meth:`RoutingEngine.run_round` and through
:func:`run_round_batch` must reproduce the recorded result and recorder
stream bit for bit -- with the kernel's own event-count crossover, and
with the crossover forced to 0 (every round partitioned) and to a huge
value (every round through the tuple walk) -- and the outcomes must
agree with the brute-force
:func:`~repro.core.reference.reference_run_round`.
"""

import importlib.util
import json
import pathlib

import pytest

import repro.core.engine as engine_mod
from repro.core.engine import RoundCall, RoutingEngine, run_round_batch
from repro.core.reference import reference_run_round
from repro.observability.flightrec import FlightRecorder
from repro.optics.coupler import CollisionRule, TieRule
from repro.worms.worm import Worm

TRACES = pathlib.Path(__file__).resolve().parents[1] / "fixtures" / "traces"
NAMES = sorted(p.stem for p in TRACES.glob("*.json"))

_spec = importlib.util.spec_from_file_location("trace_record", TRACES / "record.py")
rec = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rec)


def _load(name):
    data = json.loads((TRACES / f"{name}.json").read_text())
    worms = [
        Worm(uid=uid, path=tuple(rec.as_node(n) for n in path), length=length)
        for uid, path, length in data["worms"]
    ]
    return (
        data,
        worms,
        CollisionRule[data["rule"]],
        TieRule[data["tie_rule"]],
    )


def _replay(worms, rule, tie, rnd, index, batched):
    """One fixture round through a fresh engine: (result, recorder records)."""
    launches = [rec.decode_launch(row) for row in rnd["launches"]]
    dead = rec.decode_links(rnd["dead_links"]) or None
    collector = rec.Collector()
    fr = FlightRecorder(collector)
    fr.describe_worms(worms)
    fr.begin_round(index)
    engine = RoutingEngine(worms, rule, tie)
    if batched:
        [result] = run_round_batch(
            [RoundCall(engine, launches, True, dead, fr)]
        )
    else:
        result = engine.run_round(
            launches, collect_collisions=True, dead_links=dead, recorder=fr
        )
    fr.end_round(result.makespan)
    return result, rec.jsonable(collector.records)


def test_fixtures_present():
    assert NAMES == [
        "dark_fibers",
        "per_link_wavelengths",
        "priority_truncation",
        "serve_first_contention",
    ]


@pytest.mark.parametrize("name", NAMES)
def test_rounds_straddle_small_and_large(name):
    data, *_ = _load(name)
    sizes = [rnd["events"] for rnd in data["rounds"]]
    crossover = engine_mod._PARTITION_MIN_EVENTS
    assert min(sizes) < crossover <= max(sizes)


@pytest.mark.parametrize("walk", [None, 0, 10**9],
                         ids=["crossover", "partition", "tuples"])
@pytest.mark.parametrize("name", NAMES)
def test_replay_bit_identical(name, walk, monkeypatch):
    if walk is not None:
        monkeypatch.setattr(engine_mod, "_PARTITION_MIN_EVENTS", walk)
    data, worms, rule, tie = _load(name)
    for index, rnd in enumerate(data["rounds"], start=1):
        solo, solo_records = _replay(worms, rule, tie, rnd, index, False)
        batch, batch_records = _replay(worms, rule, tie, rnd, index, True)
        assert solo == batch, (name, index)
        assert solo.faulted_links == batch.faulted_links, (name, index)
        assert rec.encode_result(solo) == rnd["result"], (name, index)
        assert solo_records == rnd["records"], (name, index)
        assert batch_records == rnd["records"], (name, index)


@pytest.mark.parametrize("name", NAMES)
def test_outcomes_match_reference(name):
    data, worms, rule, tie = _load(name)
    for index, rnd in enumerate(data["rounds"], start=1):
        launches = [rec.decode_launch(row) for row in rnd["launches"]]
        dead = rec.decode_links(rnd["dead_links"]) or None
        ref = reference_run_round(worms, launches, rule, tie, dead_links=dead)
        recorded = {o["worm"]: o for o in rnd["result"]["outcomes"]}
        assert set(recorded) == set(ref.outcomes), (name, index)
        for uid, s in ref.outcomes.items():
            o = recorded[uid]
            assert (
                o["delivered"],
                o["delivered_flits"],
                o["failure"],
                o["failed_at_link"],
                o["completion_time"],
            ) == (
                s.delivered,
                s.delivered_flits,
                s.failure.name if s.failure else None,
                s.failed_at_link,
                s.completion_time,
            ), (name, index, uid)
        assert rnd["result"]["makespan"] == ref.makespan, (name, index)
