"""Record the golden round fixtures replayed by ``tests/core/test_golden_traces.py``.

Each fixture is one engine (a random function on a 9x9 mesh) plus a few
rounds of launches. Every round stores the launches, the dead links, the
engine's full :class:`~repro.core.records.RoundResult` and the
flight-recorder stream it produced. The large rounds launch every worm
(several hundred head events); the small ones launch five worms crossing
the busiest link (a few dozen events), so each fixture has rounds on
both sides of the engine's event-walk crossover.

Rerunning this script rewrites the fixtures from the engine in the tree,
so do it only to add a fixture -- a changed fixture is a changed
semantics, and the point of committing them is that they never move::

    PYTHONPATH=src python tests/fixtures/traces/record.py
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.core.engine import RoutingEngine
from repro.core.reference import reference_run_round
from repro.experiments.workloads import mesh_random_function
from repro.observability.flightrec import FlightRecorder
from repro.optics.coupler import CollisionRule, TieRule
from repro.worms.worm import Launch, make_worms

HERE = pathlib.Path(__file__).resolve().parent


class Collector:
    """In-memory trace writer: ``.records`` of plain dicts."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def write(self, kind, **fields) -> None:
        self.records.append({"kind": kind, **fields})


def jsonable(value):
    """``value`` as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(value))


def encode_result(result) -> dict:
    """A RoundResult as plain JSON data, field for field."""
    return jsonable(
        {
            "outcomes": [
                {
                    "worm": o.worm,
                    "delivered": o.delivered,
                    "delivered_flits": o.delivered_flits,
                    "failure": o.failure.name if o.failure else None,
                    "failed_at_link": o.failed_at_link,
                    "completion_time": o.completion_time,
                    "blockers": list(o.blockers),
                }
                for o in result.outcomes.values()
            ],
            "collisions": [
                {
                    "time": c.time,
                    "link": c.link,
                    "wavelength": c.wavelength,
                    "blocked": c.blocked,
                    "blocker": c.blocker,
                    "link_pos": c.link_pos,
                    "kind": c.kind.name,
                }
                for c in result.collisions
            ],
            "makespan": result.makespan,
            "faulted_links": result.faulted_links,
        }
    )


def as_node(node):
    return tuple(node) if isinstance(node, list) else node


def decode_launch(row) -> Launch:
    worm, delay, wl, priority = row
    return Launch(
        worm=worm,
        delay=delay,
        wavelength=tuple(wl) if isinstance(wl, list) else wl,
        priority=priority,
    )


def decode_links(rows) -> tuple:
    return tuple((as_node(a), as_node(b)) for a, b in rows)


def _launches(rng, uids, delta, bandwidth, worms, per_link):
    out = []
    ranks = rng.permutation(len(uids))
    for i, uid in enumerate(uids):
        n_links = worms[uid].n_links
        if per_link and rng.random() < 0.5:
            wl = tuple(int(w) for w in rng.integers(0, bandwidth, size=n_links))
        else:
            wl = int(rng.integers(0, bandwidth))
        out.append(
            Launch(
                worm=int(uid),
                delay=int(rng.integers(0, delta)),
                wavelength=wl,
                priority=int(ranks[i]),
            )
        )
    return out


#: name -> (rule, tie rule, worm length, bandwidth, delta, per-link
#: wavelengths, dead links per round (large, small, large), seed).
FIXTURES = {
    "serve_first_contention": (
        CollisionRule.SERVE_FIRST, TieRule.ALL_LOSE, 4, 2, 6, False, (0, 0, 0), 1
    ),
    "priority_truncation": (
        CollisionRule.PRIORITY, TieRule.ALL_LOSE, 8, 2, 4, False, (0, 0, 0), 2
    ),
    "dark_fibers": (
        CollisionRule.SERVE_FIRST, TieRule.LOWEST_ID_WINS, 4, 2, 8, False, (6, 2, 3), 3
    ),
    "per_link_wavelengths": (
        CollisionRule.PRIORITY, TieRule.LOWEST_ID_WINS, 5, 3, 4, True, (0, 0, 2), 4
    ),
}


def record(name: str) -> dict:
    rule, tie, length, bandwidth, delta, per_link, n_dead, seed = FIXTURES[name]
    rng = np.random.default_rng(seed)
    coll = mesh_random_function(9, 2, rng=seed)
    worms = make_worms(coll.paths, length)
    by_uid = {w.uid: w for w in worms}
    links = sorted({link for w in worms for link in w.links()})
    load: dict = {}
    for w in worms:
        for link in w.links():
            load.setdefault(link, []).append(w.uid)
    busiest = max(links, key=lambda link: len(load[link]))
    engine = RoutingEngine(worms, rule, tie)
    rounds = []
    for r, dead_count in enumerate(n_dead, start=1):
        if r % 2:
            uids = [w.uid for w in worms]  # large: every worm
            launches = _launches(rng, uids, delta, bandwidth, by_uid, per_link)
        else:  # small: five worms sharing the busiest link, tightly packed
            uids = load[busiest][:5]
            launches = _launches(rng, uids, 3, bandwidth, by_uid, per_link)
        crossed = sorted({link for uid in uids for link in by_uid[uid].links()})
        picks = rng.choice(len(crossed), size=dead_count, replace=False)
        dead = [crossed[i] for i in picks]
        collector = Collector()
        fr = FlightRecorder(collector)
        fr.describe_worms(worms)
        fr.begin_round(r)
        result = engine.run_round(
            launches, collect_collisions=True, dead_links=dead or None, recorder=fr
        )
        fr.end_round(result.makespan)
        ref = reference_run_round(worms, launches, rule, tie, dead_links=dead or None)
        for uid, o in result.outcomes.items():
            s = ref.outcomes[uid]
            assert (o.delivered, o.delivered_flits, o.failure, o.failed_at_link,
                    o.completion_time) == (s.delivered, s.delivered_flits,
                                           s.failure, s.failed_at_link,
                                           s.completion_time), (name, r, uid)
        assert result.makespan == ref.makespan, (name, r)
        rounds.append(
            {
                "launches": jsonable(
                    [[x.worm, x.delay, x.wavelength, x.priority] for x in launches]
                ),
                "dead_links": jsonable(dead),
                "events": sum(by_uid[x.worm].n_links for x in launches),
                "result": encode_result(result),
                "records": jsonable(collector.records),
            }
        )
    return {
        "name": name,
        "rule": rule.name,
        "tie_rule": tie.name,
        "worms": jsonable([[w.uid, w.path, w.length] for w in worms]),
        "rounds": rounds,
    }


def main() -> None:
    for name in FIXTURES:
        data = record(name)
        (HERE / f"{name}.json").write_text(json.dumps(data, separators=(",", ":")) + "\n")
        tallies = [
            (rd["events"], len(rd["result"]["collisions"]),
             sum(c["kind"] == "TRUNCATED" for c in rd["result"]["collisions"]),
             len(rd["result"]["faulted_links"]))
            for rd in data["rounds"]
        ]
        print(name, "(events, collisions, truncations, faulted links):", tallies)


if __name__ == "__main__":
    main()
