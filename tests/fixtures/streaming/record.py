"""Record the golden streaming fixtures replayed by ``tests/scenarios/test_golden_streaming.py``.

One fixture per registry scenario, each holding seeds 0, 1 and 2. A seed
stores the run's :meth:`~repro.scenarios.engine.StreamingResult.snapshot`,
its per-round records, ``delivered_round``, ``admitted_round``, the
latencies in ack order, and the ``scenario_window`` series the run
emitted at ``snapshot_every=16``.

Rerunning this script rewrites the fixtures from the code in the tree,
so do it only to add a scenario -- a changed fixture is a changed
streaming semantics, and the point of committing them is that they
never move::

    PYTHONPATH=src python tests/fixtures/streaming/record.py
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

from repro.scenarios import run_scenario, scenario_names

HERE = pathlib.Path(__file__).resolve().parent

SEEDS = (0, 1, 2)
SNAPSHOT_EVERY = 16


def jsonable(value):
    """``value`` as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(value))


def capture(name: str, seed: int) -> dict:
    """One run of scenario ``name`` at ``seed`` as plain JSON data."""
    windows: list[dict] = []
    result = run_scenario(
        name, seed=seed, snapshot_every=SNAPSHOT_EVERY, on_window=windows.append
    )
    return jsonable(
        {
            "snapshot": result.snapshot(),
            "records": [dataclasses.astuple(r) for r in result.records],
            "delivered_round": sorted(result.delivered_round.items()),
            "admitted_round": sorted(result.admitted_round.items()),
            "latencies": list(result.latencies),
            "windows": windows,
        }
    )


def record(name: str) -> dict:
    return {"scenario": name, "seeds": {str(s): capture(name, s) for s in SEEDS}}


def main() -> None:
    for name in scenario_names():
        path = HERE / f"{name}.json"
        path.write_text(json.dumps(record(name), sort_keys=True) + "\n")
        print(f"wrote {path.name}")


if __name__ == "__main__":
    main()
