"""Golden streaming fixtures: committed scenario runs that must replay exactly.

Each fixture under ``tests/fixtures/streaming/`` holds one registry
scenario run at seeds 0, 1 and 2 (see
``tests/fixtures/streaming/record.py``): the result snapshot, every
per-round record, ``delivered_round``, ``admitted_round``, the ack-order
latencies and the ``scenario_window`` series at ``snapshot_every=16``.
Rerunning a scenario must reproduce all of it bit for bit. This is the
independent check on streaming mode; drain mode is also pinned against
the static protocol by ``tests/property/test_differential_streaming.py``.
"""

import importlib.util
import json
import pathlib

import pytest

from repro.scenarios import scenario_names

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures" / "streaming"
NAMES = sorted(p.stem for p in FIXTURES.glob("*.json"))

_spec = importlib.util.spec_from_file_location(
    "streaming_record", FIXTURES / "record.py"
)
rec = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rec)


def test_every_registry_scenario_has_a_fixture():
    assert NAMES == scenario_names()


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("seed", rec.SEEDS)
def test_replays_bit_identically(name, seed):
    data = json.loads((FIXTURES / f"{name}.json").read_text())
    expected = data["seeds"][str(seed)]
    actual = rec.capture(name, seed)
    for key in (
        "snapshot",
        "records",
        "delivered_round",
        "admitted_round",
        "latencies",
        "windows",
    ):
        assert actual[key] == expected[key], key
