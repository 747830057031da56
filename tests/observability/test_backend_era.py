"""Artifacts recorded while the engine had selectable backends still load.

``tests/fixtures/backend_era/`` holds a run ledger (JSONL) and a bench
series written by a build whose engine offered the ``python``,
``vectorized`` and ``batched`` kernels, so every row and sample carries
a ``backend`` label. The one-kernel engine writes ``""`` there. The
query surfaces -- ``repro runs list/show/compare`` and ``repro bench
compare`` -- must keep working on the old rows, alone and next to new
ones.
"""

import json
import pathlib
import shutil

import pytest

from repro.cli import main
from repro.experiments.workloads import mesh_random_function
from repro.observability import RunLedger
from repro.runners import route_collection_trials

ERA = pathlib.Path(__file__).resolve().parents[1] / "fixtures" / "backend_era"


@pytest.fixture
def ledger(tmp_path):
    path = tmp_path / "ledger.jsonl"
    shutil.copy(ERA / "ledger.jsonl", path)
    return path


def test_old_rows_load_with_their_labels(ledger):
    with RunLedger(ledger) as led:
        rows = led.runs()
    assert {r.backend for r in rows} == {"python", "vectorized", "batched"}
    assert {r.kind for r in rows} == {"experiment", "trials", "bench"}


def test_new_trials_row_writes_empty_backend(ledger):
    coll = mesh_random_function(4, 2, rng=0)
    with RunLedger(ledger) as led:
        route_collection_trials(coll, 2, trials=3, seed=5, ledger=led)
        new = led.get("latest")
        (old,) = led.runs(kind="trials", backend="batched")
    assert new.kind == "trials" and new.backend == ""
    # Same trials, same per-trial rounds: the kernel label is all that
    # differs between the old lockstep row and the new one.
    assert new.groups is not None
    (new_fields,) = new.groups.values()
    (old_fields,) = old.groups.values()
    assert new_fields == old_fields
    assert new.summary["rounds_p50"] == old.summary["rounds_p50"]


def test_runs_list_and_show(ledger, capsys):
    assert main(["runs", "list", "--ledger", str(ledger)]) == 0
    out = capsys.readouterr().out
    assert "6 run(s)" in out
    assert "vectorized" in out and "batched" in out
    assert main(
        ["runs", "list", "--ledger", str(ledger), "--backend", "python"]
    ) == 0
    assert "2 run(s)" in capsys.readouterr().out
    assert main(["runs", "show", "latest~5", "--ledger", str(ledger)]) == 0
    assert "vectorized" in capsys.readouterr().out


def test_runs_compare_old_row_against_new(ledger, capsys):
    assert main(
        ["run", "e_t16", "--trials", "2", "--seed", "1",
         "--ledger", str(ledger)]
    ) == 0
    capsys.readouterr()
    with RunLedger(ledger) as led:
        old = led.runs(kind="experiment", backend="python")[0]
    code = main(
        ["runs", "compare", old.run_id, "latest", "--ledger", str(ledger),
         "--threshold", "1000"]
    )
    assert code == 0
    # Two different historical kernels still refuse to compare.
    with RunLedger(ledger) as led:
        vec = led.runs(kind="experiment", backend="vectorized")[0]
    assert main(
        ["runs", "compare", old.run_id, vec.run_id, "--ledger", str(ledger)]
    ) == 2
    assert "backends" in capsys.readouterr().err


def test_bench_compare_old_series_against_new_sample(tmp_path, capsys):
    old = ERA / "bench.json"
    series = json.loads(old.read_text())
    newest = dict(series["samples"][-1])
    del newest["backend"]  # a one-kernel sample carries no label
    new = tmp_path / "bench.json"
    new.write_text(
        json.dumps({**series, "samples": series["samples"] + [newest]})
    )
    assert main(["bench", "compare", str(old), str(new)]) == 0
    assert "python" in capsys.readouterr().out
    assert main(["bench", "compare", str(old), str(old)]) == 0


def test_sweep_plan_loads_and_resume_is_refused(tmp_path, capsys):
    from repro.sweep import SweepPlan

    sweep = tmp_path / "sweep"
    shutil.copytree(ERA / "sweep", sweep)
    plan = SweepPlan.load(sweep / "plan.json")
    (config,) = plan.configs
    assert not hasattr(config, "backend")
    assert main(["sweep", "resume", "--dir", str(sweep), "--serial"]) == 2
    err = capsys.readouterr().err
    assert "digest mismatch" in err
    assert "backend" not in err.replace(str(sweep), "")


def test_shard_checkpoint_resume_is_refused(tmp_path):
    from functools import partial

    from repro.errors import TrialError
    from repro.runners import TrialRunner
    from repro.runners.protocol_trials import protocol_trial_batch
    from repro.sweep import SweepPlan, build_collection

    sweep = tmp_path / "sweep"
    shutil.copytree(ERA / "sweep", sweep)
    plan = SweepPlan.load(sweep / "plan.json")
    (config,) = plan.configs
    ckpt = sweep / "checkpoints" / "shard-0.json"
    runner = TrialRunner(
        partial(
            protocol_trial_batch,
            collection=build_collection(config.workload),
            config=config.protocol_config(),
        ),
        checkpoint=ckpt,
        batch_size=1,
    )
    with pytest.raises(TrialError, match="context mismatch") as info:
        runner.run_seeds(list(plan.shards()[0].seeds))
    assert "backend" not in str(info.value).replace(str(ckpt), "")
