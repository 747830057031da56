"""Tests for the command-line interface."""

import json
import logging

import pytest

from repro.cli import _registry, build_parser, main


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "e_t16" in out and "all" in out

    def test_demo_command(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "completed in" in out

    def test_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["run", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err

    def test_run_single_experiment(self, capsys):
        assert main(["run", "e_pred", "--trials", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "E-PRED" in out
        assert "done in" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_registry_ids_are_kebab_free(self):
        for key in _registry():
            assert key.replace("_", "").isalnum()


class TestObservabilityFlags:
    def test_demo_writes_trace_and_metrics(self, tmp_path, capsys):
        from repro.core.stats import result_from_trace_file, survivor_history
        from repro.observability import read_trace

        trace_path = tmp_path / "demo.jsonl"
        metrics_path = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "demo",
                    "--trace-out",
                    str(trace_path),
                    "--metrics-out",
                    str(metrics_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "wrote trace to" in out
        assert "wrote metrics snapshot to" in out

        # The trace is valid JSONL, round-trips through the reader API,
        # and feeds the stats helpers.
        trace = read_trace(trace_path)
        assert trace.manifest["command"] == "demo"
        assert trace.summary is not None
        result = result_from_trace_file(trace_path)
        assert result.completed
        assert len(survivor_history(result)) == result.rounds

        # The metrics snapshot is valid JSON in the registry schema and
        # agrees with the traced execution.
        snap = json.loads(metrics_path.read_text())
        assert snap["protocol_runs_total"]["values"][""] == 1
        assert snap["protocol_rounds_total"]["values"][""] == result.rounds

    def test_run_writes_experiment_records(self, tmp_path):
        from repro.observability import read_trace

        trace_path = tmp_path / "run.jsonl"
        assert (
            main(
                [
                    "run",
                    "e_pred",
                    "--trials",
                    "2",
                    "--trace-out",
                    str(trace_path),
                ]
            )
            == 0
        )
        trace = read_trace(trace_path)
        assert trace.manifest["experiments"] == ["e_pred"]
        assert [r["id"] for r in trace.of_kind("experiment")] == ["e_pred"]
        assert trace.summary["experiments"] == 1

    def test_metrics_flag_restores_null_default(self, tmp_path):
        from repro.observability import NULL_REGISTRY, get_metrics

        assert main(["demo", "--metrics-out", str(tmp_path / "m.json")]) == 0
        assert get_metrics() is NULL_REGISTRY

    def test_demo_without_flags_writes_nothing(self, tmp_path, capsys):
        assert main(["demo"]) == 0
        assert "wrote" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_log_level_flag_configures_logging(self):
        try:
            assert main(["--log-level", "debug", "list"]) == 0
            logger = logging.getLogger("repro")
            assert logger.level == logging.DEBUG
            assert any(
                getattr(h, "_repro_configured_handler", False)
                for h in logger.handlers
            )
        finally:
            for h in list(logging.getLogger("repro").handlers):
                if getattr(h, "_repro_configured_handler", False):
                    logging.getLogger("repro").removeHandler(h)
            logging.getLogger("repro").setLevel(logging.NOTSET)


@pytest.fixture(scope="module")
def flight_trace(tmp_path_factory):
    """One recorded demo run, gzipped, shared by the trace-CLI tests."""
    path = tmp_path_factory.mktemp("traces") / "demo.jsonl.gz"
    assert main(["demo", "--flight", "--trace-out", str(path)]) == 0
    return path


class TestFlightFlag:
    def test_flight_requires_trace_out(self, capsys):
        assert main(["demo", "--flight"]) == 2
        assert "--trace-out" in capsys.readouterr().err

    def test_flight_records_worm_events(self, flight_trace):
        from repro.observability import read_trace

        kinds = {r["kind"] for r in read_trace(flight_trace).records}
        assert {"worm_def", "worm_launch", "worm_advance", "flight_round"} <= kinds


class TestTraceSubcommands:
    def test_summary_reports_verified_replay(self, flight_trace, capsys):
        assert main(["trace", "summary", str(flight_trace)]) == 0
        out = capsys.readouterr().out
        assert "replay verification OK (bit-identical)" in out
        assert "contention hot-spots" in out or "measured congestion" in out

    def test_timeline_renders_rows(self, flight_trace, capsys):
        assert (
            main(
                ["trace", "timeline", str(flight_trace), "--round", "1",
                 "--max-worms", "4"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "round 1" in out and "|" in out

    def test_timeline_empty_selection_fails_cleanly(self, flight_trace, capsys):
        assert (
            main(["trace", "timeline", str(flight_trace), "--round", "99"]) == 2
        )
        assert "no flight-recorder rounds" in capsys.readouterr().err

    def test_links_renders_heatmap(self, flight_trace, capsys):
        assert main(["trace", "links", str(flight_trace), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "heat" in out and "#" in out

    def test_diff_equal_traces(self, flight_trace, capsys):
        assert main(["trace", "diff", str(flight_trace), str(flight_trace)]) == 0
        assert "equivalent" in capsys.readouterr().out

    def test_diff_different_traces_exits_one(self, flight_trace, tmp_path, capsys):
        from repro.core.protocol import route_collection
        from repro.experiments.workloads import butterfly_permutation
        from repro.observability import TraceWriter

        other = tmp_path / "other.jsonl"
        with TraceWriter(other) as writer:
            writer.write_manifest(command="demo", seed=5)
            route_collection(
                butterfly_permutation(3, rng=1), bandwidth=2, rng=5,
                trace=writer, flight=True,
            )
        assert main(["trace", "diff", str(flight_trace), str(other)]) == 1
        out = capsys.readouterr().out
        assert "difference(s)" in out

    def test_missing_trace_fails_cleanly(self, tmp_path, capsys):
        assert main(["trace", "summary", str(tmp_path / "nope.jsonl")]) == 2
        assert "trace file not found" in capsys.readouterr().err

    def test_lenient_read_tolerates_truncated_trace(self, tmp_path, capsys):
        # A crash-truncated trace must still summarize (strict=False path).
        from repro.core.protocol import route_collection
        from repro.experiments.workloads import butterfly_permutation
        from repro.observability import TraceWriter

        path = tmp_path / "crashy.jsonl"
        with TraceWriter(path) as writer:
            writer.write_manifest(command="demo", seed=0)
            route_collection(
                butterfly_permutation(3, rng=1), bandwidth=2, rng=0,
                trace=writer, flight=True,
            )
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"kind": "worm_adv')  # crash mid-record
        assert main(["trace", "summary", str(path)]) == 0
        assert "replay verification OK" in capsys.readouterr().out


class TestFaultsCLI:
    def test_demo_with_faults_prints_model(self, capsys):
        assert main(["demo", "--faults", "transient:rate=0.02"]) == 0
        out = capsys.readouterr().out
        assert "fault model:" in out
        assert "completed in" in out

    def test_demo_bad_fault_spec_fails_cleanly(self, capsys):
        assert main(["demo", "--faults", "transient:rte=0.1"]) == 2
        assert "transient" in capsys.readouterr().err

    def test_sweep_prints_and_writes_tables(self, tmp_path, capsys):
        out_path = tmp_path / "tables.txt"
        code = main(
            ["faults", "sweep", "--side", "3", "--d", "2", "--trials", "1",
             "--max-rounds", "120", "--out", str(out_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote fault-sweep tables to" in out
        text = out_path.read_text()
        # All three tables: rate sweep, model comparison, repair ablation.
        assert "gilbert" in text
        assert "reroute" in text

    def _write_stranding_schedule(self, tmp_path, seed):
        """Scripted schedule killing a link a worm actually crosses."""
        import json as _json

        from repro.experiments.workloads import mesh_random_function

        coll = mesh_random_function(4, 2, rng=seed)
        path = max(coll.paths, key=len)
        mid = len(path) // 2
        link = [list(path[mid - 1]), list(path[mid])]
        sched = tmp_path / "sched.json"
        sched.write_text(
            _json.dumps({"persistent": True, "schedule": {"1": [link]}})
        )
        return sched

    def test_replay_stall_exits_one(self, tmp_path, capsys):
        sched = self._write_stranding_schedule(tmp_path, seed=0)
        code = main(
            ["faults", "replay", str(sched), "--side", "4", "--d", "2",
             "--max-rounds", "40"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "STALLED" in out
        assert "stranded-by-dead-link" in out

    def test_replay_reroute_exits_zero(self, tmp_path, capsys):
        sched = self._write_stranding_schedule(tmp_path, seed=0)
        code = main(
            ["faults", "replay", str(sched), "--side", "4", "--d", "2",
             "--max-rounds", "40", "--repair", "reroute"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "completed" in out
        assert "repair: round" in out

    def test_replay_missing_schedule_fails_cleanly(self, tmp_path, capsys):
        code = main(["faults", "replay", str(tmp_path / "nope.json")])
        assert code == 2
        assert capsys.readouterr().err


class TestReportObservability:
    def test_report_accepts_sink_flags(self, tmp_path, capsys):
        from repro.observability import read_trace

        results = tmp_path / "results"
        results.mkdir()
        (results / "e_t11.txt").write_text("E-T11 table\n====\nrow\n")
        out = tmp_path / "r.md"
        trace_path = tmp_path / "report.jsonl"
        metrics_path = tmp_path / "report_metrics.json"
        code = main(
            ["report", "--results", str(results), "--out", str(out),
             "--trace-out", str(trace_path), "--metrics-out", str(metrics_path)]
        )
        assert code == 0
        assert out.exists()
        trace = read_trace(trace_path)
        assert trace.manifest["command"] == "report"
        assert trace.summary["sections"] == 1
        assert json.loads(metrics_path.read_text()) is not None

    def test_trace_out_missing_parent_fails_cleanly(self, tmp_path, capsys):
        code = main(
            ["demo", "--trace-out", str(tmp_path / "no" / "dir" / "t.jsonl")]
        )
        assert code == 2
        assert "parent directory" in capsys.readouterr().err


class TestBackendFlagRegistry:
    """No subcommand selects an engine kernel: there is only one.

    The only ``--backend`` left is the ``repro runs`` filter over the
    historical backend labels of ledger rows.
    """

    @staticmethod
    def _backend_actions(parser):
        import argparse

        found, stack, seen = [], [parser], set()
        while stack:
            p = stack.pop()
            if id(p) in seen:
                continue
            seen.add(id(p))
            for action in p._actions:
                if isinstance(action, argparse._SubParsersAction):
                    stack.extend(action.choices.values())
                elif "--backend" in action.option_strings:
                    found.append(action)
        return found

    def test_no_kernel_backend_flag(self):
        actions = self._backend_actions(build_parser())
        # runs list and runs groups filter ledger rows by their label.
        assert len(actions) == 2
        for action in actions:
            assert action.dest == "runs_backend"
            assert action.choices is None

    def test_backend_flag_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "e_t16", "--trials", "1", "--backend", "python"])
        assert "--backend" in capsys.readouterr().err

    def test_batched_run_smoke(self, capsys):
        # Two trials on one job form one lockstep slice.
        assert main(["run", "e_pred", "--trials", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "done in" in out

    def test_profile_shows_lockstep_protocol_rounds(self, capsys):
        assert main(["run", "e_pred", "--trials", "4", "--profile"]) == 0
        assert "protocol.round" in capsys.readouterr().out
