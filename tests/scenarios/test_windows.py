"""Time-resolved window snapshots: determinism, accounting, callbacks.

Pins the ``snapshot_every`` contract: window bookkeeping never touches
the run's RNG (a windowed run is bit-identical to an unwindowed one, on
both event walks of the round kernel and with the walk switching
between rounds), window counters sum to the run totals, the final
partial window flushes, quantiles come from a bounded reservoir, and
``on_window``/trace/metrics all see each closed window.
"""

import dataclasses

import pytest

from repro._util import as_generator
import repro.core.engine as engine_mod
from repro.core.protocol import ProtocolConfig
from repro.errors import ScenarioError
from repro.observability.metrics import MetricsRegistry
from repro.scenarios import (
    PoissonArrivals,
    ScenarioSpec,
    StreamingConfig,
    StreamingEngine,
    UniformTraffic,
    build_network,
    run_scenario,
)


def _config(**kwargs):
    defaults = dict(
        protocol=ProtocolConfig(bandwidth=4),
        arrivals=PoissonArrivals(rate=2.0),
        traffic=UniformTraffic(),
        rounds=40,
    )
    defaults.update(kwargs)
    return StreamingConfig(**defaults)


def _run(config, seed=11, network=None, **engine_kwargs):
    network = network or build_network({"kind": "mesh", "side": 4})
    engine = StreamingEngine(config, network=network, **engine_kwargs)
    return engine.run(as_generator(seed))


class TestDifferentialIdentity:
    # The ids are the labels of the three kernels the one round kernel
    # replaced, kept so the test ids stay stable. Each is now a crossover:
    # always the tuple walk, always the columnar partition, and one inside
    # this run's round sizes (1-21 head events), so the walk switches
    # between rounds of the same run.
    @pytest.mark.parametrize(
        "walk", [10**9, 0, 8], ids=["python", "vectorized", "batched"]
    )
    def test_windowed_run_is_bit_identical(self, walk, monkeypatch):
        """snapshot_every= must consume zero run RNG on any event walk."""
        monkeypatch.setattr(engine_mod, "_PARTITION_MIN_EVENTS", walk)
        plain = _run(_config())
        windowed = _run(_config(snapshot_every=8))
        assert windowed.snapshot() == plain.snapshot()
        assert windowed.records == plain.records
        assert windowed.latencies == plain.latencies
        assert dict(windowed.admitted_round) == dict(plain.admitted_round)

    def test_trace_identical_modulo_window_records(self, tmp_path):
        from repro.observability import TraceWriter, read_trace

        def traced(name, snapshot_every):
            path = tmp_path / name
            writer = TraceWriter(path)
            _run(_config(snapshot_every=snapshot_every), trace=writer)
            writer.close()
            return read_trace(path).records

        plain = traced("plain.jsonl", None)
        windowed = traced("windowed.jsonl", 8)
        stripped = [r for r in windowed if r["kind"] != "scenario_window"]

        def key(records):
            return [
                {k: v for k, v in r.items() if k != "ts"} for r in records
            ]

        assert key(stripped) == key(plain)
        assert any(r["kind"] == "scenario_window" for r in windowed)


class TestWindowAccounting:
    def _windows(self, rounds=40, every=8, seed=11, **cfg):
        captured = []
        result = _run(
            _config(rounds=rounds, snapshot_every=every, **cfg),
            seed=seed,
            on_window=captured.append,
        )
        return result, captured

    def test_window_sums_match_run_totals(self):
        result, windows = self._windows()
        assert sum(w["offered"] for w in windows) == result.offered
        assert sum(w["admitted"] for w in windows) == result.admitted
        assert sum(w["rejected"] for w in windows) == result.rejected
        assert sum(w["expired"] for w in windows) == result.expired
        assert sum(w["acked"] for w in windows) == result.acked
        assert sum(w["rounds"] for w in windows) == result.rounds
        assert sum(w["duration"] for w in windows) == result.total_time

    def test_windows_tile_the_round_range(self):
        result, windows = self._windows(rounds=40, every=8)
        assert [w["window"] for w in windows] == list(range(len(windows)))
        assert windows[0]["start_round"] == 1
        for prev, cur in zip(windows, windows[1:]):
            assert cur["start_round"] == prev["end_round"] + 1
        assert windows[-1]["end_round"] == result.rounds

    def test_final_partial_window_flushes(self):
        # 40 rounds in windows of 16 -> 16 + 16 + a final 8-round window.
        result, windows = self._windows(rounds=40, every=16)
        assert result.rounds == 40
        assert [w["rounds"] for w in windows] == [16, 16, 8]

    def test_rates_are_per_window_not_cumulative(self):
        _, windows = self._windows()
        for w in windows:
            expect = w["acked"] / w["duration"] if w["duration"] else 0.0
            assert w["throughput"] == pytest.approx(expect)
            drops = w["rejected"] + w["expired"]
            expect = drops / w["offered"] if w["offered"] else 0.0
            assert w["drop_rate"] == pytest.approx(expect)

    def test_quantiles_ordered_or_none(self):
        _, windows = self._windows()
        saw_samples = False
        for w in windows:
            if w["latency_samples"] == 0:
                assert w["latency_p50"] is None
                continue
            saw_samples = True
            assert w["latency_p50"] <= w["latency_p95"] <= w["latency_p99"]
        assert saw_samples

    def test_callback_order_matches_trace_and_metrics(self, tmp_path):
        from repro.observability import TraceWriter, read_trace

        captured = []
        registry = MetricsRegistry()
        path = tmp_path / "w.jsonl"
        writer = TraceWriter(path)
        _run(
            _config(snapshot_every=8),
            trace=writer,
            metrics=registry,
            on_window=captured.append,
        )
        writer.close()
        traced = read_trace(path).of_kind("scenario_window")
        assert len(traced) == len(captured) > 0
        for rec, win in zip(traced, captured):
            assert rec["window"] == win["window"]
            assert rec["acked"] == win["acked"]
        assert registry.value("scenario_windows_total") == len(captured)
        last = captured[-1]
        assert registry.value("scenario_window_throughput") == pytest.approx(
            last["throughput"]
        )
        assert registry.value("scenario_window_active_worms") == last["active"]

    def test_windows_emitted_in_drain_mode_too(self):
        from repro.scenarios import get_scenario

        spec = dataclasses.replace(get_scenario("static-drain"))
        captured = []
        result = run_scenario(
            spec, seed=4, snapshot_every=4, on_window=captured.append
        )
        assert captured
        assert sum(w["acked"] for w in captured) == result.acked


class TestValidationAndSpec:
    def test_snapshot_every_below_one_rejected(self):
        with pytest.raises(ScenarioError, match="snapshot_every"):
            _config(snapshot_every=0)

    def test_on_window_must_be_callable(self):
        with pytest.raises(ScenarioError, match="on_window"):
            StreamingEngine(
                _config(),
                network=build_network({"kind": "mesh", "side": 4}),
                on_window="not-a-callable",
            )

    def test_spec_round_trips_snapshot_every(self):
        spec = ScenarioSpec(name="w", arrival={"kind": "poisson", "rate": 1.0},
                            snapshot_every=12)
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert rebuilt.snapshot_every == 12
        assert rebuilt == spec
        assert spec.to_config().snapshot_every == 12

    def test_run_scenario_override_beats_spec(self):
        spec = ScenarioSpec(
            name="w",
            arrival={"kind": "poisson", "rate": 2.0},
            rounds=32,
            snapshot_every=32,
        )
        captured = []
        run_scenario(spec, seed=1, snapshot_every=8, on_window=captured.append)
        assert len(captured) == 4

    def test_named_scenarios_accept_override(self):
        captured = []
        result = run_scenario(
            "baseline", seed=2, snapshot_every=16, on_window=captured.append
        )
        assert sum(w["rounds"] for w in captured) == result.rounds


class TestReservoir:
    def test_reservoir_caps_samples_but_counts_all(self):
        from repro.observability.groupstats import DEFAULT_RESERVOIR_CAP
        from repro.scenarios.engine import _WindowTracker

        tracker = _WindowTracker(every=10)
        n = DEFAULT_RESERVOIR_CAP * 3
        for i in range(n):
            tracker.observe_latency(i % 50, uid=i)
        assert tracker.latency.sample_size == DEFAULT_RESERVOIR_CAP
        window = tracker.flush(end_round=10, active=0)
        assert window["latency_samples"] == n
        assert window["latency_p50"] is not None
        assert 0 <= window["latency_p50"] <= 49

    def test_exact_quantiles_under_cap(self):
        from repro.scenarios.engine import _WindowTracker

        tracker = _WindowTracker(every=10)
        for uid, v in enumerate((1, 2, 3, 4)):
            tracker.observe_latency(v, uid=uid)
        window = tracker.flush(end_round=10, active=0)
        # Exact order statistics: ceil(q*n)-1 over the sorted sample.
        assert window["latency_p50"] == 2.0
        assert window["latency_p95"] == 4.0
        assert window["latency_p99"] == 4.0
