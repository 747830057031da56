"""Trial-level benchmark of the trial-and-failure simulator.

Usage, from the repository root::

    python3 perfbench/run.py --workload mesh32-serial --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Workloads (perfbench/workloads.py): ``mesh32-serial``, ``mesh16-lockstep``,
``mesh16-faults`` and ``stream-flap``. Each is a closed loop with one
client in one process. ``--seed`` makes the inputs (the path collection
and every call's protocol seeds); the program receives only those.

A run builds the inputs and makes one warm-up call, ``SETUP_REPS``
times (``setup_s`` is the median), then calls the workload's entry point
until ``--seconds`` have passed and at least ``MIN_CALLS`` calls were
made. Every call's output is checked outside the timed region.

``--trace 0`` prints the end-to-end metrics:

- ``setup_s``: building the inputs through public constructors plus one
  warm-up call, so work moved into construction or lazy caches shows;
- ``trials_per_s`` and ``acked_per_s``: completed protocol trials and
  acknowledged worms per second of call time (a stream-flap trial is one
  400-round scenario run);
- ``call_s_p50`` and ``call_s_p90``: seconds per call;
- ``peak_rss_mb``: peak resident set of this process, which ran only
  this workload;
- ``ok_frac``: calls whose outputs passed every check over attempted
  calls, i.e. 1 - failed_frac (metrics must be non-zero, so the
  benchmark reports the complement; ``failed_frac`` is printed above
  the result line);
- simulated metrics over the first ``MIN_CALLS`` calls, deterministic for
  a seed: ``rounds_mean`` and ``sim_time_mean`` (protocol rounds and
  ``total_time`` per trial), ``sim_latency_p99`` (per-trial 99th
  percentile of ack latency in rounds, averaged) and ``kept_frac``
  (1 - drop rate: offered worms neither rejected nor expired).

``--trace 1`` prints the per-layer metrics of trace.py's tracer: pairs of
one untraced and one traced call on the same seeds, in alternating
order, so ``trace.overhead_frac`` compares like with like. Counts are
taken over the first ``TRACE_WINDOW`` traced calls, so they are
deterministic for a seed; times are per traced call over all of them.

Every timing is *calibrated*: the host seconds a call took, scaled by
``REF_NOMINAL_S`` over the time a fixed reference kernel took right
before and right after it (the mean of the two). Shared hosts change
speed by up to 2x over minutes, far longer than a run, so raw host
seconds of the same code on the same seed spread by 30-50% between runs;
calibrated seconds spread by a few percent, and still scale one to one
with the program's own cost, since the kernel never calls the program.
The raw host-second figures and the kernel's median time are printed
too.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
host facts and every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MIN_CALLS = 100
SETUP_REPS = 5
TRACE_WINDOW = 10
#: Calibrated seconds are host seconds on a host where one run of
#: reference_s()'s kernel takes this long.
REF_NOMINAL_S = 0.010

END_TO_END_UNITS = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "acked_per_s": "1/s",
    "call_s_p50": "s",
    "call_s_p90": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "rounds_mean": "rounds",
    "sim_time_mean": "steps",
    "sim_latency_p99": "rounds",
    "kept_frac": "frac",
}


def load_program():
    """Import the program from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(ROOT))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program from {src}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def git_rev() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_rev": git_rev(),
    }


def reference_s() -> float:
    """Host seconds one run of a fixed reference kernel takes now.

    Fixed work in the simulator's style -- tuple-keyed dict updates, a
    sort of tuples, numpy lexsort and cumsum over 16k integers -- that
    never touches the program, so its time tracks the host's speed only.
    """
    t0 = time.perf_counter()
    counts: dict = {}
    for i in range(12000):
        key = (i % 509, i & 7)
        counts[key] = counts.get(key, 0) + 1
    sorted((v, k) for k, v in counts.items())
    a = (np.arange(16384, dtype=np.int64) * 7919) % 10007
    for _ in range(4):
        np.cumsum(a[np.lexsort((a, a[::-1]))])
    return time.perf_counter() - t0


class Clock:
    """Calibrates host seconds against the reference kernel.

    The kernel runs once at construction and once per :meth:`calibrate`,
    so every timed interval is bracketed by two kernel runs.
    """

    def __init__(self) -> None:
        self.refs = [reference_s()]

    def calibrate(self, host_s: float) -> float:
        """Calibrated seconds of an interval that just ended."""
        self.refs.append(reference_s())
        return host_s * REF_NOMINAL_S / ((self.refs[-2] + self.refs[-1]) / 2)

    @property
    def scale(self) -> float:
        """The run's median calibration factor."""
        return REF_NOMINAL_S / statistics.median(self.refs)


def draw_seeds(rng, k: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=k)]


def setup(wl, seed: int):
    """Build the inputs and make the warm-up call, ``SETUP_REPS`` times.

    Returns (inputs, median calibrated seconds, median host seconds,
    failures). Every repetition builds the same inputs from the seed, so
    the last one is used for the run. The once-per-run extra check runs
    on the warm-up output.
    """
    warm_seeds = draw_seeds(np.random.default_rng([seed, 2]), wl.seeds_per_call)
    clock = Clock()
    times, host = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        inputs = wl.build(np.random.default_rng([seed, 0]))
        output = wl.call(inputs, warm_seeds)
        host.append(time.perf_counter() - t0)
        times.append(clock.calibrate(host[-1]))
    failures = wl.check(inputs, output).failures
    failures += wl.extra_check(inputs, warm_seeds, output)
    return inputs, statistics.median(times), statistics.median(host), failures


def timed_call(wl, inputs, seeds, failures: list[str]):
    """One call: (seconds, Outcome or None when it raised)."""
    t0 = time.perf_counter()
    try:
        output = wl.call(inputs, seeds)
    except Exception as exc:  # a failed call is counted, not fatal
        failures.append(f"call raised {type(exc).__name__}: {exc}")
        return time.perf_counter() - t0, None
    seconds = time.perf_counter() - t0
    outcome = wl.check(inputs, output)
    failures.extend(outcome.failures)
    return seconds, outcome


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def run_untraced(wl, seed: int, seconds: float):
    inputs, setup_s, setup_host_s, failures = setup(wl, seed)
    setup_failed = bool(failures)
    rng = np.random.default_rng([seed, 1])
    clock = Clock()
    durations, host, outcomes, failed = [], [], [], 0
    start = time.perf_counter()
    while len(durations) < MIN_CALLS or time.perf_counter() - start < seconds:
        dt, outcome = timed_call(wl, inputs, draw_seeds(rng, wl.seeds_per_call), failures)
        host.append(dt)
        durations.append(clock.calibrate(dt))
        if outcome is None or outcome.failures:
            failed += 1
        else:
            outcomes.append(outcome)
    total = sum(durations)
    trials = sum(o.trials for o in outcomes)
    window = outcomes[:MIN_CALLS]
    offered = sum(o.offered for o in window)
    metrics = {
        "setup_s": setup_s,
        "trials_per_s": trials / total,
        "acked_per_s": sum(o.acked for o in outcomes) / total,
        "call_s_p50": statistics.median(durations),
        "call_s_p90": statistics.quantiles(durations, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (len(durations) - failed) / len(durations),
        "rounds_mean": _mean(r for o in window for r in o.rounds),
        "sim_time_mean": _mean(t for o in window for t in o.sim_time),
        "sim_latency_p99": _mean(q for o in window for q in o.latency_p99),
        "kept_frac": 1 - sum(o.dropped for o in window) / offered if offered else 0.0,
    }
    notes = [
        f"{len(durations)} calls in {time.perf_counter() - start:.1f} s; "
        f"call_s_p90 has {sum(d > metrics['call_s_p90'] for d in durations)} "
        f"samples beyond it",
        f"failed_frac {failed / len(durations)} ({failed}/{len(durations)})",
        f"reference kernel median {statistics.median(clock.refs) * 1e3:.3f} ms "
        f"(nominal {REF_NOMINAL_S * 1e3:g} ms); raw host time: setup_s "
        f"{setup_host_s:.4g} s, trials_per_s {trials / sum(host):.4g} 1/s, "
        f"call_s_p50 {statistics.median(host):.4g} s, "
        f"call_s_p90 {statistics.quantiles(host, n=10)[8]:.4g} s",
    ]
    result = {
        "correct": failed == 0 and not setup_failed,
        "attempted": len(durations),
        "failed": failed,
    }
    with_units = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    return result, with_units, notes, failures


def layer_metrics(tr, window, n: int, total: float, spans, overhead: float, scale: float):
    """Per-layer metrics: {name: (value, unit)}, value None when absent.

    ``window`` holds the tracer's (calls, counts) after the first
    ``TRACE_WINDOW`` traced calls; counts are per call over that window.
    Times are per call over all ``n`` traced calls, calibrated by the
    run's median factor ``scale``; shares are a layer's self time over
    ``total``, the traced calls' host seconds. A metric is
    absent when no target of its wrapper key (or, for a layer-wide
    metric, of its layer) exists in the program.
    """
    calls, counts = window
    s = tr.self_s
    layer = tr.layer_self_s
    fwd_s = s["engine.round"] + s["engine.batch"]
    fwd_events = tr.counts["engine.round_events"] + tr.counts["engine.batch_events"]
    launched = counts["engine.launched"]
    per_window = {  # name: (wrapper key or layer, count over the window)
        "paths.subset_calls": ("paths.subset", calls["paths.subset"]),
        "paths.subset_paths": ("paths.subset", counts["paths.subset_paths"]),
        "paths.batch_oracle_calls": ("paths.batch_oracle", calls["paths.batch_oracle"]),
        "engine.round_calls": ("engine.round", calls["engine.round"]),
        "engine.round_events": ("engine.round", counts["engine.round_events"]),
        "engine.batch_calls": ("engine.batch", calls["engine.batch"]),
        "engine.batch_trials": ("engine.batch", counts["engine.batch_trials"]),
        "engine.build_calls": ("engine.build", calls["engine.build"]),
        "engine.fork_calls": ("engine.fork", calls["engine.fork"]),
        "engine.ack_round_calls": ("engine.round", calls["engine.ack_round"]),
        "protocol.setup_calls": ("protocol.setup", calls["protocol.setup"]),
        "protocol.trials": ("protocol.run", counts["protocol.trials"]),
        "protocol.rounds": ("protocol.run", counts["protocol.rounds"]),
        "faults.repairs": ("protocol.run", counts["faults.repairs"]),
        "faults.duplicates": ("protocol.run", counts["faults.duplicates"]),
        "scenarios.rounds": ("scenarios.run", counts["scenarios.rounds"]),
        "scenarios.admitted": ("scenarios.run", counts["scenarios.admitted"]),
        "runners.calls": ("runners", calls["runners.route_collection_trials"]),
    }
    per_call_s = {  # name: (wrapper key or layer, seconds over all traced calls)
        "paths.subset_s": ("paths.subset", s["paths.subset"]),
        "paths.congestion_s": ("paths.congestion", s["paths.congestion"]),
        "paths.batch_oracle_s": ("paths.batch_oracle", s["paths.batch_oracle"]),
        "engine.round_s": ("engine.round", s["engine.round"]),
        "engine.batch_s": ("engine.batch", s["engine.batch"]),
        "engine.build_s": ("engine.build", s["engine.build"]),
        "engine.fork_s": ("engine.fork", s["engine.fork"]),
        "engine.ack_round_s": ("engine.round", s["engine.ack_round"]),
        "protocol.setup_s": ("protocol.setup", s["protocol.setup"]),
        "protocol.self_s": ("protocol.run", s["protocol.run"]),
        "faults.reroute_s": ("faults.reroute", s["faults.reroute"]),
        "faults.dead_links_s": ("faults.dead_links", s["faults.dead_links"]),
        "scenarios.self_s": ("scenarios", layer("scenarios")),
        "runners.self_s": ("runners", layer("runners")),
    }
    ratios = {  # name: (wrapper key or layer, value, unit)
        "paths.share": ("paths", layer("paths") / total, "frac"),
        "engine.share": ("engine", layer("engine") / total, "frac"),
        "protocol.share": ("protocol", layer("protocol") / total, "frac"),
        "faults.share": ("faults", layer("faults") / total, "frac"),
        "scenarios.share": ("scenarios", layer("scenarios") / total, "frac"),
        "runners.share": ("runners", layer("runners") / total, "frac"),
        "engine.events_per_s": (
            "engine.round", fwd_events / (fwd_s * scale) if fwd_s else 0.0, "1/s"
        ),
        "engine.delivered_frac": (
            "engine.round",
            counts["engine.delivered"] / launched if launched else 0.0,
            "frac",
        ),
    }
    installed = tr.installed | {k.split(".")[0] for k in tr.installed}
    out = {}
    for name, (key, value) in per_window.items():
        out[name] = (value / TRACE_WINDOW if key in installed else None, "count/call")
    for name, (key, value) in per_call_s.items():
        out[name] = (value * scale / n if key in installed else None, "s/call")
    for name, (key, value, unit) in ratios.items():
        out[name] = (value if key in installed else None, unit)
    # The program's own span profiler times the kernel stages.
    for stage in ("build_events", "resolve", "finalise"):
        entries = [
            v["total"]
            for path, v in (spans or {}).items()
            if path.rsplit("/", 1)[-1] == f"engine.{stage}"
        ]
        value = sum(entries) * scale / n if entries else None
        out[f"engine.{stage}_s"] = (value, "s/call")
    out["trace.overhead_frac"] = (overhead, "frac")
    return dict(sorted(out.items()))


def traced_pass(wl, inputs, seeds, tracer, failures: list[str]):
    """One traced call: wrappers and the program's span profiler on."""
    try:
        from repro.observability.spans import (
            SpanProfiler,
            disable_profiling,
            enable_profiling,
        )
    except ImportError:
        profiler = None
    else:
        profiler = enable_profiling(SpanProfiler())
    tracer.install()
    try:
        dt, outcome = timed_call(wl, inputs, seeds, failures)
    finally:
        tracer.uninstall()
        if profiler is not None:
            disable_profiling()
    return dt, outcome, profiler.snapshot() if profiler is not None else None


def run_traced(wl, seed: int, seconds: float, tracer):
    inputs, _, _, failures = setup(wl, seed)
    setup_failed = bool(failures)
    rng = np.random.default_rng([seed, 1])
    clock = Clock()
    plain, traced, host, spans, failed, window = [], [], [], {}, 0, None
    start = time.perf_counter()
    while len(traced) < TRACE_WINDOW or time.perf_counter() - start < seconds:
        seeds = draw_seeds(rng, wl.seeds_per_call)
        for traced_turn in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            if traced_turn:
                dt, outcome, snap = traced_pass(wl, inputs, seeds, tracer, failures)
                host.append(dt)
                traced.append(clock.calibrate(dt))
                for path, v in (snap or {}).items():
                    spans.setdefault(path, {"total": 0.0})["total"] += v["total"]
            else:
                dt, outcome = timed_call(wl, inputs, seeds, failures)
                plain.append(clock.calibrate(dt))
            failed += outcome is None or bool(outcome.failures)
        if len(traced) == TRACE_WINDOW:
            window = (Counter(tracer.calls), Counter(tracer.counts))
    overhead = sum(traced) / sum(plain) - 1
    metrics = layer_metrics(
        tracer, window, len(traced), sum(host), spans, overhead, clock.scale
    )
    attempted = len(plain) + len(traced)
    result = {
        "correct": failed == 0 and not setup_failed,
        "attempted": attempted,
        "failed": failed,
    }
    notes = [
        f"{len(traced)} traced and {len(plain)} untraced calls in "
        f"{time.perf_counter() - start:.1f} s; counts over the first "
        f"{TRACE_WINDOW} traced calls",
        f"failed_frac {failed / attempted} ({failed}/{attempted})",
    ]
    absent = sorted(name for name, (v, _) in metrics.items() if v is None)
    if absent:
        notes.append(f"absent (target missing from the program): {', '.join(absent)}")
    if tracer.absent:
        notes.append(f"missing targets: {', '.join(sorted(tracer.absent))}")
    return result, metrics, notes, failures


def report(name: str, result: dict, metrics: dict, notes: list[str], failures: list[str]) -> None:
    """Print host facts, notes and every metric, then the result line."""
    print(f"host {json.dumps(host_facts())}")
    print(f"workload {name}")
    for note in notes:
        print(f"  {note}")
    for failure in failures[:10]:
        print(f"  check failed: {failure}")
    width = max(len(k) for k in metrics)
    for key, (value, unit) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {key:<{width}}  {shown} {unit}")
    # An absent metric is reported as 0 in the result line (listed above).
    result["metrics"] = {
        key: {"value": 0 if value is None else value, "unit": unit}
        for key, (value, unit) in metrics.items()
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="check that a delay injected into one layer is blamed on it alone",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    load_program()
    from perfbench.workloads import WORKLOADS

    if args.selftest:
        from perfbench.selftest import selftest

        return selftest()
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    if args.trace:
        from perfbench.trace import Tracer

        out = run_traced(wl, args.seed, args.seconds, Tracer())
    else:
        out = run_untraced(wl, args.seed, args.seconds)
    report(wl.name, *out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
