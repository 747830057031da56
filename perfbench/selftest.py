"""Self-test of the traced run's attribution: blame the named layer.

For each case, the same calls run twice under the tracer: once plain and
once with a busy-wait injected inside one wrapper (see ``Tracer(delay=)``).
The injected time must show up in that wrapper's layer self time and in
no other layer. The delay per wrapped call is sized so that the total
injected time is ``INJECTED_S`` whatever the wrapper's call count.

Run it with ``python3 perfbench/run.py --selftest``; it exits 1 when a
case fails.
"""

from __future__ import annotations

import numpy as np

from perfbench.run import draw_seeds, setup, traced_pass
from perfbench.trace import LAYERS, Tracer
from perfbench.workloads import WORKLOADS

# (workload, wrapper key): one key per layer, on a workload that calls it.
CASES = (
    ("mesh16-faults", "runners.route_collection_trials"),
    ("mesh16-faults", "protocol.run"),
    ("mesh16-faults", "paths.subset"),
    ("mesh16-faults", "engine.ack_round"),
    ("mesh16-faults", "faults.dead_links"),
    ("mesh16-lockstep", "paths.batch_oracle"),
    ("mesh16-lockstep", "engine.batch"),
    ("stream-flap", "scenarios.run"),
)
CALLS = 2
INJECTED_S = 1.0
#: Other layers may move by at most this share of the injected time.
LEAK = 0.1


def _layers(tracer: Tracer) -> dict[str, float]:
    return {layer: tracer.layer_self_s(layer) for layer in LAYERS}


def run_case(name: str, key: str, inputs, seed_lists) -> list[str]:
    wl = WORKLOADS[name]
    failures: list[str] = []
    plain = Tracer()
    for seeds in seed_lists:
        traced_pass(wl, inputs, seeds, plain, failures)
    if not plain.calls[key]:
        return [f"{name}: {key} was never called"]
    delayed = Tracer(delay=(key, INJECTED_S / plain.calls[key]))
    for seeds in seed_lists:
        traced_pass(wl, inputs, seeds, delayed, failures)
    if delayed.calls[key] != plain.calls[key]:
        failures.append(f"{key} call count changed under the delay")
    before, after = _layers(plain), _layers(delayed)
    target = key.split(".")[0]
    for layer in LAYERS:
        moved = after[layer] - before[layer]
        if layer == target:
            if not 0.9 * INJECTED_S <= moved <= (1 + LEAK) * INJECTED_S:
                failures.append(
                    f"{layer} moved {moved:.4f} s for {INJECTED_S} s injected"
                )
        elif abs(moved) > LEAK * INJECTED_S:
            failures.append(
                f"{layer} moved {moved:+.4f} s for {INJECTED_S} s injected "
                f"into {key}"
            )
    return failures


def selftest() -> int:
    inputs = {}
    failed = 0
    for name, key in CASES:
        wl = WORKLOADS[name]
        if name not in inputs:
            inputs[name] = setup(wl, 1)[0]
        rng = np.random.default_rng([1, 3])
        seed_lists = [draw_seeds(rng, wl.seeds_per_call) for _ in range(CALLS)]
        failures = run_case(name, key, inputs[name], seed_lists)
        failed += bool(failures)
        print(f"{'FAIL' if failures else 'ok  '} {name}: delay in {key}")
        for failure in failures:
            print(f"     {failure}")
    print(f"selftest: {len(CASES) - failed}/{len(CASES)} cases passed")
    return 1 if failed else 0
