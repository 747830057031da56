"""The benchmark's four workloads: inputs, one call, and its output checks.

Every workload is a closed loop with one client: the caller waits for
each call's result before making the next. Calls go through public entry
points resolved as module attributes at call time, so the traced run's
wrappers (see trace.py) see them. No call passes ``backend=`` or
``jobs``: both stay at their defaults (one process, default kernel).

Each call's output is reduced to an :class:`Outcome` outside the timed
region. A trial that does not complete, a worm missing from a trial's
``delivered_round``, or inconsistent streaming counts are check
failures; the run counts a call with any failure as failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import repro.core.protocol as protocol
import repro.runners as runners
import repro.scenarios as scenarios
from repro.experiments.workloads import mesh_random_function
from repro.faults import AckLoss, ComposedFaults, PersistentLinkFailures


@dataclass
class Outcome:
    """What one call produced, as the benchmark's metrics read it."""

    trials: int = 0  # protocol trials (or scenario runs) completed
    acked: int = 0  # worms acknowledged
    offered: int = 0  # worms offered to the network
    dropped: int = 0  # offered worms rejected at admission or expired
    rounds: list[int] = field(default_factory=list)  # per trial
    sim_time: list[int] = field(default_factory=list)  # per trial
    latency_p99: list[float] = field(default_factory=list)  # per trial, rounds
    failures: list[str] = field(default_factory=list)


def quantile(values, q: float) -> float:
    """Exact order-statistic quantile, the definition StreamingResult uses."""
    data = sorted(values)
    return float(data[min(len(data) - 1, max(0, math.ceil(q * len(data)) - 1))])


def _check_trials(n: int, results) -> Outcome:
    """Outcome of protocol trials over an ``n``-worm collection.

    A worm enters at round 1 and its latency is the round it was first
    acknowledged, so the latency figures share StreamingResult's
    definition (ack round - admission round + 1).
    """
    out = Outcome()
    uids = set(range(n))
    for i, r in enumerate(results):
        if not r.completed:
            out.failures.append(f"trial {i}: {r.stall_reason}")
            continue
        if set(r.delivered_round) != uids:
            out.failures.append(f"trial {i}: delivered_round misses worms")
            continue
        out.trials += 1
        out.acked += n
        out.offered += n
        out.rounds.append(r.rounds)
        out.sim_time.append(r.total_time)
        out.latency_p99.append(quantile(r.delivered_round.values(), 0.99))
    return out


class Workload:
    """One workload: ``build`` makes the inputs, ``call`` is the timed unit.

    Why each workload was chosen is recorded in BENCHMARK.json.
    """

    name = ""
    seeds_per_call = 1

    def build(self, rng: np.random.Generator):
        raise NotImplementedError

    def call(self, inputs, seeds: list[int]):
        raise NotImplementedError

    def check(self, inputs, output) -> Outcome:
        raise NotImplementedError

    def extra_check(self, inputs, seeds: list[int], output) -> list[str]:
        """A check run once per run, outside the timed loop."""
        return []


class Mesh32Serial(Workload):
    name = "mesh32-serial"

    def build(self, rng):
        return mesh_random_function(32, 2, rng=rng)

    def call(self, coll, seeds):
        return runners.route_collection_trials(coll, 2, trials=1, seed=seeds[0])

    def check(self, coll, output):
        return _check_trials(coll.n, output)


class Mesh16Lockstep(Workload):
    name = "mesh16-lockstep"
    seeds_per_call = 16

    def build(self, rng):
        return mesh_random_function(16, 2, rng=rng), protocol.ProtocolConfig(
            bandwidth=2
        )

    def call(self, inputs, seeds):
        coll, cfg = inputs
        return protocol.run_protocol_batch(coll, cfg, seeds)

    def check(self, inputs, output):
        return _check_trials(inputs[0].n, output)

    def extra_check(self, inputs, seeds, output):
        coll, cfg = inputs
        serial = protocol.TrialAndFailureProtocol(coll, cfg).run(seeds[-1])
        if output[-1] != serial:
            return [f"lockstep result of seed {seeds[-1]} differs from serial run"]
        return []


class Mesh16Faults(Workload):
    name = "mesh16-faults"

    def build(self, rng):
        # At a link failure rate of 0.002 a corner node loses both of its
        # links in about one trial in 1500, which strands a worm until
        # max_rounds and fails the call. At 0.0002 that drops below one
        # trial in 10^5, while about a quarter of trials still reroute.
        faults = ComposedFaults([PersistentLinkFailures(0.0002), AckLoss(0.05)])
        return mesh_random_function(16, 2, rng=rng), faults

    def call(self, inputs, seeds):
        coll, faults = inputs
        return runners.route_collection_trials(
            coll,
            2,
            trials=2,
            seed=seeds[0],
            ack_mode="simulated",
            faults=faults,
            repair="reroute",
        )

    def check(self, inputs, output):
        return _check_trials(inputs[0].n, output)


class StreamFlap(Workload):
    name = "stream-flap"

    def build(self, rng):
        return scenarios.get_scenario("link-flap-storm")

    def call(self, spec, seeds):
        return scenarios.run_scenario(spec, seed=seeds[0], rounds=400)

    def check(self, spec, r):
        out = Outcome()
        if r.acked + r.rejected + r.expired > r.offered:
            out.failures.append(
                f"acked {r.acked} + rejected {r.rejected} + expired "
                f"{r.expired} exceeds offered {r.offered}"
            )
            return out
        if len(r.latencies) != r.acked:
            out.failures.append("latency count differs from acked count")
            return out
        out.trials = 1
        out.acked = r.acked
        out.offered = r.offered
        out.dropped = r.rejected + r.expired
        out.rounds.append(r.rounds)
        out.sim_time.append(r.total_time)
        if r.latencies:
            out.latency_p99.append(r.latency_quantile(0.99))
        return out


WORKLOADS = {
    w.name: w for w in (Mesh32Serial(), Mesh16Lockstep(), Mesh16Faults(), StreamFlap())
}
