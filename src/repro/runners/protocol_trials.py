"""Picklable protocol trials: route one collection many times, in parallel.

The protocol layer's :func:`repro.core.protocol.route_collection` is a
pure function of ``(collection, config, seed)``, which makes a full
protocol execution the natural unit of parallel work. This module
provides the module-level trial callable the
:class:`~repro.runners.trial.TrialRunner` needs (closures cannot cross a
process boundary) plus the convenience entry point experiments, the CLI
and the benchmark harness share.
"""

from __future__ import annotations

import math
import time
from functools import partial
from typing import Callable

from repro.core import protocol
from repro.core.records import ProtocolResult
from repro.observability.groupstats import GroupedStats
from repro.observability.ledger import RunLedger, RunRecord, fingerprint_of, stable_repr
from repro.observability.metrics import MetricsRegistry
from repro.observability.spans import get_profiler
from repro.optics.coupler import CollisionRule
from repro.paths.collection import PathCollection
from repro.runners.trial import (
    TrialProgress,
    TrialRunner,
    _describe_trial_fn,
    spawn_seeds,
)

__all__ = [
    "LOCKSTEP_SLICE",
    "lockstep_width",
    "protocol_trial",
    "protocol_trial_batch",
    "instrumented_protocol_trial",
    "instrumented_protocol_trial_batch",
    "fault_label",
    "route_collection_trials",
]

#: The most seeds one lockstep slice carries. A slice is the runner's
#: unit of checkpoint write and progress report, and
#: :func:`~repro.core.protocol.run_protocol_batch` keeps every trial of
#: its slice in memory at once, so the cap bounds how much work a kill
#: loses and how much memory a call holds. 16 is the slice width of the
#: measured lockstep workload (docs/PERFORMANCE.md).
LOCKSTEP_SLICE = 16


def lockstep_width(
    trials: int, jobs: int = 1, timeout: float | None = None
) -> int:
    """Seeds per runner unit when ``trials`` lockstep trials share ``jobs``.

    ``min(LOCKSTEP_SLICE, ceil(trials / jobs))``, so every worker gets a
    slice and no slice outgrows the measured width. ``timeout`` bounds
    one attempt of one trial, so when it is given every slice is one
    seed.
    """
    if timeout is not None:
        return 1
    return max(1, min(LOCKSTEP_SLICE, math.ceil(trials / max(1, jobs))))


def fault_label(config: protocol.ProtocolConfig) -> str:
    """The canonical fault-model label of a protocol config.

    The run ledger groups history by (workload, backend, fault-model,
    scenario), where ``backend`` only labels rows recorded before the
    engine had one round kernel. This is the fault-model coordinate:
    ``"none"`` for a fault-free config, otherwise the fault spec and
    repair policy.
    """
    parts = []
    if config.faults is not None:
        parts.append(stable_repr(config.faults))
    if config.repair != "none":
        parts.append(f"repair={config.repair}")
    return ",".join(parts) or "none"


def _record_trial_batch(
    ledger: RunLedger,
    *,
    collection: PathCollection,
    config: protocol.ProtocolConfig,
    trial_fn,
    trials: int,
    seed,
    results: list[ProtocolResult],
    started: float,
    wall: float,
    metrics: MetricsRegistry | None,
) -> str:
    """One ledger row for a completed trial batch; returns the run id."""
    labels = {
        "workload": repr(collection),
        "backend": "",
        "fault_model": fault_label(config),
        "scenario": "",
    }
    groups = GroupedStats()
    for child_seed, result in zip(spawn_seeds(seed, trials), results):
        groups.observe(
            labels,
            child_seed,
            rounds=result.rounds,
            makespan=result.total_time,
        )
    completed = sum(1 for r in results if r.completed)
    profiler = get_profiler()
    record = RunRecord(
        kind="trials",
        started_unix=started,
        wall_seconds=wall,
        workload=labels["workload"],
        fault_model=labels["fault_model"],
        seed=seed if isinstance(seed, int) else None,
        trials=trials,
        fingerprint=fingerprint_of(_describe_trial_fn(trial_fn), trials, seed),
        summary={
            "completed": completed,
            "trials": trials,
            "rounds_p50": groups.quantile(labels, "rounds", 0.50),
            "rounds_p95": groups.quantile(labels, "rounds", 0.95),
            "rounds_p99": groups.quantile(labels, "rounds", 0.99),
            "seed": seed if isinstance(seed, int) else stable_repr(seed),
        },
        metrics=metrics.snapshot() if metrics is not None else None,
        spans=get_profiler().snapshot() if profiler.enabled else None,
        groups=groups.snapshot(),
    )
    return ledger.record(record)


def protocol_trial(
    seed: int, collection: PathCollection, config: protocol.ProtocolConfig
) -> ProtocolResult:
    """One full trial-and-failure execution; picklable by construction."""
    return protocol.TrialAndFailureProtocol(collection, config).run(seed)


def protocol_trial_batch(
    seeds: list[int],
    collection: PathCollection,
    config: protocol.ProtocolConfig,
) -> list[ProtocolResult]:
    """One trial per seed; picklable by construction.

    The runner's unit of work. Two or more seeds run in lockstep
    through :func:`repro.core.protocol.run_protocol_batch`; a single
    seed runs :meth:`TrialAndFailureProtocol.run`. Either way each
    result is bit-identical to :func:`protocol_trial` on the same seed.
    """
    if len(seeds) == 1:
        return [protocol_trial(seeds[0], collection, config)]
    # Looked up on the module at call time, as TrialAndFailureProtocol.run
    # is on its class, so patching the public name reaches runner trials.
    return protocol.run_protocol_batch(collection, config, seeds)


def instrumented_protocol_trial(
    seed: int, collection: PathCollection, config: protocol.ProtocolConfig
) -> tuple[ProtocolResult, dict]:
    """One execution against a private registry; returns (result, snapshot).

    The private-registry-per-trial shape is what makes pooled metric
    aggregation deterministic: each worker ships its snapshot back with
    its result, and the parent merges them in trial order, so counters
    and gauges are bit-identical for any ``jobs``.
    """
    registry = MetricsRegistry()
    result = protocol.TrialAndFailureProtocol(
        collection, config, metrics=registry
    ).run(seed)
    return result, registry.snapshot()


def instrumented_protocol_trial_batch(
    seeds: list[int],
    collection: PathCollection,
    config: protocol.ProtocolConfig,
) -> list[tuple[ProtocolResult, dict]]:
    """:func:`protocol_trial_batch`, each trial against its own registry.

    Returns one ``(result, snapshot)`` pair per seed, so the caller's
    merge loop is identical to the per-seed instrumented path: counters
    and gauges stay bit-identical for any ``jobs`` or slice boundaries
    (wall-clock histogram sums are run-dependent by contract).
    """
    if len(seeds) == 1:
        return [instrumented_protocol_trial(seeds[0], collection, config)]
    registries = [MetricsRegistry() for _ in seeds]
    results = protocol.run_protocol_batch(
        collection, config, seeds, metrics=registries
    )
    return [(r, m.snapshot()) for r, m in zip(results, registries)]


def route_collection_trials(
    collection: PathCollection,
    bandwidth: int,
    trials: int,
    *,
    rule: CollisionRule = CollisionRule.SERVE_FIRST,
    worm_length: int = 4,
    seed=0,
    jobs: int = 1,
    timeout: float | None = None,
    retries: int = 0,
    progress: Callable[[TrialProgress], None] | None = None,
    metrics: MetricsRegistry | None = None,
    checkpoint=None,
    ledger: RunLedger | None = None,
    **config_kwargs,
) -> list[ProtocolResult]:
    """Route ``collection`` over ``trials`` independent seeds.

    Bit-identical to calling :func:`repro.core.protocol.route_collection`
    serially on each child seed of ``seed``, for any ``jobs``.
    ``checkpoint`` passes through to the runner: a killed batch rerun
    with the same arguments resumes from the journal, skipping the
    already-completed trials.

    The seeds are cut into contiguous slices of :func:`lockstep_width`
    seeds; a slice is the runner's unit of dispatch, retry, progress
    report and checkpoint write. A slice of two or more seeds runs in lockstep through
    :func:`repro.core.protocol.run_protocol_batch`, which amortises the
    engine's per-round array passes across the slice; a one-seed slice
    runs :meth:`TrialAndFailureProtocol.run`. Both are bit-identical
    per trial. ``timeout`` bounds one attempt of one trial, so when it
    is given every slice is one seed.

    When ``metrics`` is given, every trial runs instrumented against its
    own private registry (in the worker process for ``jobs > 1``) and the
    snapshots are merged into ``metrics`` in trial order -- so counter
    and gauge aggregation is bit-identical for any ``jobs`` (wall-clock
    histogram sums are run-dependent by nature). The runner's own batch
    metrics land in the same registry.

    When ``ledger`` (a :class:`~repro.observability.ledger.RunLedger`)
    is given, the completed batch is recorded as one ``kind="trials"``
    row: config fingerprint, seed, workload and fault-model
    labels, wall time, the metrics/span snapshots, and a
    :class:`~repro.observability.groupstats.GroupedStats` snapshot of
    per-trial rounds and makespan keyed by each trial's child seed --
    bit-identical for any ``jobs`` because the results are.
    """
    config = protocol.ProtocolConfig(
        bandwidth=bandwidth, rule=rule, worm_length=worm_length, **config_kwargs
    )
    trial_fn = partial(
        protocol_trial_batch
        if metrics is None
        else instrumented_protocol_trial_batch,
        collection=collection,
        config=config,
    )
    runner = TrialRunner(
        trial_fn,
        jobs=jobs,
        timeout=timeout,
        retries=retries,
        progress=progress,
        metrics=metrics,
        checkpoint=checkpoint,
        batch_size=lockstep_width(trials, jobs, timeout),
    )
    started = time.time()
    outputs = runner.run(trials, seed)
    wall = time.time() - started
    if metrics is None:
        results = outputs
    else:
        results = []
        for result, snapshot in outputs:
            results.append(result)
            metrics.merge(snapshot)
    if ledger is not None:
        _record_trial_batch(
            ledger,
            collection=collection,
            config=config,
            trial_fn=trial_fn,
            trials=trials,
            seed=seed,
            results=results,
            started=started,
            wall=wall,
            metrics=metrics,
        )
    return results
