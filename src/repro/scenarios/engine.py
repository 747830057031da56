"""Streaming traffic engine: the trial-and-failure protocol as an open system.

The paper's protocol routes a *fixed* batch of worms until the last ack
arrives. This module runs the same protocol as an open system: worm
requests arrive continuously from a seed-deterministic
:class:`~repro.scenarios.arrivals.ArrivalProcess`, are admitted between
rounds (bounded by ``max_active``), and retire on ack or on ``patience``
expiry. Steady-state behaviour -- throughput, admission latency, drop
rate -- replaces makespan as the headline observable.

Architecture: :class:`StreamingEngine` drives the round
stepper of :class:`~repro.core.protocol.TrialAndFailureProtocol`. The
stepper does everything a round does: congestion measurement, the
``Delta_t`` schedule and stall backoff, launch and fault draws, the
engine round, acks (ideal or simulated) and ack loss, health monitoring
and reroute repair. Between its rounds the engine only handles
arrivals, admission control, patience expiry, retirement, windows and
latency accounting; it admits and retires worms through the stepper, so
engine and per-worm state track the active population.

Determinism contract: routing randomness comes from the caller's
generator in the stepper's per-round order, and all arrival randomness
from one private generator spawned once, after the stepper started its
fault run. Two consequences, both pinned by tests:

* with ``arrivals=None`` (drain mode) the engine runs the static
  protocol's own stepper over the backlog, so its per-round records
  equal :class:`~repro.core.protocol.TrialAndFailureProtocol`'s by
  construction;
* a fixed (scenario, seed) pair yields an identical
  :meth:`StreamingResult.snapshot` on every run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Hashable, Sequence

from repro._util import as_generator, spawn_generator
from repro.core.protocol import ProtocolConfig, TrialAndFailureProtocol
from repro.errors import ScenarioError
from repro.network.topology import Topology
from repro.observability.groupstats import (
    DEFAULT_RESERVOIR_CAP,
    Reservoir,
    order_statistic,
)
from repro.observability.metrics import MetricsRegistry, get_metrics
from repro.observability.spans import get_profiler
from repro.paths.collection import PathCollection
from repro.scenarios.arrivals import ArrivalProcess
from repro.scenarios.traffic import TrafficPattern
from repro.worms.worm import Worm

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.records import RepairEvent
    from repro.observability.trace import TraceWriter

__all__ = [
    "StreamingNetwork",
    "StreamingConfig",
    "StreamingRoundRecord",
    "StreamingResult",
    "StreamingEngine",
]


@dataclass(frozen=True)
class StreamingNetwork:
    """A topology plus a deterministic route chooser for streaming demand.

    ``path_fn(src, dst)`` returns the node path a newly admitted worm
    follows; it must be deterministic (dimension-order routing and the
    like), so all randomness stays in the arrival/traffic draws.
    ``endpoints`` optionally restricts traffic sources/destinations to a
    subset of nodes (in deterministic order); empty means every node.
    """

    topology: Topology
    path_fn: Callable[[Hashable, Hashable], Sequence[Hashable]]
    endpoints: tuple = ()

    def __post_init__(self) -> None:
        if not callable(self.path_fn):
            raise ScenarioError("path_fn must be callable (src, dst) -> path")
        object.__setattr__(self, "endpoints", tuple(self.endpoints))
        if self.endpoints:
            known = set(self.topology.nodes)
            missing = [v for v in self.endpoints if v not in known]
            if missing:
                raise ScenarioError(
                    f"endpoints not in the topology: {missing[:4]!r}"
                )

    @property
    def nodes(self) -> tuple:
        """The traffic population: ``endpoints`` or all topology nodes."""
        return self.endpoints if self.endpoints else tuple(self.topology.nodes)


@dataclass(frozen=True)
class StreamingConfig:
    """Configuration of one streaming run.

    ``protocol`` configures the protocol's round stepper, which runs
    every round: bandwidth, schedule, collision rule, faults, backoff,
    ``ack_mode`` (simulated acks route on an ack engine that grows and
    shrinks with the worm set), ``repair="reroute"`` and
    ``collect_collisions`` all work as in a static run.
    ``arrivals``/``traffic`` define the offered load; ``arrivals=None``
    selects *drain mode*: route a fixed initial backlog to completion
    on the static protocol's own stepper. ``rounds`` bounds a streaming
    run (drain mode uses ``protocol.max_rounds``); ``max_active`` is the
    admission-control window (excess offered requests are *rejected*);
    ``patience`` expires worms still undelivered after that many rounds
    in the system (None = wait forever). ``rate_windows`` is a tuple of
    ``(start_round, duration, multiplier)`` triples scaling the arrival
    rate while active -- overlapping windows multiply -- which is how
    flash-crowd events are expressed. ``snapshot_every`` opts into
    time-resolved observability: every that-many rounds the engine
    emits one bounded-memory window snapshot (per-window throughput,
    drop rate, active worms, reservoir-sampled latency quantiles) as a
    ``scenario_window`` trace record, without perturbing the run -- the
    windowing consumes no routing randomness, so results stay
    bit-identical to an unwindowed run.
    """

    protocol: ProtocolConfig
    arrivals: ArrivalProcess | None = None
    traffic: TrafficPattern | None = None
    rounds: int = 256
    max_active: int = 1024
    patience: int | None = None
    rate_windows: tuple = ()
    snapshot_every: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.protocol, ProtocolConfig):
            raise ScenarioError(
                f"protocol must be a ProtocolConfig, "
                f"got {type(self.protocol).__name__}"
            )
        if self.arrivals is not None and not isinstance(
            self.arrivals, ArrivalProcess
        ):
            raise ScenarioError(
                f"arrivals must be an ArrivalProcess or None, "
                f"got {type(self.arrivals).__name__}"
            )
        if (self.arrivals is None) != (self.traffic is None):
            raise ScenarioError(
                "arrivals and traffic come together: pass both for a "
                "streaming run or neither for drain mode"
            )
        if self.traffic is not None and not isinstance(
            self.traffic, TrafficPattern
        ):
            raise ScenarioError(
                f"traffic must be a TrafficPattern or None, "
                f"got {type(self.traffic).__name__}"
            )
        if self.rounds < 1:
            raise ScenarioError(f"rounds must be >= 1, got {self.rounds}")
        if self.max_active < 1:
            raise ScenarioError(
                f"max_active must be >= 1, got {self.max_active}"
            )
        if self.patience is not None and self.patience < 1:
            raise ScenarioError(
                f"patience must be >= 1 (or None), got {self.patience}"
            )
        windows = []
        for w in self.rate_windows:
            try:
                start, duration, multiplier = w
            except (TypeError, ValueError):
                raise ScenarioError(
                    f"rate window must be (start_round, duration, "
                    f"multiplier), got {w!r}"
                ) from None
            start, duration, multiplier = int(start), int(duration), float(multiplier)
            if start < 1 or duration < 1:
                raise ScenarioError(
                    f"rate window start/duration must be >= 1, got {w!r}"
                )
            if multiplier < 0.0:
                raise ScenarioError(
                    f"rate window multiplier must be >= 0, got {w!r}"
                )
            windows.append((start, duration, multiplier))
        object.__setattr__(self, "rate_windows", tuple(windows))
        if self.snapshot_every is not None and self.snapshot_every < 1:
            raise ScenarioError(
                f"snapshot_every must be >= 1 (or None), "
                f"got {self.snapshot_every}"
            )

    def rate_multiplier(self, t: int) -> float:
        """Product of the multipliers of all windows active at round ``t``."""
        m = 1.0
        for start, duration, multiplier in self.rate_windows:
            if start <= t < start + duration:
                m *= multiplier
        return m


@dataclass(frozen=True)
class StreamingRoundRecord:
    """Per-round streaming observables.

    ``offered``/``admitted``/``rejected``/``expired`` count this round's
    arrival-side events; the remaining fields are copied from the
    stepper's :class:`~repro.core.records.RoundRecord` of the round.
    """

    index: int
    delay_range: int
    offered: int
    admitted: int
    rejected: int
    expired: int
    active_before: int
    delivered: int
    acked: int
    duration: int


@dataclass(frozen=True)
class StreamingResult:
    """Outcome of one streaming (or drain) run.

    ``completed`` means the system ended drained (no active worms).
    ``latencies`` holds one admission-to-ack latency per acked worm, in
    ack order (ties broken by uid); quantiles are exact order
    statistics, not interpolations. ``collisions_per_round`` (with
    ``collect_collisions``) and ``repairs`` (with ``repair="reroute"``)
    are the stepper's, as in
    :class:`~repro.core.records.ProtocolResult`.
    """

    completed: bool
    rounds: int
    total_time: int
    offered: int
    admitted: int
    acked: int
    rejected: int
    expired: int
    records: tuple[StreamingRoundRecord, ...]
    delivered_round: dict[int, int] = field(default_factory=dict)
    admitted_round: dict[int, int] = field(default_factory=dict)
    latencies: tuple[int, ...] = ()
    collisions_per_round: tuple = ()
    repairs: "tuple[RepairEvent, ...]" = ()

    @property
    def drop_rate(self) -> float:
        """Fraction of offered requests rejected at admission or expired."""
        if self.offered == 0:
            return 0.0
        return (self.rejected + self.expired) / self.offered

    @property
    def throughput(self) -> float:
        """Acked worms per unit of protocol time."""
        if self.total_time == 0:
            return 0.0
        return self.acked / self.total_time

    def latency_quantile(self, q: float) -> float | None:
        """Exact order-statistic latency quantile (None with no acks)."""
        if not 0.0 <= q <= 1.0:
            raise ScenarioError(f"quantile must be in [0, 1], got {q}")
        if not self.latencies:
            return None
        return float(order_statistic(sorted(self.latencies), q))

    def snapshot(self) -> dict:
        """Deterministic JSON-ready summary of the run."""
        return {
            "drained": self.completed,
            "rounds": self.rounds,
            "total_time": self.total_time,
            "offered": self.offered,
            "admitted": self.admitted,
            "acked": self.acked,
            "rejected": self.rejected,
            "expired": self.expired,
            "drop_rate": self.drop_rate,
            "throughput": self.throughput,
            "latency_p50": self.latency_quantile(0.50),
            "latency_p95": self.latency_quantile(0.95),
            "latency_p99": self.latency_quantile(0.99),
        }


class _WindowTracker:
    """Bounded-memory accumulator behind ``snapshot_every`` (internal).

    Sums per-round deltas and samples ack latencies into a
    :class:`~repro.observability.groupstats.Reservoir` keyed by worm uid
    until ``every`` rounds have elapsed, then :meth:`flush` produces one
    JSON-ready window dict and resets. The reservoir samples by a keyed
    hash, never by the run's generator, so windowed and unwindowed runs
    are bit-identical; its quantiles are exact while a window holds at
    most ``DEFAULT_RESERVOIR_CAP`` acks.
    """

    def __init__(self, every: int) -> None:
        self.every = every
        self.index = 0
        self.start = 1
        self._reset()

    def _reset(self) -> None:
        self.offered = self.admitted = self.rejected = self.expired = 0
        self.acked = self.delivered = self.duration = self.rounds = 0
        self.latency = Reservoir(DEFAULT_RESERVOIR_CAP)

    def observe_latency(self, latency: int, uid: int) -> None:
        """Sample worm ``uid``'s admission-to-ack latency."""
        self.latency.observe(latency, uid)

    def observe_round(self, record: StreamingRoundRecord) -> None:
        """Fold one round's deltas into the open window."""
        self.offered += record.offered
        self.admitted += record.admitted
        self.rejected += record.rejected
        self.expired += record.expired
        self.acked += record.acked
        self.delivered += record.delivered
        self.duration += record.duration
        self.rounds += 1

    @property
    def due(self) -> bool:
        """True once the open window spans ``every`` rounds."""
        return self.rounds >= self.every

    def flush(self, end_round: int, active: int) -> dict:
        """Close the window ending at ``end_round`` and reset for the next."""
        window = {
            "window": self.index,
            "start_round": self.start,
            "end_round": end_round,
            "rounds": self.rounds,
            "offered": self.offered,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "expired": self.expired,
            "acked": self.acked,
            "delivered": self.delivered,
            "duration": self.duration,
            "active": active,
            "throughput": self.acked / self.duration if self.duration else 0.0,
            "drop_rate": (
                (self.rejected + self.expired) / self.offered
                if self.offered
                else 0.0
            ),
            "latency_p50": self.latency.quantile(0.50),
            "latency_p95": self.latency.quantile(0.95),
            "latency_p99": self.latency.quantile(0.99),
            "latency_samples": self.latency.count,
        }
        self.index += 1
        self.start = end_round + 1
        self._reset()
        return window


class StreamingEngine:
    """Drives the protocol's round stepper with continuous worm admission.

    Streaming mode (``config.arrivals`` set) needs a ``network``; drain
    mode needs a ``collection`` holding the initial backlog. ``metrics``
    and ``trace`` follow the protocol's conventions: per-round
    ``scenario_round`` trace records plus one ``scenario`` summary,
    and ``scenario_*`` counters/gauges/histograms in the registry, next
    to the stepper's own ``round``/``repair`` records and ``protocol_*``
    series. With
    ``config.snapshot_every`` set, each closed window additionally
    yields one ``scenario_window`` trace record, refreshes the
    ``scenario_window_*`` gauges, and is handed to the ``on_window``
    callback (the live-dashboard hook) -- all pure observation, so the
    run itself is bit-identical to an unwindowed one.
    """

    def __init__(
        self,
        config: StreamingConfig,
        *,
        collection: PathCollection | None = None,
        network: StreamingNetwork | None = None,
        metrics: MetricsRegistry | None = None,
        trace: "TraceWriter | None" = None,
        trace_trial: int = 0,
        on_window: Callable[[dict], None] | None = None,
    ) -> None:
        self.config = config
        if config.arrivals is None:
            if collection is None:
                raise ScenarioError(
                    "drain mode (arrivals=None) needs a collection= "
                    "holding the initial backlog"
                )
        elif network is None:
            raise ScenarioError("streaming mode needs a network=")
        if on_window is not None and not callable(on_window):
            raise ScenarioError("on_window must be callable (or None)")
        self.collection = collection
        self.network = network
        self._metrics = metrics
        self._trace = trace
        self._trace_trial = trace_trial
        self._on_window = on_window


    def _emit_window(self, window: dict, metrics, observe: bool) -> None:
        """Ship one closed window to the trace, gauges and callback."""
        if self._trace is not None:
            self._trace.write(
                "scenario_window", trial=self._trace_trial, **window
            )
        if observe:
            metrics.inc("scenario_windows_total")
            metrics.gauge("scenario_window_throughput", window["throughput"])
            metrics.gauge("scenario_window_drop_rate", window["drop_rate"])
            metrics.gauge("scenario_window_active_worms", window["active"])
            for key in ("latency_p50", "latency_p95", "latency_p99"):
                if window[key] is not None:
                    metrics.gauge(f"scenario_window_{key}", window[key])
        if self._on_window is not None:
            self._on_window(window)

    # -- main loop -----------------------------------------------------------

    def run(self, rng=None) -> StreamingResult:
        """Execute the run; each call restarts from a fresh system state."""
        cfg = self.config
        rng = as_generator(rng)
        metrics = self._metrics if self._metrics is not None else get_metrics()
        observe = metrics.enabled
        prof = get_profiler()
        streaming = cfg.arrivals is not None
        tracker = (
            _WindowTracker(cfg.snapshot_every)
            if cfg.snapshot_every is not None
            else None
        )
        observers = dict(
            metrics=self._metrics, trace=self._trace, trace_trial=self._trace_trial
        )
        if streaming:
            proto = TrialAndFailureProtocol._open(
                self.network.topology, cfg.protocol, **observers
            )
        else:
            proto = TrialAndFailureProtocol(
                self.collection, cfg.protocol, **observers
            )
        # The stepper starts its fault run first (stateful models consume
        # one spawn there), exactly as the static protocol does; only then
        # is the private arrivals stream spawned, so drain mode never
        # perturbs the sequence.
        st = proto._start_trial(rng)

        # Drain mode's backlog counts as round-1 admissions.
        admitted_round: dict[int, int] = {uid: 1 for uid in st.active}
        offered = admitted = next_uid = len(st.active)
        rejected = expired = 0
        latencies: list[int] = []
        records: list[StreamingRoundRecord] = []
        if streaming:
            arr_rng = spawn_generator(rng)
            arr_stream = cfg.arrivals.start()
            traffic_stream = cfg.traffic.start(self.network.nodes)
            horizon = cfg.rounds
        else:
            horizon = cfg.protocol.max_rounds

        for t in range(1, horizon + 1):
            round_offered = round_admitted = round_rejected = round_expired = 0

            if streaming:
                with prof.span("scenario.admission"):
                    # Admission phase, "between rounds": expire the
                    # impatient, then draw and admit this round's arrivals.
                    if cfg.patience is not None and st.active:
                        stale = [
                            uid
                            for uid in st.active
                            if t - admitted_round[uid] >= cfg.patience
                        ]
                        if stale:
                            proto._retire(st, stale)
                            round_expired = len(stale)
                            expired += round_expired
                            if observe:
                                metrics.inc(
                                    "scenario_dropped_total",
                                    round_expired,
                                    reason="expired",
                                )
                    k = arr_stream.count(t, arr_rng, cfg.rate_multiplier(t))
                    round_offered = k
                    offered += k
                    if observe and k:
                        metrics.inc("scenario_offered_total", k)
                    admit = min(k, max(0, cfg.max_active - len(st.active)))
                    round_rejected = k - admit
                    rejected += round_rejected
                    if round_rejected and observe:
                        metrics.inc(
                            "scenario_dropped_total",
                            round_rejected,
                            reason="rejected",
                        )
                    if admit:
                        new_worms = []
                        for src, dst in traffic_stream.pairs(admit, arr_rng):
                            path = tuple(self.network.path_fn(src, dst))
                            new_worms.append(
                                Worm(
                                    uid=next_uid,
                                    path=path,
                                    length=cfg.protocol.worm_length,
                                )
                            )
                            admitted_round[next_uid] = t
                            next_uid += 1
                        proto._admit(st, new_worms)
                        round_admitted = admit
                        admitted += admit
                        if observe:
                            metrics.inc("scenario_admitted_total", admit)

            if not st.active:
                proto._idle_round(st)
            else:
                with prof.span("scenario.round"):
                    proto._step(st)
                    acked = sorted(st.acked)
                    for uid in acked:
                        latency = t - admitted_round[uid] + 1
                        latencies.append(latency)
                        if tracker is not None:
                            tracker.observe_latency(latency, uid)
                        if observe:
                            metrics.observe(
                                "scenario_admission_latency_rounds", latency
                            )
                    if streaming and acked:
                        with prof.span("scenario.retire"):
                            proto._retire(st, acked)

            rec = st.records[-1]
            record = StreamingRoundRecord(
                index=t,
                delay_range=rec.delay_range,
                offered=round_offered,
                admitted=round_admitted,
                rejected=round_rejected,
                expired=round_expired,
                active_before=rec.active_before,
                delivered=rec.delivered,
                acked=rec.acked,
                duration=rec.duration,
            )
            records.append(record)
            if observe:
                if rec.active_before:
                    metrics.inc("scenario_rounds_total")
                    metrics.inc("scenario_acked_total", rec.acked)
                metrics.gauge("scenario_active_worms", len(st.active))
            if self._trace is not None:
                self._trace.write(
                    "scenario_round",
                    trial=self._trace_trial,
                    **dataclasses.asdict(record),
                )
            if tracker is not None:
                tracker.observe_round(record)
                if tracker.due:
                    self._emit_window(
                        tracker.flush(t, len(st.active)), metrics, observe
                    )
            if not streaming and not st.active:
                break

        if tracker is not None and tracker.rounds:
            # Partial trailing window (horizon or drain not divisible by
            # snapshot_every): flush it so the series covers every round.
            self._emit_window(
                tracker.flush(st.rounds_used, len(st.active)), metrics, observe
            )
        completed = not st.active
        out = StreamingResult(
            completed=completed,
            rounds=st.rounds_used,
            total_time=st.total_time,
            offered=offered,
            admitted=admitted,
            acked=len(latencies),
            rejected=rejected,
            expired=expired,
            records=tuple(records),
            delivered_round=st.delivered_round,
            admitted_round=admitted_round,
            latencies=tuple(latencies),
            collisions_per_round=tuple(st.collisions_per_round),
            repairs=tuple(st.repairs),
        )
        if observe:
            metrics.inc("scenario_runs_total")
            if completed:
                metrics.inc("scenario_drained_total")
        if self._trace is not None:
            self._trace.write(
                "scenario", trial=self._trace_trial, **out.snapshot()
            )
        return out
