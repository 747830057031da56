"""The trial-and-failure protocol (Section 1.3).

    all n worms are declared active
    for t = 1 to T:
        each active worm launches with a random startup delay in
        [Delta_t] and a random wavelength in [B];
        every completely delivered worm is acknowledged immediately;
        acknowledged worms become inactive.

Round ``t`` costs ``Delta_t + 2(D + L)`` steps -- long enough for either a
successful worm's acknowledgement to return or for the worm (or its ack)
to have been discarded. Acknowledgements default to the paper's analytical
simplification (``ack_mode="ideal"``: a delivered worm is always
acknowledged, the ack band being reserved and its congestion folded into
C̃); ``ack_mode="simulated"`` actually routes length-``ack_length`` worms
back along reversed paths on a separate engine (the reserved band), so a
lost ack leaves the worm active and produces a duplicate delivery --
ablation E-AB3 measures how rare that is.

Priorities (for priority routers) are drawn as a fresh uniform random
permutation of the active worms each round, satisfying the hypothesis of
Claim 2.6 that no two colliding worms tie; deterministic modes are
available since the upper bound of Main Theorem 1.3 holds "for any
assignment of priorities ... whether these priorities are changed from
round to round, chosen randomly, or deterministically".

Fault awareness (not part of the paper's model): ``faults`` plugs in a
:class:`~repro.faults.models.FaultModel` adversary; a
:class:`~repro.faults.health.LinkHealthMonitor` accumulates dead-link
evidence across rounds; ``repair="reroute"`` recomputes stranded worms'
paths around suspected-dead links; ``backoff_after=K`` escalates the
delay schedule after K consecutive zero-progress rounds; and on
``max_rounds`` exhaustion the result carries a per-worm ``diagnosis``
and a ``stall_reason`` instead of a bare ``completed=False``. See
docs/FAULTS.md.
"""

from __future__ import annotations

import dataclasses
import math
import time
import weakref
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro._util import as_generator, spawn_generator
from repro.core.engine import RoundCall, RoutingEngine, run_round_batch
from repro.core.records import (
    DIAG_ACK_LOST,
    DIAG_CONTENTION,
    DIAG_STRANDED,
    OutcomeColumns,
    ProtocolResult,
    RepairEvent,
    RoundRecord,
)
from repro.core.schedule import DelaySchedule, GeometricSchedule, ScheduleContext
from repro.errors import ProtocolError
from repro.faults.health import LinkHealthMonitor, StallDetector
from repro.faults.models import FaultModel
from repro.faults.repair import collection_links, reroute_path, surviving_graph
from repro.observability.logconf import get_logger
from repro.observability.metrics import MetricsRegistry, get_metrics
from repro.observability.spans import get_profiler
from repro.optics.coupler import CollisionRule, TieRule
from repro.paths.collection import ActiveCongestion, PathCollection
from repro.worms.worm import LaunchColumns, Worm, make_worms
from repro.worms.ack import ack_worms

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.observability.flightrec import FlightRecorder
    from repro.observability.trace import TraceWriter

__all__ = [
    "ProtocolConfig",
    "TrialAndFailureProtocol",
    "route_collection",
    "run_protocol_batch",
]

_PRIORITY_MODES = ("random", "uid", "reverse_uid")
_ACK_MODES = ("ideal", "simulated")
_REPAIR_MODES = ("none", "reroute")

_log = get_logger("core.protocol")

@dataclass(frozen=True)
class ProtocolConfig:
    """Static configuration of one protocol instance.

    ``track_congestion`` re-measures the path congestion of the surviving
    worms at the start of every round (the Lemma 2.4 observable); adaptive
    schedules consume it. An incremental oracle updates it as worms
    leave rather than recounting it every round.
    ``collect_collisions`` retains per-round collision logs, which witness
    trees (Section 2.1) are built from.

    Fault handling: ``faults`` names the
    :class:`~repro.faults.models.FaultModel` adversary (None = fault-free).
    ``repair`` is ``"none"`` or ``"reroute"`` (reroute stranded
    worms around suspected-dead links); ``suspect_after`` is how many
    fault-bearing rounds convict a link; ``backoff_after`` escalates a
    bounded exponential backoff on ``Delta_t`` after that many
    consecutive zero-progress rounds (0 disables), capped at
    ``backoff_cap`` times the schedule's value. ``backoff_cooldown=N``
    (opt-in, default 0 = off) lets the backoff decay: every N
    consecutive progressing rounds halve the multiplier back toward 1,
    which streaming runs need so one transient stall does not
    permanently inflate ``Delta_t``.
    """

    bandwidth: int
    rule: CollisionRule = CollisionRule.SERVE_FIRST
    worm_length: int = 4
    schedule: DelaySchedule = field(default_factory=GeometricSchedule)
    max_rounds: int = 500
    tie_rule: TieRule = TieRule.ALL_LOSE
    ack_mode: str = "ideal"
    ack_length: int = 1
    priority_mode: str = "random"
    track_congestion: bool = True
    collect_collisions: bool = False
    faults: FaultModel | None = None
    repair: str = "none"
    suspect_after: int = 3
    backoff_after: int = 0
    backoff_cap: float = 8.0
    backoff_cooldown: int = 0

    def __post_init__(self) -> None:
        if self.faults is not None and not isinstance(self.faults, FaultModel):
            raise ProtocolError(
                f"faults must be a FaultModel, got {type(self.faults).__name__}"
            )
        if self.repair not in _REPAIR_MODES:
            raise ProtocolError(
                f"repair must be one of {_REPAIR_MODES}, got {self.repair!r}"
            )
        if self.suspect_after < 1:
            raise ProtocolError(
                f"suspect_after must be >= 1, got {self.suspect_after}"
            )
        if self.backoff_after < 0:
            raise ProtocolError(
                f"backoff_after must be >= 0, got {self.backoff_after}"
            )
        if self.backoff_cap < 1.0:
            raise ProtocolError(
                f"backoff_cap must be >= 1.0, got {self.backoff_cap}"
            )
        if self.backoff_cooldown < 0:
            raise ProtocolError(
                f"backoff_cooldown must be >= 0, got {self.backoff_cooldown}"
            )
        if self.bandwidth <= 0:
            raise ProtocolError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.worm_length <= 0:
            raise ProtocolError(f"worm length must be positive, got {self.worm_length}")
        if self.max_rounds <= 0:
            raise ProtocolError(f"max_rounds must be positive, got {self.max_rounds}")
        if self.ack_mode not in _ACK_MODES:
            raise ProtocolError(f"ack_mode must be one of {_ACK_MODES}, got {self.ack_mode!r}")
        if self.ack_length <= 0:
            raise ProtocolError(f"ack length must be positive, got {self.ack_length}")
        if self.priority_mode not in _PRIORITY_MODES:
            raise ProtocolError(
                f"priority_mode must be one of {_PRIORITY_MODES}, got {self.priority_mode!r}"
            )


#: Per collection (weakly: templates die with their collection), the
#: pristine worms and engines of every config that shapes them.
_TEMPLATES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _engines(
    worms, config: ProtocolConfig, metrics: MetricsRegistry | None
) -> tuple[RoutingEngine, RoutingEngine | None]:
    """The forward engine for ``worms`` and, with simulated acks, the ack engine."""
    engine = RoutingEngine(worms, config.rule, config.tie_rule, metrics=metrics)
    if config.ack_mode != "simulated":
        return engine, None
    # Reversed paths on a dedicated engine: the reserved ack band never
    # contends with forward messages.
    return engine, RoutingEngine(
        ack_worms(worms, ack_length=config.ack_length),
        config.rule,
        config.tie_rule,
        metrics=metrics,
    )


def _template(
    collection: PathCollection, config: ProtocolConfig
) -> tuple[tuple[Worm, ...], RoutingEngine, RoutingEngine | None]:
    """The collection's pristine (worms, engine, ack engine) for ``config``.

    Built on first use and never mutated: protocols fork the engines,
    and the worms are a tuple.
    """
    per_collection = _TEMPLATES.setdefault(collection, {})
    key = (
        config.worm_length, config.rule, config.tie_rule, config.ack_mode, config.ack_length
    )
    template = per_collection.get(key)
    if template is None:
        worms = tuple(make_worms(collection.paths, config.worm_length))
        template = per_collection[key] = (worms, *_engines(worms, config, None))
    return template


def _schedule_context(coll: PathCollection, config: ProtocolConfig) -> ScheduleContext:
    """The schedule's instance parameters for routing ``coll``."""
    return ScheduleContext(
        n=coll.n,
        bandwidth=config.bandwidth,
        worm_length=config.worm_length,
        dilation=coll.dilation,
        congestion=coll.path_congestion,
    )


class _TrialState:
    """Mutable per-execution loop state threaded through the round stepper.

    One instance per :meth:`TrialAndFailureProtocol.run` (or lockstep
    batch, or streaming) execution. The stepper methods --
    ``_start_trial``, ``_prepare_round``, ``_absorb_round``,
    ``_finish_trial``, and ``_admit``/``_retire``/``_idle_round`` for an
    open worm set -- read and mutate it, so the serial loop,
    :func:`run_protocol_batch` and the streaming engine share one round
    implementation and stay bit-identical by construction.
    """

    __slots__ = (
        "rng",
        "round_rng",
        "metrics",
        "observe",
        "t_run",
        "active",
        "acked",
        "delivered_round",
        "delivered_ever",
        "duplicates",
        "acks_lost",
        "records",
        "collisions_per_round",
        "repairs",
        "total_time",
        "observed_time",
        "live_coll",
        "live_paths",
        "oracle",
        "positions",
        "base_ctx",
        "dl",
        "fault_run",
        "monitor",
        "stall",
        "completed",
        "rounds_used",
        "t",
        "current_congestion",
        "delta",
    )


class TrialAndFailureProtocol:
    """Drives the round loop over a fixed path collection.

    ``metrics`` optionally names the registry receiving per-round
    instrumentation (active worms, deliveries, failure tallies, ack
    timings); None defers to the process default, a no-op until
    :func:`repro.observability.enable_metrics` opts in. ``trace``
    optionally takes a :class:`~repro.observability.trace.TraceWriter`
    to which the run emits one ``round`` record per round and one
    ``trial`` summary record, tagged with ``trace_trial`` when several
    executions share one trace file. ``flight`` opts into the worm-level
    flight recorder on top of the trace: pass True (requires ``trace``)
    or a pre-built :class:`~repro.observability.flightrec.FlightRecorder`
    to emit one structured event per worm state change, replayable via
    :mod:`repro.observability.analysis`.

    A protocol built by :meth:`_open` has no collection: its worm set
    starts empty and grows and shrinks between rounds (streaming runs).
    """

    def __init__(
        self,
        collection: PathCollection,
        config: ProtocolConfig,
        *,
        metrics: MetricsRegistry | None = None,
        trace: "TraceWriter | None" = None,
        trace_trial: int = 0,
        flight: "bool | FlightRecorder" = False,
    ) -> None:
        self.collection = collection
        self.config = config
        self._metrics = metrics
        self._trace = trace
        self._trace_trial = trace_trial
        self._fork_template()
        self._flight: "FlightRecorder | None" = None
        if flight:
            from repro.observability.flightrec import FlightRecorder

            if isinstance(flight, FlightRecorder):
                self._flight = flight
            elif trace is None:
                raise ProtocolError(
                    "flight recording writes through the run trace; "
                    "pass trace= alongside flight=True"
                )
            else:
                self._flight = FlightRecorder(trace, trial=trace_trial)
            self._flight.describe_worms(self.worms)
        self._base_ctx = _schedule_context(collection, config)
        self._topology = collection.topology

    @classmethod
    def _open(
        cls,
        topology,
        config: ProtocolConfig,
        *,
        metrics: MetricsRegistry | None = None,
        trace: "TraceWriter | None" = None,
        trace_trial: int = 0,
    ) -> "TrialAndFailureProtocol":
        """A protocol over ``topology`` whose worm set starts empty.

        Worms join with :meth:`_admit` and leave with :meth:`_retire`
        between rounds, so uids are not indices into a collection. Fault
        models cover every directed link of ``topology``, and repairs may
        route over all of them.
        """
        self = cls.__new__(cls)
        self.collection = None
        self.config = config
        self._metrics = metrics
        self._trace = trace
        self._trace_trial = trace_trial
        self._flight = None
        self._topology = topology
        self.worms = []
        self.engine = None
        self._ack_engine = None
        self._base_ctx = None
        return self

    def _fork_template(self) -> None:
        """Take the collection's pristine worms and fork its engines.

        Forks are bit-identical to engines built over the same worms. A
        repair rebinds ``self.worms`` and builds new engines, so the
        template is never mutated.
        """
        self.worms, engine, ack_engine = _template(self.collection, self.config)
        self.engine = engine.fork(metrics=self._metrics)
        self._ack_engine = (
            ack_engine.fork(metrics=self._metrics) if ack_engine is not None else None
        )

    # -- round internals -----------------------------------------------------

    def _draw_launches(
        self, active: list[int], delta: int, rng: np.random.Generator
    ) -> LaunchColumns:
        """The round's launches as columns, drawn in the documented order.

        Delays, then wavelengths, then (priority rule) priorities, one
        array draw each -- row ``i`` is worm ``active[i]``.
        """
        k = len(active)
        delays = rng.integers(0, delta, size=k)
        wavelengths = rng.integers(0, self.config.bandwidth, size=k)
        uids = np.array(active, dtype=np.int64)
        if self.config.rule is CollisionRule.PRIORITY:
            mode = self.config.priority_mode
            if mode == "random":
                priorities = rng.permutation(k)
            elif mode == "uid":
                priorities = uids
            else:  # reverse_uid
                priorities = -uids
        else:
            priorities = np.zeros(k, dtype=np.int64)
        return LaunchColumns(uids, delays, wavelengths, priorities)

    def _route_acks(
        self, delivered: np.ndarray, completions: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[set[int], int]:
        """Simulated acks: returns (acked uids, ack makespan).

        Each ack worm carries its forward worm's uid on the dedicated
        ack engine and starts the step after its forward worm's
        completion (``completions``, aligned with ``delivered``).
        """
        assert self._ack_engine is not None
        k = delivered.shape[0]
        if not k:
            return set(), 0
        ranks = rng.permutation(k)
        bandwidth = self.config.bandwidth
        wavelengths = [int(rng.integers(0, bandwidth)) for _ in range(k)]
        launches = LaunchColumns(
            delivered,
            completions + 1,
            np.array(wavelengths, dtype=np.int64),
            ranks,
        )
        result = self._ack_engine.run_round(launches, collect_collisions=False)
        return set(result.delivered), (result.makespan or 0)

    # -- fault-awareness helpers ---------------------------------------------

    def _attempt_repairs(
        self,
        t: int,
        active: list[int],
        live_paths: dict[int, tuple],
        monitor: LinkHealthMonitor,
        repairs: list[RepairEvent],
        metrics: MetricsRegistry,
        observe: bool,
    ) -> bool:
        """Reroute active worms stranded on suspected-dead links.

        Replacement paths are shortest paths on the surviving directed
        graph (the topology's links when there is a topology, else the
        union of the collection's own links) minus the suspected set.
        Returns True when any path changed -- the engines are rebuilt
        and the schedule must be re-anchored. Worms whose destination
        became unreachable stay stranded and are diagnosed at
        exhaustion.
        """
        stranded = [
            uid for uid in active if monitor.is_suspected_path(live_paths[uid])
        ]
        if not stranded:
            return False
        adj = surviving_graph(
            collection_links(
                self.collection.paths if self.collection is not None else (),
                self._topology,
            ),
            monitor.suspected,
        )
        changed = 0
        for uid in stranded:
            path = live_paths[uid]
            new_path = reroute_path(adj, path[0], path[-1])
            if new_path is None or new_path == path:
                continue
            repairs.append(
                RepairEvent(
                    round=t,
                    worm=uid,
                    old_length=len(path) - 1,
                    new_length=len(new_path) - 1,
                )
            )
            live_paths[uid] = new_path
            changed += 1
            _log.info(
                "round %d: rerouted worm %d around %d suspected-dead "
                "link(s) (%d -> %d links)",
                t,
                uid,
                len(monitor.suspected),
                len(path) - 1,
                len(new_path) - 1,
            )
            if self._trace is not None:
                self._trace.write(
                    "repair",
                    trial=self._trace_trial,
                    round=t,
                    worm=uid,
                    old_length=len(path) - 1,
                    new_length=len(new_path) - 1,
                )
        if not changed:
            return False
        self.worms = [
            Worm(uid=w.uid, path=live_paths[w.uid], length=w.length)
            for w in self.worms
        ]
        self.engine, self._ack_engine = _engines(
            self.worms, self.config, self._metrics
        )
        if self._flight is not None:
            self._flight.describe_worms(
                [w for w in self.worms if any(r.worm == w.uid for r in repairs)],
                force=True,
            )
        if observe:
            metrics.inc("protocol_repairs_total", changed)
        return True

    def _diagnose(
        self,
        active: list[int],
        delivered_ever: set[int],
        live_paths: dict[int, tuple],
        monitor: LinkHealthMonitor,
    ) -> dict[int, str]:
        """Classify every still-active worm at max_rounds exhaustion."""
        diagnosis: dict[int, str] = {}
        for uid in active:
            if uid in delivered_ever:
                diagnosis[uid] = DIAG_ACK_LOST
            elif monitor.is_suspected_path(live_paths[uid]):
                diagnosis[uid] = DIAG_STRANDED
            else:
                diagnosis[uid] = DIAG_CONTENTION
        return diagnosis

    # -- main loop ----------------------------------------------------------------

    def _start_trial(self, rng=None) -> _TrialState:
        """Initialise one execution's loop state (everything before round 1)."""
        cfg = self.config
        st = _TrialState()
        st.rng = as_generator(rng)
        st.metrics = self._metrics if self._metrics is not None else get_metrics()
        st.observe = st.metrics.enabled
        st.t_run = time.perf_counter() if st.observe else 0.0
        if self.collection is None:
            # An open worm set starts every execution empty.
            self.worms = []
            self.engine = self._ack_engine = None
        elif self.worms is not _template(self.collection, cfg)[0]:
            # A previous run on this instance rerouted worms; reset to the
            # pristine collection so reruns stay seed-deterministic.
            self._fork_template()
        st.active = [w.uid for w in self.worms]
        st.acked = set()
        st.delivered_round = {}
        st.delivered_ever = set()
        st.duplicates = 0
        st.acks_lost = 0
        st.records = []
        st.collisions_per_round = []
        st.repairs = []
        st.total_time = 0
        st.observed_time = 0
        st.live_coll = self.collection
        st.live_paths = {w.uid: w.path for w in self.worms}
        st.oracle = None
        st.positions = None
        st.base_ctx = self._base_ctx
        st.dl = (
            st.live_coll.dilation + cfg.worm_length
            if st.live_coll is not None
            else 0
        )
        links = (
            self.collection.links
            if self.collection is not None
            else self._topology.directed_links
        )
        st.fault_run = (
            cfg.faults.start(links, st.rng) if cfg.faults is not None else None
        )
        st.monitor = LinkHealthMonitor(cfg.suspect_after)
        st.stall = StallDetector(
            cfg.backoff_after, cfg.backoff_cap, cooldown=cfg.backoff_cooldown
        )
        st.completed = False
        st.rounds_used = 0
        st.t = 0
        return st

    def _measure_congestion(self, st: _TrialState) -> int | None:
        """The active worms' path congestion (None when untracked).

        While every worm of the live collection is still active, that
        collection's own (cached) measure is the answer: worms only leave
        it between re-anchors. After that, the trial's incremental
        oracle over the live collection answers, built on first use.
        Positions in the live collection are worm uids, except in an
        open worm set, whose uids :meth:`_reanchor` maps.
        """
        if not self.config.track_congestion:
            return None
        if len(st.active) == st.live_coll.n:
            return st.live_coll.path_congestion
        if st.oracle is None:
            st.oracle = ActiveCongestion(st.live_coll)
        pos = st.positions
        return st.oracle.measure(
            st.active if pos is None else [pos[uid] for uid in st.active]
        )

    def _reanchor(self, st: _TrialState) -> None:
        """Anchor the schedule on the current worm set's measures.

        Called after a repair changed paths and after an admission
        changed membership: the original collection's invariants no
        longer describe the routed worms. Every path is already known to
        walk real links (repairs route on the surviving topology, and
        :meth:`_admit` validates), so none is re-validated here. The
        congestion oracle restarts over the new live collection.
        """
        st.live_coll = PathCollection(st.live_paths.values(), require_simple=False)
        st.dl = st.live_coll.dilation + self.config.worm_length
        st.base_ctx = _schedule_context(st.live_coll, self.config)
        st.oracle = None
        if self.collection is None:
            st.positions = {uid: i for i, uid in enumerate(st.live_paths)}

    def _admit(self, st: _TrialState, worms: list[Worm]) -> None:
        """Add ``worms`` to an open worm set between rounds.

        Their paths are validated against the topology. They join the
        forward engine (and the ack engine, if there is one) and the
        active set, and the schedule is re-anchored on the enlarged set.
        """
        self._topology.validate_paths(w.path for w in worms)
        if self.engine is None:
            self.worms = list(worms)
            self.engine, self._ack_engine = _engines(
                self.worms, self.config, self._metrics
            )
        else:
            self.worms.extend(worms)
            self.engine.add_worms(worms)
            if self._ack_engine is not None:
                self._ack_engine.add_worms(
                    ack_worms(worms, ack_length=self.config.ack_length)
                )
        for w in worms:
            st.live_paths[w.uid] = w.path
            st.active.append(w.uid)
        self._reanchor(st)

    def _retire(self, st: _TrialState, uids: list[int]) -> None:
        """Drop acked or expired ``uids`` from an open worm set.

        Releases their engine state and every per-worm entry the stepper
        holds, so memory tracks the active population.
        """
        gone = set(uids)
        self.engine.retire_worms(uids)
        if self._ack_engine is not None:
            self._ack_engine.retire_worms(uids)
        self.worms = [w for w in self.worms if w.uid not in gone]
        st.active = [uid for uid in st.active if uid not in gone]
        for uid in uids:
            del st.live_paths[uid]
            st.delivered_ever.discard(uid)

    def _idle_round(self, st: _TrialState) -> None:
        """Account a round in which no worm is active.

        Nothing launches, so no round generator is spawned and no fault
        draw happens (fault models evolve lazily, so skipping rounds is
        safe). The round still takes ``1 + 2(D + L)`` steps.
        """
        st.t += 1
        st.rounds_used = st.t
        st.delta = 1
        st.acked = set()
        duration = st.delta + 2 * st.dl
        st.total_time += duration
        st.observed_time += 1
        st.records.append(
            RoundRecord(
                index=st.t,
                delay_range=st.delta,
                active_before=0,
                delivered=0,
                eliminated=0,
                truncated=0,
                acked=0,
                duration=duration,
                observed_span=1,
            )
        )

    def _prepare_round(
        self, st: _TrialState
    ) -> tuple[LaunchColumns, "list | None"]:
        """Advance to the next round and draw its launches and faults.

        Measures the active worms' congestion for the schedule first. The
        caller must not call past ``max_rounds``. Everything that draws
        from the round RNG happens here, in the serial loop's exact
        order: spawn the round generator, draw launches, then fault the
        links.
        """
        cfg = self.config
        current_congestion = self._measure_congestion(st)
        st.t += 1
        st.rounds_used = st.t
        st.current_congestion = current_congestion
        ctx = dataclasses.replace(
            st.base_ctx, current_congestion=current_congestion
        )
        delta = cfg.schedule.delay_range(st.t, ctx)
        if st.stall.multiplier > 1.0:
            # Stall backoff: widen the launch window beyond what the
            # schedule believes is enough (bounded exponential).
            delta = max(1, int(math.ceil(delta * st.stall.multiplier)))
        st.delta = delta

        st.round_rng = spawn_generator(st.rng)
        launches = self._draw_launches(st.active, delta, st.round_rng)
        if self._flight is not None:
            self._flight.begin_round(st.t)
        dead_links = (
            st.fault_run.dead_links(st.t, st.round_rng)
            if st.fault_run is not None
            else None
        )
        return launches, dead_links

    def _absorb_round(self, st: _TrialState, result) -> bool:
        """Fold one engine round's result into the trial state.

        Acks (simulated acks route on this trial's own ack engine),
        bookkeeping, metrics, trace records, health monitoring, and
        repair all happen here. The round's acknowledged uids are left
        in ``st.acked``. Returns True when the trial completed (every
        worm acknowledged).
        """
        cfg = self.config
        metrics = st.metrics
        observe = st.observe
        t = st.t
        if cfg.collect_collisions:
            st.collisions_per_round.append(result.collisions)

        outcome = result.columns
        is_delivered = outcome.kind == OutcomeColumns.DELIVERED
        delivered_uids = outcome.worm[is_delivered]
        delivered = delivered_uids.tolist()
        st.duplicates += len(st.delivered_ever.intersection(delivered))
        st.delivered_ever.update(delivered)

        if cfg.ack_mode == "ideal":
            acked = set(delivered)
            ack_span = 0
        else:
            t_ack = time.perf_counter() if observe else 0.0
            acked, ack_span = self._route_acks(
                delivered_uids, outcome.completion[is_delivered], st.round_rng
            )
            if observe:
                metrics.observe(
                    "protocol_ack_seconds", time.perf_counter() - t_ack
                )

        if st.fault_run is not None and acked:
            lost = st.fault_run.lost_acks(t, sorted(acked), st.round_rng)
            if lost:
                acked -= lost
                st.acks_lost += len(lost)
                if observe:
                    metrics.inc("protocol_acks_lost_total", len(lost))

        if self._flight is not None:
            self._flight.end_round(
                result.makespan, ack_span=ack_span, acked=sorted(acked)
            )

        st.acked = acked
        for uid in acked:
            st.delivered_round.setdefault(uid, t)
        st.active = [uid for uid in st.active if uid not in acked]

        _, eliminated, truncated, faulted = outcome.counts()
        duration = st.delta + 2 * st.dl
        observed = max(result.makespan or 0, ack_span) + 1
        st.total_time += duration
        st.observed_time += observed
        record = RoundRecord(
            index=t,
            delay_range=st.delta,
            active_before=len(outcome),
            delivered=len(delivered),
            eliminated=eliminated,
            truncated=truncated,
            acked=len(acked),
            duration=duration,
            observed_span=observed,
            active_congestion=st.current_congestion,
            faulted=faulted,
        )
        st.records.append(record)
        if observe:
            metrics.inc("protocol_rounds_total")
            metrics.inc("protocol_delivered_total", len(delivered))
            metrics.inc("protocol_eliminated_total", eliminated)
            metrics.inc("protocol_truncated_total", truncated)
            metrics.inc("protocol_faulted_total", faulted)
            metrics.inc("protocol_acked_total", len(acked))
            metrics.gauge("protocol_active_worms", len(st.active))
            if st.current_congestion is not None:
                metrics.gauge("protocol_congestion", st.current_congestion)
        if self._trace is not None:
            self._trace.write(
                "round", trial=self._trace_trial, **dataclasses.asdict(record)
            )

        if result.faulted_links:
            st.monitor.observe_round(result.faulted_links)
            if observe:
                metrics.gauge(
                    "protocol_suspected_links", len(st.monitor.suspected)
                )
        if st.stall.observe_round(len(acked)) and observe:
            metrics.inc("protocol_backoff_escalations_total")

        if not st.active:
            st.completed = True
            return True

        if (
            cfg.repair == "reroute"
            and st.monitor.suspected
            and self._attempt_repairs(
                t, st.active, st.live_paths, st.monitor, st.repairs,
                metrics, observe,
            )
        ):
            self._reanchor(st)
        return False

    def _finish_trial(self, st: _TrialState) -> ProtocolResult:
        """Diagnose, emit final metrics/trace, and build the result."""
        cfg = self.config
        metrics = st.metrics
        diagnosis: dict[int, str] = {}
        stall_reason: str | None = None
        if not st.completed:
            diagnosis = self._diagnose(
                st.active, st.delivered_ever, st.live_paths, st.monitor
            )
            counts = Counter(diagnosis.values())
            breakdown = ", ".join(
                f"{n} {kind}" for kind, n in sorted(counts.items())
            )
            stall_reason = (
                f"max_rounds={cfg.max_rounds} exhausted with "
                f"{len(st.active)} active worm(s): {breakdown}"
            )
            _log.warning(
                "protocol exhausted max_rounds=%d with %d active worm(s) "
                "(%s); suspected dead links: %d; repairs applied: %d",
                cfg.max_rounds,
                len(st.active),
                breakdown,
                len(st.monitor.suspected),
                len(st.repairs),
            )
            metrics.inc("protocol_exhausted_total")

        if st.observe:
            metrics.inc("protocol_runs_total")
            if st.completed:
                metrics.inc("protocol_completed_total")
            metrics.inc("protocol_duplicates_total", st.duplicates)
            metrics.observe(
                "protocol_run_seconds", time.perf_counter() - st.t_run
            )
        if self._trace is not None:
            self._trace.write(
                "trial",
                trial=self._trace_trial,
                completed=st.completed,
                rounds=st.rounds_used,
                total_time=st.total_time,
                observed_time=st.observed_time,
                delivered_round=st.delivered_round,
                duplicate_deliveries=st.duplicates,
                diagnosis=diagnosis,
                stall_reason=stall_reason,
                repairs=[dataclasses.asdict(r) for r in st.repairs],
            )
        return ProtocolResult(
            completed=st.completed,
            rounds=st.rounds_used,
            total_time=st.total_time,
            observed_time=st.observed_time,
            records=tuple(st.records),
            delivered_round=st.delivered_round,
            collisions_per_round=tuple(st.collisions_per_round),
            duplicate_deliveries=st.duplicates,
            diagnosis=diagnosis,
            stall_reason=stall_reason,
            repairs=tuple(st.repairs),
        )

    def _step(self, st: _TrialState) -> bool:
        """One round on this instance's own engine; True once completed."""
        launches, dead_links = self._prepare_round(st)
        result = self.engine.run_round(
            launches,
            collect_collisions=self.config.collect_collisions,
            dead_links=dead_links,
            recorder=self._flight,
        )
        return self._absorb_round(st, result)

    def run(self, rng=None) -> ProtocolResult:
        """Execute rounds until every worm is acknowledged (or max_rounds)."""
        cfg = self.config
        prof = get_profiler()
        st = self._start_trial(rng)
        while st.t < cfg.max_rounds:
            with prof.span("protocol.round"):
                if self._step(st):
                    break
        return self._finish_trial(st)


def route_collection(
    collection: PathCollection,
    bandwidth: int,
    rule: CollisionRule = CollisionRule.SERVE_FIRST,
    worm_length: int = 4,
    rng=None,
    metrics: MetricsRegistry | None = None,
    trace: "TraceWriter | None" = None,
    flight: "bool | FlightRecorder" = False,
    **config_kwargs,
) -> ProtocolResult:
    """Route a collection with default trial-and-failure configuration.

    Convenience entry point: builds a :class:`ProtocolConfig` from the
    keyword arguments and runs one execution. ``metrics``, ``trace`` and
    ``flight`` pass straight through to :class:`TrialAndFailureProtocol`.
    """
    config = ProtocolConfig(
        bandwidth=bandwidth, rule=rule, worm_length=worm_length, **config_kwargs
    )
    return TrialAndFailureProtocol(
        collection, config, metrics=metrics, trace=trace, flight=flight
    ).run(rng)


def run_protocol_batch(
    collection: PathCollection,
    config: ProtocolConfig,
    seeds,
    *,
    metrics=None,
) -> list[ProtocolResult]:
    """Run one protocol trial per seed, simulating their rounds in lockstep.

    The lockstep trial driver: one :class:`TrialAndFailureProtocol` is
    constructed per seed (each forks the collection's engine template),
    and every round all still-running trials' launches go through a
    single :func:`repro.core.engine.run_round_batch` pass. Each trial's
    result is bit-identical to ``TrialAndFailureProtocol(collection,
    config).run(seed)`` because the stepper methods driving both loops
    are the same code and the batch kernel is bit-identical per trial;
    each trial measures its congestion with its own incremental oracle,
    as a serial run does. Simulated acks route serially per trial on
    each trial's own ack engine.

    ``metrics`` is None (process default for every trial), one shared
    registry, or a sequence of per-trial registries -- the last is how
    the instrumented trial runner keeps per-trial snapshots exact.
    Each lockstep round is one ``protocol.round`` span, with the
    engine's ``engine.round_batch`` span tree nested under it.
    """
    seeds = list(seeds)
    if not seeds:
        return []
    if isinstance(metrics, (list, tuple)):
        if len(metrics) != len(seeds):
            raise ProtocolError(
                f"got {len(metrics)} metrics registries for "
                f"{len(seeds)} seeds"
            )
        per_trial = list(metrics)
    else:
        per_trial = [metrics] * len(seeds)

    protos = [
        TrialAndFailureProtocol(collection, config, metrics=m) for m in per_trial
    ]
    states = [p._start_trial(seed) for p, seed in zip(protos, seeds)]

    results: list[ProtocolResult | None] = [None] * len(seeds)
    live = list(range(len(seeds)))
    prof = get_profiler()
    while live:
        with prof.span("protocol.round"):
            calls = []
            for i in live:
                launches, dead_links = protos[i]._prepare_round(states[i])
                calls.append(
                    RoundCall(
                        engine=protos[i].engine,
                        launches=launches,
                        collect_collisions=config.collect_collisions,
                        dead_links=dead_links,
                        recorder=protos[i]._flight,
                    )
                )
            round_results = run_round_batch(calls)

            next_live = []
            for i, result in zip(live, round_results):
                done = protos[i]._absorb_round(states[i], result)
                if done or states[i].t >= config.max_rounds:
                    results[i] = protos[i]._finish_trial(states[i])
                else:
                    next_live.append(i)
            live = next_live
    return results  # type: ignore[return-value]
