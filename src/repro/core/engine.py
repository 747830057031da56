"""The discrete-event wormhole routing engine.

Simulates one round (one forward pass) of the trial-and-failure protocol
exactly under the model of Section 1.1:

* a worm with startup delay ``delta`` enters the ``i``-th directed link of
  its path at step ``delta + i``; flit ``j`` crosses that link during step
  ``delta + i + j``; a fragment of ``l`` flits occupies the link during
  the inclusive window ``[delta+i, delta+i+l-1]``;
* worms are never buffered: at every coupler the head either proceeds or
  the worm loses flits, per the serve-first / priority kernels of
  :mod:`repro.optics.coupler`;
* an *eliminated* worm's upstream flits drain harmlessly (its already
  scheduled upstream occupancies stand, downstream ones never happen);
* a *truncated* worm (priority rule) keeps its leading fragment -- length
  = (cut time) - (entry time at the cut link) -- which continues to travel
  and to contend for links; occupancies strictly upstream of the cut keep
  their previous length; repeated truncations compose via ``min``.

The engine processes head-arrival events in global time order and resolves
each contended (link, wavelength, time) group through the coupler kernels,
so the collision semantics live in exactly one place. Conflict-free
arrivals take an inlined fast path.

There is one round kernel, :func:`run_round_batch`;
:meth:`RoutingEngine.run_round` is a batch of one. Each call picks its
event walk from its own head-event count. A round with fewer than
``_PARTITION_MIN_EVENTS`` events builds them as plain Python tuples,
sorts them and walks every group through the scalar resolver. A larger
round is built columnar and partitioned with numpy first: two events can
only interact if they share a (link, wavelength) channel *and* are at
most ``max_worm_length - 1`` steps apart (an occupancy written at ``t``
expires by ``t + L - 1``), so a single sorted-adjacent-gap test splits
the round into *free* runs -- resolved in bulk, they advance at every
link by construction -- and *contended* runs, which fall back to the
scalar walk over just their events. The partition is conservative
(over-approximates contention), so both walks give bit-identical
outcomes; the golden traces and the differential suites enforce it.

Many independent rounds (typically the same round of many trials
differing only in their seeds) go through one :func:`run_round_batch`
call: the partitioned rounds are stacked into one set of
``(trial, link, wavelength)``-keyed arrays so the lexsort and the
adjacent-gap conflict test amortise across the batch. Events within one
trial never cluster with another trial's (the trial id is the most
significant sort key), so each trial's partition -- and therefore its
outcomes, collision order, fault attribution and flight-recorder stream
-- is bit-identical to running that trial alone.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.records import CollisionEvent, CollisionKind, RoundResult
from repro.errors import ProtocolError
from repro.observability.metrics import MetricsRegistry, get_metrics
from repro.observability.spans import SpanProfiler, get_profiler
from repro.optics.coupler import CollisionRule, TieRule, resolve
from repro.optics.signal import Arrival, Occupancy
from repro.worms.worm import FailureKind, Launch, Worm, WormOutcome

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.observability.flightrec import FlightRecorder

__all__ = [
    "RoundCall",
    "RoutingEngine",
    "run_round",
    "run_round_batch",
]

#: Head events per round from which the kernel builds columnar arrays
#: and partitions them, instead of sorting and walking plain tuples.
#: Below it numpy's fixed per-call costs outweigh the bulk-resolved
#: free runs (see docs/PERFORMANCE.md, "Round kernel").
_PARTITION_MIN_EVENTS = 128

#: Sentinel for :meth:`RoutingEngine.fork`'s ``metrics`` parameter: None
#: is a meaningful value there ("use the process default registry"), so
#: "inherit the parent's" needs its own marker.
_INHERIT = object()


class _Record:
    """One live occupancy: worm ``run`` holds a link from ``entry`` to ``end``."""

    __slots__ = ("run", "pos", "entry", "end")

    def __init__(self, run: "_Run", pos: int, entry: int, end: int) -> None:
        self.run = run
        self.pos = pos
        self.entry = entry
        self.end = end


class _Run:
    """Mutable per-worm state for one round."""

    __slots__ = (
        "uid",
        "length",
        "n_links",
        "delay",
        "wavelength",
        "priority",
        "link_ids",
        "cut_len",
        "dead_at",
        "faulted",
        "truncated",
        "blockers",
        "records",
    )

    def __init__(self, worm: Worm, launch: Launch, link_ids: list[int]) -> None:
        self.uid = worm.uid
        self.length = worm.length
        self.n_links = worm.n_links
        if launch.delay < 0:
            raise ProtocolError(
                f"worm {worm.uid}: negative launch delay {launch.delay}"
            )
        self.delay = launch.delay
        wl = launch.wavelength
        if isinstance(wl, tuple):
            if len(wl) != worm.n_links:
                raise ProtocolError(
                    f"worm {worm.uid}: {len(wl)} per-link wavelengths "
                    f"for {worm.n_links} links"
                )
            if any(w < 0 for w in wl):
                raise ProtocolError(
                    f"worm {worm.uid}: negative per-link wavelength in {wl}"
                )
        elif wl < 0:
            raise ProtocolError(f"worm {worm.uid}: negative wavelength {wl}")
        self.wavelength = wl
        self.priority = launch.priority
        self.link_ids = link_ids
        self.cut_len = worm.length
        self.dead_at: int | None = None
        self.faulted = False
        self.truncated = False
        self.blockers: list[int] = []
        self.records: list[_Record] = []


class _OrderedRecorder:
    """Buffers flight-recorder calls tagged with their global event index.

    The columnar partition emits free-run events and contended-group
    events from two separate passes; tagging each call with the index of
    the event that produced it and flushing in sorted order makes the
    recorder stream bit-identical to the tuple walk's. Recorder
    methods read ``run.cut_len`` at call time (the ``surviving`` field),
    and the contended subloop mutates it, so each buffered call snapshots
    the value and the flush restores it around the real emission.
    """

    __slots__ = ("calls", "base")

    def __init__(self) -> None:
        self.calls: list[tuple[int, str, "_Run", tuple, int]] = []
        self.base = 0

    def _buffer(self, name: str, run: "_Run", args: tuple) -> None:
        self.calls.append((self.base, name, run, args, run.cut_len))

    def advance(self, run: "_Run", *args) -> None:
        self._buffer("advance", run, args)

    def truncate(self, run: "_Run", *args) -> None:
        self._buffer("truncate", run, args)

    def eliminate(self, run: "_Run", *args) -> None:
        self._buffer("eliminate", run, args)

    def fault(self, run: "_Run", *args) -> None:
        self._buffer("fault", run, args)

    def flush(self, recorder: "FlightRecorder") -> None:
        self.calls.sort(key=lambda call: call[0])
        for _, name, run, args, cut_len in self.calls:
            final = run.cut_len
            run.cut_len = cut_len
            getattr(recorder, name)(run, *args)
            run.cut_len = final


class RoutingEngine:
    """Routes a set of worms; reusable across rounds.

    Construction precomputes each worm's directed-link ids once; each
    :meth:`run_round` call takes fresh launches (delays, wavelengths,
    priorities) for any subset of the worms. The set is not frozen:
    streaming callers admit arriving worms with :meth:`add_worms` and
    drop delivered or expired ones with :meth:`retire_worms` between
    rounds, without restarting the engine. Link ids are assigned in
    registration order and retained across retirement, so a static
    batch and an incrementally grown one that registered the same worms
    in the same order behave bit-identically.

    ``metrics`` optionally names the registry that receives per-round
    instrumentation (events generated, contended couplers, outcome
    tallies by rule, per-stage wall time); None defers to the process
    default, which is a no-op unless
    :func:`repro.observability.enable_metrics` has been called, so an
    uninstrumented engine pays only one enabled-check per round.

    ``profiler`` optionally names the span profiler receiving the
    ``engine.round`` span and its ``engine.build_events`` /
    ``engine.resolve`` / ``engine.finalise`` children; None defers to
    the process default (a no-op unless
    :func:`repro.observability.enable_profiling` has been called).
    """

    def __init__(
        self,
        worms: Sequence[Worm],
        rule: CollisionRule,
        tie_rule: TieRule = TieRule.ALL_LOSE,
        metrics: MetricsRegistry | None = None,
        profiler: "SpanProfiler | None" = None,
    ) -> None:
        if not worms:
            raise ProtocolError("the engine needs at least one worm")
        self.rule = rule
        self.tie_rule = tie_rule
        # None means "the process default at call time" (a no-op registry
        # unless repro.observability.enable_metrics installed a real one).
        self._metrics = metrics
        self._profiler = profiler
        self._worms: dict[int, Worm] = {}
        self._link_ids: dict[int, list[int]] = {}
        self._link_index: dict[tuple, int] = {}
        self._links: list[tuple] = []
        # Lazily built concatenated event table for the columnar build;
        # invalidated whenever the worm set changes.
        self._ev_table: tuple[np.ndarray, np.ndarray, dict[int, int]] | None = None
        for w in worms:
            self._register(w)

    def fork(self, metrics: "MetricsRegistry | None" = _INHERIT) -> "RoutingEngine":
        """A new engine sharing this one's precomputed link layout.

        Bit-identical to constructing a fresh engine over the same worms
        in the same order -- link ids, per-worm link lists and
        registration order are copied, not recomputed -- at a fraction of
        the cost.
        The lockstep trial driver uses this to stamp out one engine per
        trial of a shared collection. Registries are dict copies, so
        streaming ``add_worms``/``retire_worms`` on either engine never
        affects the other; the per-worm link lists and the event table
        are shared read-only. ``metrics`` overrides the fork's registry (pass None
        for the process default); omitted, the fork inherits this
        engine's.
        """
        clone = RoutingEngine.__new__(RoutingEngine)
        clone.rule = self.rule
        clone.tie_rule = self.tie_rule
        clone._metrics = self._metrics if metrics is _INHERIT else metrics
        clone._profiler = self._profiler
        clone._worms = dict(self._worms)
        clone._link_ids = dict(self._link_ids)
        clone._link_index = dict(self._link_index)
        clone._links = list(self._links)
        # Built here once rather than lazily in every fork.
        clone._ev_table = self._event_table()
        return clone

    def _register(self, w: Worm) -> None:
        if w.uid in self._worms:
            raise ProtocolError(f"duplicate worm uid {w.uid}")
        self._ev_table = None
        self._worms[w.uid] = w
        ids = []
        for a, b in zip(w.path, w.path[1:]):
            link = (a, b)
            lid = self._link_index.get(link)
            if lid is None:
                lid = len(self._link_index)
                self._link_index[link] = lid
                self._links.append(link)
            ids.append(lid)
        self._link_ids[w.uid] = ids

    @property
    def worms(self) -> dict[int, Worm]:
        """The engine's worms by uid."""
        return dict(self._worms)

    def add_worms(self, worms: Sequence[Worm]) -> None:
        """Admit additional worms between rounds (streaming arrival).

        New worms get link ids appended in registration order; existing
        ids never move, so rounds before and after an admission see the
        same per-link identities.
        """
        for w in worms:
            self._register(w)

    def retire_worms(self, uids: Sequence[int]) -> None:
        """Drop delivered or expired worms' per-worm state.

        Link ids stay registered (links are shared between worms and the
        id order is what keeps incremental and static runs
        bit-identical); only the per-worm state is released, so a
        long-running engine's memory tracks the *active* population.
        """
        for uid in uids:
            if uid not in self._worms:
                raise ProtocolError(f"cannot retire unknown worm uid {uid}")
            self._ev_table = None
            del self._worms[uid]
            del self._link_ids[uid]

    def run_round(
        self,
        launches: Sequence[Launch],
        collect_collisions: bool = True,
        dead_links: Sequence[tuple] | None = None,
        recorder: "FlightRecorder | None" = None,
    ) -> RoundResult:
        """Simulate one forward pass for the launched worms.

        ``launches`` name the participating worms (one launch per worm);
        non-launched worms simply do not exist this round. ``dead_links``
        are directed links that are down for the whole round (fault
        injection): any head reaching one is lost there -- the signal
        enters a dark fiber -- and the worm fails with kind ``FAULTED``.
        ``recorder`` optionally takes a
        :class:`~repro.observability.flightrec.FlightRecorder` that
        receives one structured event per worm state change (launch,
        head advance, truncation, elimination, fault); the disabled path
        costs one ``is not None`` check per event. Returns the per-worm
        outcomes and, when requested, every losing collision.
        """
        call = RoundCall(self, launches, collect_collisions, dead_links, recorder)
        prof = self._profiler if self._profiler is not None else get_profiler()
        if not prof.enabled:
            return _run_round_batch(prof, (call,))[0]
        with prof.span("engine.round"):
            return _run_round_batch(prof, (call,))[0]

    def _begin_runs(
        self,
        launches: Sequence[Launch],
        recorder: "FlightRecorder | None",
    ) -> list[_Run]:
        """Validate ``launches`` into per-round ``_Run`` state (+ launch events)."""
        runs: list[_Run] = []
        seen: set[int] = set()
        for launch in launches:
            worm = self._worms.get(launch.worm)
            if worm is None:
                raise ProtocolError(f"launch names unknown worm uid {launch.worm}")
            if launch.worm in seen:
                raise ProtocolError(f"worm uid {launch.worm} launched twice")
            seen.add(launch.worm)
            runs.append(_Run(worm, launch, self._link_ids[launch.worm]))
        if recorder is not None:
            for run in runs:
                recorder.launch(run)
        return runs

    def _dead_lids(self, dead_links: Sequence[tuple] | None) -> set[int]:
        """The round's dead directed links as registered link ids."""
        dead_lids: set[int] = set()
        if dead_links:
            index = self._link_index
            for link in dead_links:
                lid = index.get(tuple(link))
                if lid is not None:
                    dead_lids.add(lid)
        return dead_lids

    def _resolve_scalar(
        self,
        events: list[tuple[int, int, int, int, int]],
        runs: list[_Run],
        dead_lids: set[int],
        collect_collisions: bool,
        recorder,
        collisions: list[CollisionEvent],
        faulted_at: dict[int, int],
        order: list[int] | None = None,
    ) -> int:
        """Walk ``events`` in order, resolving each (t, link, wl) group.

        This is the one place collision semantics are applied. The tuple
        walk passes every event of the round; the columnar partition
        passes only its contended subset, with ``order`` -- the events'
        indices in the full round -- so fault attribution and recorder
        emission keep global positions. Returns the number of contended
        coupler groups.
        """
        contended = 0
        occupancy: dict[tuple[int, int], _Record] = {}
        rule = self.rule
        tie_rule = self.tie_rule
        links = self._links
        track = order is not None and recorder is not None

        i = 0
        n_events = len(events)
        while i < n_events:
            t, lid, wl, pos, ri = events[i]
            start = i
            j = i + 1
            while (
                j < n_events
                and events[j][0] == t
                and events[j][1] == lid
                and events[j][2] == wl
            ):
                j += 1
            group = events[i:j]
            i = j
            if track:
                recorder.base = order[start]

            live = [(p, runs[k]) for (_, _, _, p, k) in group if runs[k].dead_at is None]
            if not live:
                continue

            if lid in dead_lids:
                # Dark fiber: every head entering it is lost outright.
                if lid not in faulted_at:
                    faulted_at[lid] = start if order is None else order[start]
                for p, run in live:
                    run.dead_at = p
                    run.faulted = True
                    if recorder is not None:
                        recorder.fault(run, t, p, links[lid], wl)
                continue

            key = (lid, wl)
            rec = occupancy.get(key)
            if rec is not None and rec.end < t:
                # Stale record: the previous tail already cleared. Evict
                # it so long rounds don't accumulate dead _Records.
                del occupancy[key]
                rec = None

            if rec is None and len(live) == 1:
                # Fast path: idle link, single head -- no conflict to decide.
                p, run = live[0]
                self._install(occupancy, key, run, p, t)
                if recorder is not None:
                    recorder.advance(run, t, p, links[lid], wl)
                continue

            contended += 1
            occ_obj = None
            if rec is not None:
                occ_obj = Occupancy(
                    worm=rec.run.uid,
                    start=rec.entry,
                    end=rec.end,
                    priority=rec.run.priority,
                )
            arrivals = [
                Arrival(worm=run.uid, length=run.cut_len, priority=run.priority)
                for _, run in live
            ]
            decision = resolve(rule, occ_obj, arrivals, t, tie_rule)

            by_uid = {run.uid: (p, run) for p, run in live}
            if decision.eliminated:
                blocker = self._primary_blocker(decision, rec, by_uid)
                for uid in decision.eliminated:
                    p, run = by_uid[uid]
                    run.dead_at = p
                    b = blocker if blocker != uid else self._other_blocker(
                        decision, rec, by_uid, uid
                    )
                    run.blockers.append(b)
                    if recorder is not None:
                        recorder.eliminate(run, t, p, links[lid], wl, b)
                    if collect_collisions:
                        collisions.append(
                            CollisionEvent(
                                time=t,
                                link=links[lid],
                                wavelength=wl,
                                blocked=uid,
                                blocker=b,
                                link_pos=p,
                                kind=CollisionKind.ELIMINATED,
                            )
                        )
            if decision.truncate_occupant:
                assert rec is not None
                occ_run = rec.run
                new_len = t - rec.entry  # flits already forwarded past the cut
                if new_len < occ_run.cut_len:
                    occ_run.cut_len = new_len
                    cut_pos = rec.pos
                    for r in occ_run.records:
                        if r.pos >= cut_pos:
                            cap = r.entry + new_len - 1
                            if cap < r.end:
                                r.end = cap
                occ_run.truncated = True
                b = (
                    decision.winner
                    if decision.winner is not None
                    else arrivals[0].worm
                )
                occ_run.blockers.append(b)
                if recorder is not None:
                    recorder.truncate(
                        occ_run, t, rec.pos, links[lid], wl, b, new_len
                    )
                if collect_collisions:
                    collisions.append(
                        CollisionEvent(
                            time=t,
                            link=links[lid],
                            wavelength=wl,
                            blocked=occ_run.uid,
                            blocker=b,
                            link_pos=rec.pos,
                            kind=CollisionKind.TRUNCATED,
                        )
                    )
            if decision.winner is not None:
                p, run = by_uid[decision.winner]
                self._install(occupancy, key, run, p, t)
                if recorder is not None:
                    recorder.advance(run, t, p, links[lid], wl)
        return contended

    def _apply_partition(
        self,
        runs: list[_Run],
        arrays: tuple[np.ndarray, ...],
        contended_run: np.ndarray,
        dead_lids: set[int],
        collect_collisions: bool,
        recorder,
        collisions: list[CollisionEvent],
        faulted_at: dict[int, int],
    ) -> tuple[int, int]:
        """Resolve one round given its free/contended run partition.

        The columnar walk behind :func:`run_round_batch`: bulk-write the
        free runs' records, emit their recorder events in global order,
        and replay the contended subset through :meth:`_resolve_scalar`.
        ``contended_run`` is the per-run contention mask (conservative);
        event indices in ``arrays`` are the round's own (per-trial)
        global positions. Returns ``(contended groups, free events)``.
        """
        t, lid, wl, pos, ri = arrays
        n = t.shape[0]
        free_evt = ~contended_run[ri]

        # Dead links: a free worm crossing one dies at its first dead
        # link; later events of that worm never happen.
        if dead_lids:
            dead_arr = np.fromiter(dead_lids, dtype=np.int64, count=len(dead_lids))
            dead_free = free_evt & np.isin(lid, dead_arr)
            if dead_free.any():
                never = np.iinfo(np.int64).max
                first_dead = np.full(len(runs), never, dtype=np.int64)
                np.minimum.at(first_dead, ri[dead_free], pos[dead_free])
                hit = dead_free & (pos == first_dead[ri])
                for g, dlid in zip(np.nonzero(hit)[0].tolist(), lid[hit].tolist()):
                    if dlid not in faulted_at:
                        faulted_at[dlid] = g  # ascending g: first hit wins
                for k in np.nonzero(first_dead != never)[0].tolist():
                    run = runs[k]
                    run.dead_at = int(first_dead[k])
                    run.faulted = True

        # A free worm advances at every link before its (possible) fault;
        # its occupancy ends grow with position, so only the last record
        # matters for the makespan and nothing else ever reads the rest.
        for k in np.nonzero(~contended_run)[0].tolist():
            run = runs[k]
            last = (run.n_links if run.dead_at is None else run.dead_at) - 1
            if last >= 0:
                entry = run.delay + last
                run.records.append(
                    _Record(run, last, entry, entry + run.cut_len - 1)
                )

        emitter = _OrderedRecorder() if recorder is not None else None
        if emitter is not None:
            links = self._links
            free_idx = np.nonzero(free_evt)[0].tolist()
            for g, et, elid, ewl, ep, ek in zip(
                free_idx,
                t[free_evt].tolist(),
                lid[free_evt].tolist(),
                wl[free_evt].tolist(),
                pos[free_evt].tolist(),
                ri[free_evt].tolist(),
            ):
                run = runs[ek]
                emitter.base = g
                if run.dead_at is None or ep < run.dead_at:
                    emitter.advance(run, et, ep, links[elid], ewl)
                elif ep == run.dead_at and run.faulted:
                    emitter.fault(run, et, ep, links[elid], ewl)

        contended = 0
        cmask = contended_run[ri]
        n_contended = int(cmask.sum())
        if n_contended:
            events = list(
                zip(
                    t[cmask].tolist(),
                    lid[cmask].tolist(),
                    wl[cmask].tolist(),
                    pos[cmask].tolist(),
                    ri[cmask].tolist(),
                )
            )
            order = np.nonzero(cmask)[0].tolist()
            sub_faults: dict[int, int] = {}
            contended = self._resolve_scalar(
                events, runs, dead_lids, collect_collisions, emitter,
                collisions, sub_faults, order=order,
            )
            for dlid, g in sub_faults.items():
                if dlid not in faulted_at or g < faulted_at[dlid]:
                    faulted_at[dlid] = g

        if emitter is not None:
            emitter.flush(recorder)
        return contended, n - n_contended

    # -- helpers ---------------------------------------------------------------

    def _record_metrics(
        self,
        metrics: MetricsRegistry,
        outcomes: dict[int, WormOutcome],
        *,
        n_events: int,
        contended: int,
        t_events: float,
        t_resolve: float,
        t_finalise: float,
        t_round: float,
        free_events: int = 0,
    ) -> None:
        """Ship one round's tallies into the registry (enabled path only)."""
        rule = self.rule.name.lower()
        delivered = eliminated = truncated = faulted = 0
        for o in outcomes.values():
            if o.delivered:
                delivered += 1
            elif o.failure is FailureKind.ELIMINATED:
                eliminated += 1
            elif o.failure is FailureKind.TRUNCATED:
                truncated += 1
            elif o.failure is FailureKind.FAULTED:
                faulted += 1
        metrics.inc("engine_rounds_total", rule=rule)
        metrics.inc("engine_events_total", n_events, rule=rule)
        metrics.inc("engine_contended_couplers_total", contended, rule=rule)
        metrics.inc("engine_worms_launched_total", len(outcomes), rule=rule)
        metrics.inc("engine_delivered_total", delivered, rule=rule)
        metrics.inc("engine_eliminated_total", eliminated, rule=rule)
        metrics.inc("engine_truncated_total", truncated, rule=rule)
        metrics.inc("engine_faulted_total", faulted, rule=rule)
        metrics.inc("engine_free_events_total", free_events, rule=rule)
        metrics.observe("engine_round_seconds", t_round, rule=rule)
        metrics.observe("engine_stage_seconds", t_events, stage="build_events")
        metrics.observe("engine_stage_seconds", t_resolve, stage="resolve")
        metrics.observe("engine_stage_seconds", t_finalise, stage="finalise")

    @staticmethod
    def _event_tuples(runs: list[_Run]) -> list[tuple[int, int, int, int, int]]:
        """Sorted head-arrival tuples ``(time, link_id, wavelength, pos, run_index)``.

        The small-round build: the key is unique per event, so
        ``sort()`` yields exactly the canonical order the columnar
        lexsort produces.
        """
        events: list[tuple[int, int, int, int, int]] = []
        for ri, run in enumerate(runs):
            d = run.delay
            wl = run.wavelength
            if isinstance(wl, tuple):
                events.extend(
                    (d + p, lid, wl[p], p, ri)
                    for p, lid in enumerate(run.link_ids)
                )
            else:
                events.extend(
                    (d + p, lid, wl, p, ri) for p, lid in enumerate(run.link_ids)
                )
        events.sort()
        return events

    def _event_table(self) -> tuple[np.ndarray, np.ndarray, dict[int, int]]:
        """Concatenated per-worm event columns plus per-uid start offsets.

        The columnar event builder gathers a round's events from this
        fixed table with one fancy-index pass instead of one
        small-array append loop per worm. Rebuilt lazily after any
        ``add_worms``/``retire_worms``.
        """
        table = self._ev_table
        if table is None:
            link_ids = self._link_ids
            counts = np.fromiter(
                map(len, link_ids.values()), dtype=np.int64,
                count=len(link_ids),
            )
            offsets = np.cumsum(counts) - counts
            lids = np.array(
                list(itertools.chain.from_iterable(link_ids.values())),
                dtype=np.int64,
            )
            table = (
                lids,
                np.arange(lids.shape[0], dtype=np.int64)
                - np.repeat(offsets, counts),
                dict(zip(link_ids, offsets.tolist())),
            )
            self._ev_table = table
        return table

    def _batch_event_parts(
        self, runs: list[_Run]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Unsorted event columns ``(t, lid, wl, pos, ri)`` for one round.

        One vectorized gather from :meth:`_event_table` instead of a
        per-worm loop; launches carrying per-link wavelength tuples
        overwrite their own slice of the wavelength column. Column order
        is immaterial: the (time, link, wavelength, pos, run) key is
        unique per event, so the follow-up lexsort fully determines the
        canonical order.
        """
        ev_lid, ev_pos, spans = self._event_table()
        k = len(runs)
        counts = np.fromiter((run.n_links for run in runs), dtype=np.int64, count=k)
        starts = np.fromiter((spans[run.uid] for run in runs), dtype=np.int64, count=k)
        delays = np.fromiter((run.delay for run in runs), dtype=np.int64, count=k)
        wl_list = [run.wavelength for run in runs]
        per_link = [ri for ri, wl in enumerate(wl_list) if isinstance(wl, tuple)]
        for ri in per_link:
            wl_list[ri] = 0
        wls = np.fromiter(wl_list, dtype=np.int64, count=k)
        total = int(counts.sum())
        # Segmented arange: event e of run k gathers table row starts[k]+e.
        flat0 = np.cumsum(counts) - counts
        idx = np.arange(total, dtype=np.int64)
        idx += np.repeat(starts - flat0, counts)
        pos = ev_pos[idx]
        wl = np.repeat(wls, counts)
        for ri in per_link:
            lo = int(flat0[ri])
            wl[lo:lo + runs[ri].n_links] = runs[ri].wavelength
        return (
            pos + np.repeat(delays, counts),
            ev_lid[idx],
            wl,
            pos,
            np.repeat(np.arange(k, dtype=np.int64), counts),
        )

    @staticmethod
    def _install(
        occupancy: dict, key: tuple[int, int], run: _Run, pos: int, t: int
    ) -> None:
        rec = _Record(run, pos, t, t + run.cut_len - 1)
        occupancy[key] = rec
        run.records.append(rec)

    @staticmethod
    def _primary_blocker(decision, rec: _Record | None, by_uid: dict) -> int:
        """The worm that witnesses the eliminations of this event."""
        if rec is not None:
            return rec.run.uid
        if decision.winner is not None:
            return decision.winner
        # All-lose tie with no occupant: the arrivals witness each other.
        return next(iter(by_uid))

    @staticmethod
    def _other_blocker(decision, rec: _Record | None, by_uid: dict, uid: int) -> int:
        """A blocker distinct from ``uid`` (for all-lose ties)."""
        if rec is not None:
            return rec.run.uid
        if decision.winner is not None and decision.winner != uid:
            return decision.winner
        for other in by_uid:
            if other != uid:
                return other
        raise ProtocolError(f"worm {uid} blocked with no other participant")

    @staticmethod
    def _finalise(runs: list[_Run]) -> tuple[dict[int, WormOutcome], int | None]:
        outcomes: dict[int, WormOutcome] = {}
        makespan: int | None = None
        for run in runs:
            if run.dead_at is not None:
                outcomes[run.uid] = WormOutcome(
                    worm=run.uid,
                    delivered=False,
                    delivered_flits=0,
                    failure=(
                        FailureKind.FAULTED
                        if run.faulted
                        else FailureKind.ELIMINATED
                    ),
                    failed_at_link=run.dead_at,
                    blockers=tuple(run.blockers),
                )
            elif run.cut_len < run.length:
                completion = run.delay + run.n_links - 1 + run.cut_len - 1
                outcomes[run.uid] = WormOutcome(
                    worm=run.uid,
                    delivered=False,
                    delivered_flits=run.cut_len,
                    failure=FailureKind.TRUNCATED,
                    completion_time=completion,
                    blockers=tuple(run.blockers),
                )
            else:
                completion = run.delay + run.n_links - 1 + run.length - 1
                outcomes[run.uid] = WormOutcome(
                    worm=run.uid,
                    delivered=True,
                    delivered_flits=run.length,
                    completion_time=completion,
                    blockers=tuple(run.blockers),
                )
            # The last step any of this worm's flits moved: every flit
            # crossing lives inside some occupancy record, and each record
            # end is achieved by the last surviving flit through that link
            # (truncation caps included). A worm cut at its very first link
            # never moved a flit and contributes nothing.
            for rec in run.records:
                if makespan is None or rec.end > makespan:
                    makespan = rec.end
        return outcomes, makespan


def run_round(
    worms: Sequence[Worm],
    launches: Sequence[Launch],
    rule: CollisionRule,
    tie_rule: TieRule = TieRule.ALL_LOSE,
    collect_collisions: bool = True,
    dead_links: Sequence[tuple] | None = None,
) -> RoundResult:
    """One-shot convenience wrapper around :class:`RoutingEngine`."""
    return RoutingEngine(worms, rule, tie_rule).run_round(
        launches, collect_collisions=collect_collisions, dead_links=dead_links
    )


@dataclass
class RoundCall:
    """One trial's :meth:`RoutingEngine.run_round` arguments.

    The unit :func:`run_round_batch` stacks: each call names its own
    engine (typically a :meth:`RoutingEngine.fork` of a shared parent,
    so trials may retire worms independently), launches, fault set, and
    flight recorder. Results come back in call order and are required to
    be bit-identical to ``call.engine.run_round(...)`` run alone.
    """

    engine: RoutingEngine
    launches: Sequence[Launch]
    collect_collisions: bool = True
    dead_links: Sequence[tuple] | None = None
    recorder: "FlightRecorder | None" = None


def run_round_batch(calls: Sequence[RoundCall]) -> list[RoundResult]:
    """Simulate one round for many independent trials: the round kernel.

    Each call picks its own event walk from its head-event count. Below
    ``_PARTITION_MIN_EVENTS`` its events are built as tuples, sorted and
    walked through the scalar resolver. At or above it they are built
    columnar, and all such calls are stacked into single
    ``(trial, link, wavelength)``-keyed arrays so the canonical lexsort
    and the adjacent-gap conflict test amortise across the batch; each
    trial's free runs are then written in bulk and its contended subset
    replays through the scalar resolver.

    Bit-identity argument: the batch lexsorts use the trial id as the
    most-significant key, so restricting the stable sort to one trial's
    events reproduces that trial's own sort (the per-trial key tuples
    are unique); the conflict test masks cross-trial adjacencies and
    uses each trial's own ``max_worm_length - 1`` gap, so the per-trial
    contention masks -- and hence outcomes, collision order, fault
    attribution, and recorder streams -- match single-trial
    ``run_round`` exactly. Since the walk depends only on the call's
    own event count, a trial takes the same walk alone as in any batch.
    Wall-clock build and partition timings are attributed to each trial
    as an equal share of the shared batch stages (the metrics contract
    leaves timing histograms run-dependent).
    """
    if not calls:
        return []
    eng0 = calls[0].engine
    prof = eng0._profiler if eng0._profiler is not None else get_profiler()
    if not prof.enabled:
        return _run_round_batch(prof, calls)
    with prof.span("engine.round_batch"):
        return _run_round_batch(prof, calls)


class _Pending:
    """One launched call between the kernel's build, resolve and finalise."""

    __slots__ = (
        "ci", "engine", "metrics", "observe", "runs", "dead_lids",
        "events", "n_events", "collisions", "faulted_at", "contended",
        "free_events", "t_resolve",
    )


def _run_round_batch(
    prof: SpanProfiler, calls: Sequence[RoundCall]
) -> list[RoundResult]:
    """The kernel body behind :func:`run_round_batch`'s span wrapper."""
    results: list[RoundResult | None] = [None] * len(calls)
    pending: list[_Pending] = []
    # Columnar calls: their pending entry, unsorted event columns and
    # adjacency gap, stacked below into one partition pass.
    columnar: list[tuple[_Pending, tuple, int]] = []
    t_batch = time.perf_counter()
    with prof.span("engine.build_events"):
        for ci, call in enumerate(calls):
            eng = call.engine
            metrics = eng._metrics if eng._metrics is not None else get_metrics()
            observe = metrics.enabled
            if not call.launches:
                # Nothing launched: no flit ever moves, so there is no
                # makespan -- but the round still happened. Record the
                # (all zero) tallies so engine_rounds_total matches the
                # caller's round count instead of silently undercounting.
                if observe:
                    eng._record_metrics(
                        metrics, {}, n_events=0, contended=0, t_events=0.0,
                        t_resolve=0.0, t_finalise=0.0, t_round=0.0,
                    )
                results[ci] = RoundResult(
                    outcomes={}, collisions=(), makespan=None
                )
                continue
            st = _Pending()
            st.ci = ci
            st.engine = eng
            st.metrics = metrics
            st.observe = observe
            st.runs = runs = eng._begin_runs(call.launches, call.recorder)
            st.dead_lids = eng._dead_lids(call.dead_links)
            st.n_events = sum(run.n_links for run in runs)
            st.collisions = []
            st.faulted_at = {}
            if st.n_events < _PARTITION_MIN_EVENTS:
                st.events = eng._event_tuples(runs)
            else:
                st.events = None
                gap = max(run.length for run in runs) - 1
                columnar.append((st, eng._batch_event_parts(runs), gap))
            pending.append(st)
        if not pending:
            return results  # type: ignore[return-value]
        if columnar:
            k_col = len(columnar)
            counts = np.fromiter(
                (c[1][0].shape[0] for c in columnar), dtype=np.int64,
                count=k_col,
            )
            btri = np.repeat(np.arange(k_col, dtype=np.int64), counts)
            bgap = np.repeat(
                np.fromiter((c[2] for c in columnar), dtype=np.int64,
                            count=k_col),
                counts,
            )
            bt = np.concatenate([c[1][0] for c in columnar])
            blid = np.concatenate([c[1][1] for c in columnar])
            bwl = np.concatenate([c[1][2] for c in columnar])
            bpos = np.concatenate([c[1][3] for c in columnar])
            bri = np.concatenate([c[1][4] for c in columnar])
    t_build = time.perf_counter() - t_batch
    k_live = len(pending)

    with prof.span("engine.resolve"):
        t_stage = time.perf_counter()
        if columnar:
            # Canonical order: trial-major, then each trial's unique
            # (t, lid, wl, pos, ri) key -- slicing out one trial yields
            # exactly the order its tuple walk would have sorted.
            corder = np.lexsort((bri, bpos, bwl, blid, bt, btri))
            bounds = np.searchsorted(btri[corder], np.arange(k_col + 1))
            # Partition order: trial-major (channel, time). The global
            # wavelength radix keeps (lid, wl) -> key injective; channel
            # *grouping* within a trial is what matters, not group order.
            key = blid * (int(bwl.max()) + 1) + bwl
            porder = np.lexsort((bt, key, btri))
            tri2 = btri[porder]
            k2 = key[porder]
            t2 = bt[porder]
            clash = (
                (tri2[1:] == tri2[:-1])
                & (k2[1:] == k2[:-1])
                & (t2[1:] - t2[:-1] <= bgap[porder][1:])
            )
            clashed = np.zeros(bt.shape[0], dtype=bool)
            clashed[1:] = clash
            clashed[:-1] |= clash
            # Flatten (trial, run) so one scatter marks every contended run.
            run_counts = np.fromiter(
                (len(c[0].runs) for c in columnar), dtype=np.int64, count=k_col
            )
            run_off = np.concatenate(
                (np.zeros(1, dtype=np.int64), np.cumsum(run_counts))
            )
            hit = porder[clashed]
            contended_flat = np.zeros(int(run_off[-1]), dtype=bool)
            contended_flat[run_off[btri[hit]] + bri[hit]] = True
            for si, (st, _, _) in enumerate(columnar):
                sl = corder[bounds[si]:bounds[si + 1]]
                st.events = (
                    (bt[sl], blid[sl], bwl[sl], bpos[sl], bri[sl]),
                    contended_flat[run_off[si]:run_off[si + 1]],
                )
        t_part = time.perf_counter() - t_stage

        for st in pending:
            t_call = time.perf_counter() if st.observe else 0.0
            call = calls[st.ci]
            if isinstance(st.events, list):
                st.contended = st.engine._resolve_scalar(
                    st.events, st.runs, st.dead_lids, call.collect_collisions,
                    call.recorder, st.collisions, st.faulted_at,
                )
                st.free_events = 0
            else:
                arrays, contended_run = st.events
                st.contended, st.free_events = st.engine._apply_partition(
                    st.runs, arrays, contended_run, st.dead_lids,
                    call.collect_collisions, call.recorder, st.collisions,
                    st.faulted_at,
                )
            st.events = None
            if st.observe:
                st.t_resolve = time.perf_counter() - t_call

    shared = (t_build + t_part) / k_live
    with prof.span("engine.finalise"):
        for st in pending:
            eng = st.engine
            t_call = time.perf_counter() if st.observe else 0.0
            outcomes, makespan = eng._finalise(st.runs)
            faulted_links = tuple(
                eng._links[lid]
                for lid, _ in sorted(st.faulted_at.items(), key=lambda kv: kv[1])
            )
            if st.observe:
                t_finalise = time.perf_counter() - t_call
                eng._record_metrics(
                    st.metrics,
                    outcomes,
                    n_events=st.n_events,
                    contended=st.contended,
                    t_events=t_build / k_live,
                    t_resolve=t_part / k_live + st.t_resolve,
                    t_finalise=t_finalise,
                    t_round=shared + st.t_resolve + t_finalise,
                    free_events=st.free_events,
                )
            results[st.ci] = RoundResult(
                outcomes=outcomes,
                collisions=tuple(st.collisions),
                makespan=makespan,
                faulted_links=faulted_links,
            )
    return results  # type: ignore[return-value]
