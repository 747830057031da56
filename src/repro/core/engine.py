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
:meth:`RoutingEngine.run_round` is a batch of one. A round's launches
arrive as :class:`~repro.worms.worm.LaunchColumns` (a sequence of
:class:`~repro.worms.worm.Launch` objects is adapted) and are validated
-- with array operations once the round has ``_PARTITION_MIN_EVENTS``
launches -- and its outcomes leave as
:class:`~repro.core.records.OutcomeColumns`. Each call picks its event
walk from its own head-event count. A round with fewer than
``_PARTITION_MIN_EVENTS`` events builds them as plain Python tuples,
sorts them and walks every group through the scalar resolver.

A larger round is built columnar and partitioned per *event*. A worm
holds link ``i`` during ``[delta+i, delta+i+l-1]`` and fragments only
get shorter, so an occupancy written at ``t`` has expired by
``t + L - 1`` (``L`` the round's longest worm). A head event with no
other event on its (link, wavelength) channel within ``L - 1`` steps
therefore always advances, and nothing else ever reads the occupancy it
writes. One sort over a packed ``(trial, channel, time)`` key finds the
*clashing* events -- those with a channel neighbour that close -- and
only they, plus the events on the round's dead links, are sorted
canonically and walked through the scalar resolver. Every other event
is settled by arithmetic: a worm's outcome follows from its final
``dead_at`` and cut length, its share of the makespan from its delay,
``dead_at`` and the log of its truncations. The test is conservative
(it over-approximates contention), so both walks give bit-identical
outcomes; the golden traces and the differential suites enforce it.
A recorded round takes the same partition; its free events' recorder
calls are merged into the walk's in canonical order.

Many independent rounds (typically the same round of many trials
differing only in their seeds) go through one :func:`run_round_batch`
call: the partitioned rounds are stacked, with the trial index as the
most significant part of the key, so the sort and the gap test amortise
across the batch. Events of one trial never neighbour another trial's,
so each trial's partition -- and therefore its outcomes, collision
order, fault attribution and flight-recorder stream -- is bit-identical
to running that trial alone.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.records import (
    CollisionEvent,
    CollisionKind,
    OutcomeColumns,
    RoundResult,
)
from repro.errors import ProtocolError
from repro.observability.metrics import MetricsRegistry, get_metrics
from repro.observability.spans import SpanProfiler, get_profiler
from repro.optics.coupler import CollisionRule, TieRule, resolve
from repro.optics.signal import Arrival, Occupancy
from repro.worms.worm import Launch, LaunchColumns, Worm

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
#: Below it numpy's fixed per-call costs outweigh the events the
#: partition settles without the walk (see docs/PERFORMANCE.md, "Round
#: kernel").
_PARTITION_MIN_EVENTS = 128

#: Bytes of slack glibc keeps at the top of its heap (``M_TOP_PAD``),
#: set once at import by :func:`_keep_heap_slack`.
_HEAP_TOP_PAD = 16 << 20
_M_TOP_PAD = -2  # glibc <malloc.h>


def _keep_heap_slack() -> None:
    """Keep freed heap pages mapped between rounds (glibc only).

    A partitioned round allocates and frees a few MB of numpy
    temporaries. By default glibc hands the freed top of its heap back to
    the OS, so the next round faults the same pages in again: about 150
    minor page faults per mesh32-serial trial and 475 per 16-seed
    lockstep call, 4-7% of their time spent in the OS kernel, at a cost
    that moves with the host's load. A top pad makes every heap
    extension leave ``_HEAP_TOP_PAD`` bytes of slack and every trim keep
    that much, so a round's temporaries reuse the pages the previous
    round touched. Process-wide; it changes no result, and other C
    libraries are left alone.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        import ctypes

        ctypes.CDLL(None).mallopt(_M_TOP_PAD, _HEAP_TOP_PAD)
    except (AttributeError, ValueError, OSError):
        pass


_keep_heap_slack()

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
    """Mutable per-worm state for one round, for worms the walk visits.

    ``cuts`` logs the worm's truncations as ``(cut_pos, new_len)``;
    ``records`` holds its occupancies written by the walk, so later cuts
    can cap them.
    """

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
        "blockers",
        "records",
        "cuts",
    )

    def __init__(
        self,
        uid: int,
        length: int,
        delay: int,
        wavelength: "int | tuple[int, ...]",
        priority: int,
        link_ids: list[int],
    ) -> None:
        self.uid = uid
        self.length = length
        self.n_links = len(link_ids)
        self.delay = delay
        self.wavelength = wavelength
        self.priority = priority
        self.link_ids = link_ids
        self.cut_len = length
        self.dead_at: int | None = None
        self.faulted = False
        self.blockers: list[int] = []
        self.records: list[_Record] = []
        self.cuts: list[tuple[int, int]] = []

    def drain_end(self) -> int | None:
        """The last step any of this worm's flits moved, or None.

        Every flit crossing lives inside some occupancy, and each
        occupancy ends when the last flit surviving through that link
        leaves it. The fragment on link ``p`` is the worm's length capped
        by every cut at or upstream of ``p`` (cuts compose via ``min``),
        so the end is largest at the last link before each cut and at the
        last link the head entered. A worm lost entering its very first
        link never moved a flit.
        """
        last = (self.n_links if self.dead_at is None else self.dead_at) - 1
        if last < 0:
            return None
        if not self.cuts:
            return self.delay + last + self.length - 1
        ends = []
        frag = self.length
        for cut_pos, new_len in sorted(self.cuts):
            if cut_pos > 0:
                ends.append(self.delay + cut_pos - 1 + frag - 1)
            frag = min(frag, new_len)
        ends.append(self.delay + last + frag - 1)
        return max(ends)


class _OrderedRecorder:
    """Buffers flight-recorder calls tagged with their event's canonical rank.

    A partitioned round emits the walk's calls and its free events'
    advances from two passes; flushing them sorted by the rank of the
    event that produced them makes the recorder stream bit-identical to
    the tuple walk's. Recorder methods read ``run.cut_len`` at call time
    (the ``surviving`` field): each walk call snapshots it, and a free
    advance takes the cut length at its own rank -- the latest snapshot
    of its worm before it, since every cut emits a call.
    """

    __slots__ = ("calls", "base")

    def __init__(self) -> None:
        self.calls: list[tuple[int, str, "_Run", tuple, int | None]] = []
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

    def free_advance(self, rank: int, run: "_Run", *args) -> None:
        self.calls.append((rank, "advance", run, args, None))

    def flush(self, recorder: "FlightRecorder") -> None:
        self.calls.sort(key=lambda call: call[0])
        current: dict[int, int] = {}
        for _, name, run, args, cut_len in self.calls:
            if cut_len is None:
                cut_len = current.get(run.uid, run.length)
            else:
                current[run.uid] = cut_len
            final = run.cut_len
            run.cut_len = cut_len
            getattr(recorder, name)(run, *args)
            run.cut_len = final


class _Table:
    """The engine's registered worms as flat columns, in registration order.

    ``lid``/``pos`` concatenate every worm's link ids and path positions
    (worm ``g`` owns rows ``start[g]`` to ``start[g] + n_links[g]``), so
    a round gathers its events with one fancy-index pass. ``uids`` maps
    a registration index to its uid; ``order`` sorts them for lookup.
    """

    __slots__ = ("lid", "pos", "start", "n_links", "length", "uids", "order")


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
        # Lazily built column table of the registered worms; invalidated
        # whenever the worm set changes.
        self._ev_table: _Table | None = None
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
        clone._ev_table = self._table()
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
        launches: "Sequence[Launch] | LaunchColumns",
        collect_collisions: bool = True,
        dead_links: Sequence[tuple] | None = None,
        recorder: "FlightRecorder | None" = None,
    ) -> RoundResult:
        """Simulate one forward pass for the launched worms.

        ``launches`` name the participating worms (one launch per worm),
        as :class:`~repro.worms.worm.Launch` objects or as one
        :class:`~repro.worms.worm.LaunchColumns`; non-launched worms
        simply do not exist this round. ``dead_links``
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

    def _rows(self, uids: np.ndarray) -> tuple[np.ndarray, bool]:
        """Each uid's registration index, and whether every uid is known."""
        tab = self._table()
        n = tab.uids.shape[0]
        if not n:
            return uids, False
        i = np.searchsorted(tab.uids, uids, sorter=tab.order)
        np.minimum(i, n - 1, out=i)
        reg = tab.order[i]
        return reg, bool((tab.uids[reg] == uids).all())

    def _launch_rows(self, cols: LaunchColumns) -> np.ndarray:
        """Validate a round's launch columns; each row's registration index.

        The checks (unknown uid, duplicate, negative delay or wavelength)
        run as array operations; a round that fails one is re-checked
        row by row by :meth:`_check_launches`, which names its first bad
        launch exactly as a per-launch check would.
        """
        reg, ok = self._rows(cols.worm)
        if ok:
            seen = np.zeros(self._table().uids.shape[0], dtype=bool)
            seen[reg] = True
            ok = (
                int(np.count_nonzero(seen)) == reg.shape[0]
                and cols.delay.min() >= 0
                and cols.wavelength.min() >= 0
            )
        if not ok:
            self._check_launches(cols)
        return reg

    def _check_launches(self, cols: LaunchColumns) -> int:
        """Validate launch rows one at a time; the round's head-event count.

        Raises for the first bad row. Small rounds and rounds with
        per-link wavelengths take this path: below a few dozen rows a
        Python loop beats the fixed cost of the array checks.
        """
        n_events = 0
        seen: set[int] = set()
        per_link = cols.per_link
        for i, (uid, delay, wl) in enumerate(
            zip(cols.worm.tolist(), cols.delay.tolist(),
                cols.wavelength.tolist())
        ):
            worm = self._worms.get(uid)
            if worm is None:
                raise ProtocolError(f"launch names unknown worm uid {uid}")
            if uid in seen:
                raise ProtocolError(f"worm uid {uid} launched twice")
            seen.add(uid)
            if delay < 0:
                raise ProtocolError(f"worm {uid}: negative launch delay {delay}")
            wl = per_link.get(i, wl)
            if isinstance(wl, tuple):
                if len(wl) != worm.n_links:
                    raise ProtocolError(
                        f"worm {uid}: {len(wl)} per-link wavelengths "
                        f"for {worm.n_links} links"
                    )
                if any(w < 0 for w in wl):
                    raise ProtocolError(
                        f"worm {uid}: negative per-link wavelength in {wl}"
                    )
            elif wl < 0:
                raise ProtocolError(f"worm {uid}: negative wavelength {wl}")
            n_events += worm.n_links
        return n_events

    def _make_runs(self, cols: LaunchColumns, rows) -> dict[int, _Run]:
        """Walk state for validated launch ``rows``, keyed by row."""
        uid = cols.worm.tolist()
        delay = cols.delay.tolist()
        wl = cols.wavelength.tolist()
        prio = cols.priority.tolist()
        per_link = cols.per_link
        worms = self._worms
        link_ids = self._link_ids
        runs: dict[int, _Run] = {}
        for r in rows:
            u = uid[r]
            runs[r] = _Run(
                u, worms[u].length, delay[r], per_link.get(r, wl[r]), prio[r],
                link_ids[u],
            )
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
        runs: dict[int, _Run],
        dead_lids: set[int],
        collect_collisions: bool,
        recorder,
        collisions: list[CollisionEvent],
        faulted_at: dict[int, int],
        order: list[int] | None = None,
    ) -> int:
        """Walk ``events`` in order, resolving each (t, link, wl) group.

        This is the one place collision semantics are applied. The tuple
        walk passes every event of the round; the partition passes only
        its clashing and dead-link events, in canonical order, with
        ``order`` -- their ranks in the full round -- when recorded, so
        buffered recorder calls merge with the free events' in place.
        ``runs`` maps each event's launch row to its worm state. Returns
        the number of contended coupler groups.
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
                # The cut caps every occupancy from its link on, even when
                # an earlier cut downstream already left a shorter
                # fragment: the links between the two held the longer one.
                cut_pos = rec.pos
                occ_run.cuts.append((cut_pos, new_len))
                for r in occ_run.records:
                    if r.pos >= cut_pos:
                        cap = r.entry + new_len - 1
                        if cap < r.end:
                            r.end = cap
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

    def _resolve_partitioned(
        self,
        st: "_Pending",
        parts: tuple[np.ndarray, ...],
        walk: np.ndarray,
        collect_collisions: bool,
        recorder,
    ) -> int:
        """Resolve one partitioned round: walk its clashing events only.

        ``parts`` are the round's unsorted event columns ``(t, lid, wl,
        pos, row)`` and ``walk`` the indices of its clashing and
        dead-link events, in canonical order. Only the worms those events
        belong to get walk state (a recorded round has state for every
        worm already, built for its launch events). Every other event
        advances by construction and is settled in :func:`_settle`; a
        recorded round emits those advances here, merged into the walk's
        calls by canonical rank. Returns the contended group count.
        """
        t, lid, wl, pos, ri = parts
        rows = ri[walk].tolist()
        events = list(
            zip(t[walk].tolist(), lid[walk].tolist(), wl[walk].tolist(),
                pos[walk].tolist(), rows)
        )
        if recorder is None:
            st.runs = self._make_runs(st.cols, sorted(set(rows)))
            return self._resolve_scalar(
                events, st.runs, st.dead_lids, collect_collisions, None,
                st.collisions, st.faulted_at,
            )
        runs = st.runs
        n = t.shape[0]
        rank = np.empty(n, dtype=np.int64)
        rank[np.lexsort((ri, pos, wl, lid, t))] = np.arange(n, dtype=np.int64)
        emitter = _OrderedRecorder()
        contended = self._resolve_scalar(
            events, runs, st.dead_lids, collect_collisions, emitter,
            st.collisions, st.faulted_at, order=rank[walk].tolist(),
        )
        free = np.ones(n, dtype=bool)
        free[walk] = False
        links = self._links
        for g, et, elid, ewl, ep, ek in zip(
            rank[free].tolist(), t[free].tolist(), lid[free].tolist(),
            wl[free].tolist(), pos[free].tolist(), ri[free].tolist(),
        ):
            run = runs[ek]
            if run.dead_at is None or ep < run.dead_at:
                emitter.free_advance(g, run, et, ep, links[elid], ewl)
        emitter.flush(recorder)
        return contended

    # -- helpers ---------------------------------------------------------------

    def _record_metrics(
        self,
        metrics: MetricsRegistry,
        counts: list[int],
        *,
        n_events: int,
        contended: int,
        t_events: float,
        t_resolve: float,
        t_finalise: float,
        t_round: float,
        free_events: int = 0,
    ) -> None:
        """Ship one round's tallies into the registry (enabled path only).

        ``counts`` are the round's worms per outcome kind, as
        :meth:`OutcomeColumns.counts` gives them.
        """
        rule = self.rule.name.lower()
        delivered, eliminated, truncated, faulted = counts
        metrics.inc("engine_rounds_total", rule=rule)
        metrics.inc("engine_events_total", n_events, rule=rule)
        metrics.inc("engine_contended_couplers_total", contended, rule=rule)
        metrics.inc("engine_worms_launched_total", sum(counts), rule=rule)
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
    def _event_tuples(
        runs: dict[int, _Run]
    ) -> list[tuple[int, int, int, int, int]]:
        """Sorted head-arrival tuples ``(time, link_id, wavelength, pos, row)``.

        The small-round build: the key is unique per event, so
        ``sort()`` yields exactly the canonical order.
        """
        events: list[tuple[int, int, int, int, int]] = []
        for ri, run in runs.items():
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

    def _table(self) -> _Table:
        """The registered worms as flat columns (see :class:`_Table`).

        Rebuilt lazily after any ``add_worms``/``retire_worms``.
        """
        tab = self._ev_table
        if tab is None:
            link_ids = self._link_ids
            n = len(link_ids)
            tab = _Table()
            tab.n_links = counts = np.fromiter(
                map(len, link_ids.values()), dtype=np.int64, count=n
            )
            tab.length = np.fromiter(
                (self._worms[uid].length for uid in link_ids),
                dtype=np.int64, count=n,
            )
            tab.start = np.cumsum(counts) - counts
            tab.lid = np.array(
                list(itertools.chain.from_iterable(link_ids.values())),
                dtype=np.int64,
            )
            tab.pos = (
                np.arange(tab.lid.shape[0], dtype=np.int64)
                - np.repeat(tab.start, counts)
            )
            tab.uids = np.fromiter(link_ids, dtype=np.int64, count=n)
            tab.order = np.argsort(tab.uids, kind="stable")
            self._ev_table = tab
        return tab

    def _event_parts(
        self, cols: LaunchColumns, reg: np.ndarray, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Unsorted event columns ``(t, lid, wl, pos, row)`` for one round.

        One vectorized gather from :meth:`_table` instead of a per-worm
        loop; rows carrying per-link wavelength tuples overwrite their
        own slice of the wavelength column. Column order is immaterial:
        the (time, link, wavelength, pos, row) key is unique per event.
        """
        tab = self._table()
        k = counts.shape[0]
        total = int(counts.sum())
        row = np.repeat(np.arange(k, dtype=np.int64), counts)
        # Segmented arange: event e of row r gathers table row start+e.
        flat0 = np.cumsum(counts) - counts
        idx = np.arange(total, dtype=np.int64)
        idx += (tab.start[reg] - flat0)[row]
        pos = tab.pos[idx]
        wl = cols.wavelength[row]
        for r, per_link in cols.per_link.items():
            lo = int(flat0[r])
            wl[lo:lo + len(per_link)] = per_link
        return pos + cols.delay[row], tab.lid[idx], wl, pos, row

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


def _settle(st: "_Pending") -> tuple[OutcomeColumns, int | None]:
    """A round's outcome columns and makespan, from its walk state.

    Worms the walk never visited advanced at every link and were never
    cut: they are delivered, and their flits last moved when the tail
    left the final link, at their completion step. A visited worm's
    outcome follows from its ``dead_at``, ``faulted`` flag and cut
    length, and its share of the makespan from its truncation log
    (:meth:`_Run.drain_end`).
    """
    cols = st.cols
    k = len(cols)
    rows, kinds, flits, failed_at, completion = [], [], [], [], []
    blockers: dict[int, tuple[int, ...]] = {}
    makespan = None
    for r, run in st.runs.items():
        rows.append(r)
        if run.dead_at is not None:
            kinds.append(
                OutcomeColumns.FAULTED if run.faulted
                else OutcomeColumns.ELIMINATED
            )
            flits.append(0)
            failed_at.append(run.dead_at)
            completion.append(-1)
        else:
            kinds.append(
                OutcomeColumns.TRUNCATED if run.cut_len < run.length
                else OutcomeColumns.DELIVERED
            )
            flits.append(run.cut_len)
            failed_at.append(-1)
            completion.append(run.delay + run.n_links + run.cut_len - 2)
        if run.blockers:
            blockers[r] = tuple(run.blockers)
        end = run.drain_end()
        if end is not None and (makespan is None or end > makespan):
            makespan = end
    if len(rows) == k:
        # Every row visited (rows come in launch order): one array call.
        kind, flits, at, done = np.array(
            (kinds, flits, failed_at, completion), dtype=np.int64
        )
        return OutcomeColumns(cols.worm, kind, flits, at, done, blockers), makespan
    length = st.length
    done = cols.delay + st.n_links + length - 2
    free = np.ones(k, dtype=bool)
    free[rows] = False
    free_end = int(done[free].max())
    if makespan is None or free_end > makespan:
        makespan = free_end
    kind = np.zeros(k, dtype=np.int64)
    kind[rows] = kinds
    length = length.copy()
    length[rows] = flits
    at = np.full(k, -1, dtype=np.int64)
    at[rows] = failed_at
    done[rows] = completion
    return OutcomeColumns(cols.worm, kind, length, at, done, blockers), makespan


def run_round(
    worms: Sequence[Worm],
    launches: "Sequence[Launch] | LaunchColumns",
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
    so trials may retire worms independently), launches (launch objects
    or one :class:`~repro.worms.worm.LaunchColumns`), fault set, and
    flight recorder. Results come back in call order and are required to
    be bit-identical to ``call.engine.run_round(...)`` run alone.
    """

    engine: RoutingEngine
    launches: "Sequence[Launch] | LaunchColumns"
    collect_collisions: bool = True
    dead_links: Sequence[tuple] | None = None
    recorder: "FlightRecorder | None" = None


def run_round_batch(calls: Sequence[RoundCall]) -> list[RoundResult]:
    """Simulate one round for many independent trials: the round kernel.

    Each call picks its own event walk from its head-event count. Below
    ``_PARTITION_MIN_EVENTS`` its events are built as tuples, sorted and
    walked through the scalar resolver. At or above it they are built
    columnar, and all such calls are stacked and sorted together by one
    packed ``(trial, channel, time)`` key, so the sort and the
    adjacent-gap clash test amortise across the batch; each trial's
    clashing and dead-link events then replay through the scalar
    resolver, and the rest are settled by arithmetic.

    Bit-identity argument: the trial id is the most significant part of
    the key (or of the fallback lexsort, when the packed key would not
    fit 63 bits), and the clash test never pairs events of different
    trials and uses each trial's own ``max_worm_length - 1`` gap, so each
    trial's walk set -- and hence outcomes, collision order, fault
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
        "ci", "engine", "metrics", "observe", "cols", "n_links",
        "length", "runs", "dead_lids", "events", "walk", "n_events",
        "collisions", "faulted_at", "contended", "free_events", "t_resolve",
    )


def _partition(
    columnar: list[tuple["_Pending", tuple, int, "np.ndarray | None"]],
) -> list[np.ndarray]:
    """Each stacked call's clashing and dead-link events, canonically sorted.

    Two events can interact only if they share a (link, wavelength)
    channel and are at most the trial's ``L - 1`` steps apart. One sort
    over a packed ``(trial, channel, time)`` int64 key puts every
    channel's events side by side; an adjacent pair that close marks
    both ends. The time field is padded so that a pair straddling two
    channels or trials always differs by more than any gap. The sort
    need not be stable: equal keys are one channel and step, marked
    together in any order. Rounds whose fields do not fit 63 bits take
    a three-key lexsort instead.
    Returns, per call, the indices into its own event columns.
    """
    n_calls = len(columnar)
    sizes = [c[1][0].shape[0] for c in columnar]
    gaps = [c[2] for c in columnar]
    if n_calls == 1:
        bt, blid, bwl, bpos, bri = columnar[0][1]
        btri = None
    else:
        bt, blid, bwl, bpos, bri = (
            np.concatenate([c[1][j] for c in columnar]) for j in range(5)
        )
        btri = np.repeat(np.arange(n_calls, dtype=np.int64), sizes)
    width = int(bwl.max()) + 1
    channel = blid * width + bwl if width > 1 else blid
    t_bits = (int(bt.max()) + max(gaps) + 1).bit_length()
    c_bits = int(channel.max()).bit_length()
    r_bits = (n_calls - 1).bit_length()
    if r_bits + c_bits + t_bits <= 63:
        key = (channel << t_bits) | bt
        if btri is not None:
            key |= btri << (c_bits + t_bits)
        order = np.argsort(key)
        step = np.diff(key[order])
    else:
        keys = (bt, channel) if btri is None else (bt, channel, btri)
        order = np.lexsort(keys)
        step = np.diff(bt[order])
        ch2 = channel[order]
        apart = ch2[1:] != ch2[:-1]
        if btri is not None:
            tri2 = btri[order]
            apart |= tri2[1:] != tri2[:-1]
        step[apart] = np.iinfo(np.int64).max
    if len(set(gaps)) == 1:
        close = step <= gaps[0]
    else:
        close = step <= np.repeat(np.array(gaps, dtype=np.int64), sizes)[order][1:]
    hit = np.zeros(bt.shape[0], dtype=bool)
    hit[1:] = close
    hit[:-1] |= close
    walk = np.empty_like(hit)
    walk[order] = hit
    offsets = np.cumsum(sizes) - sizes
    for (_, _, _, dead), off, size in zip(columnar, offsets.tolist(), sizes):
        if dead is not None:
            walk[off:off + size] |= dead
    sub = np.flatnonzero(walk)
    keys = (bri[sub], bpos[sub], bwl[sub], blid[sub], bt[sub])
    if btri is None:
        return [sub[np.lexsort(keys)]]
    tri = btri[sub]
    sub = sub[np.lexsort(keys + (tri,))]
    bounds = np.searchsorted(btri[sub], np.arange(n_calls + 1)).tolist()
    return [
        sub[bounds[i]:bounds[i + 1]] - off
        for i, off in enumerate(offsets.tolist())
    ]


def _run_round_batch(
    prof: SpanProfiler, calls: Sequence[RoundCall]
) -> list[RoundResult]:
    """The kernel body behind :func:`run_round_batch`'s span wrapper."""
    results: list[RoundResult | None] = [None] * len(calls)
    pending: list[_Pending] = []
    # Columnar calls: their pending entry, unsorted event columns,
    # adjacency gap and dead-link event mask, partitioned together below.
    columnar: list[tuple[_Pending, tuple, int, np.ndarray | None]] = []
    t_batch = time.perf_counter()
    with prof.span("engine.build_events"):
        for ci, call in enumerate(calls):
            eng = call.engine
            metrics = eng._metrics if eng._metrics is not None else get_metrics()
            observe = metrics.enabled
            cols = call.launches
            if not isinstance(cols, LaunchColumns):
                cols = LaunchColumns.from_launches(cols)
            if not len(cols):
                # Nothing launched: no flit ever moves, so there is no
                # makespan -- but the round still happened. Record the
                # (all zero) tallies so engine_rounds_total matches the
                # caller's round count instead of silently undercounting.
                if observe:
                    eng._record_metrics(
                        metrics, [0, 0, 0, 0], n_events=0, contended=0,
                        t_events=0.0, t_resolve=0.0, t_finalise=0.0,
                        t_round=0.0,
                    )
                none = np.empty(0, dtype=np.int64)
                results[ci] = RoundResult(columns=OutcomeColumns(
                    none, none, none, none, none, {},
                ))
                continue
            st = _Pending()
            st.ci = ci
            st.engine = eng
            st.metrics = metrics
            st.observe = observe
            st.cols = cols
            st.dead_lids = eng._dead_lids(call.dead_links)
            st.collisions = []
            st.faulted_at = {}
            st.runs = {}
            k = len(cols)
            recorder = call.recorder
            # Each worm crosses at least one link, so a round of at least
            # _PARTITION_MIN_EVENTS launches is partitioned for sure.
            if k < _PARTITION_MIN_EVENTS or cols.per_link:
                st.n_events = eng._check_launches(cols)
                partitioned = st.n_events >= _PARTITION_MIN_EVENTS
                if partitioned:
                    reg = eng._rows(cols.worm)[0]
            else:
                reg = eng._launch_rows(cols)
                partitioned = True
            if not partitioned:
                st.runs = eng._make_runs(cols, range(k))
                st.events = eng._event_tuples(st.runs)
            else:
                tab = eng._table()
                st.n_links = tab.n_links[reg]
                st.length = tab.length[reg]
                st.n_events = int(st.n_links.sum())
                if recorder is not None:
                    st.runs = eng._make_runs(cols, range(k))
                st.events = parts = eng._event_parts(cols, reg, st.n_links)
                dead = None
                if st.dead_lids:
                    dead = np.isin(
                        parts[1],
                        np.fromiter(st.dead_lids, dtype=np.int64,
                                    count=len(st.dead_lids)),
                    )
                columnar.append((st, parts, int(st.length.max()) - 1, dead))
            if recorder is not None:
                for run in st.runs.values():
                    recorder.launch(run)
            pending.append(st)
        if not pending:
            return results  # type: ignore[return-value]
    t_build = time.perf_counter() - t_batch
    k_live = len(pending)

    with prof.span("engine.resolve"):
        t_stage = time.perf_counter()
        if columnar:
            for (st, *_), walk in zip(columnar, _partition(columnar)):
                st.walk = walk
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
                st.contended = st.engine._resolve_partitioned(
                    st, st.events, st.walk, call.collect_collisions,
                    call.recorder,
                )
                st.free_events = st.n_events - st.walk.shape[0]
            st.events = None
            if st.observe:
                st.t_resolve = time.perf_counter() - t_call

    shared = (t_build + t_part) / k_live
    with prof.span("engine.finalise"):
        for st in pending:
            eng = st.engine
            t_call = time.perf_counter() if st.observe else 0.0
            outcome, makespan = _settle(st)
            faulted_links = tuple(
                eng._links[lid]
                for lid, _ in sorted(st.faulted_at.items(), key=lambda kv: kv[1])
            )
            if st.observe:
                t_finalise = time.perf_counter() - t_call
                eng._record_metrics(
                    st.metrics,
                    outcome.counts(),
                    n_events=st.n_events,
                    contended=st.contended,
                    t_events=t_build / k_live,
                    t_resolve=t_part / k_live + st.t_resolve,
                    t_finalise=t_finalise,
                    t_round=shared + st.t_resolve + t_finalise,
                    free_events=st.free_events,
                )
            results[st.ci] = RoundResult(
                collisions=tuple(st.collisions),
                makespan=makespan,
                faulted_links=faulted_links,
                columns=outcome,
            )
    return results  # type: ignore[return-value]
