"""Flight-recording analytics: replay-verification, link stats, rendering.

The flight recorder (:mod:`repro.observability.flightrec`) writes one
structured event per worm state change. This module consumes those
events:

* :func:`replay_rounds` re-derives every worm's final outcome *purely
  from the events* -- the same occupancy/truncation bookkeeping the
  engine performs, replayed from the trace -- producing bit-identical
  :class:`~repro.worms.worm.WormOutcome` objects and the round makespan;
* :func:`verify_replay` cross-checks a recording against the aggregate
  ``round`` records and the engine's claimed makespans in the same
  trace, so a recording proves itself consistent without re-running the
  simulation;
* :func:`link_stats` / :func:`hotspots` / :func:`measured_congestion` /
  :func:`worm_history` compute per-link utilization, contention
  hot-spot rankings, the measured congestion C̃ per wavelength (the
  quantity Main Theorems 1.1-1.3 are parameterised by) and per-worm
  critical paths;
* :func:`render_timeline` / :func:`render_links` draw ASCII timelines
  and link heatmaps; :func:`summarize_trace` and :func:`diff_traces`
  back the ``repro trace`` CLI subcommands;
* :func:`render_spans` draws a span-profile snapshot
  (:mod:`repro.observability.spans`) as an indented ASCII flame view
  plus a top-N self-time table; :func:`sparkline`,
  :func:`format_window` and :func:`render_windows` turn the streaming
  engine's ``scenario_window`` records into one-line stat rows and
  refreshing sparkline dashboards (``repro scenario run --watch``).

Everything operates on plain trace records (dicts), so it works on a
:class:`~repro.observability.trace.RunTrace`, a path, or an in-memory
record list alike.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.worms.worm import FailureKind, WormOutcome

__all__ = [
    "Occupation",
    "ReplayedRound",
    "ReplayReport",
    "LinkStats",
    "replay_rounds",
    "verify_replay",
    "link_stats",
    "hotspots",
    "measured_congestion",
    "worm_history",
    "render_timeline",
    "render_links",
    "render_spans",
    "sparkline",
    "format_window",
    "render_windows",
    "summarize_trace",
    "diff_traces",
]

_CONFLICT_KINDS = ("worm_eliminate", "worm_truncate", "worm_fault")


def _freeze(value):
    """JSON round-trip normalisation: lists back to tuples, recursively."""
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


def _records(source) -> Sequence[Mapping]:
    """The record sequence behind any accepted source type."""
    if isinstance(source, (str, pathlib.Path)):
        from repro.observability.trace import read_trace

        return read_trace(source).records
    records = getattr(source, "records", None)
    if records is not None:
        return records
    return list(source)


@dataclass
class Occupation:
    """One link occupancy: ``worm`` held ``link`` from ``entry`` to ``end``.

    ``end`` reflects truncation caps, exactly like the engine's internal
    records; the window is inclusive.
    """

    worm: int
    link: tuple
    wavelength: int
    pos: int
    entry: int
    end: int


class _ReplayWorm:
    """Mutable per-worm replay state, mirroring the engine's ``_Run``."""

    __slots__ = (
        "uid",
        "length",
        "n_links",
        "delay",
        "cut_len",
        "dead_at",
        "faulted",
        "blockers",
        "occupations",
    )

    def __init__(self, launch: Mapping) -> None:
        self.uid = int(launch["worm"])
        self.length = int(launch["length"])
        self.n_links = int(launch["n_links"])
        self.delay = int(launch["delay"])
        self.cut_len = self.length
        self.dead_at: int | None = None
        self.faulted = False
        self.blockers: list[int] = []
        self.occupations: list[Occupation] = []


@dataclass
class ReplayedRound:
    """One round re-derived from flight events alone.

    ``outcomes`` and ``makespan`` are the replay's re-derivation;
    ``claimed_makespan`` is the engine's claim from the ``flight_round``
    record (``None`` when the recording stopped before the round
    closed). ``conflicts`` retains the raw conflict events for link
    analytics.
    """

    trial: int
    round: int
    outcomes: dict[int, WormOutcome]
    makespan: int | None
    occupations: list[Occupation] = field(default_factory=list)
    conflicts: list[dict] = field(default_factory=list)
    claimed_makespan: int | None = None
    ack_span: int = 0
    acked: tuple[int, ...] = ()
    closed: bool = False


def _finalise(worms: dict[int, _ReplayWorm]) -> tuple[dict[int, WormOutcome], int | None]:
    """The engine's outcome and makespan rules over replay state.

    Mirrors ``repro.core.engine._settle``.
    """
    outcomes: dict[int, WormOutcome] = {}
    makespan: int | None = None
    for state in worms.values():
        if state.dead_at is not None:
            outcomes[state.uid] = WormOutcome(
                worm=state.uid,
                delivered=False,
                delivered_flits=0,
                failure=(
                    FailureKind.FAULTED if state.faulted else FailureKind.ELIMINATED
                ),
                failed_at_link=state.dead_at,
                blockers=tuple(state.blockers),
            )
        elif state.cut_len < state.length:
            completion = state.delay + state.n_links - 1 + state.cut_len - 1
            outcomes[state.uid] = WormOutcome(
                worm=state.uid,
                delivered=False,
                delivered_flits=state.cut_len,
                failure=FailureKind.TRUNCATED,
                completion_time=completion,
                blockers=tuple(state.blockers),
            )
        else:
            completion = state.delay + state.n_links - 1 + state.length - 1
            outcomes[state.uid] = WormOutcome(
                worm=state.uid,
                delivered=True,
                delivered_flits=state.length,
                completion_time=completion,
                blockers=tuple(state.blockers),
            )
        for occ in state.occupations:
            if makespan is None or occ.end > makespan:
                makespan = occ.end
    return outcomes, makespan


def replay_rounds(source, trial: int | None = None) -> list[ReplayedRound]:
    """Re-derive every recorded round's outcomes from flight events alone.

    Walks the records in file order (the recorder emits them in the
    engine's processing order), maintaining the same per-worm state the
    engine does -- occupancy windows, truncation caps composing via
    ``min``, blocker lists -- and finalising exactly like the engine.
    ``trial`` restricts to one trial; rounds come back sorted by
    (trial, round).
    """
    groups: dict[tuple[int, int], dict] = {}
    for r in _records(source):
        kind = r.get("kind")
        if kind not in (
            "worm_launch",
            "worm_advance",
            "worm_truncate",
            "worm_eliminate",
            "worm_fault",
            "worm_ack",
            "flight_round",
        ):
            continue
        tr = int(r.get("trial", 0))
        if trial is not None and tr != trial:
            continue
        key = (tr, int(r.get("round", 0)))
        group = groups.get(key)
        if group is None:
            group = groups[key] = {"worms": {}, "meta": None, "acked": []}
        worms: dict[int, _ReplayWorm] = group["worms"]
        if kind == "worm_launch":
            worms[int(r["worm"])] = _ReplayWorm(r)
        elif kind == "worm_advance":
            state = worms[int(r["worm"])]
            t = int(r["t"])
            state.occupations.append(
                Occupation(
                    worm=state.uid,
                    link=_freeze(r["link"]),
                    wavelength=int(r["wavelength"]),
                    pos=int(r["pos"]),
                    entry=t,
                    end=t + state.cut_len - 1,
                )
            )
        elif kind == "worm_truncate":
            state = worms[int(r["worm"])]
            # A cut caps every occupation from its link on, even when an
            # earlier cut further downstream already left a shorter
            # fragment: the links between the two cuts still held the
            # longer one.
            cut = int(r["cut"])
            state.cut_len = min(state.cut_len, cut)
            cut_pos = int(r["pos"])
            for occ in state.occupations:
                if occ.pos >= cut_pos:
                    cap = occ.entry + cut - 1
                    if cap < occ.end:
                        occ.end = cap
            state.blockers.append(int(r["blocker"]))
            group.setdefault("conflicts", []).append(r)
        elif kind == "worm_eliminate":
            state = worms[int(r["worm"])]
            state.dead_at = int(r["pos"])
            state.blockers.append(int(r["blocker"]))
            group.setdefault("conflicts", []).append(r)
        elif kind == "worm_fault":
            state = worms[int(r["worm"])]
            state.dead_at = int(r["pos"])
            state.faulted = True
            group.setdefault("conflicts", []).append(r)
        elif kind == "worm_ack":
            group["acked"].append(int(r["worm"]))
        else:  # flight_round
            group["meta"] = r

    rounds: list[ReplayedRound] = []
    for (tr, rnd) in sorted(groups):
        group = groups[(tr, rnd)]
        worms = group["worms"]
        outcomes, makespan = _finalise(worms)
        meta = group["meta"]
        rounds.append(
            ReplayedRound(
                trial=tr,
                round=rnd,
                outcomes=outcomes,
                makespan=makespan,
                occupations=[o for w in worms.values() for o in w.occupations],
                conflicts=list(group.get("conflicts", [])),
                claimed_makespan=None if meta is None else meta["makespan"],
                ack_span=0 if meta is None else int(meta.get("ack_span", 0)),
                acked=tuple(group["acked"]),
                closed=meta is not None,
            )
        )
    return rounds


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of :func:`verify_replay`: what was checked and what failed."""

    rounds_replayed: int
    rounds_checked: int
    mismatches: tuple[str, ...]

    @property
    def ok(self) -> bool:
        """True when every cross-check held."""
        return not self.mismatches


def verify_replay(source, trial: int | None = None) -> ReplayReport:
    """Cross-check a flight recording against its own trace aggregates.

    For every replayed round, asserts (a) the re-derived makespan is
    bit-identical to the engine's claim in ``flight_round``, and (b) the
    re-derived worm fates reproduce the protocol's ``round`` record for
    the same (trial, index): active/delivered/eliminated/truncated/
    faulted/acked tallies and the observed span
    ``max(makespan, ack_span) + 1``. Returns a report rather than
    raising, so the CLI can render partial verdicts for crashed runs.
    """
    records = _records(source)
    replayed = replay_rounds(records, trial=trial)
    round_records: dict[tuple[int, int], Mapping] = {}
    for r in records:
        if r.get("kind") == "round":
            round_records[(int(r.get("trial", 0)), int(r["index"]))] = r

    mismatches: list[str] = []
    checked = 0
    for rr in replayed:
        where = f"trial {rr.trial} round {rr.round}"
        if rr.closed:
            checked += 1
            if rr.makespan != rr.claimed_makespan:
                mismatches.append(
                    f"{where}: replayed makespan {rr.makespan} != engine's "
                    f"claimed {rr.claimed_makespan}"
                )
        record = round_records.get((rr.trial, rr.round))
        if record is None:
            continue
        checked += 1
        tallies = {"delivered": 0, "eliminated": 0, "truncated": 0, "faulted": 0}
        for o in rr.outcomes.values():
            if o.delivered:
                tallies["delivered"] += 1
            else:
                tallies[o.failure.value] += 1
        expected = {
            "active_before": len(rr.outcomes),
            **tallies,
            "acked": len(rr.acked),
        }
        for fieldname, value in expected.items():
            if int(record[fieldname]) != value:
                mismatches.append(
                    f"{where}: replayed {fieldname}={value} != recorded "
                    f"{record[fieldname]}"
                )
        if rr.closed:
            observed = max(rr.makespan or 0, rr.ack_span) + 1
            if int(record["observed_span"]) != observed:
                mismatches.append(
                    f"{where}: replayed observed_span={observed} != recorded "
                    f"{record['observed_span']}"
                )
    return ReplayReport(
        rounds_replayed=len(replayed),
        rounds_checked=checked,
        mismatches=tuple(mismatches),
    )


@dataclass
class LinkStats:
    """Aggregate flight statistics for one directed link."""

    link: tuple
    crossings: int = 0
    busy_steps: int = 0
    conflicts: int = 0
    worms: set = field(default_factory=set)
    by_wavelength: dict = field(default_factory=dict)


def link_stats(rounds: Sequence[ReplayedRound]) -> dict[tuple, LinkStats]:
    """Per-link utilization and contention over replayed rounds.

    ``busy_steps`` sums the (truncation-capped) occupancy windows, so it
    is the number of step-slots the link actually carried flits;
    ``conflicts`` counts eliminations, truncations and faults decided at
    the link. ``by_wavelength`` splits busy steps per channel.
    """
    stats: dict[tuple, LinkStats] = {}
    for rr in rounds:
        for occ in rr.occupations:
            s = stats.get(occ.link)
            if s is None:
                s = stats[occ.link] = LinkStats(link=occ.link)
            s.crossings += 1
            s.busy_steps += occ.end - occ.entry + 1
            s.worms.add(occ.worm)
            s.by_wavelength[occ.wavelength] = (
                s.by_wavelength.get(occ.wavelength, 0) + occ.end - occ.entry + 1
            )
        for ev in rr.conflicts:
            link = _freeze(ev["link"])
            s = stats.get(link)
            if s is None:
                s = stats[link] = LinkStats(link=link)
            s.conflicts += 1
    return stats


def hotspots(
    stats: Mapping[tuple, LinkStats], top: int = 10
) -> list[LinkStats]:
    """The ``top`` links ranked by conflicts, then busy steps."""
    ranked = sorted(
        stats.values(),
        key=lambda s: (-s.conflicts, -s.busy_steps, str(s.link)),
    )
    return ranked[:top]


def measured_congestion(source, trial: int | None = None) -> dict[tuple[int, int], dict]:
    """The measured congestion C̃ per wavelength, per recorded round.

    Counts, for each (directed link, wavelength) pair, the worms whose
    *intended* path uses the link on the wavelength they drew this round
    -- the paper's congestion, measured on the actually-launched subset.
    Requires ``worm_def`` records (the protocol's recorder emits them).
    Returns ``{(trial, round): {"per_wavelength": {wl: C̃_wl}, "overall": C̃}}``.
    """
    records = _records(source)
    paths: dict[int, list[tuple]] = {}
    launches: dict[tuple[int, int], list[Mapping]] = {}
    for r in records:
        kind = r.get("kind")
        if kind == "worm_def":
            path = [_freeze(n) for n in r["path"]]
            paths[int(r["worm"])] = list(zip(path, path[1:]))
        elif kind == "worm_launch":
            tr = int(r.get("trial", 0))
            if trial is not None and tr != trial:
                continue
            launches.setdefault((tr, int(r.get("round", 0))), []).append(r)

    out: dict[tuple[int, int], dict] = {}
    for key in sorted(launches):
        counts: dict[tuple, dict[int, int]] = {}
        for launch in launches[key]:
            uid = int(launch["worm"])
            links = paths.get(uid)
            if links is None:
                raise ValueError(
                    f"no worm_def record for worm {uid}; congestion needs the "
                    "intended paths (record via the protocol's flight recorder)"
                )
            wl = launch["wavelength"]
            per_link_wl = (
                [int(w) for w in wl]
                if isinstance(wl, (list, tuple))
                else [int(wl)] * len(links)
            )
            for link, w in zip(links, per_link_wl):
                by_wl = counts.setdefault(link, {})
                by_wl[w] = by_wl.get(w, 0) + 1
        per_wavelength: dict[int, int] = {}
        for by_wl in counts.values():
            for w, c in by_wl.items():
                if c > per_wavelength.get(w, 0):
                    per_wavelength[w] = c
        out[key] = {
            "per_wavelength": dict(sorted(per_wavelength.items())),
            "overall": max(per_wavelength.values(), default=0),
        }
    return out


def worm_history(
    rounds: Sequence[ReplayedRound], worm: int
) -> list[dict]:
    """One worm's critical path: its per-round trajectory and fate."""
    history = []
    for rr in rounds:
        outcome = rr.outcomes.get(worm)
        if outcome is None:
            continue
        if outcome.delivered:
            fate = "delivered"
        elif outcome.failure is FailureKind.TRUNCATED:
            fate = f"truncated to {outcome.delivered_flits} flits"
        else:
            fate = f"{outcome.failure.value} at link {outcome.failed_at_link}"
        history.append(
            {
                "trial": rr.trial,
                "round": rr.round,
                "fate": fate,
                "completion_time": outcome.completion_time,
                "blockers": outcome.blockers,
                "occupations": [o for o in rr.occupations if o.worm == worm],
                "conflicts": [
                    ev for ev in rr.conflicts if int(ev["worm"]) == worm
                ],
            }
        )
    return history


# -- rendering ---------------------------------------------------------------

_MARK_RANK = {".": 0, "=": 1, "v": 2, "F": 3, "X": 4}


def _fate_label(outcome: WormOutcome) -> str:
    if outcome.delivered:
        return "ok"
    if outcome.failure is FailureKind.TRUNCATED:
        return f"trunc:{outcome.delivered_flits}"
    if outcome.failure is FailureKind.FAULTED:
        return f"fault@{outcome.failed_at_link}"
    return f"elim@{outcome.failed_at_link}"


def render_timeline(
    rr: ReplayedRound, width: int = 72, max_worms: int = 32
) -> str:
    """ASCII timeline of one replayed round: one row per worm.

    ``=`` marks steps where the worm occupied some link, ``X`` an
    elimination, ``v`` a truncation, ``F`` a fault; long rounds are
    compressed to ``width`` columns (each column shows its most severe
    mark).
    """
    span = rr.makespan if rr.makespan is not None else 0
    for ev in rr.conflicts:
        span = max(span, int(ev["t"]))
    n_cols = span + 1
    scale = max(1, -(-n_cols // width))  # ceil division
    lines = [
        f"trial {rr.trial} round {rr.round}: {len(rr.outcomes)} worm(s), "
        f"makespan {rr.makespan}"
        + (f", 1 col = {scale} steps" if scale > 1 else "")
    ]
    shown = 0
    for uid in sorted(rr.outcomes):
        if shown >= max_worms:
            lines.append(f"... {len(rr.outcomes) - shown} more worm(s) omitted")
            break
        shown += 1
        row = ["."] * n_cols
        for occ in rr.occupations:
            if occ.worm != uid:
                continue
            for t in range(occ.entry, occ.end + 1):
                row[t] = "="
        for ev in rr.conflicts:
            if int(ev["worm"]) != uid:
                continue
            mark = {"worm_eliminate": "X", "worm_truncate": "v", "worm_fault": "F"}[
                ev["kind"]
            ]
            t = int(ev["t"])
            if _MARK_RANK[mark] > _MARK_RANK[row[t]]:
                row[t] = mark
        if scale > 1:
            row = [
                max(row[i : i + scale], key=_MARK_RANK.__getitem__)
                for i in range(0, n_cols, scale)
            ]
        label = _fate_label(rr.outcomes[uid])
        lines.append(f"  w{uid:<5} {label:<9} |{''.join(row)}|")
    return "\n".join(lines)


def render_links(
    stats: Mapping[tuple, LinkStats], top: int = 20, width: int = 30
) -> str:
    """ASCII link heatmap: busiest links with utilization and conflict bars."""
    if not stats:
        return "no link occupations recorded"
    ranked = sorted(
        stats.values(), key=lambda s: (-s.busy_steps, -s.conflicts, str(s.link))
    )[:top]
    peak = max(s.busy_steps for s in ranked) or 1
    label_w = max(len(_link_label(s.link)) for s in ranked)
    lines = [
        f"{'link':<{label_w}}  {'busy':>6} {'cross':>6} {'worms':>6} "
        f"{'confl':>6}  heat"
    ]
    for s in ranked:
        bar = "#" * max(1, round(width * s.busy_steps / peak))
        lines.append(
            f"{_link_label(s.link):<{label_w}}  {s.busy_steps:>6} "
            f"{s.crossings:>6} {len(s.worms):>6} {s.conflicts:>6}  {bar}"
        )
    if len(stats) > top:
        lines.append(f"... {len(stats) - top} more link(s)")
    return "\n".join(lines)


def _link_label(link: tuple) -> str:
    a, b = link
    return f"{a}->{b}"


# -- trace-level summaries ---------------------------------------------------


def summarize_trace(source) -> str:
    """Human-readable overview of a run trace (flight-aware)."""
    records = _records(source)
    by_kind: dict[str, int] = {}
    for r in records:
        by_kind[r.get("kind", "?")] = by_kind.get(r.get("kind", "?"), 0) + 1
    lines = []
    manifest = next((r for r in records if r.get("kind") == "manifest"), None)
    if manifest is not None:
        lines.append(
            f"run: command={manifest.get('command', '?')} "
            f"seed={manifest.get('seed', '?')} git={manifest.get('git_rev') or 'n/a'} "
            f"python={manifest.get('python', '?')}"
        )
    lines.append(
        "records: "
        + ", ".join(f"{k}={by_kind[k]}" for k in sorted(by_kind))
    )
    for summary in (r for r in records if r.get("kind") == "trial"):
        lines.append(
            f"trial {summary.get('trial', 0)}: "
            f"{'completed' if summary.get('completed') else 'incomplete'} in "
            f"{summary.get('rounds')} round(s), "
            f"{len(summary.get('delivered_round', {}))} delivered, "
            f"total time {summary.get('total_time')} steps"
        )
    if any(r.get("kind") == "worm_launch" for r in records):
        report = verify_replay(records)
        verdict = (
            "OK (bit-identical)"
            if report.ok
            else f"FAILED: {'; '.join(report.mismatches[:5])}"
        )
        lines.append(
            f"flight recording: {report.rounds_replayed} round(s) replayed, "
            f"{report.rounds_checked} check(s); replay verification {verdict}"
        )
        rounds = replay_rounds(records)
        stats = link_stats(rounds)
        if stats:
            worst = hotspots(stats, top=3)
            lines.append(
                "contention hot-spots: "
                + ", ".join(
                    f"{_link_label(s.link)} ({s.conflicts} conflicts, "
                    f"{s.busy_steps} busy steps)"
                    for s in worst
                )
            )
        congestion = measured_congestion(records)
        if congestion:
            first = congestion[min(congestion)]
            lines.append(
                f"measured congestion (first round): overall C={first['overall']}, "
                "per wavelength "
                + ", ".join(
                    f"{w}:{c}" for w, c in first["per_wavelength"].items()
                )
            )
    else:
        lines.append("flight recording: none (aggregate trace only)")
    return "\n".join(lines)


def diff_traces(a_source, b_source) -> list[str]:
    """Material differences between two traces (empty list = equivalent).

    Compares manifests (command/seed/config identity), per-trial
    summaries, per-round aggregates, and -- when both traces carry
    flight recordings -- the replayed per-worm fates.
    """
    a_records, b_records = _records(a_source), _records(b_source)
    diffs: list[str] = []

    def _manifest(records):
        return next((r for r in records if r.get("kind") == "manifest"), {})

    ma, mb = _manifest(a_records), _manifest(b_records)
    for key in sorted((set(ma) | set(mb)) - {"started_unix", "git_rev", "python"}):
        if ma.get(key) != mb.get(key):
            diffs.append(f"manifest.{key}: {ma.get(key)!r} != {mb.get(key)!r}")

    def _by_trial(records, kind):
        return {int(r.get("trial", 0)): r for r in records if r.get("kind") == kind}

    ta, tb = _by_trial(a_records, "trial"), _by_trial(b_records, "trial")
    if set(ta) != set(tb):
        diffs.append(f"trials: {sorted(ta)} != {sorted(tb)}")
    for trial in sorted(set(ta) & set(tb)):
        for key in ("completed", "rounds", "total_time", "observed_time"):
            if ta[trial].get(key) != tb[trial].get(key):
                diffs.append(
                    f"trial {trial}.{key}: {ta[trial].get(key)} != "
                    f"{tb[trial].get(key)}"
                )
        da = ta[trial].get("delivered_round", {})
        db = tb[trial].get("delivered_round", {})
        if da != db:
            moved = sorted(
                set(da) ^ set(db)
            ) or sorted(k for k in da if da[k] != db.get(k))
            diffs.append(
                f"trial {trial}.delivered_round differs for "
                f"{len(moved)} worm(s): {moved[:8]}"
            )

    def _round_key(records):
        return {
            (int(r.get("trial", 0)), int(r["index"])): r
            for r in records
            if r.get("kind") == "round"
        }

    ra, rb = _round_key(a_records), _round_key(b_records)
    for key in sorted(set(ra) & set(rb)):
        for fieldname in ("delivered", "eliminated", "truncated", "faulted", "delay_range"):
            if ra[key].get(fieldname) != rb[key].get(fieldname):
                diffs.append(
                    f"trial {key[0]} round {key[1]}.{fieldname}: "
                    f"{ra[key].get(fieldname)} != {rb[key].get(fieldname)}"
                )

    if any(r.get("kind") == "worm_launch" for r in a_records) and any(
        r.get("kind") == "worm_launch" for r in b_records
    ):
        fa = {(rr.trial, rr.round): rr for rr in replay_rounds(a_records)}
        fb = {(rr.trial, rr.round): rr for rr in replay_rounds(b_records)}
        for key in sorted(set(fa) & set(fb)):
            rra, rrb = fa[key], fb[key]
            if rra.makespan != rrb.makespan:
                diffs.append(
                    f"trial {key[0]} round {key[1]}.makespan: "
                    f"{rra.makespan} != {rrb.makespan}"
                )
            changed = [
                uid
                for uid in sorted(set(rra.outcomes) & set(rrb.outcomes))
                if rra.outcomes[uid] != rrb.outcomes[uid]
            ]
            if changed:
                diffs.append(
                    f"trial {key[0]} round {key[1]}: {len(changed)} worm "
                    f"outcome(s) differ: {changed[:8]}"
                )
    return diffs


# -- span profiles and streaming windows ------------------------------------

_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def _fmt_seconds(value: float) -> str:
    """Seconds with an adaptive unit (s / ms / us), 3 significant digits."""
    if value >= 1.0:
        return f"{value:.3f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.3f}ms"
    return f"{value * 1e6:.1f}us"


def render_spans(snapshot: Mapping, *, top: int = 5) -> str:
    """Render a span-profile snapshot as an ASCII flame view.

    ``snapshot`` is a :meth:`~repro.observability.spans.SpanProfile.snapshot`
    dict (path -> count/total/self/min/max). The flame section indents
    each span under its parent with a bar scaled to its share of the
    root spans' total wall time; ``top`` > 0 appends a table of the
    ``top`` spans ranked by *self* time, which is where optimisation
    effort should go.
    """
    if not snapshot:
        return "no spans recorded"
    paths = list(snapshot)
    root_total = sum(
        snapshot[p]["total"] for p in paths if "/" not in p
    ) or max(s["total"] for s in snapshot.values())
    name_width = max(
        len("  " * p.count("/") + p.rsplit("/", 1)[-1]) for p in paths
    )
    name_width = max(name_width, len("span"))
    lines = [
        f"{'span':<{name_width}}  {'count':>7}  {'total':>10}  "
        f"{'self':>10}  share"
    ]
    for path in paths:  # snapshot order: parents sort before children
        stats = snapshot[path]
        depth = path.count("/")
        label = "  " * depth + path.rsplit("/", 1)[-1]
        share = stats["total"] / root_total if root_total else 0.0
        bar = _SPARK_BLOCKS[-1] * max(1, round(share * 20)) if share else ""
        lines.append(
            f"{label:<{name_width}}  {stats['count']:>7}  "
            f"{_fmt_seconds(stats['total']):>10}  "
            f"{_fmt_seconds(stats['self']):>10}  {share:>5.1%} {bar}"
        )
    if top > 0:
        ranked = sorted(
            paths, key=lambda p: snapshot[p]["self"], reverse=True
        )[:top]
        lines.append("")
        lines.append(f"top {len(ranked)} by self time:")
        for path in ranked:
            stats = snapshot[path]
            lines.append(
                f"  {_fmt_seconds(stats['self']):>10}  {path} "
                f"(count {stats['count']}, mean "
                f"{_fmt_seconds(stats['total'] / stats['count'])})"
            )
    return "\n".join(lines)


def sparkline(values: Sequence, *, width: int = 60) -> str:
    """A unicode block sparkline of ``values`` (None plots as the minimum).

    Series longer than ``width`` are downsampled by bucket means so the
    line never overflows a terminal row; an empty series renders empty.
    """
    vals = [0.0 if v is None else float(v) for v in values]
    if not vals:
        return ""
    if len(vals) > width:
        bucketed = []
        for i in range(width):
            lo = i * len(vals) // width
            hi = max(lo + 1, (i + 1) * len(vals) // width)
            chunk = vals[lo:hi]
            bucketed.append(sum(chunk) / len(chunk))
        vals = bucketed
    lo, hi = min(vals), max(vals)
    span = hi - lo
    if span <= 0:
        return _SPARK_BLOCKS[0] * len(vals)
    return "".join(
        _SPARK_BLOCKS[min(7, int((v - lo) / span * 8))] for v in vals
    )


def format_window(window: Mapping) -> str:
    """One streaming window snapshot as a single aligned stat row."""
    p95 = window.get("latency_p95")
    return (
        f"window {window['window']:>3}  "
        f"rounds {window['start_round']:>4}-{window['end_round']:<4}  "
        f"thr {window['throughput']:>6.2f}/rd  "
        f"drop {window['drop_rate']:>6.1%}  "
        f"active {window['active']:>4}  "
        f"p95 {('%d rd' % p95) if p95 is not None else '  --'}"
    )


def render_windows(windows: Sequence[Mapping], *, width: int = 60) -> str:
    """A sparkline dashboard over a sequence of window snapshots.

    One row per tracked series (throughput, drop rate, active worms,
    p95 admission latency): sparkline, then the latest / min / max
    values. ``repro scenario run --watch`` redraws this every window.
    """
    if not windows:
        return "no windows yet"
    last = windows[-1]
    header = (
        f"{len(windows)} window(s), rounds "
        f"{windows[0]['start_round']}-{last['end_round']} "
        f"(every {last['rounds']} rd)"
    )
    series = (
        ("throughput", "thr/rd", "{:.2f}"),
        ("drop_rate", "drop", "{:.1%}"),
        ("active", "active", "{:.0f}"),
        ("latency_p95", "p95 rd", "{:.0f}"),
    )
    lines = [header]
    for key, label, fmt in series:
        vals = [w.get(key) for w in windows]
        known = [v for v in vals if v is not None]
        if not known:
            lines.append(f"{label:>7} {'-' * 3}")
            continue
        latest = fmt.format(known[-1])
        lines.append(
            f"{label:>7} {sparkline(vals, width=width)}  "
            f"last {latest}  min {fmt.format(min(known))}  "
            f"max {fmt.format(max(known))}"
        )
    return "\n".join(lines)
