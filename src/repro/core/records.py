"""Result records for rounds and full protocol executions."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.worms.worm import FailureKind, WormOutcome

__all__ = [
    "CollisionKind",
    "CollisionEvent",
    "OutcomeColumns",
    "RoundResult",
    "RoundRecord",
    "RepairEvent",
    "ProtocolResult",
    "DIAG_STRANDED",
    "DIAG_ACK_LOST",
    "DIAG_CONTENTION",
]

#: Per-worm diagnoses attached to incomplete executions: the worm's path
#: crosses a suspected-dead link; the worm was delivered but its
#: acknowledgement never came back; the worm simply kept losing coupler
#: conflicts within the round budget.
DIAG_STRANDED = "stranded-by-dead-link"
DIAG_ACK_LOST = "ack-lost"
DIAG_CONTENTION = "contention-starved"


class CollisionKind(enum.Enum):
    """What a collision did to the blocked worm."""

    ELIMINATED = "eliminated"  # arriving head cut; worm gone from here on
    TRUNCATED = "truncated"  # mid-transmission tail dumped (priority rule)


@dataclass(frozen=True)
class CollisionEvent:
    """One worm losing a coupler conflict to another.

    ``blocked`` lost to ``blocker`` on the directed ``link`` at
    ``wavelength`` during step ``time``; ``link_pos`` is the 0-based index
    of the link on the blocked worm's path. These events are the raw
    material of the witness-tree construction.
    """

    time: int
    link: tuple
    wavelength: int
    blocked: int
    blocker: int
    link_pos: int
    kind: CollisionKind


class OutcomeColumns:
    """A round's per-worm outcomes as parallel arrays, in launch order.

    ``kind`` holds one of the codes below per worm; ``flits`` the
    delivered flit count; ``failed_at`` the path position of a head cut
    (-1 when the head was not cut); ``completion`` the step the last
    delivered flit arrived (-1 when none did). ``blockers`` maps a row
    to its blocker tuple, for the rows that have one. :meth:`outcomes`
    builds the equivalent :class:`WormOutcome` dict.
    """

    DELIVERED, ELIMINATED, TRUNCATED, FAULTED = 0, 1, 2, 3

    __slots__ = ("worm", "kind", "flits", "failed_at", "completion", "blockers")

    def __init__(self, worm, kind, flits, failed_at, completion, blockers):
        self.worm = worm
        self.kind = kind
        self.flits = flits
        self.failed_at = failed_at
        self.completion = completion
        self.blockers = blockers

    def __len__(self) -> int:
        return self.worm.shape[0]

    def counts(self) -> list[int]:
        """Worms per kind code: [delivered, eliminated, truncated, faulted]."""
        return np.bincount(self.kind, minlength=4).tolist()

    def delivered(self) -> list[int]:
        """Uids delivered completely, in launch order."""
        return self.worm[self.kind == self.DELIVERED].tolist()

    def outcomes(self) -> dict[int, WormOutcome]:
        """The per-worm :class:`WormOutcome` dict, in launch order."""
        failures = (
            None, FailureKind.ELIMINATED, FailureKind.TRUNCATED,
            FailureKind.FAULTED,
        )
        blockers = self.blockers
        out: dict[int, WormOutcome] = {}
        for i, (uid, kind, flits, at, done) in enumerate(
            zip(
                self.worm.tolist(),
                self.kind.tolist(),
                self.flits.tolist(),
                self.failed_at.tolist(),
                self.completion.tolist(),
            )
        ):
            out[uid] = WormOutcome(
                worm=uid,
                delivered=kind == 0,
                delivered_flits=flits,
                failure=failures[kind],
                failed_at_link=None if at < 0 else at,
                completion_time=None if done < 0 else done,
                blockers=blockers.get(i, ()),
            )
        return out


class RoundResult:
    """Engine output for one forward pass of launched worms.

    ``outcomes`` maps worm uid to its :class:`WormOutcome`;
    ``collisions`` lists every losing conflict in time order;
    ``makespan`` is the last step during which any flit moved --
    including the dumped tails of eliminated and truncated worms, which
    keep draining through the links upstream of their cut. It is ``None``
    exactly when no flit moved at all: either nothing was launched, or
    every launched worm lost its head entering its very first link.
    ``faulted_links`` lists the dead directed links that actually ate a
    head this round (each once, in event order) -- the evidence stream
    the protocol's link-health monitor accumulates.

    The engine hands its outcomes over as :class:`OutcomeColumns`
    (``columns``); the ``outcomes`` dict is then built the first time it
    is read, so callers that only count or read the columns never pay
    for per-worm objects. A result built from an outcome dict instead
    (the reference simulator, tests) has ``columns`` None.
    """

    __slots__ = ("_outcomes", "columns", "collisions", "makespan",
                 "faulted_links")

    def __init__(
        self,
        outcomes: dict[int, WormOutcome] | None = None,
        collisions: tuple[CollisionEvent, ...] = (),
        makespan: int | None = None,
        faulted_links: tuple[tuple, ...] = (),
        *,
        columns: OutcomeColumns | None = None,
    ) -> None:
        if (outcomes is None) == (columns is None):
            raise ValueError("give exactly one of outcomes and columns")
        self._outcomes = outcomes
        self.columns = columns
        self.collisions = collisions
        self.makespan = makespan
        self.faulted_links = faulted_links

    @property
    def outcomes(self) -> dict[int, WormOutcome]:
        """Per-worm outcomes by uid, in launch order (built on first read)."""
        if self._outcomes is None:
            self._outcomes = self.columns.outcomes()
        return self._outcomes

    def __eq__(self, other) -> bool:
        if not isinstance(other, RoundResult):
            return NotImplemented
        return (
            self.outcomes == other.outcomes
            and self.collisions == other.collisions
            and self.makespan == other.makespan
            and self.faulted_links == other.faulted_links
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"RoundResult(outcomes={self.outcomes!r}, "
            f"collisions={self.collisions!r}, makespan={self.makespan!r}, "
            f"faulted_links={self.faulted_links!r})"
        )

    @property
    def delivered(self) -> list[int]:
        """Uids delivered completely this round."""
        if self.columns is not None:
            return self.columns.delivered()
        return [uid for uid, o in self.outcomes.items() if o.delivered]

    @property
    def failed(self) -> list[int]:
        """Uids that failed this round."""
        return [uid for uid, o in self.outcomes.items() if not o.delivered]

    @property
    def n_delivered(self) -> int:
        """Number of complete deliveries."""
        return len(self.delivered)

    @property
    def n_failed(self) -> int:
        """Number of failures."""
        rows = self.columns if self.columns is not None else self._outcomes
        return len(rows) - self.n_delivered


@dataclass(frozen=True)
class RoundRecord:
    """Protocol-level bookkeeping for one round ``t``.

    ``duration`` is the paper's nominal round budget
    ``Delta_t + 2(D + L)``; ``observed_span`` is the simulated forward
    makespan -- the last step any flit moved, draining tails included --
    (plus ack span in simulated-ack mode). ``active_congestion``
    is the path congestion C̃_t of the worms still active at the *start*
    of the round (the Lemma 2.4 quantity), when tracking is enabled.
    """

    index: int
    delay_range: int
    active_before: int
    delivered: int
    eliminated: int
    truncated: int
    acked: int
    duration: int
    observed_span: int
    active_congestion: int | None = None
    faulted: int = 0


@dataclass(frozen=True)
class RepairEvent:
    """One worm rerouted around suspected-dead links (``repair="reroute"``).

    ``round`` is the round *after* which the repair was applied; the
    lengths are in links. Any repair means the routed collection is no
    longer guaranteed to satisfy the structural invariants (leveled,
    short-cut-free) the original was built with.
    """

    round: int
    worm: int
    old_length: int
    new_length: int


@dataclass(frozen=True)
class ProtocolResult:
    """Outcome of a full trial-and-failure execution.

    ``delivered_round`` maps worm uid to the round (1-based) in which its
    delivery was acknowledged; worms missing from it never finished inside
    ``max_rounds``. ``total_time`` sums the nominal round durations (the
    quantity the theorems bound); ``observed_time`` sums simulated spans.

    Incomplete executions degrade gracefully instead of returning a bare
    ``completed=False``: ``diagnosis`` maps every still-active worm uid
    to one of :data:`DIAG_STRANDED` / :data:`DIAG_ACK_LOST` /
    :data:`DIAG_CONTENTION`, and ``stall_reason`` is a one-line human
    summary. ``repairs`` lists the reroute events a fault-aware run
    applied (empty for ``repair="none"``).
    """

    completed: bool
    rounds: int
    total_time: int
    observed_time: int
    records: tuple[RoundRecord, ...]
    delivered_round: dict[int, int]
    collisions_per_round: tuple[tuple[CollisionEvent, ...], ...] = field(
        default_factory=tuple
    )
    duplicate_deliveries: int = 0
    diagnosis: dict[int, str] = field(default_factory=dict)
    stall_reason: str | None = None
    repairs: tuple[RepairEvent, ...] = field(default_factory=tuple)

    @property
    def n_worms_delivered(self) -> int:
        """How many worms were delivered and acknowledged."""
        return len(self.delivered_round)

    def rounds_histogram(self) -> dict[int, int]:
        """Round index -> number of worms first acknowledged that round."""
        hist: dict[int, int] = {}
        for r in self.delivered_round.values():
            hist[r] = hist.get(r, 0) + 1
        return dict(sorted(hist.items()))
