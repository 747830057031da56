"""Worm records: routing requests, per-round launches, and outcomes."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "Worm",
    "Launch",
    "LaunchColumns",
    "WormOutcome",
    "FailureKind",
    "make_worms",
]


class FailureKind(enum.Enum):
    """Why a worm failed to be delivered in a round.

    ``ELIMINATED`` -- the head was cut at some coupler (serve-first loss,
    or losing an arrival-side priority conflict). ``TRUNCATED`` -- the head
    fragment reached the destination but some tail flits were dumped at a
    coupler along the way (priority rule only), so delivery is incomplete.
    ``FAULTED`` -- the head reached a link that is down this round (fault
    injection; not part of the paper's model, always retried).
    """

    ELIMINATED = "eliminated"
    TRUNCATED = "truncated"
    FAULTED = "faulted"


@dataclass(frozen=True)
class Worm:
    """One routing request: send ``length`` flits along ``path``.

    ``path`` is the node sequence; the worm traverses the directed links
    ``(path[i], path[i+1])``. ``uid`` indexes the worm inside its path
    collection and doubles as the engine's worm handle.
    """

    uid: int
    path: tuple
    length: int

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError(f"worm length must be positive, got {self.length}")
        if len(self.path) < 2:
            raise ValueError("a worm path needs at least two nodes (one link)")
        object.__setattr__(self, "path", tuple(self.path))

    @property
    def source(self):
        """The injection node."""
        return self.path[0]

    @property
    def destination(self):
        """The delivery node."""
        return self.path[-1]

    @property
    def n_links(self) -> int:
        """Number of directed links the worm must traverse."""
        return len(self.path) - 1

    def links(self) -> list[tuple]:
        """The directed links of the path, in traversal order."""
        return [(self.path[i], self.path[i + 1]) for i in range(len(self.path) - 1)]


@dataclass(frozen=True)
class Launch:
    """The randomness a worm draws for one round of trial-and-failure.

    The head enters link ``i`` (0-based) of the path at time
    ``delay + i``; flit ``j`` crosses link ``i`` during step
    ``delay + i + j``.

    ``wavelength`` is a single channel index in the paper's model (no
    wavelength conversion). A tuple of per-link channel indices models
    conversion-capable routers -- the Cypher-et-al.-style baseline the
    paper compares against.
    """

    worm: int
    delay: int
    wavelength: int | tuple[int, ...]
    priority: int = 0

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")
        if isinstance(self.wavelength, tuple):
            if not self.wavelength or any(w < 0 for w in self.wavelength):
                raise ValueError(
                    f"per-link wavelengths must be non-empty and >= 0, got {self.wavelength}"
                )
        elif self.wavelength < 0:
            raise ValueError(f"wavelength must be >= 0, got {self.wavelength}")

    def wavelength_at(self, pos: int) -> int:
        """The channel used on path link ``pos``."""
        if isinstance(self.wavelength, tuple):
            return self.wavelength[pos]
        return self.wavelength


@dataclass(frozen=True, eq=False)
class LaunchColumns:
    """One round's launches as parallel int64 columns, row ``i`` per worm.

    The round kernel's native input: the protocol draws a round's
    randomness straight into these arrays, and a sequence of
    :class:`Launch` objects is adapted with :meth:`from_launches`. Rows
    listed in ``per_link`` carry a per-link channel tuple (conversion-
    capable routers); their ``wavelength`` entry is ignored.
    Unlike :class:`Launch`, nothing is validated here: the engine checks
    the columns against its worms when it runs the round.
    """

    worm: np.ndarray
    delay: np.ndarray
    wavelength: np.ndarray
    priority: np.ndarray
    per_link: dict[int, tuple[int, ...]] = field(default_factory=dict)

    @classmethod
    def from_launches(cls, launches) -> "LaunchColumns":
        """Columns of launch-shaped objects (``worm``, ``delay``, ...)."""
        worms, delays, wavelengths, priorities = [], [], [], []
        per_link: dict[int, tuple[int, ...]] = {}
        for i, launch in enumerate(launches):
            worms.append(launch.worm)
            delays.append(launch.delay)
            wl = launch.wavelength
            if isinstance(wl, tuple):
                per_link[i] = wl
                wl = 0
            wavelengths.append(wl)
            priorities.append(launch.priority)
        return cls(
            np.array(worms, dtype=np.int64),
            np.array(delays, dtype=np.int64),
            np.array(wavelengths, dtype=np.int64),
            np.array(priorities, dtype=np.int64),
            per_link,
        )

    def __len__(self) -> int:
        return self.worm.shape[0]

    def __iter__(self) -> Iterator[Launch]:
        """The rows as :class:`Launch` objects, in row order."""
        per_link = self.per_link
        for i, (uid, delay, wl, priority) in enumerate(
            zip(
                self.worm.tolist(),
                self.delay.tolist(),
                self.wavelength.tolist(),
                self.priority.tolist(),
            )
        ):
            yield Launch(uid, delay, per_link.get(i, wl), priority)


@dataclass(frozen=True)
class WormOutcome:
    """What happened to one worm in one round.

    ``delivered_flits`` counts the flits that reached the destination
    (equals the worm length iff ``delivered``). ``failed_at_link`` is the
    0-based path-link index where the head was cut (``None`` unless the
    failure kind is ``ELIMINATED``). ``blockers`` lists the uids of worms
    whose transmissions caused this worm's failure events, in event order
    -- this is the raw material for witness-tree extraction (Section 2.1).
    ``completion_time`` is the step during which the last delivered flit
    arrived (``None`` if nothing arrived).
    """

    worm: int
    delivered: bool
    delivered_flits: int
    failure: FailureKind | None = None
    failed_at_link: int | None = None
    completion_time: int | None = None
    blockers: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.delivered and self.failure is not None:
            raise ValueError("a delivered worm cannot carry a failure kind")
        if not self.delivered and self.failure is None:
            raise ValueError("a failed worm must carry a failure kind")
        if self.delivered_flits < 0:
            raise ValueError("delivered_flits cannot be negative")


def make_worms(paths: Sequence[Sequence], length: int) -> list[Worm]:
    """Build one worm of ``length`` flits per path, uids in path order."""
    return [Worm(uid=i, path=tuple(p), length=length) for i, p in enumerate(paths)]
