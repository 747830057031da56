"""Path collections and the paper's congestion measures.

A :class:`PathCollection` is a *multiset* of directed paths (node
sequences). Its three performance measures (Section 1.1):

* ``n`` -- the number of paths (one worm each);
* ``dilation`` ``D`` -- the length (in links) of the longest path;
* ``path_congestion`` ``C̃`` -- the maximum over paths ``p`` of the number
  of collection paths sharing a directed link with ``p``. Following the
  paper's type-2 gadget ("structures each consisting of C̃ identical
  paths"), a path counts itself, so ``C̃ >= 1`` always.

``edge_congestion`` is the conventional congestion (max paths over one
directed link), included because the related work (Section 1.2) is stated
in terms of it. Note collisions happen per *directed* link: opposite
traversals of one fiber pair never contend.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from repro.errors import PathError
from repro.network.topology import Topology

__all__ = ["ActiveCongestion", "PathCollection"]


class PathCollection:
    """An immutable multiset of directed paths with cached metrics."""

    def __init__(
        self,
        paths: Iterable[Sequence],
        topology: Topology | None = None,
        require_simple: bool = True,
    ) -> None:
        self._paths: tuple[tuple, ...] = tuple(tuple(p) for p in paths)
        if not self._paths:
            raise PathError("a path collection needs at least one path")
        for i, p in enumerate(self._paths):
            if len(p) < 2:
                raise PathError(f"path {i} has fewer than two nodes: {p!r}")
            if require_simple and len(set(p)) != len(p):
                raise PathError(f"path {i} repeats a node: {p!r}")
        self.topology = topology
        if topology is not None:
            topology.validate_paths(self._paths)

    # -- container protocol ------------------------------------------------

    @property
    def paths(self) -> tuple[tuple, ...]:
        """The paths, in collection order (worm ``uid`` order)."""
        return self._paths

    def __len__(self) -> int:
        return len(self._paths)

    def __iter__(self):
        return iter(self._paths)

    def __getitem__(self, i: int) -> tuple:
        return self._paths[i]

    @property
    def n(self) -> int:
        """Collection size ``n`` (number of paths/worms)."""
        return len(self._paths)

    # -- link bookkeeping ----------------------------------------------------

    @cached_property
    def link_paths(self) -> dict[tuple, list[int]]:
        """Directed link -> sorted list of path ids using it."""
        index: dict[tuple, list[int]] = {}
        for pid, path in enumerate(self._paths):
            for a, b in zip(path, path[1:]):
                index.setdefault((a, b), []).append(pid)
        return index

    @cached_property
    def links(self) -> list[tuple]:
        """All directed links used by at least one path."""
        return list(self.link_paths.keys())

    def paths_on_link(self, link: tuple) -> list[int]:
        """Path ids crossing the directed link (empty if unused)."""
        return list(self.link_paths.get(link, ()))

    # -- the paper's measures -----------------------------------------------

    @cached_property
    def dilation(self) -> int:
        """``D``: the number of links of the longest path."""
        return max(len(p) - 1 for p in self._paths)

    @cached_property
    def min_length(self) -> int:
        """Number of links of the shortest path."""
        return min(len(p) - 1 for p in self._paths)

    @cached_property
    def edge_congestion(self) -> int:
        """Conventional congestion: max paths over one directed link."""
        return max(len(pids) for pids in self.link_paths.values())

    @cached_property
    def per_path_congestion(self) -> np.ndarray:
        """For each path, the number of paths sharing a link with it.

        A path counts itself (see module docstring). Identical paths share
        one computation via memoisation, which makes the type-2 gadgets
        (thousands of identical paths) cheap.
        """
        link_paths = self.link_paths
        cache: dict[tuple, int] = {}
        out = np.empty(len(self._paths), dtype=np.int64)
        for pid, path in enumerate(self._paths):
            cached = cache.get(path)
            if cached is None:
                sharing: set[int] = set()
                for a, b in zip(path, path[1:]):
                    sharing.update(link_paths[(a, b)])
                cached = len(sharing)
                cache[path] = cached
            out[pid] = cached
        return out

    @cached_property
    def path_congestion(self) -> int:
        """``C̃``: the paper's path congestion (max of per-path values)."""
        return int(self.per_path_congestion.max())

    @cached_property
    def mean_path_congestion(self) -> float:
        """Average per-path congestion (used by the application theorems)."""
        return float(self.per_path_congestion.mean())

    @cached_property
    def _sharing(self) -> tuple[np.ndarray, ...]:
        """The static half of :class:`ActiveCongestion`, built on first use.

        Identical paths form one class, so a type-2 gadget's thousands of
        copies cost one row. Returns ``(class_of, sizes, indptr, indices,
        full)``: each path's class, each class's path count, per class
        the classes sharing a directed link with it (itself included) as
        a CSR list, and each class's path congestion with every path
        present.
        """
        ids: dict[tuple, int] = {}
        class_of = [ids.setdefault(path, len(ids)) for path in self._paths]
        # Walk links by position, not by (node, node) key: node tuples
        # hash slowly. When every path is distinct, classes are path ids.
        pids_on = self.link_paths.values()
        on_link = (
            list(pids_on)
            if len(ids) == len(class_of)
            else [{class_of[pid] for pid in pids} for pids in pids_on]
        )
        links_of: list[list[int]] = [[] for _ in ids]
        for lid, classes in enumerate(on_link):
            for c in classes:
                links_of[c].append(lid)
        rows = [
            set(itertools.chain.from_iterable(map(on_link.__getitem__, lids)))
            for lids in links_of
        ]
        lens = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        indptr = np.concatenate(([0], np.cumsum(lens)))
        indices = np.fromiter(
            itertools.chain.from_iterable(rows), dtype=np.int64, count=int(indptr[-1])
        )
        sizes = np.bincount(class_of, minlength=len(rows))
        full = np.add.reduceat(sizes[indices], indptr[:-1])
        return np.array(class_of, dtype=np.int64), sizes, indptr, indices, full

    # -- derived views ---------------------------------------------------------

    def sources(self) -> list:
        """Per-path injection nodes."""
        return [p[0] for p in self._paths]

    def destinations(self) -> list:
        """Per-path delivery nodes."""
        return [p[-1] for p in self._paths]

    def subset(self, path_ids: Sequence[int]) -> "PathCollection":
        """A new collection containing only ``path_ids`` (order preserved).

        The subset keeps this collection's topology; its paths are not
        validated against it again.
        """
        ids = list(path_ids)
        if not ids:
            raise PathError("subset of a path collection cannot be empty")
        sub = PathCollection([self._paths[i] for i in ids], require_simple=False)
        sub.topology = self.topology
        return sub

    def merged_with(self, other: "PathCollection") -> "PathCollection":
        """Concatenate two collections (topology kept only if shared)."""
        merged = PathCollection(self._paths + other.paths, require_simple=False)
        if self.topology is other.topology:
            merged.topology = self.topology
        return merged

    def __repr__(self) -> str:
        return (
            f"<PathCollection n={self.n} D={self.dilation} "
            f"C~={self.path_congestion} C_edge={self.edge_congestion}>"
        )


class ActiveCongestion:
    """Path congestion of a shrinking set of a collection's paths.

    The exact incremental oracle behind Lemma 2.4's observable: every
    path starts present, and each :meth:`measure` names the paths still
    present (a subset of those the previous call named) and returns
    ``collection.subset(ids).path_congestion`` without building the
    subset. It keeps, per class of identical paths, the count of present
    paths sharing a directed link with it; paths that left since the
    previous call decrement the counts of the classes they share a link
    with. The sharing lists are cached on the collection, so every
    oracle over one collection shares them.
    """

    __slots__ = ("_class_of", "_indptr", "_indices", "_present", "_alive", "_counts")

    def __init__(self, collection: PathCollection) -> None:
        self._class_of, sizes, self._indptr, self._indices, full = (
            collection._sharing
        )
        self._present = np.ones(len(self._class_of), dtype=bool)
        self._alive = sizes.copy()
        self._counts = full.copy()

    def measure(self, ids: Sequence[int]) -> int:
        """Path congestion of the paths ``ids`` (0 when there are none)."""
        present = np.zeros_like(self._present)
        present[ids] = True
        gone = self._class_of[self._present & ~present]
        self._present = present
        if gone.size:
            left = np.bincount(gone, minlength=len(self._alive))
            self._alive -= left
            classes = np.flatnonzero(left)
            starts = self._indptr[classes]
            lens = self._indptr[classes + 1] - starts
            # One gather over the CSR rows of every class that lost paths.
            rows = np.repeat(starts - (np.cumsum(lens) - lens), lens)
            rows += np.arange(rows.shape[0])
            self._counts -= np.bincount(
                self._indices[rows],
                weights=np.repeat(left[classes], lens),
                minlength=len(self._counts),
            ).astype(np.int64)
        counts = self._counts[self._alive > 0]
        return int(counts.max()) if counts.size else 0
