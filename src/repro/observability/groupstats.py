"""Bounded-memory grouped statistics with deterministic, mergeable quantiles.

A million-trial sweep cannot afford one histogram bucket per observed
value, and the unbounded per-trial lists the experiment layer keeps
would grow without limit. :class:`GroupedStats` is the bounded-memory
answer: per *group* (a small label dict, canonically (workload,
backend, fault-model, scenario)) and per *field* (``rounds``,
``makespan``, ``latency``, ...) it keeps exact ``count/sum/min/max``
plus a fixed-size sample for p50/p95/p99 estimation.

The sample is not the classic algorithm-R reservoir (whose contents
depend on arrival order and on an RNG stream): each observation gets a
deterministic *tag* -- a keyed hash of its caller-supplied ``uid`` --
and the sample keeps the ``cap`` observations with the smallest tags.
Keep-smallest is associative and commutative, so:

* the sample is independent of observation order;
* :meth:`GroupedStats.merge` of per-shard snapshots yields bit-identical
  results for any merge order and any shard split (``jobs=1`` vs
  ``jobs=N``), mirroring the snapshot/merge contract of
  :class:`~repro.observability.metrics.MetricsRegistry`;
* memory per (group, field) is ``O(cap)`` regardless of how many
  observations stream through.

Because the tag is a hash of the uid, the retained subset is a uniform
pseudo-random sample of the population (for well-spread uids such as
trial seeds), so order-statistic quantiles over it are the usual
reservoir-quality estimates -- and *exact* whenever ``count <= cap``.

The snapshot is a plain, JSON-ready, deterministically ordered dict
(sample entries carry their tags so merging stays order-independent
across process or ledger boundaries); group keys use the escaped
``k=v,k2=v2`` encoding shared with the metrics registry
(:func:`~repro.observability.metrics.parse_label_key` inverts it).
"""

from __future__ import annotations

import hashlib
import math
from bisect import insort
from fractions import Fraction
from typing import Mapping, Sequence

from repro.errors import ObservabilityError
from repro.observability.metrics import _label_key, parse_label_key

__all__ = [
    "DEFAULT_RESERVOIR_CAP",
    "Reservoir",
    "GroupedStats",
    "group_key",
    "order_statistic",
    "parse_group_key",
]

#: Sample entries retained per (group, field); quantiles over more
#: observations than this are reservoir estimates, below it exact.
DEFAULT_RESERVOIR_CAP = 256


def order_statistic(data: Sequence[float], q: float) -> float:
    """The exact ``q``-quantile of sorted ``data``: its ``ceil(q*n)``-th value.

    An order statistic, never an interpolation; ``q=0`` gives the
    minimum. ``data`` must be sorted and non-empty.
    """
    return data[min(len(data) - 1, max(0, math.ceil(q * len(data)) - 1))]


def group_key(labels: Mapping[str, object]) -> str:
    """Canonical escaped ``k=v,...`` string identifying one group."""
    return _label_key(labels)


def parse_group_key(key: str) -> dict[str, str]:
    """Invert :func:`group_key` back into a label dict."""
    return parse_label_key(key)


#: Fixed-point scale for the exact running sum. Every finite double is
#: an integer multiple of 2**-1074 (the smallest subnormal), so sums
#: accumulated at this scale are exact integers -- and integer addition
#: is associative and commutative, which float addition is not. This is
#: what makes the ``sum`` field bit-identical across shard splits and
#: merge orders rather than merely close.
_FP_SCALE = 1 << 1074


def _to_fp(value: float) -> int:
    """The exact fixed-point integer of a finite float."""
    if not math.isfinite(value):
        raise ObservabilityError(
            f"grouped stats require finite observations, got {value!r}"
        )
    return int(Fraction(value) * _FP_SCALE)


def _tag(salt: str, uid: object, value: float) -> str:
    """The deterministic sampling tag of one observation.

    A keyed BLAKE2b digest of ``(salt, uid, value)``: stable across
    processes and Python versions (no ``hash()`` randomisation), and
    collision-free for practical purposes. Observations with the same
    ``(uid, value)`` pair map to the same tag, so re-merging the same
    snapshot never double-fills the sample.
    """
    payload = f"{salt}|{uid!r}|{value!r}".encode("utf-8", "replace")
    return hashlib.blake2b(payload, digest_size=8).hexdigest()


class Reservoir:
    """Fixed-size deterministic sample of a stream, mergeable in any order.

    Keeps exact ``count``/``sum``/``min``/``max`` plus the ``cap``
    observations with the smallest tags (see :func:`_tag`). ``observe``
    requires a caller-supplied ``uid`` uniquely identifying the
    observation (a trial seed, a ``(seed, index)`` pair, ...): identical
    streams produce identical samples no matter how they were sharded
    or in which order shards were merged.
    """

    __slots__ = ("cap", "salt", "count", "_sum_fp", "min", "max", "_sample")

    def __init__(self, cap: int = DEFAULT_RESERVOIR_CAP, salt: str = "") -> None:
        if cap < 1:
            raise ObservabilityError(f"reservoir cap must be >= 1, got {cap}")
        self.cap = cap
        self.salt = salt
        self.count = 0
        self._sum_fp = 0  # exact fixed-point sum (see _FP_SCALE)
        self.min: float | None = None
        self.max: float | None = None
        # sorted list of (tag, value); len <= cap, smallest tags kept
        self._sample: list[tuple[str, float]] = []

    # -- ingestion -----------------------------------------------------------

    def observe(self, value: float, uid: object) -> None:
        """Fold one observation (identified by ``uid``) into the stream."""
        value = float(value)
        self.count += 1
        self._sum_fp += _to_fp(value)
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self._insert(_tag(self.salt, uid, value), value)

    def _insert(self, tag: str, value: float) -> None:
        entry = (tag, value)
        if len(self._sample) >= self.cap and entry >= self._sample[-1]:
            # Full, and this entry loses to everything retained. The
            # comparison must use the full (tag, value) entry -- the
            # same total order ``insort`` keeps -- not the tag alone:
            # on a tag *tie*, a smaller value still beats the current
            # tail, and dropping it here would make the retained set
            # depend on merge/shard order.
            return
        if entry in self._sample:
            return  # same (uid, value) re-merged; keep the sample a set
        insort(self._sample, entry)
        if len(self._sample) > self.cap:
            self._sample.pop()

    # -- aggregation ---------------------------------------------------------

    @property
    def sum(self) -> float:
        """The exact running sum, correctly rounded to a float once."""
        return float(Fraction(self._sum_fp, _FP_SCALE))

    def snapshot(self) -> dict:
        """Plain JSON-ready dict; ``sample`` keeps tags so merges stay exact.

        ``sum_fp`` carries the exact fixed-point sum (a decimal integer
        string, since the value exceeds what a float can hold losslessly)
        so that merging snapshots stays associative; ``sum`` is its
        float rendering for human and JSON consumers.
        """
        return {
            "count": self.count,
            "sum": self.sum,
            "sum_fp": str(self._sum_fp),
            "min": self.min,
            "max": self.max,
            "cap": self.cap,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "sample": [[tag, value] for tag, value in self._sample],
        }

    def merge(self, snapshot: Mapping) -> None:
        """Fold a :meth:`snapshot` in; associative and commutative."""
        self.count += int(snapshot["count"])
        if "sum_fp" in snapshot:
            self._sum_fp += int(snapshot["sum_fp"])
        else:  # legacy snapshot without the exact field
            self._sum_fp += _to_fp(float(snapshot["sum"]))
        for bound, pick in (("min", min), ("max", max)):
            theirs = snapshot[bound]
            if theirs is None:
                continue
            mine = getattr(self, bound)
            setattr(
                self, bound, theirs if mine is None else pick(mine, theirs)
            )
        for tag, value in snapshot["sample"]:
            self._insert(str(tag), float(value))

    # -- inspection ----------------------------------------------------------

    def quantile(self, q: float) -> float | None:
        """Order-statistic quantile over the retained sample (None if empty).

        Exact whenever every observation is still retained
        (``count <= cap``); a deterministic reservoir estimate beyond.
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile q must be in [0, 1], got {q}")
        if not self._sample:
            return None
        return order_statistic(sorted(v for _, v in self._sample), q)

    @property
    def sample_size(self) -> int:
        """How many observations the bounded sample currently retains."""
        return len(self._sample)

    def __repr__(self) -> str:
        return (
            f"<Reservoir count={self.count} sample={len(self._sample)}"
            f"/{self.cap}>"
        )


class GroupedStats:
    """Per-group, per-field bounded accumulators with mergeable quantiles.

    ``observe(group, uid, rounds=17, makespan=204)`` folds one
    observation per keyword field into the group named by the ``group``
    label dict. Snapshots are JSON-ready and deterministically ordered;
    :meth:`merge` folds another snapshot in with order-independent
    results (see the module docstring for the determinism contract).
    Memory is ``O(groups x fields x cap)`` -- independent of the
    observation count, which is what lets a million-trial sweep report
    grouped p50/p95/p99 without unbounded histograms.
    """

    def __init__(self, cap: int = DEFAULT_RESERVOIR_CAP) -> None:
        if cap < 1:
            raise ObservabilityError(f"reservoir cap must be >= 1, got {cap}")
        self.cap = cap
        # group key -> field -> Reservoir
        self._groups: dict[str, dict[str, Reservoir]] = {}

    def _field(self, key: str, field: str) -> Reservoir:
        fields = self._groups.setdefault(key, {})
        acc = fields.get(field)
        if acc is None:
            acc = fields[field] = Reservoir(self.cap, salt=field)
        return acc

    def observe(
        self, group: Mapping[str, object], uid: object, **fields: float
    ) -> None:
        """Fold one observation per field into ``group``.

        ``uid`` must uniquely identify the observation within the whole
        (possibly sharded) stream -- trial child seeds and ``(seed,
        index)`` pairs are the canonical choices. All fields of one call
        share the uid; the per-field salt keeps their tags independent.
        """
        if not fields:
            raise ObservabilityError("observe() needs at least one field")
        key = group_key(group)
        for field, value in fields.items():
            self._field(key, field).observe(value, uid)

    def snapshot(self) -> dict:
        """``{group_key: {field: reservoir snapshot}}``, sorted, JSON-ready."""
        return {
            key: {
                field: fields[field].snapshot()
                for field in sorted(fields)
            }
            for key, fields in sorted(self._groups.items())
        }

    def merge(self, snapshot: Mapping) -> None:
        """Fold a :meth:`snapshot` in (order-independent)."""
        for key, fields in snapshot.items():
            for field, data in fields.items():
                self._field(key, field).merge(data)

    # -- inspection ----------------------------------------------------------

    def groups(self) -> list[str]:
        """The group keys seen so far, sorted."""
        return sorted(self._groups)

    def quantile(
        self, group: Mapping[str, object] | str, field: str, q: float
    ) -> float | None:
        """One group's field quantile (None when the series is absent)."""
        key = group if isinstance(group, str) else group_key(group)
        acc = self._groups.get(key, {}).get(field)
        return None if acc is None else acc.quantile(q)

    def __len__(self) -> int:
        return len(self._groups)

    def __repr__(self) -> str:
        return f"<GroupedStats groups={len(self._groups)} cap={self.cap}>"
