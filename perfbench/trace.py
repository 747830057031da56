"""Per-layer attribution for the traced run, timed from outside the program.

:class:`Tracer` wraps public functions and methods of the program at the
name their callers resolve -- a module attribute or a class attribute --
and books each wrapped call's *self* time (its wall time minus the wall
time of wrapped calls nested inside it) to the wrapper's key. A key's
prefix before the first dot is its layer. The wrappers are installed
around traced calls only and removed after each, so untraced calls run
the program unmodified.

A target that no longer exists is recorded in :attr:`Tracer.absent` and
skipped; the metrics whose keys have no installed target are reported
absent, so the benchmark outlives deletions in the program.

The wrapper's own bookkeeping runs outside the interval it books and is
excluded from the caller's self time too: tracing cost shows in
``trace.overhead_frac``, not in any layer.
"""

from __future__ import annotations

import functools
import importlib
import time
import weakref
from collections import Counter, defaultdict

LAYERS = ("runners", "protocol", "paths", "engine", "faults", "scenarios")

#: (wrapper key, "module:attribute path", counting hook). The engine's
#: run_round key is chosen per call: rounds of an ack engine -- the one
#: built from ack_worms()'s list, and its forks -- are engine.ack_round.
#: FaultRun.dead_links is wrapped on every subclass that defines it,
#: since a fault run resolves it on its own (possibly private) class.
TARGETS = (
    ("runners.route_collection_trials", "repro.runners:route_collection_trials", None),
    ("protocol.setup", "repro.core.protocol:TrialAndFailureProtocol.__init__", None),
    ("protocol.run", "repro.core.protocol:TrialAndFailureProtocol.run", "_after_trials"),
    ("protocol.run", "repro.core.protocol:run_protocol_batch", "_after_trials"),
    ("worms.ack", "repro.core.protocol:ack_worms", "_after_ack_worms"),
    ("paths.collection", "repro.paths.collection:PathCollection.__init__", None),
    ("paths.subset", "repro.paths.collection:PathCollection.subset", "_after_subset"),
    ("paths.congestion", "repro.paths.collection:PathCollection.path_congestion", None),
    ("paths.congestion", "repro.paths.collection:PathCollection.per_path_congestion", None),
    (
        "paths.batch_oracle",
        "repro.paths.collection:PathCollection.subset_congestion_batch",
        None,
    ),
    ("engine.build", "repro.core.engine:RoutingEngine.__init__", "_after_build"),
    ("engine.fork", "repro.core.engine:RoutingEngine.fork", "_after_fork"),
    ("engine.round", "repro.core.engine:RoutingEngine.run_round", "_after_round"),
    ("engine.batch", "repro.core.protocol:run_round_batch", "_after_batch"),
    ("faults.reroute", "repro.core.protocol:reroute_path", None),
    ("faults.reroute", "repro.core.protocol:surviving_graph", None),
    ("faults.reroute", "repro.core.protocol:collection_links", None),
    ("faults.dead_links", "repro.faults.models:FaultRun.dead_links", None),
    ("scenarios.run_scenario", "repro.scenarios:run_scenario", None),
    ("scenarios.run", "repro.scenarios.engine:StreamingEngine.run", "_after_stream"),
)


def _resolve(target: str):
    """``"module:Class.attr"`` -> (owner, attr), or None when missing."""
    modname, _, qual = target.partition(":")
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return None
    *path, attr = qual.split(".")
    for name in path:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


class Tracer:
    """Self time and counts per wrapper key, over the traced calls.

    ``delay`` optionally names one wrapper key and a number of seconds
    to busy-wait inside that wrapper's booked interval on every call:
    the self-test's injected slowdown.
    """

    def __init__(self, delay: tuple[str, float] | None = None) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.installed: set[str] = set()  # keys with at least one target
        self.absent: set[str] = set()  # targets that do not exist
        self._delay = delay
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._ack_list = None
        self._ack_engines: weakref.WeakSet = weakref.WeakSet()
        self._links: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def layer_self_s(self, layer: str) -> float:
        return sum(s for k, s in self.self_s.items() if k.split(".")[0] == layer)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, key, after=None):
        stack = self._stack
        delay = self._delay

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = time.perf_counter()
            k = key(args) if callable(key) else key
            frame = [0.0]
            stack.append(frame)
            try:
                t0 = time.perf_counter()
                try:
                    if delay is not None and delay[0] == k:
                        end = t0 + delay[1]
                        while time.perf_counter() < end:
                            pass
                    result = fn(*args, **kwargs)
                finally:
                    t1 = time.perf_counter()
                    stack.pop()
                    self.self_s[k] += t1 - t0 - frame[0]
                    self.calls[k] += 1
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                if stack:
                    stack[-1][0] += time.perf_counter() - t_in

        return wrapper

    def _patch(self, target: str, key, after) -> bool:
        found = _resolve(target)
        if found is None:
            self.absent.add(target)
            return False
        owner, attr = found
        raw = vars(owner)[attr]
        if isinstance(raw, functools.cached_property):
            new = functools.cached_property(self._wrap(raw.func, key, after))
            new.__set_name__(owner, attr)
        elif isinstance(raw, property):
            new = property(self._wrap(raw.fget, key, after), raw.fset, raw.fdel)
        else:
            new = self._wrap(raw, key, after)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)
        return True

    def install(self) -> None:
        """Wrap every target; call :meth:`uninstall` after the traced call."""
        for key, target, hook in TARGETS:
            after = getattr(self, hook) if hook else None
            wrap_key = self._round_key if key == "engine.round" else key
            if not self._patch(target, wrap_key, after):
                continue
            self.installed.add(key)
            if key == "faults.dead_links":
                base, _ = _resolve(target)
                todo = base.__subclasses__()
                while todo:
                    cls = todo.pop()
                    todo.extend(cls.__subclasses__())
                    if "dead_links" in vars(cls):
                        name = f"{cls.__module__}:{cls.__qualname__}.dead_links"
                        self._patch(name, key, None)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- counting hooks ------------------------------------------------------

    def _round_key(self, args) -> str:
        return "engine.ack_round" if args[0] in self._ack_engines else "engine.round"

    def _events(self, engine, launches) -> int:
        """Head-arrival events of a round: one per link a launched worm crosses."""
        links = self._links.get(engine)
        try:
            return sum(links[launch.worm] for launch in launches)
        except (KeyError, TypeError):
            links = {uid: len(w.path) - 1 for uid, w in engine.worms.items()}
            self._links[engine] = links
            return sum(links[launch.worm] for launch in launches)

    def _after_round(self, args, kwargs, result) -> None:
        engine = args[0]
        if engine in self._ack_engines:
            return
        launches = _arg(args, kwargs, 1, "launches")
        self.counts["engine.round_events"] += self._events(engine, launches)
        self.counts["engine.launched"] += len(launches)
        self.counts["engine.delivered"] += len(result.delivered)

    def _after_batch(self, args, kwargs, results) -> None:
        calls = _arg(args, kwargs, 0, "calls")
        self.counts["engine.batch_trials"] += len(calls)
        for call, result in zip(calls, results):
            self.counts["engine.batch_events"] += self._events(
                call.engine, call.launches
            )
            self.counts["engine.launched"] += len(call.launches)
            self.counts["engine.delivered"] += len(result.delivered)

    def _after_ack_worms(self, args, kwargs, result) -> None:
        self._ack_list = result

    def _after_build(self, args, kwargs, result) -> None:
        worms = _arg(args, kwargs, 1, "worms")
        if worms is not None and worms is self._ack_list:
            self._ack_engines.add(args[0])

    def _after_fork(self, args, kwargs, clone) -> None:
        if args[0] in self._ack_engines:
            self._ack_engines.add(clone)

    def _after_trials(self, args, kwargs, result) -> None:
        for r in result if isinstance(result, list) else [result]:
            self.counts["protocol.trials"] += 1
            self.counts["protocol.rounds"] += r.rounds
            self.counts["faults.repairs"] += len(r.repairs)
            self.counts["faults.duplicates"] += r.duplicate_deliveries

    def _after_subset(self, args, kwargs, result) -> None:
        self.counts["paths.subset_paths"] += result.n

    def _after_stream(self, args, kwargs, result) -> None:
        self.counts["scenarios.rounds"] += result.rounds
        self.counts["scenarios.admitted"] += result.admitted
