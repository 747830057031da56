"""Parallel, batched execution of independent Monte-Carlo trials.

Every "w.h.p." statement in the reproduction becomes replicated trials.
:class:`TrialRunner` executes many independent trials, in-process or
across a :class:`concurrent.futures.ProcessPoolExecutor`, while keeping
the *numbers* untouchable:

* each trial is seeded with its own child seed from :func:`spawn_seeds`
  (independent streams, prefix-stable in the trial count), so a trial's
  result depends only on its seed -- never on which worker ran it or in
  which order trials finished;
* results are returned in trial order, making ``jobs=N`` bit-identical
  to serial execution for the same root seed;
* per-trial ``timeout`` and ``retries`` bound a stuck or flaky trial
  (a timed-out attempt is abandoned and resubmitted; the abandoned
  worker finishes in the background);
* a structured :class:`TrialProgress` callback reports completions as
  they happen, for long sweeps that want live feedback.

The trial callable must be picklable for ``jobs > 1`` (a module-level
function, or :func:`functools.partial` over one). Unpicklable callables
-- the closures older experiment code builds -- transparently fall back
to serial execution with a logged warning (logger
``repro.runners.trial``), so ``--jobs`` is always safe to pass.

Two robustness layers on top:

* ``checkpoint=PATH`` makes batches crash-safe: every settled trial's
  result is appended to an atomically rewritten JSON file, and a rerun
  of the same seed batch skips the already-completed indices -- the
  resumed batch returns bit-identical results because each trial
  depends only on its own seed. A checkpoint written for a *different*
  seed batch (fingerprint mismatch) or by a different trial function or
  runner config (context mismatch) is refused rather
  than silently mixing non-comparable results.
* a :class:`~concurrent.futures.process.BrokenProcessPool` (a worker
  killed by the OOM killer, a segfaulting extension, ...), whether seen
  when submitting or when collecting a result, does not abandon the
  batch: the pool is rebuilt and every unsettled trial is resubmitted
  (counted as an attempt), up to a separate rebuild cap so
  ``retries=0`` batches still survive worker crashes.

Both callable shapes -- ``fn(seed)``, and ``fn(seeds)`` under
``batch_size`` -- run through one dispatch loop over *units*: contiguous
slices of the trial indices not yet done, one seed wide for a per-seed
``fn``. A unit is the runner's grain of submission, timeout, retry and
checkpoint write; in-process and pooled execution differ only in how a
unit's output is obtained.

Batch mechanics (trial counts, per-trial latency, retries, timeouts,
pool occupancy, pool rebuilds, checkpoint traffic) are instrumented
through :mod:`repro.observability.metrics`; pass ``metrics=`` or enable
the process default registry to collect them.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import json
import logging
import pathlib
import pickle
import re
import time
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, NoReturn, Sequence

from repro._util import as_generator, durable_write_text
from repro.errors import TrialError
from repro.observability.metrics import MetricsRegistry, get_metrics
from repro.observability.spans import get_profiler

__all__ = ["TrialProgress", "TrialRunner", "spawn_seeds"]

_log = logging.getLogger(__name__)

_CHECKPOINT_VERSION = 2

#: Default object reprs embed the instance address; strip it so the
#: checkpoint context digest is stable across processes.
_HEX_ADDR = re.compile(r"0x[0-9a-fA-F]+")


def _stable_repr(value) -> str:
    return _HEX_ADDR.sub("0x", repr(value))


def _describe_trial_fn(fn) -> str:
    """A stable, process-independent description of a trial callable.

    Unwraps :func:`functools.partial` layers (the standard way experiment
    code binds a collection and config to a module-level trial function)
    and records the innermost callable's module-qualified name plus the
    stable repr of every bound argument. Dataclass configs
    (:class:`~repro.core.protocol.ProtocolConfig` and friends) have full
    value reprs, so a changed config changes the description; instance
    addresses are normalised away so mere re-construction does not.
    """
    parts = []
    while isinstance(fn, functools.partial):
        keywords = dict(sorted((fn.keywords or {}).items()))
        parts.append(
            f"partial(args={_stable_repr(fn.args)}, "
            f"keywords={_stable_repr(keywords)})"
        )
        fn = fn.func
    qualname = getattr(fn, "__qualname__", None) or type(fn).__qualname__
    module = getattr(fn, "__module__", "") or ""
    parts.append(f"{module}:{qualname}")
    return " | ".join(reversed(parts))

#: Default for ``TrialRunner(pool_rebuilds=...)``: how many times one
#: batch tolerates the worker pool breaking before giving up.
#: Deliberately separate from per-trial ``retries`` (a pool break is an
#: infrastructure failure, not a trial failure).
_POOL_REBUILD_LIMIT = 3

#: Sentinel distinguishing "not settled yet" from a legal None result.
_UNSET = object()

#: Per-worker shared state: the unpickled unit function. Populated once
#: per worker process by :func:`_worker_init`; every subsequent submit
#: ships only a seed slice instead of re-pickling the whole closure
#: (worms, topology, engine config) on each unit.
_WORKER_FN: Callable | None = None


def _worker_init(payload: bytes) -> None:
    """Pool initializer: unpickle the unit function once per worker."""
    global _WORKER_FN
    _WORKER_FN = pickle.loads(payload)


def _worker_run_batch(seeds: list[int]):
    """Invoke the worker's shared unit function on a seed slice."""
    assert _WORKER_FN is not None, "worker pool initializer did not run"
    return _WORKER_FN(seeds)


def _each_seed(seeds: list[int], fn: Callable) -> list:
    """A per-seed trial function's unit function: ``fn`` on every seed.

    Bound with :func:`functools.partial`, so it pickles whenever ``fn``
    does; per-seed units hold one seed.
    """
    return [fn(seed) for seed in seeds]


def _pickled(fn: Callable) -> bytes | None:
    """``fn`` pickled for the pool initializer, or None if it cannot be."""
    try:
        return pickle.dumps(fn)
    except Exception:
        return None


def _batch_results(out, unit: Sequence[int]) -> list:
    """Validate a batch trial function's return value (one result per seed)."""
    try:
        out = list(out)
    except TypeError as exc:
        raise TrialError(
            f"batch trial function returned non-iterable "
            f"{type(out).__name__!r} for trials "
            f"{unit[0]}..{unit[-1]}"
        ) from exc
    if len(out) != len(unit):
        raise TrialError(
            f"batch trial function returned {len(out)} result(s) for "
            f"{len(unit)} seed(s) (trials {unit[0]}..{unit[-1]})"
        )
    return out


class _Checkpoint:
    """Crash-safe journal of settled trial results for one seed batch.

    The file is a single JSON object ``{"version", "fingerprint",
    "context", "completed": {index: base64(pickle(result))}}`` rewritten
    atomically (temp file + :func:`os.replace`) after every settled
    trial, so a kill at any instant leaves either the previous or the
    next consistent state -- never a torn file. The fingerprint hashes
    the seed list and the context digest hashes the trial function's
    description plus the runner config, together binding the checkpoint
    to its batch: resuming with different seeds or a different trial
    function/config raises instead of silently mixing non-comparable
    results.
    """

    def __init__(
        self,
        path: str | pathlib.Path,
        seeds: Sequence[int],
        context: str = "",
    ) -> None:
        self.path = pathlib.Path(path)
        self.fingerprint = hashlib.sha256(
            json.dumps(list(seeds)).encode("ascii")
        ).hexdigest()
        self.context = hashlib.sha256(context.encode("utf-8")).hexdigest()
        self.completed: dict[int, object] = {}

    def load(self) -> dict[int, object]:
        """Read previously settled results (empty when no file yet)."""
        if not self.path.exists():
            return {}
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise TrialError(
                f"checkpoint {self.path} is unreadable: {exc}"
            ) from exc
        if data.get("version") != _CHECKPOINT_VERSION:
            raise TrialError(
                f"checkpoint {self.path} has schema version "
                f"{data.get('version')!r}, expected {_CHECKPOINT_VERSION}"
            )
        if data.get("fingerprint") != self.fingerprint:
            raise TrialError(
                f"checkpoint {self.path} was written for a different seed "
                "batch (fingerprint mismatch); delete it or rerun with the "
                "original seeds"
            )
        if data.get("context") != self.context:
            raise TrialError(
                f"checkpoint {self.path} was written by a different trial "
                "function or runner config (context mismatch); its results "
                "are not comparable -- delete it or rerun with the original "
                "setup"
            )
        self.completed = {
            int(i): pickle.loads(base64.b64decode(blob))
            for i, blob in data.get("completed", {}).items()
        }
        return dict(self.completed)

    def record_many(self, indices: Sequence[int], results: Sequence) -> None:
        """Persist one settled unit (atomic, fsynced full rewrite).

        The file contents depend only on the completed-trials map, so the
        final checkpoint is byte-identical for any unit width -- a wider
        unit just amortises the rewrite.

        Durability matters as much as atomicity here: the sweep layer's
        whole resume story assumes a checkpoint visible on disk really
        holds its trials, so the temp file and its directory entry are
        both fsynced before the ``os.replace`` -- a ``kill -9`` (or
        power cut) at any instant leaves either the previous or the next
        valid JSON, never a torn file.
        """
        for i, r in zip(indices, results):
            self.completed[i] = r
        self._flush()

    def _flush(self) -> None:
        payload = {
            "version": _CHECKPOINT_VERSION,
            "fingerprint": self.fingerprint,
            "context": self.context,
            "completed": {
                str(i): base64.b64encode(pickle.dumps(r)).decode("ascii")
                for i, r in sorted(self.completed.items())
            },
        }
        durable_write_text(self.path, json.dumps(payload))


def spawn_seeds(seed, n: int) -> list[int]:
    """``n`` independent child seeds derived from ``seed``.

    Prefix-stable: growing ``n`` never changes earlier seeds, so adding
    trials to a sweep cannot perturb already published numbers.
    """
    rng = as_generator(seed)
    return [int(s) for s in rng.integers(0, 2**63 - 1, size=n)]


@dataclass(frozen=True)
class TrialProgress:
    """One completed (or finally failed) trial, reported as it lands.

    ``index`` is the trial's position in the batch (0-based), ``seed``
    its child seed, ``attempts`` how many submissions it took (1 =
    first try), ``done``/``total`` the batch completion counters and
    ``elapsed`` the seconds since the batch started. ``error`` carries
    the failure description when the trial exhausted its retries.
    """

    index: int
    seed: int
    attempts: int
    done: int
    total: int
    elapsed: float
    error: str | None = None


class TrialRunner:
    """Run ``fn(seed)`` over many independent seeds, optionally in parallel.

    ``jobs`` is the worker-process count (1 = in-process serial);
    ``timeout`` bounds one attempt of one unit in seconds (enforced only
    when ``jobs > 1`` and ``fn`` pickles: a single process cannot preempt
    its own trial; with a timeout even a lone unit goes to the pool);
    ``retries`` is how many *extra* attempts a failed or timed-out trial
    gets before :class:`TrialError` is raised; ``progress`` is called
    with a :class:`TrialProgress` after every trial settles; ``metrics``
    optionally names the registry receiving batch instrumentation (None
    defers to the process default, a no-op unless enabled);
    ``checkpoint`` optionally names a JSON file settled results are
    journaled to -- rerunning the same batch resumes from it, skipping
    completed trials and returning bit-identical results;
    ``pool_rebuilds`` caps how many times one batch tolerates the worker
    pool breaking (a hard-killed worker) before giving up -- separate
    from per-trial ``retries`` and folded into the checkpoint context,
    so a resumed batch must use the same cap.

    ``batch_size`` switches the runner into *batch dispatch*: ``fn``
    then takes a **list of seeds** and returns one result per seed (in
    seed order), and the unit of work -- submitted, timed out, retried
    and checkpointed as one -- becomes a slice of up to ``batch_size``
    outstanding trials instead of a single seed. This is how lockstep
    trials amortise the engine's per-round array passes across a
    worker's whole seed slice. Results, order, and checkpoint bytes
    are required to be independent of the slice boundaries (each trial
    still depends only on its own seed); per-trial progress reports are
    preserved (one per trial, emitted when its unit settles).
    """

    def __init__(
        self,
        fn: Callable,
        *,
        jobs: int = 1,
        timeout: float | None = None,
        retries: int = 0,
        progress: Callable[[TrialProgress], None] | None = None,
        metrics: MetricsRegistry | None = None,
        checkpoint: str | pathlib.Path | None = None,
        pool_rebuilds: int = _POOL_REBUILD_LIMIT,
        batch_size: int | None = None,
    ) -> None:
        if jobs < 1:
            raise TrialError(f"jobs must be >= 1, got {jobs}")
        if timeout is not None and timeout <= 0:
            raise TrialError(f"timeout must be positive, got {timeout}")
        if retries < 0:
            raise TrialError(f"retries must be >= 0, got {retries}")
        if pool_rebuilds < 0:
            raise TrialError(
                f"pool_rebuilds must be >= 0, got {pool_rebuilds}"
            )
        if batch_size is not None and batch_size < 1:
            raise TrialError(
                f"batch_size must be >= 1 (or None), got {batch_size}"
            )
        self.fn = fn
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.progress = progress
        self.metrics = metrics
        self.checkpoint = checkpoint
        self.pool_rebuilds = pool_rebuilds
        self.batch_size = batch_size

    # -- public API ----------------------------------------------------------

    def run(self, trials: int, seed=0) -> list:
        """Execute ``trials`` independent trials derived from ``seed``."""
        if trials <= 0:
            raise TrialError(f"trials must be positive, got {trials}")
        return self.run_seeds(spawn_seeds(seed, trials))

    def run_seeds(self, seeds: Sequence[int]) -> list:
        """Execute one trial per seed; results in seed order."""
        seeds = list(seeds)
        if not seeds:
            return []
        metrics = self.metrics if self.metrics is not None else get_metrics()
        ckpt: _Checkpoint | None = None
        preloaded: dict[int, object] = {}
        if self.checkpoint is not None:
            context = (
                f"fn={_describe_trial_fn(self.fn)} "
                f"pool_rebuilds={self.pool_rebuilds}"
            )
            ckpt = _Checkpoint(self.checkpoint, seeds, context)
            preloaded = ckpt.load()
            stale = [i for i in preloaded if i >= len(seeds)]
            if stale:  # can't happen with a matching fingerprint; be safe
                raise TrialError(
                    f"checkpoint {ckpt.path} holds trial indices {stale} "
                    f"beyond the batch size {len(seeds)}"
                )
            if preloaded:
                _log.info(
                    "checkpoint %s: resuming batch with %d/%d trial(s) "
                    "already complete",
                    ckpt.path,
                    len(preloaded),
                    len(seeds),
                )
                metrics.inc("runner_checkpoint_loaded_total", len(preloaded))
        # Units are contiguous slices of the *remaining* indices (a resume
        # re-slices around checkpointed holes). Slice boundaries never
        # change results or checkpoint bytes, so batch_size stays out of
        # the checkpoint context on purpose.
        todo = [i for i in range(len(seeds)) if i not in preloaded]
        width = self.batch_size or 1
        units = [todo[k:k + width] for k in range(0, len(todo), width)]
        unit_fn = (
            self.fn
            if self.batch_size is not None
            else functools.partial(_each_seed, fn=self.fn)
        )
        # A lone unit gains nothing from a pool -- unless a timeout has to
        # be enforced, which only a worker process can do.
        payload = None
        if self.jobs > 1 and (
            len(units) > 1 or (units and self.timeout is not None)
        ):
            payload = _pickled(unit_fn)
            if payload is None:
                _log.warning(
                    "trial function %r is not picklable; running %d "
                    "trial(s) in-process although jobs=%d were requested "
                    "(define it at module level, or wrap module-level "
                    "functions with functools.partial, to parallelize)",
                    self.fn,
                    len(seeds),
                    self.jobs,
                )
                metrics.inc("runner_serial_fallbacks_total")
        if payload is None and self.timeout is not None:
            # A single process cannot preempt its own trial, so say so
            # instead of letting a stuck trial hang a "timeout-bounded"
            # sweep without explanation.
            _log.warning(
                "timeout=%ss is configured but this batch of %d trial(s) "
                "runs in-process, where timeouts cannot be enforced; a "
                "stuck trial will hang the batch (use jobs>1 for "
                "preemptible trials)",
                self.timeout,
                len(todo),
            )
            metrics.inc("runner_timeout_unenforced_total")
        results: list = [_UNSET] * len(seeds)
        for i, r in preloaded.items():
            results[i] = r
        self._dispatch(
            unit_fn, payload, units, seeds, results, metrics, ckpt,
            done=len(preloaded),
        )
        return results

    # -- internals -----------------------------------------------------------

    def _report(
        self, index, seed, attempts, done, total, t0, error=None
    ) -> None:
        if self.progress is not None:
            self.progress(
                TrialProgress(
                    index=index,
                    seed=seed,
                    attempts=attempts,
                    done=done,
                    total=total,
                    elapsed=time.perf_counter() - t0,
                    error=error,
                )
            )

    def _dispatch(
        self,
        unit_fn: Callable,
        payload: bytes | None,
        units: list[list[int]],
        seeds: list[int],
        results: list,
        metrics: MetricsRegistry,
        ckpt: _Checkpoint | None,
        done: int,
    ) -> None:
        """Settle every unit into ``results``, in index order.

        ``payload`` (``unit_fn`` pickled) runs the units on a worker pool
        and None runs them inline; the two differ only in how a unit's
        output is obtained. Retries, failure reports, result validation,
        checkpoint writes, progress and metrics are shared. Settling in
        index order makes per-unit timeouts compose and the progress
        stream match the (deterministic) result order.
        """
        pooled = payload is not None
        mode = "pool" if pooled else "serial"
        t0 = time.perf_counter()
        observe = metrics.enabled
        prof = get_profiler()
        total = len(seeds)
        attempts = [0] * len(units)
        futures: dict[int, object] = {}
        pool: ProcessPoolExecutor | None = None
        rebuilds = 0
        settling = 0

        def make_pool() -> ProcessPoolExecutor:
            # The unit function crosses the process boundary exactly once
            # per worker (pool initializer), not once per submit: each
            # submit afterwards carries only the unit's seeds.
            return ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_worker_init,
                initargs=(payload,),
            )

        def submit(pending) -> None:
            # A pool found broken while submitting is rebuilt exactly like
            # one found broken while collecting a result.
            while True:
                try:
                    for ui in pending:
                        futures[ui] = pool.submit(
                            _worker_run_batch, [seeds[i] for i in units[ui]]
                        )
                        attempts[ui] += 1
                    return
                except BrokenProcessPool as exc:
                    pending = rebuild_pool(exc)

        def rebuild_pool(exc: BaseException) -> range:
            # A worker died hard (OOM kill, segfault): the pool is
            # unusable and *every* unsettled future is lost, not just the
            # one we were waiting on. Rebuild and hand back every
            # unsettled unit for resubmission (one attempt each) --
            # capped separately from per-unit retries so retries=0
            # batches survive.
            nonlocal pool, rebuilds
            rebuilds += 1
            metrics.inc("runner_pool_rebuilds_total")
            if rebuilds > self.pool_rebuilds:
                raise TrialError(
                    f"worker pool broke {rebuilds} times (limit "
                    f"{self.pool_rebuilds}); giving up on the batch"
                ) from exc
            pending = range(settling, len(units))
            _log.warning(
                "worker pool broke (%r); rebuilding (%d/%d) and "
                "resubmitting %d unsettled unit(s)",
                exc,
                rebuilds,
                self.pool_rebuilds,
                len(pending),
            )
            pool.shutdown(wait=False, cancel_futures=True)
            pool = make_pool()
            return pending

        def run_inline(ui: int):
            unit = units[ui]
            attempts[ui] += 1
            t_unit = time.perf_counter() if observe else 0.0
            with prof.span("runner.trial"):
                out = unit_fn([seeds[i] for i in unit])
            if observe:
                # One observation per trial; the value is its share of the
                # unit's wall time.
                share = (time.perf_counter() - t_unit) / len(unit)
                for _ in unit:
                    metrics.observe("runner_trial_seconds", share, mode=mode)
            return out

        if pooled:
            metrics.gauge("runner_pool_jobs", self.jobs)
            pool = make_pool()
        try:
            if pooled:
                submit(range(len(units)))
            for ui, unit in enumerate(units):
                settling = ui
                while True:
                    try:
                        out = (
                            futures[ui].result(timeout=self.timeout)
                            if pooled
                            else run_inline(ui)
                        )
                        break
                    except Exception as exc:
                        # Only a pool's own errors get pool handling; the
                        # same exception raised inline is a trial failure.
                        if pooled and isinstance(exc, BrokenProcessPool):
                            submit(rebuild_pool(exc))
                            continue
                        timed_out = pooled and isinstance(exc, FutureTimeout)
                        if timed_out:
                            futures[ui].cancel()
                            metrics.inc("runner_timeouts_total")
                        if attempts[ui] > self.retries:
                            self._fail(
                                exc, timed_out, unit, seeds, attempts[ui],
                                done, t0, metrics, mode,
                            )
                        metrics.inc("runner_retries_total", mode=mode)
                        if pooled:
                            submit([ui])
                out = _batch_results(out, unit)
                for i, r in zip(unit, out):
                    results[i] = r
                if ckpt is not None:
                    ckpt.record_many(unit, out)
                    metrics.inc("runner_checkpoint_writes_total")
                for i in unit:
                    done += 1
                    self._report(i, seeds[i], attempts[ui], done, total, t0)
        except BaseException:
            if pooled:
                pool.shutdown(wait=False, cancel_futures=True)
            raise
        if pooled:
            pool.shutdown(wait=True)
        metrics.inc(
            "runner_trials_total", sum(map(len, units)), mode=mode
        )
        if observe:
            metrics.observe(
                "runner_batch_seconds", time.perf_counter() - t0, mode=mode
            )

    def _fail(
        self, exc, timed_out, unit, seeds, attempts, done, t0, metrics, mode
    ) -> NoReturn:
        """Report a unit that exhausted its retries and raise TrialError."""
        metrics.inc("runner_trials_failed_total", mode=mode)
        self._report(
            unit[0], seeds[unit[0]], attempts, done, len(seeds), t0,
            error=repr(exc) if timed_out else str(exc),
        )
        if self.batch_size is None:
            what = f"trial {unit[0]} (seed {seeds[unit[0]]})"
        else:
            what = f"trial unit {unit[0]}..{unit[-1]} ({len(unit)} seed(s))"
        if timed_out:
            raise TrialError(
                f"{what} timed out after {attempts} attempt(s)"
            ) from exc
        raise TrialError(
            f"{what} failed after {attempts} attempt(s): {exc}"
        ) from exc
