"""Benchmark comparison: diff two ``BENCH_engine.json`` files.

The repo emits engine benchmarks in two shapes: the single-result
``benchmarks/results/BENCH_engine.json`` written by
``benchmarks/engine_baseline.py`` and the append-only series file
(``benchmark: "engine_series"``, ``schema: 1``) grown by
``benchmarks/bench_series.py``. :func:`load_bench` normalises either
into one latest sample per backend; :func:`compare_benchmarks` diffs a
baseline file A against a candidate file B -- headline
``round_seconds_median`` ratio per backend plus per-stage attribution
(the stage means the span profiler measured), flagging any backend
whose ratio exceeds the threshold. ``repro bench compare A.json
B.json`` renders the result and exits nonzero on a flagged regression,
which is how CI gates performance drift.
"""

from __future__ import annotations

import json
import pathlib
import warnings
from dataclasses import dataclass, field

from repro.errors import ReproError

__all__ = [
    "DEFAULT_THRESHOLD",
    "BenchSample",
    "BenchDelta",
    "delta_between",
    "load_bench",
    "compare_benchmarks",
    "render_comparison",
]

#: A backend regresses when candidate/baseline median exceeds this.
DEFAULT_THRESHOLD = 1.25

#: The engine stages every schema reports (span paths ``engine.round/...``).
STAGES = ("build_events", "resolve", "finalise")


@dataclass(frozen=True)
class BenchSample:
    """One normalised benchmark sample: headline timings plus stage means.

    ``stages`` maps stage name to mean seconds per round; ``meta`` keeps
    whatever provenance the source file carried (git revision, python
    version, workload) for rendering.
    """

    backend: str
    round_seconds_median: float
    round_seconds_best: float
    events_per_second: float
    stages: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BenchDelta:
    """The A-to-B comparison for one backend.

    ``ratio`` is candidate/baseline headline (> 1 means the candidate
    is slower); ``stage_ratios`` attributes the change to the measured
    stages; ``regressed`` is ``ratio > threshold``. ``metric`` names
    the headline being compared -- ``round_seconds_median`` for engine
    benchmarks, ``wall_seconds`` when the run ledger diffs two recorded
    runs through :func:`delta_between`.
    """

    backend: str
    baseline: BenchSample
    candidate: BenchSample
    ratio: float
    stage_ratios: dict
    regressed: bool
    metric: str = "round_seconds_median"


def delta_between(
    baseline: BenchSample,
    candidate: BenchSample,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    metric: str = "round_seconds_median",
) -> BenchDelta:
    """The normalised comparison of two samples (shared with the ledger).

    The headline value travels in ``round_seconds_median`` (``metric``
    only relabels it for rendering); stage ratios cover the union of
    both samples' stages, ``None`` marking a stage measured on one side
    only. This is the single place the headline ratio and the per-stage
    attribution are computed -- ``repro bench compare`` and ``repro runs
    compare`` both go through it.
    """
    if threshold <= 0:
        raise ReproError(f"threshold must be > 0, got {threshold}")
    ratio = (
        candidate.round_seconds_median / baseline.round_seconds_median
        if baseline.round_seconds_median > 0
        else float("inf")
    )
    known = [s for s in STAGES if s in baseline.stages or s in candidate.stages]
    extra = sorted(
        (set(baseline.stages) | set(candidate.stages)) - set(STAGES)
    )
    stage_ratios = {
        stage: (
            candidate.stages[stage] / baseline.stages[stage]
            if baseline.stages.get(stage) and stage in candidate.stages
            else None
        )
        for stage in (*known, *extra)
    }
    return BenchDelta(
        backend=candidate.backend,
        baseline=baseline,
        candidate=candidate,
        ratio=ratio,
        stage_ratios=stage_ratios,
        regressed=ratio > threshold,
        metric=metric,
    )


def _normalise_baseline(payload: dict, path: str) -> dict[str, BenchSample]:
    """One ``engine_baseline.py`` result as a single-backend sample map."""
    rnd = payload["round"]
    stages = {
        name: stats["seconds_mean"]
        for name, stats in rnd.get("stages", {}).items()
    }
    sample = BenchSample(
        backend=str(payload.get("backend", "python")),
        round_seconds_median=float(rnd["round_seconds_median"]),
        round_seconds_best=float(rnd["round_seconds_best"]),
        events_per_second=float(rnd["events_per_second"]),
        stages=stages,
        meta={
            "python": payload.get("python"),
            "workload": rnd.get("workload"),
            "source": path,
        },
    )
    return {sample.backend: sample}


def _normalise_series(payload: dict, path: str) -> dict[str, BenchSample]:
    """An ``engine_series`` file reduced to the latest sample per backend.

    The backend label is historical: samples from before the field and
    from the engine's one round kernel carry none and file under
    ``python``, the old default kernel.
    """
    out: dict[str, BenchSample] = {}
    for raw in payload.get("samples", ()):
        backend = str(raw.get("backend") or "python")
        out[backend] = BenchSample(  # later samples overwrite: latest wins
            backend=backend,
            round_seconds_median=float(raw["round_seconds_median"]),
            round_seconds_best=float(raw["round_seconds_best"]),
            events_per_second=float(raw["events_per_second"]),
            stages={k: float(v) for k, v in raw.get("stages", {}).items()},
            meta={
                "git_rev": raw.get("git_rev"),
                "python": raw.get("python"),
                "workload": raw.get("workload"),
                "source": path,
            },
        )
    return out


def load_bench(path) -> dict[str, BenchSample]:
    """Load either benchmark schema into ``{backend: latest sample}``.

    Accepts the single-result ``engine_round`` payload or the
    ``engine_series`` sample log; anything else raises
    :class:`~repro.errors.ReproError` naming the file.
    """
    p = pathlib.Path(path)
    try:
        payload = json.loads(p.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot read benchmark file {p}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ReproError(f"{p} is not a benchmark JSON object")
    try:
        if "samples" in payload:
            samples = _normalise_series(payload, str(p))
        elif "round" in payload:
            samples = _normalise_baseline(payload, str(p))
        else:
            raise ReproError(
                f"{p} has neither 'samples' (series) nor 'round' "
                "(engine baseline) -- not a BENCH_engine.json"
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ReproError(f"{p} is malformed: {exc!r}") from exc
    if not samples:
        raise ReproError(f"{p} holds no benchmark samples")
    return samples


def compare_benchmarks(
    baseline_path,
    candidate_path,
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> list[BenchDelta]:
    """Diff candidate against baseline, one delta per shared backend.

    Backends present in only one file are skipped (a new backend is not
    a regression) with a :class:`RuntimeWarning` naming each skipped
    backend and which side it came from, so a gate that silently
    stopped tracking a backend is visible in the logs; sharing none at
    all is an error. ``threshold`` flags a backend whose
    ``round_seconds_median`` ratio exceeds it.
    """
    if threshold <= 0:
        raise ReproError(f"threshold must be > 0, got {threshold}")
    base = load_bench(baseline_path)
    cand = load_bench(candidate_path)
    shared = sorted(set(base) & set(cand))
    if not shared:
        raise ReproError(
            f"no shared backends: baseline has {sorted(base)}, "
            f"candidate has {sorted(cand)}"
        )
    baseline_only = sorted(set(base) - set(cand))
    candidate_only = sorted(set(cand) - set(base))
    for side, path, backends in (
        ("baseline", baseline_path, baseline_only),
        ("candidate", candidate_path, candidate_only),
    ):
        if backends:
            warnings.warn(
                f"benchmark comparison skipped backend(s) "
                f"{', '.join(backends)} present only in the {side} file "
                f"({path}); they are not gated by this comparison",
                RuntimeWarning,
                stacklevel=2,
            )
    return [
        delta_between(base[backend], cand[backend], threshold=threshold)
        for backend in shared
    ]


def render_comparison(
    deltas: list[BenchDelta], *, threshold: float = DEFAULT_THRESHOLD
) -> str:
    """Human-readable comparison table with per-stage attribution."""
    lines = []
    for d in deltas:
        verdict = "REGRESSED" if d.regressed else "ok"
        label = (
            "round median"
            if d.metric == "round_seconds_median"
            else d.metric
        )
        lines.append(
            f"{d.backend}: {label} "
            f"{d.baseline.round_seconds_median * 1e3:.3f}ms -> "
            f"{d.candidate.round_seconds_median * 1e3:.3f}ms "
            f"(x{d.ratio:.2f}, threshold x{threshold:.2f}) {verdict}"
        )
        for stage, ratio in d.stage_ratios.items():
            if ratio is None:
                lines.append(f"  {stage:>12}: (missing on one side)")
                continue
            a = d.baseline.stages.get(stage)
            b = d.candidate.stages.get(stage)
            lines.append(
                f"  {stage:>12}: {a * 1e3:.3f}ms -> {b * 1e3:.3f}ms "
                f"(x{ratio:.2f})"
            )
    return "\n".join(lines)
