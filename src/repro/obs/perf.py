"""The performance observatory: structured bench runs + regression gate.

The reproduction targets are *shapes* — state blow-ups and growth rates
from Lemmas 1-4 / Theorems 5-8 — and shapes regress silently when the
only record is a human-readable table.  This module is the one bench
harness; the experiments themselves (E1-E12, A1-A10) are registered by
:mod:`repro.obs.experiments`.  Each run is a machine-checkable document:

- :func:`run_suite` executes a registered experiment suite (``smoke``
  or ``full``) programmatically and returns one JSON-ready run
  document: per-experiment **exact structural series** (state counts,
  fold sizes, oracle agreement, cache outcomes, budget spend — values
  that must reproduce bit-for-bit on any machine) and **timing series**
  (best-of-k workloads summarized as median/MAD), plus an environment
  fingerprint, a metrics/cache snapshot, and an aggregated hotspot
  profile (:mod:`repro.obs.profile`) saying where the time went.
- **Hard checks**: an experiment raises :class:`CheckFailed` (via
  :func:`check`) when a shape claim fails — exact facts are checked in
  the experiment body on every tier.
- **Timing gates** (:class:`Gate`, full tier only): a bound on the ratio
  of two timed workloads' ``best_ms``, or of one workload to a fixed
  pure-Python host-calibration loop timed right beside it, so a gate
  measures the code, not the host.  Each gate's value, bound and
  verdict lands in the run document; ``repro bench run`` exits 1
  naming any gate that failed.
- :func:`write_run` persists the document as ``BENCH_<runid>.json``
  (the bench trajectory's native format).
- :func:`compare_runs` is the regression detector: against a committed
  baseline (``benchmarks/baseline.json``), exact series must match
  **bit-for-bit** (hard gate), while timing series fail only beyond a
  configurable MAD-based tolerance (soft gate — shared CI runners are
  noisy, so the CLI treats timing regressions as warnings unless
  ``--fail-on-timing``).

Exactness discipline: every experiment seeds its RNG, runs a fixed
workload in a fixed order, and reports only order-independent facts
(reachable-set sizes, verdicts, counts), so the exact payload is
identical across platforms and hash seeds.  Timing values never enter
the exact payload (``elapsed_ms`` is stripped from budget spend).

Regenerate the committed baseline after an intentional shape change::

    PYTHONPATH=src python -m repro bench run --suite smoke \\
        --out benchmarks/baseline.json
"""

from __future__ import annotations

import dataclasses
import json
import operator
import os
import statistics
import time
from typing import Any, Callable

from .env import environment_fingerprint
from .metrics import metrics_snapshot, reset_metrics
from .profile import SpanProfile

__all__ = [
    "SCHEMA",
    "SUITES",
    "CALIBRATION",
    "CheckFailed",
    "Experiment",
    "Gate",
    "RunComparison",
    "check",
    "experiments_for",
    "gate_failures",
    "time_workload",
    "run_suite",
    "write_run",
    "validate_run",
    "compare_runs",
    "render_comparison",
]

#: Schema identifier stamped into (and required of) every run document.
SCHEMA = "repro-bench/1"

#: Known suite tiers: ``smoke`` is the CI-sized subset, ``full`` the sweep.
SUITES = ("smoke", "full")

#: Workload name under which a gate refers to the host-calibration loop,
#: which the harness then times beside the experiment's own workloads.
CALIBRATION = "host-calibration"


# --- registry -------------------------------------------------------------------


class CheckFailed(Exception):
    """An experiment's hard check failed: a reproduced shape claim is wrong."""


def check(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` unless *condition* (survives ``python -O``)."""
    if not condition:
        raise CheckFailed(message)


_GATE_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_GATE_AGGREGATES = {"max": max, "median": statistics.median}


@dataclasses.dataclass(frozen=True)
class Gate:
    """A declared timing gate, evaluated on the full tier only.

    Its value is ``aggregate(best_ms[a] / best_ms[b] for a, b in ratios)``
    over the experiment's timed workloads, where ``b`` may be
    :data:`CALIBRATION`; it passes when ``value <op> bound``.  Below
    ``min_cpus`` cores, or with fewer than ``min_reps`` timing samples
    behind a workload, it records itself as skipped.
    """

    name: str
    ratios: tuple[tuple[str, str], ...]
    op: str
    bound: float
    aggregate: str = "max"
    min_reps: int = 1
    min_cpus: int = 1


@dataclasses.dataclass(frozen=True)
class Experiment:
    """One registered bench experiment.

    ``build(suite)`` performs the exact-series work (raising
    :class:`CheckFailed` when a hard check fails) and returns
    ``{"exact": <JSON-stable dict>, "timed": {name: thunk}}``; on the
    ``timed_suites`` tiers the harness times each thunk best-of-k
    afterwards (at most ``max_repeats`` times, for workloads that take
    seconds), and on the full tier it then evaluates ``gates``.
    """

    id: str
    title: str
    suites: tuple[str, ...]
    build: Callable[[str], dict[str, Any]]
    gates: tuple[Gate, ...] = ()
    max_repeats: int | None = None
    timed_suites: tuple[str, ...] = ("full",)


_EXPERIMENTS: list[Experiment] = []


def _experiment(
    id: str,
    title: str,
    suites: tuple[str, ...] = SUITES,
    gates: tuple[Gate, ...] = (),
    max_repeats: int | None = None,
    timed_suites: tuple[str, ...] = ("full",),
):
    def register(fn: Callable[[str], dict[str, Any]]) -> Callable:
        _EXPERIMENTS.append(
            Experiment(id, title, suites, fn, gates, max_repeats, timed_suites)
        )
        return fn

    return register


def experiments_for(suite: str) -> list[Experiment]:
    """The experiments of a suite, in registration (= execution) order."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; known suites: {SUITES}")
    return [spec for spec in _EXPERIMENTS if suite in spec.suites]


# --- timing ---------------------------------------------------------------------


def time_workload(fn: Callable[[], Any], repeats: int = 5) -> dict[str, Any]:
    """Run *fn* ``repeats`` times; report best/median/MAD over the samples.

    Median+MAD (median absolute deviation) is the robust pair: one
    scheduler hiccup shifts neither, unlike mean/stddev.  ``best_ms``
    is kept as the low-noise "speed of light" figure.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    samples: list[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1000.0)
    median = statistics.median(samples)
    mad = statistics.median(abs(sample - median) for sample in samples)
    return {
        "reps": repeats,
        "best_ms": round(min(samples), 4),
        "median_ms": round(median, 4),
        "mad_ms": round(mad, 4),
        "samples_ms": [round(sample, 4) for sample in samples],
    }


def _calibration_loop() -> None:
    """The host-speed probe that calibration-relative gates divide by."""
    total, table = 0, {}
    for i in range(100_000):
        total += i * i % 7
        table[i & 1023] = total


def _evaluate_gate(gate: Gate, timings: dict[str, Any]) -> dict[str, Any]:
    """One gate record: value, bound and verdict (pass/fail/skipped)."""
    record: dict[str, Any] = {
        "name": gate.name,
        "ratios": [list(pair) for pair in gate.ratios],
        "aggregate": gate.aggregate,
        "op": gate.op,
        "bound": gate.bound,
        "value": None,
    }
    used = [timings[name] for pair in gate.ratios for name in pair]
    cores = os.cpu_count() or 1
    reps = min(timing["reps"] for timing in used)
    if cores < gate.min_cpus:
        reason = f"needs >= {gate.min_cpus} cores, host has {cores}"
    elif reps < gate.min_reps:
        reason = f"needs best of >= {gate.min_reps} reps, run took {reps}"
    else:
        best = [timing["best_ms"] for timing in used]
        value = _GATE_AGGREGATES[gate.aggregate](
            [best[index] / best[index + 1] for index in range(0, len(best), 2)]
        )
        passed = _GATE_OPS[gate.op](value, gate.bound)
        verdict = "pass" if passed else "fail"
        return {**record, "value": round(value, 4), "verdict": verdict}
    return {**record, "verdict": "skipped", "reason": reason}


def gate_failures(document: dict[str, Any]) -> list[str]:
    """One line per failed gate of a run document (empty = all held)."""
    return [
        f"{experiment['id']}/{gate['name']}: {gate['value']} {gate['op']} "
        f"{gate['bound']} does not hold"
        for experiment in document["experiments"]
        for gate in experiment.get("gates", ())
        if gate["verdict"] == "fail"
    ]


# --- the run harness ------------------------------------------------------------


def _new_run_id() -> str:
    return f"{time.strftime('%Y%m%d-%H%M%S')}-{os.urandom(2).hex()}"


def _normalize(value: Any) -> Any:
    """JSON round-trip: stable key order, and non-serializable data fails
    at record time rather than at file-write time."""
    return json.loads(json.dumps(value, sort_keys=True))


#: Traced checks whose merged spans form the run's hotspot profile —
#: one representative per pipeline family (Lemma 1 automata, Theorem 5
#: fold, Theorem 8 expansion).
def _profile_section(top: int = 20) -> dict[str, Any]:
    from ..automata.regex import parse_regex
    from ..core.engine import check_containment
    from ..datalog.parser import parse_program
    from ..rpq.rpq import RPQ, TwoRPQ

    program = parse_program("t(x,y) :- e(x,y). t(x,z) :- t(x,y), e(y,z).")
    checks = [
        (RPQ(parse_regex("(a b)+")), RPQ(parse_regex("(a b)*"))),
        (TwoRPQ.parse("p"), TwoRPQ.parse("p p- p")),
        (program, program),
    ]
    profile = SpanProfile()
    for q1, q2 in checks:
        result = check_containment(q1, q2, trace=True)
        trace = result.details.get("trace")
        if trace is not None:
            profile.add(trace)
    return profile.to_dict(top)


def run_suite(
    suite: str = "smoke",
    repeats: int = 5,
    profile: bool = True,
    run_id: str | None = None,
) -> dict[str, Any]:
    """Execute a suite and return the JSON-ready run document.

    Resets metrics and clears caches first, so the recorded snapshots
    (and the cache-outcome exact series) describe this run alone.  A
    failed hard check raises :class:`CheckFailed` naming the
    experiment; failed timing gates are recorded, not raised (see
    :func:`gate_failures`).
    """
    specs = experiments_for(suite)
    reset_metrics()
    from ..cache import cache_stats, clear_caches

    clear_caches()
    experiments: list[dict[str, Any]] = []
    for spec in specs:
        try:
            built = spec.build(suite)
        except CheckFailed as error:
            raise CheckFailed(f"{spec.id}: {error}") from None
        reps = min(repeats, spec.max_repeats or repeats)
        timed = dict(built.get("timed", {})) if suite in spec.timed_suites else {}
        gates = spec.gates if suite == "full" else ()
        if any(CALIBRATION in pair for gate in gates for pair in gate.ratios):
            # Timed in the same pass as the workloads it calibrates, so both
            # see the same host load.
            timed[CALIBRATION] = _calibration_loop
        timings = {name: time_workload(fn, reps) for name, fn in sorted(timed.items())}
        record = {
            "id": spec.id,
            "title": spec.title,
            "exact": _normalize(built["exact"]),
            "timings": timings,
        }
        if gates:
            record["gates"] = [_evaluate_gate(gate, timings) for gate in gates]
        experiments.append(record)
    document: dict[str, Any] = {
        "schema": SCHEMA,
        "run_id": run_id if run_id is not None else _new_run_id(),
        "suite": suite,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "timing_repeats": repeats,
        "environment": environment_fingerprint(),
        "experiments": experiments,
        "metrics": metrics_snapshot(),
        "cache": cache_stats(),
    }
    if profile:
        document["profile"] = _profile_section()
    problems = validate_run(document)
    if problems:  # pragma: no cover - the harness emits what it validates
        raise AssertionError(f"run document failed self-validation: {problems}")
    return document


def write_run(
    document: dict[str, Any],
    path: "str | os.PathLike[str] | None" = None,
    directory: "str | os.PathLike[str]" = ".",
) -> str:
    """Persist a run as ``BENCH_<runid>.json`` (or to an explicit *path*)."""
    import pathlib

    target = (
        pathlib.Path(path)
        if path is not None
        else pathlib.Path(directory) / f"BENCH_{document['run_id']}.json"
    )
    target.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return str(target)


# --- schema validation ----------------------------------------------------------

_TIMING_KEYS = frozenset({"reps", "best_ms", "median_ms", "mad_ms", "samples_ms"})
_GATE_KEYS = frozenset(
    {"name", "ratios", "aggregate", "op", "bound", "value", "verdict"}
)


def validate_run(document: Any) -> list[str]:
    """Schema problems of a run document (empty list = valid)."""
    problems: list[str] = []
    if not isinstance(document, dict):
        return [f"run document must be a dict, not {type(document).__name__}"]
    if document.get("schema") != SCHEMA:
        problems.append(
            f"schema is {document.get('schema')!r}, expected {SCHEMA!r}"
        )
    if not isinstance(document.get("run_id"), str) or not document.get("run_id"):
        problems.append("run_id must be a non-empty string")
    if document.get("suite") not in SUITES:
        problems.append(f"suite {document.get('suite')!r} not in {SUITES}")
    environment = document.get("environment")
    if not isinstance(environment, dict) or not {
        "python",
        "platform",
        "commit",
    } <= set(environment or ()):
        problems.append("environment fingerprint missing python/platform/commit")
    if not isinstance(document.get("metrics"), dict):
        problems.append("metrics snapshot missing")
    experiments = document.get("experiments")
    if not isinstance(experiments, list) or not experiments:
        problems.append("experiments must be a non-empty list")
        return problems
    for position, experiment in enumerate(experiments):
        label = (
            experiment.get("id", f"#{position}")
            if isinstance(experiment, dict)
            else f"#{position}"
        )
        if not isinstance(experiment, dict):
            problems.append(f"experiment {label}: not a dict")
            continue
        if not isinstance(experiment.get("id"), str):
            problems.append(f"experiment {label}: missing id")
        if not isinstance(experiment.get("exact"), dict):
            problems.append(f"experiment {label}: missing exact series")
        timings = experiment.get("timings")
        if not isinstance(timings, dict):
            problems.append(f"experiment {label}: missing timings dict")
            continue
        for name, timing in timings.items():
            if not isinstance(timing, dict) or not _TIMING_KEYS <= set(timing):
                problems.append(
                    f"experiment {label}: timing {name!r} missing "
                    f"{sorted(_TIMING_KEYS - set(timing or ()))}"
                )
        gates = experiment.get("gates", [])
        if not isinstance(gates, list):
            problems.append(f"experiment {label}: gates must be a list")
            continue
        for gate in gates:
            problem = _gate_problem(gate)
            if problem:
                problems.append(f"experiment {label}: gate {problem}")
    return problems


def _gate_problem(gate: Any) -> str | None:
    if not isinstance(gate, dict) or not _GATE_KEYS <= set(gate):
        return f"record missing {sorted(_GATE_KEYS - set(gate or ()))}"
    if gate["op"] not in _GATE_OPS or gate["aggregate"] not in _GATE_AGGREGATES:
        return f"{gate['name']!r}: unknown op or aggregate"
    if gate["verdict"] not in ("pass", "fail", "skipped"):
        return f"{gate['name']!r}: verdict {gate['verdict']!r} unknown"
    if gate["verdict"] != "skipped" and not isinstance(gate["value"], (int, float)):
        return f"{gate['name']!r}: {gate['verdict']} without a numeric value"
    return None


# --- the regression detector ----------------------------------------------------


@dataclasses.dataclass
class RunComparison:
    """Outcome of :func:`compare_runs` (render with :func:`render_comparison`).

    ``ok`` reflects the hard gate only: exact structural series (and
    schema/coverage problems).  Timing regressions live in their own
    list so callers choose the soft-gate policy (CI warns; local runs
    may ``--fail-on-timing``).
    """

    exact_failures: list[str] = dataclasses.field(default_factory=list)
    timing_regressions: list[dict[str, Any]] = dataclasses.field(default_factory=list)
    timing_improvements: list[dict[str, Any]] = dataclasses.field(default_factory=list)
    notes: list[str] = dataclasses.field(default_factory=list)
    exact_checked: int = 0
    timings_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.exact_failures


def compare_runs(
    baseline: dict[str, Any],
    current: dict[str, Any],
    tolerance_mads: float = 4.0,
    rel_floor: float = 0.25,
    abs_floor_ms: float = 0.05,
) -> RunComparison:
    """Compare *current* against *baseline*.

    Exact series are compared bit-for-bit (after JSON normalization);
    any difference, missing experiment, or schema problem is a hard
    failure.  A timing workload regresses when its median exceeds the
    baseline median by more than ``tolerance_mads`` times the noise
    scale ``max(baseline MAD, rel_floor * median, abs_floor_ms)`` —
    the floors keep a freakishly quiet baseline (MAD ~ 0) from turning
    scheduler jitter into alarms.  Symmetric improvements are reported
    informationally.
    """
    comparison = RunComparison()
    for role, document in (("baseline", baseline), ("current", current)):
        for problem in validate_run(document):
            comparison.exact_failures.append(f"{role}: {problem}")
    if comparison.exact_failures:
        return comparison
    if baseline["suite"] != current["suite"]:
        comparison.exact_failures.append(
            f"suite mismatch: baseline ran {baseline['suite']!r}, "
            f"current ran {current['suite']!r}"
        )
        return comparison
    base_by_id = {exp["id"]: exp for exp in baseline["experiments"]}
    current_by_id = {exp["id"]: exp for exp in current["experiments"]}
    for extra in sorted(set(current_by_id) - set(base_by_id)):
        comparison.notes.append(
            f"{extra}: new experiment (not in baseline; add it by regenerating)"
        )
    for experiment_id, base_exp in base_by_id.items():
        current_exp = current_by_id.get(experiment_id)
        if current_exp is None:
            comparison.exact_failures.append(
                f"{experiment_id}: experiment missing from current run"
            )
            continue
        base_exact = _normalize(base_exp["exact"])
        current_exact = _normalize(current_exp["exact"])
        comparison.exact_checked += 1
        if base_exact != current_exact:
            for key in sorted(set(base_exact) | set(current_exact)):
                expected = base_exact.get(key)
                measured = current_exact.get(key)
                if expected != measured:
                    comparison.exact_failures.append(
                        f"{experiment_id}: exact series {key!r} changed: "
                        f"baseline {_shorten(expected)} != current {_shorten(measured)}"
                    )
        for workload, base_timing in base_exp["timings"].items():
            current_timing = current_exp["timings"].get(workload)
            if current_timing is None:
                comparison.notes.append(
                    f"{experiment_id}: timing workload {workload!r} "
                    "missing from current run"
                )
                continue
            comparison.timings_checked += 1
            base_median = float(base_timing["median_ms"])
            noise = max(
                float(base_timing["mad_ms"]),
                rel_floor * base_median,
                abs_floor_ms,
            )
            delta = float(current_timing["median_ms"]) - base_median
            record = {
                "experiment": experiment_id,
                "workload": workload,
                "baseline_median_ms": base_median,
                "current_median_ms": float(current_timing["median_ms"]),
                "delta_ms": round(delta, 4),
                "threshold_ms": round(tolerance_mads * noise, 4),
            }
            if delta > tolerance_mads * noise:
                comparison.timing_regressions.append(record)
            elif -delta > tolerance_mads * noise:
                comparison.timing_improvements.append(record)
    return comparison


def _shorten(value: Any, limit: int = 120) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def render_comparison(comparison: RunComparison) -> str:
    """The human report behind ``repro bench compare``."""
    lines: list[str] = []
    if comparison.ok:
        lines.append(
            f"OK: {comparison.exact_checked} exact series match bit-for-bit, "
            f"{comparison.timings_checked} timing series checked"
        )
    else:
        lines.append(
            f"FAIL: {len(comparison.exact_failures)} exact-series failure(s)"
        )
        for failure in comparison.exact_failures:
            lines.append(f"  ! {failure}")
    if comparison.timing_regressions:
        lines.append(
            f"timing regressions ({len(comparison.timing_regressions)}; "
            "median beyond MAD tolerance):"
        )
        for record in comparison.timing_regressions:
            lines.append(
                f"  ~ {record['experiment']}/{record['workload']}: "
                f"{record['baseline_median_ms']:.3f} -> "
                f"{record['current_median_ms']:.3f} ms "
                f"(+{record['delta_ms']:.3f}, tolerance {record['threshold_ms']:.3f})"
            )
    else:
        lines.append("timing: no regressions beyond tolerance")
    for record in comparison.timing_improvements:
        lines.append(
            f"  + improvement {record['experiment']}/{record['workload']}: "
            f"{record['baseline_median_ms']:.3f} -> "
            f"{record['current_median_ms']:.3f} ms"
        )
    for note in comparison.notes:
        lines.append(f"  * {note}")
    return "\n".join(lines) + "\n"


# The experiment suite registers itself on import (it needs the names above).
from . import experiments as _experiments  # noqa: E402,F401
