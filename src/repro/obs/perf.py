"""The performance observatory: structured bench runs + regression gate.

The reproduction targets are *shapes* — state blow-ups and growth rates
from Lemmas 1-4 / Theorems 5-8 — and shapes regress silently when the
only record is a human-readable table.  This module makes each bench
run a machine-checkable document:

- :func:`run_suite` executes a registered experiment suite (``smoke``
  or ``full``) programmatically and returns one JSON-ready run
  document: per-experiment **exact structural series** (state counts,
  fold sizes, oracle agreement, cache outcomes, budget spend — values
  that must reproduce bit-for-bit on any machine) and **timing series**
  (best-of-k workloads summarized as median/MAD), plus an environment
  fingerprint, a metrics/cache snapshot, and an aggregated hotspot
  profile (:mod:`repro.obs.profile`) saying where the time went.
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
import os
import statistics
import sys
import time
from typing import Any, Callable

from .env import environment_fingerprint
from .metrics import metrics_snapshot, reset_metrics
from .profile import SpanProfile

__all__ = [
    "SCHEMA",
    "SUITES",
    "Experiment",
    "RunComparison",
    "experiments_for",
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


# --- registry -------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Experiment:
    """One registered bench experiment.

    ``build(suite)`` performs the exact-series work and returns
    ``{"exact": <JSON-stable dict>, "timed": {name: thunk}}``; the
    harness times each thunk best-of-k afterwards.
    """

    id: str
    title: str
    suites: tuple[str, ...]
    build: Callable[[str], dict[str, Any]]


_EXPERIMENTS: list[Experiment] = []


def _experiment(id: str, title: str, suites: tuple[str, ...] = SUITES):
    def register(fn: Callable[[str], dict[str, Any]]) -> Callable:
        _EXPERIMENTS.append(Experiment(id, title, suites, fn))
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


# --- experiments ----------------------------------------------------------------
# Each build() reuses the same library calls the pytest benchmarks make
# (benchmarks/bench_e*.py), trimmed to suite-sized workloads.  Imports
# are local so `import repro.obs` stays light.


@_experiment("E1-oracle", "Lemma 1 pipeline vs brute-force word oracle")
def _exp_e01(suite: str) -> dict[str, Any]:
    import itertools
    import random

    from ..automata.regex import parse_regex, random_regex
    from ..rpq.containment import rpq_contained
    from ..rpq.rpq import RPQ

    alphabet = ("a", "b")
    atoms = ["a", "b", "a b", "a|b", "a*", "a+", "b a", "(a b)*", "a?"]
    if suite == "smoke":
        atoms, n_random = atoms[:6], 10
    else:
        n_random = 40
    rng = random.Random(1)
    pairs = [(parse_regex(x), parse_regex(y)) for x in atoms for y in atoms]
    pairs += [
        (random_regex(rng, alphabet, 3), random_regex(rng, alphabet, 3))
        for _ in range(n_random)
    ]

    def brute_force_contained(r1, r2, max_length=5) -> bool:
        n1, n2 = r1.to_nfa(), r2.to_nfa()
        for length in range(max_length + 1):
            for word in itertools.product(alphabet, repeat=length):
                if n1.accepts(word) and not n2.accepts(word):
                    return False
        return True

    consistent = inconsistent = positives = 0
    for r1, r2 in pairs:
        verdict = rpq_contained(RPQ(r1), RPQ(r2)).holds
        if verdict and not brute_force_contained(r1, r2):
            inconsistent += 1
        else:
            consistent += 1
        positives += verdict
    timed_pairs = pairs[:20]

    def check_pairs() -> None:
        for r1, r2 in timed_pairs:
            rpq_contained(RPQ(r1), RPQ(r2))

    return {
        "exact": {
            "pairs": len(pairs),
            "consistent": consistent,
            "inconsistent": inconsistent,
            "containments": positives,
        },
        "timed": {"rpq-containment-20pairs": check_pairs},
    }


@_experiment("E3-fold-size", "Lemma 3 fold-2NFA state counts vs bound")
def _exp_e03(suite: str) -> dict[str, Any]:
    import random

    from ..automata.alphabet import Alphabet
    from ..automata.dfa import reduce_nfa
    from ..automata.fold import fold_two_nfa, lemma3_state_bound
    from ..automata.regex import random_regex

    depths = (2, 3) if suite == "smoke" else (2, 3, 4, 5)
    rng = random.Random(5)
    series: list[list[int]] = []
    largest = None
    for sigma_size in (1, 2, 3):
        alphabet = tuple("abc"[:sigma_size])
        sigma_pm = Alphabet(alphabet).two_way
        for depth in depths:
            nfa = reduce_nfa(
                random_regex(rng, alphabet, depth, allow_inverse=True).to_nfa()
            )
            if nfa.num_states == 0:
                continue
            folded = fold_two_nfa(nfa, sigma_pm)
            series.append(
                [
                    sigma_size,
                    nfa.num_states,
                    folded.num_states,
                    lemma3_state_bound(nfa, sigma_pm),
                ]
            )
            largest = (nfa, sigma_pm)
    exact = {
        "series": series,
        "all_within_bound": all(row[2] <= row[3] for row in series),
        "fold_exactly_2n": all(row[2] == 2 * row[1] for row in series),
    }
    timed: dict[str, Callable[[], Any]] = {}
    if largest is not None:
        nfa, sigma_pm = largest

        def fold_largest() -> None:
            fold_two_nfa(nfa, sigma_pm)

        timed["fold-largest-nfa"] = fold_largest
    return {"exact": exact, "timed": timed}


@_experiment("E4-complement", "Lemma 4 complement blow-up vs Shepherdson")
def _exp_e04(suite: str) -> dict[str, Any]:
    from ..automata.alphabet import Alphabet
    from ..automata.complement import complement_two_nfa, lemma4_state_bound
    from ..automata.dfa import reduce_nfa
    from ..automata.fold import fold_two_nfa
    from ..automata.regex import parse_regex
    from ..automata.shepherdson import two_nfa_to_dfa

    family = ["p", "p p", "p p-"]
    if suite == "full":
        family.append("p? p")
    sigma_pm = Alphabet(("p",)).two_way
    series: list[list[Any]] = []
    timed_two = None
    for text in family:
        two = fold_two_nfa(reduce_nfa(parse_regex(text).to_nfa()), sigma_pm)
        lemma4 = complement_two_nfa(two, max_states=200_000)
        shepherdson = two_nfa_to_dfa(two, max_states=200_000)
        series.append(
            [
                text,
                two.num_states,
                lemma4.num_states,
                lemma4_state_bound(two),
                shepherdson.num_states,
            ]
        )
        timed_two = two

    def complement_largest() -> None:
        complement_two_nfa(timed_two, max_states=200_000)

    return {
        "exact": {
            "series": series,
            "all_within_bound": all(row[2] <= row[3] for row in series),
        },
        "timed": {"lemma4-complement-largest": complement_largest},
    }


@_experiment("engine-cache", "containment cache outcomes and hit accounting")
def _exp_cache(suite: str) -> dict[str, Any]:
    from ..automata.regex import parse_regex
    from ..cache import cache_stats, clear_caches
    from ..core.engine import check_containment
    from ..rpq.rpq import RPQ

    clear_caches()
    pairs = [("a a", "a+"), ("a+", "a a"), ("(a b)+", "(a b)*")]
    queries = [
        (RPQ(parse_regex(left)), RPQ(parse_regex(right))) for left, right in pairs
    ]
    outcomes: list[list[str]] = []
    for _ in range(2):  # cold pass then warm pass
        for q1, q2 in queries:
            result = check_containment(q1, q2)
            outcomes.append([result.verdict.value, result.details["cache"]])
    stats = cache_stats()["containment"]
    warm_q1, warm_q2 = queries[0]

    def warm_hit() -> None:
        check_containment(warm_q1, warm_q2)

    return {
        "exact": {
            "outcomes": outcomes,
            "containment_hits": stats["hits"],
            "containment_misses": stats["misses"],
        },
        "timed": {"engine-warm-hit": warm_hit},
    }


@_experiment("batch-scaling", "batch front door: worker-count scaling on E1 pairs")
def _exp_batch(suite: str) -> dict[str, Any]:
    import random

    from ..automata.regex import parse_regex, random_regex
    from ..cache import clear_caches
    from ..core.batch import check_containment_many, sequential_baseline
    from ..rpq.rpq import RPQ

    alphabet = ("a", "b")
    atoms = ["a", "b", "a b", "a|b", "a*", "a+"]
    n_random = 10 if suite == "smoke" else 40
    rng = random.Random(1)
    pairs = [
        (RPQ(parse_regex(x)), RPQ(parse_regex(y))) for x in atoms for y in atoms
    ]
    pairs += [
        (RPQ(random_regex(rng, alphabet, 3)), RPQ(random_regex(rng, alphabet, 3)))
        for _ in range(n_random)
    ]

    # Exact series: the differential oracle.  Concurrency may change
    # wall-clock, never answers — batch verdicts at workers ∈ {1, 4} on
    # both backends must equal the sequential loop's, bit-for-bit.
    expected = [result.verdict.value for result in sequential_baseline(pairs)]
    agreement: dict[str, bool] = {}
    for backend, workers in (("thread", 1), ("thread", 4), ("process", 4)):
        clear_caches()
        batch = check_containment_many(pairs, workers=workers, backend=backend)
        verdicts = [item.result.verdict.value for item in batch.items]
        agreement[f"{backend}-{workers}"] = verdicts == expected
    counts: dict[str, int] = {}
    for verdict in expected:
        counts[verdict] = counts.get(verdict, 0) + 1

    # Timed series: cold-cache wall-clock of the sequential loop vs the
    # thread pool, so the medians expose real scaling (or, on a single
    # core under the GIL, the honest absence of it — see EXPERIMENTS.md).
    def run_sequential() -> None:
        clear_caches()
        sequential_baseline(pairs)

    def run_thread_1() -> None:
        clear_caches()
        check_containment_many(pairs, workers=1, backend="thread")

    def run_thread_4() -> None:
        clear_caches()
        check_containment_many(pairs, workers=4, backend="thread")

    return {
        "exact": {
            "pairs": len(pairs),
            "agreement": agreement,
            "verdict_counts": counts,
        },
        "timed": {
            "batch-sequential": run_sequential,
            "batch-thread-1worker": run_thread_1,
            "batch-thread-4workers": run_thread_4,
        },
    }


class _PoisonPill:
    """Crash-isolation probe: unpickling one kills the worker process.

    Never constructed worker-side — ``__reduce__`` makes the *unpickle*
    the crash (``os._exit(1)`` at argument-deserialization time), which
    is the most hostile deterministic stand-in for a segfaulting
    worker the standard library allows.
    """

    def __reduce__(self):  # pragma: no cover - runs in the dying worker
        return (os._exit, (1,))


@_experiment("process-scaling", "process backend: agreement, crash isolation, scaling")
def _exp_process(suite: str) -> dict[str, Any]:
    import pathlib
    import random

    from ..automata.regex import parse_regex, random_regex
    from ..cache import clear_caches
    from ..core.batch import (
        ContainmentExecutor,
        check_containment_many,
        sequential_baseline,
    )
    from ..rpq.rpq import RPQ
    from ..serve.protocol import parse_workload

    alphabet = ("a", "b")
    atoms = ["a", "b", "a b", "a|b", "a*", "a+"]
    n_random = 10 if suite == "smoke" else 40
    rng = random.Random(1)
    pairs = [
        (RPQ(parse_regex(x)), RPQ(parse_regex(y))) for x in atoms for y in atoms
    ]
    pairs += [
        (RPQ(random_regex(rng, alphabet, 3)), RPQ(random_regex(rng, alphabet, 3)))
        for _ in range(n_random)
    ]

    # Exact series 1: the cross-backend differential oracle on the E1
    # pair family.  Process workers recompute behind a pickle boundary
    # with their own caches; the verdict list must still equal the
    # sequential loop's, bit-for-bit, at every worker count.
    expected = [result.verdict.value for result in sequential_baseline(pairs)]
    agreement: dict[str, bool] = {}
    for backend, workers in (("process", 1), ("process", 4)):
        clear_caches()
        batch = check_containment_many(pairs, workers=workers, backend=backend)
        verdicts = [item.result.verdict.value for item in batch.items]
        agreement[f"{backend}-{workers}"] = verdicts == expected

    # Exact series 2: the serving smoke workload replayed through both
    # pool substrates — thread-4 and process-4 must answer
    # benchmarks/workloads/batch_smoke.ndjson exactly alike.
    workload_path = (
        pathlib.Path(__file__).resolve().parents[3]
        / "benchmarks"
        / "workloads"
        / "batch_smoke.ndjson"
    )
    parsed = parse_workload(workload_path.read_text())
    smoke_pairs = [(request.left, request.right) for request in parsed.requests]
    smoke_expected = [
        result.verdict.value for result in sequential_baseline(smoke_pairs)
    ]
    workload_agreement: dict[str, bool] = {}
    for backend, workers in (("thread", 1), ("thread", 4), ("process", 4)):
        clear_caches()
        batch = check_containment_many(
            smoke_pairs, workers=workers, backend=backend
        )
        verdicts = [item.result.verdict.value for item in batch.items]
        workload_agreement[f"{backend}-{workers}"] = verdicts == smoke_expected

    # Exact series 3: crash isolation.  A worker killed mid-batch (the
    # poison pill unpickles into ``os._exit(1)``) must cost exactly its
    # own item — an ERROR carrying ``details["error"]`` — while every
    # other item keeps its sequential verdict and the executor keeps
    # accepting work on a rebuilt pool.
    crash_pairs = list(pairs[:4])
    crash_pairs.insert(2, (_PoisonPill(), _PoisonPill()))
    clear_caches()
    crash_items = check_containment_many(
        crash_pairs, workers=2, backend="process"
    ).items
    survivors_expected = [
        result.verdict.value for result in sequential_baseline(pairs[:4])
    ]
    survivors = [
        item.result.verdict.value
        for index, item in enumerate(crash_items)
        if index != 2
    ]
    with ContainmentExecutor(workers=1, backend="process") as executor:
        executor.submit(_PoisonPill(), _PoisonPill()).result()
        after_crash = executor.submit(*pairs[0]).result()
    crash = {
        "poison_is_isolated_error": (
            crash_items[2].result.verdict.value == "error"
            and "error" in crash_items[2].result.details
        ),
        "survivors_match_sequential": survivors == survivors_expected,
        "accepts_after_crash": (
            after_crash.result.verdict.value == survivors_expected[0]
        ),
    }

    # Timed series: cold-cache process-pool wall-clock at 1 and 4
    # workers.  On a single core the 4-worker figure honestly shows
    # serialization overhead, not speedup — EXPERIMENTS.md A10 gates
    # the >=1.5x claim on the core count for exactly that reason.
    def run_process_1() -> None:
        clear_caches()
        check_containment_many(pairs, workers=1, backend="process")

    def run_process_4() -> None:
        clear_caches()
        check_containment_many(pairs, workers=4, backend="process")

    return {
        "exact": {
            "pairs": len(pairs),
            "agreement": agreement,
            "workload": {
                "file": workload_path.name,
                "pairs": len(smoke_pairs),
                "agreement": workload_agreement,
            },
            "crash": crash,
        },
        "timed": {
            "batch-process-1worker": run_process_1,
            "batch-process-4workers": run_process_4,
        },
    }


@_experiment("budget-degradation", "bounded verdict + spend accounting")
def _exp_budget(suite: str) -> dict[str, Any]:
    from ..budget import Budget
    from ..core.engine import check_containment
    from ..datalog.parser import parse_program

    program = parse_program(
        "t(x,y) :- e(x,y). t(x,z) :- t(x,y), e(y,z)."
    )
    result = check_containment(program, program, budget=Budget(max_expansions=5))
    accounting = result.details["budget"]
    spend = {
        name: value
        for name, value in accounting.get("spend", {}).items()
        if name != "elapsed_ms"  # wall-clock: deterministic counters only
    }
    return {
        "exact": {
            "verdict": result.verdict.value,
            "exhausted": accounting.get("exhausted"),
            "spend": spend,
        },
        "timed": {},
    }


@_experiment("antichain-ablation", "antichain vs subset containment kernel")
def _exp_antichain(suite: str) -> dict[str, Any]:
    import random

    from ..automata.dfa import containment_counterexample
    from ..automata.regex import parse_regex, random_regex
    from ..cache import clear_caches
    from ..rpq.containment import two_rpq_contained
    from ..rpq.rpq import TwoRPQ

    alphabet = ("a", "b")

    # E1-style family: seeded random regex pairs, checked with both
    # kernels through the same public entry point.  Hard gate: verdicts
    # agree, witnesses have equal (shortest) length, and every witness
    # actually separates the languages.
    atoms = ["a", "b", "a b", "a|b", "a*", "a+", "b a", "(a b)*", "a?"]
    if suite == "smoke":
        atoms, n_random = atoms[:6], 10
    else:
        n_random = 30
    rng = random.Random(11)
    nfa_pairs = [
        (parse_regex(x).to_nfa().trim().renumber(),
         parse_regex(y).to_nfa().trim().renumber())
        for x in atoms for y in atoms
    ]
    nfa_pairs += [
        (random_regex(rng, alphabet, 3).to_nfa().trim().renumber(),
         random_regex(rng, alphabet, 3).to_nfa().trim().renumber())
        for _ in range(n_random)
    ]
    agreements = disagreements = refuted = 0
    for left, right in nfa_pairs:
        witnesses = {}
        for kernel in ("subset", "antichain"):
            clear_caches()
            witnesses[kernel] = containment_counterexample(
                left, right, alphabet, kernel=kernel
            )
        sub, anti = witnesses["subset"], witnesses["antichain"]
        same_verdict = (sub is None) == (anti is None)
        valid = True
        if anti is not None:
            valid = (
                len(sub) == len(anti)
                and left.accepts(anti)
                and not right.accepts(anti)
            )
            refuted += 1
        if same_verdict and valid:
            agreements += 1
        else:
            disagreements += 1

    # E4-style family: Theorem 5 fold pipelines (including the paper's
    # divergence example) through both kernels of the on-the-fly search.
    tworpq_family = [("p", "p p-"), ("p", "p p- p")]
    if suite == "full":
        tworpq_family.append(("a a", "a a-"))
    tworpq_rows: list[list[Any]] = []
    for left_text, right_text in tworpq_family:
        q1, q2 = TwoRPQ.parse(left_text), TwoRPQ.parse(right_text)
        row: list[Any] = [f"{left_text} <= {right_text}"]
        for kernel in ("subset", "antichain"):
            clear_caches()
            result = two_rpq_contained(q1, q2, kernel=kernel)
            row.append(result.verdict.value)
        tworpq_rows.append(row)

    # Blow-up family (a|b)* a (a|b)^n vs the n+1 suffix: the right-hand
    # determinization is the classic 2^n subset blow-up; the frontier
    # counts (subset configs vs antichain kept configs + peak) are the
    # structural fact the speedup rests on, gated bit-for-bit.
    sizes = (6, 8) if suite == "smoke" else (6, 8, 10, 12)
    frontier: list[list[int]] = []
    timed_pair = None
    for n in sizes:
        suffix = " ".join(["(a|b)"] * n)
        left = parse_regex(f"(a|b)* a {suffix}").to_nfa().trim().renumber()
        right = (
            parse_regex(f"(a|b)* a (a|b) {suffix}").to_nfa().trim().renumber()
        )
        counts = {}
        for kernel in ("subset", "antichain"):
            clear_caches()
            stats: dict[str, Any] = {}
            containment_counterexample(
                left, right, alphabet, kernel=kernel, kernel_stats=stats
            )
            counts[kernel] = stats
        frontier.append(
            [
                n,
                counts["subset"]["configs"],
                counts["antichain"]["configs"],
                counts["antichain"]["antichain_peak"],
                counts["antichain"]["subsumption_hits"],
            ]
        )
        timed_pair = (left, right)

    assert timed_pair is not None
    timed_left, timed_right = timed_pair

    def run_kernel(kernel: str) -> Callable[[], Any]:
        def thunk() -> None:
            clear_caches()
            containment_counterexample(
                timed_left, timed_right, alphabet, kernel=kernel
            )

        return thunk

    return {
        "exact": {
            "pairs": len(nfa_pairs),
            "agreements": agreements,
            "disagreements": disagreements,
            "refuted": refuted,
            "tworpq": tworpq_rows,
            "frontier": frontier,
        },
        "timed": {
            "blowup-subset": run_kernel("subset"),
            "blowup-antichain": run_kernel("antichain"),
        },
    }


@_experiment("evaluation-engine", "snapshot set-at-a-time evaluation vs baselines")
def _exp_evaluation(suite: str) -> dict[str, Any]:
    import random

    from ..automata.regex import random_regex
    from ..cache import clear_caches
    from ..crpq.evaluation import evaluate_uc2rpq
    from ..crpq.syntax import C2RPQ
    from ..graphdb.generators import random_graph
    from ..rpq.rpq import TwoRPQ

    alphabet = ("a", "b")
    n_queries = 8 if suite == "smoke" else 20
    rng = random.Random(17)
    queries = [
        TwoRPQ(random_regex(rng, alphabet, 3, allow_inverse=True))
        for _ in range(n_queries)
    ]
    db = random_graph(14, 40, alphabet, seed=23)

    # Hard gate 1: differential answer agreement — the all-sources BFS
    # (``query.evaluate``) and one single-source BFS per node
    # (``reach_from_source`` via ``query.targets``, after clearing the
    # caches so no all-pairs answer can be sliced) must produce identical
    # answer sets on every seeded query (sizes recorded so drift is
    # visible).
    agreements = disagreements = 0
    answer_sizes: list[int] = []
    for query in queries:
        clear_caches()
        fast = query.evaluate(db)
        clear_caches()
        slow = frozenset(
            (source, target)
            for source in db.nodes_in_order()
            for target in query.targets(db, source)
        )
        if fast == slow:
            agreements += 1
        else:
            disagreements += 1
        answer_sizes.append(len(fast))

    # Hard gate 2: snapshot invalidation — a cached result must never
    # survive a database mutation (the acceptance-criteria mutation test).
    mutable = random_graph(10, 20, alphabet, seed=29)
    probe = TwoRPQ.parse("a+")
    clear_caches()
    before = probe.evaluate(mutable)
    missing = next(
        (source, target)
        for source in mutable.nodes_in_order()
        for target in mutable.nodes_in_order()
        if (source, target) not in before
    )
    mutable.add_edge(missing[0], "a", missing[1])
    after = probe.evaluate(mutable)
    mutation_series = {
        "before_size": len(before),
        "after_size": len(after),
        "stale_served": after == before,
        "new_pair_answered": missing in after,
    }

    # Timed: the repeated-query workload (same queries re-evaluated
    # against an unchanged database).  The "sequential" arm clears the
    # evaluation caches between calls, reproducing the pre-snapshot
    # cost structure (recompile adjacency + re-run BFS per call).
    def repeated_snapshot() -> None:
        clear_caches()
        for _ in range(3):
            for query in queries:
                query.evaluate(db)

    def repeated_sequential() -> None:
        for _ in range(3):
            for query in queries:
                clear_caches()
                query.evaluate(db)

    # Timed: the multi-atom CRPQ workload — distinct regular atoms
    # anchored on the head, the shape benchmark A9 gates at >= 5x.
    crpq = C2RPQ.from_strings(
        "x,y",
        [
            ("(a|b)* a (a|b)*", "x", "y"),
            ("a (b a-)+", "x", "y"),
            ("b- (a|b)+ a", "x", "z"),
            ("(a b)+ b-", "z", "y"),
        ],
    )

    def multi_atom_snapshot() -> None:
        clear_caches()
        for _ in range(5):
            evaluate_uc2rpq(crpq, db)

    def multi_atom_sequential() -> None:
        for _ in range(5):
            clear_caches()
            evaluate_uc2rpq(crpq, db)

    return {
        "exact": {
            "queries": len(queries),
            "agreements": agreements,
            "disagreements": disagreements,
            "answer_sizes": answer_sizes,
            "mutation": mutation_series,
        },
        "timed": {
            "repeated-query-snapshot": repeated_snapshot,
            "repeated-query-sequential": repeated_sequential,
            "multi-atom-crpq-snapshot": multi_atom_snapshot,
            "multi-atom-crpq-sequential": multi_atom_sequential,
        },
    }


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
    (and the cache-outcome exact series) describe this run alone.
    """
    specs = experiments_for(suite)
    reset_metrics()
    from ..cache import cache_stats, clear_caches

    clear_caches()
    experiments: list[dict[str, Any]] = []
    for spec in specs:
        built = spec.build(suite)
        timings = {
            name: time_workload(fn, repeats)
            for name, fn in sorted(built.get("timed", {}).items())
        }
        experiments.append(
            {
                "id": spec.id,
                "title": spec.title,
                "exact": _normalize(built["exact"]),
                "timings": timings,
            }
        )
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
    return problems


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
