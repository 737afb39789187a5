"""E5 — Theorem 5: 2RPQ containment, on-the-fly vs materialized.

Series:
- runtime per check as query depth grows, for the production
  (Shepherdson) path and the paper-faithful Lemma 4 on-the-fly path;
- explored-configuration counts, demonstrating why "construct A on the
  fly" (the paper's step 5 remark) matters: the materialized Lemma 4
  pipeline is orders of magnitude more expensive already at toy sizes.
"""

import random
import statistics
import time

from repro.automata.onthefly import SearchStats
from repro.automata.regex import random_regex
from repro.budget import Budget
from repro.rpq.containment import two_rpq_contained
from repro.rpq.rpq import TwoRPQ

ALPHABET = ("a", "b")


def _sample(rng, depth, count):
    return [
        (
            TwoRPQ(random_regex(rng, ALPHABET, depth, allow_inverse=True)),
            TwoRPQ(random_regex(rng, ALPHABET, depth, allow_inverse=True)),
        )
        for _ in range(count)
    ]


def test_e05_method_scaling(benchmark, report, once_benchmark):
    rng = random.Random(3)

    def run():
        rows = []
        for depth in (1, 2, 3):
            pairs = _sample(rng, depth, 8)
            timings = {"shepherdson": [], "lemma4-onthefly": []}
            for method in timings:
                for q1, q2 in pairs:
                    start = time.perf_counter()
                    two_rpq_contained(q1, q2, method=method)
                    timings[method].append(time.perf_counter() - start)
            rows.append(
                [
                    depth,
                    f"{statistics.median(timings['shepherdson']) * 1000:.2f}",
                    f"{statistics.median(timings['lemma4-onthefly']) * 1000:.2f}",
                ]
            )
        return rows

    rows = once_benchmark(benchmark, run)
    report(
        "E5",
        "median ms/containment check by method",
        ["query depth", "shepherdson (production)", "lemma4 on-the-fly"],
        rows,
        note="both exact; the deterministic-table path wins by construction",
    )


def test_e05_onthefly_vs_materialized(benchmark, report, once_benchmark):
    """The paper's step-5 point: explored states << materialized states."""
    # Right-hand sides kept tiny: materializing the Lemma 4 complement of
    # larger folds exceeds hundreds of thousands of states (that is the
    # experiment's point).
    instances = [("p", "p p-"), ("p", "p p- p"), ("a a", "a a-")]

    def run():
        from repro.automata.alphabet import Alphabet
        from repro.automata.complement import complement_two_nfa
        from repro.automata.fold import fold_two_nfa

        rows = []
        for left, right in instances:
            q1, q2 = TwoRPQ.parse(left), TwoRPQ.parse(right)
            sigma_pm = Alphabet(
                tuple(sorted(q1.base_symbols() | q2.base_symbols()))
            ).two_way
            stats = SearchStats()
            verdict = two_rpq_contained(q1, q2, method="lemma4-onthefly", stats=stats)
            folded = fold_two_nfa(q2.nfa, sigma_pm)
            materialized = complement_two_nfa(
                folded, meter=Budget(max_states=500_000).start()
            )
            rows.append(
                [
                    left,
                    right,
                    verdict.verdict.value,
                    stats.explored,
                    materialized.num_states,
                ]
            )
        return rows

    rows = once_benchmark(benchmark, run)
    report(
        "E5",
        "on-the-fly explored product configs vs materialized complement size",
        ["Q1", "Q2", "verdict", "explored configs", "materialized states"],
        rows,
        note="on-the-fly explores a small fraction of the complement automaton",
    )
    for row in rows:
        assert row[3] <= row[4] * 4  # explored stays in the same ballpark or below
