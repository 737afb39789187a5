"""A5 — performance architecture: the containment cache.

Repeated engine checks on the same pairs are served from the
canonical-form-keyed containment cache, with hit/miss counters to prove
it (DESIGN.md §5).

The bitset kernels have no in-tree baseline to time against: their
agreement with the object-state reference implementations in
``tests/oracles`` is property-tested in
``tests/automata/test_indexed_properties.py``, and EXPERIMENTS.md keeps
the last kernel-vs-baseline measurements.
"""

import time

from repro.cache import cache_stats, clear_caches
from repro.core.engine import check_containment
from repro.rpq.rpq import RPQ, TwoRPQ


def test_a5_containment_cache(benchmark, report, once_benchmark):
    """Repeated engine checks on the same pairs are served from cache."""
    pairs = [
        (RPQ.parse("a a"), RPQ.parse("a+")),
        (RPQ.parse("(a|b)* a"), RPQ.parse("(a|b)*")),
        (TwoRPQ.parse("p"), TwoRPQ.parse("p p- p")),
        (TwoRPQ.parse("a a"), TwoRPQ.parse("a a-")),
    ]
    rounds = 9

    def run():
        clear_caches(reset_stats=True)
        start = time.perf_counter()
        first = [check_containment(q1, q2) for q1, q2 in pairs]
        cold_ms = (time.perf_counter() - start) * 1000
        start = time.perf_counter()
        repeats = [
            check_containment(q1, q2) for _ in range(rounds) for q1, q2 in pairs
        ]
        warm_ms = (time.perf_counter() - start) * 1000 / rounds
        assert all(result.details["cache"] == "miss" for result in first)
        assert all(result.details["cache"] == "hit" for result in repeats)
        for repeat, cold in zip(repeats, first * rounds):
            assert repeat.verdict == cold.verdict
            assert repeat.method == cold.method
        stats = cache_stats()["containment"]
        assert stats["hits"] == rounds * len(pairs)
        assert stats["misses"] == len(pairs)
        return [
            [
                len(pairs),
                f"{cold_ms:.2f}",
                f"{warm_ms:.3f}",
                stats["hits"],
                stats["misses"],
                f"{cold_ms / max(warm_ms, 1e-9):.0f}x",
            ]
        ]

    rows = once_benchmark(benchmark, run)
    report(
        "A5",
        "containment cache: cold pass vs cached pass over the same pairs",
        ["pairs", "cold ms", "cached ms/pass", "hits", "misses", "speedup"],
        rows,
        note="repeat check(Q1, Q2) calls never re-run the decision procedure",
    )
