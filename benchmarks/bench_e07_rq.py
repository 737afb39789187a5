"""E7 — Theorem 7 class: RQ containment.

Rows reported:
- verdicts on the triangle/triangle+ family (the paper's flagship RQ),
- expansion-count and runtime growth as the application bound deepens
  (the 2EXPSPACE shadow), and
- the exact/bounded split: TC-free left sides get unconditional HOLDS.
"""

import time

from repro.budget import Budget
from repro.rq.containment import rq_contained
from repro.rq.syntax import (
    Or,
    TransitiveClosure,
    edge,
    path_query,
    triangle_plus,
    triangle_query,
)


def test_e07_triangle_family(benchmark, report, once_benchmark):
    instances = [
        ("triangle ⊑ triangle+", triangle_query(), triangle_plus()),
        ("triangle+ ⊑ triangle", triangle_plus(), triangle_query()),
        ("edge ⊑ edge+", edge("r", "x", "y"), TransitiveClosure(edge("r", "x", "y"))),
        ("edge+ ⊑ edge", TransitiveClosure(edge("r", "x", "y")), edge("r", "x", "y")),
        (
            "e+ ⊑ (e|f)+",
            TransitiveClosure(edge("e", "x", "y")),
            TransitiveClosure(Or(edge("e", "x", "y"), edge("f", "x", "y"))),
        ),
    ]

    def run():
        rows = []
        for label, q1, q2 in instances:
            start = time.perf_counter()
            result = rq_contained(
                q1, q2, budget=Budget(max_applications=24, max_expansions=150)
            )
            rows.append(
                [
                    label,
                    result.verdict.value,
                    result.details.get("expansions_checked", "-"),
                    f"{(time.perf_counter() - start) * 1000:.1f}",
                ]
            )
        return rows

    rows = once_benchmark(benchmark, run)
    report(
        "E7",
        "RQ containment on the triangle/TC family",
        ["instance", "verdict", "expansions", "ms"],
        rows,
        note="TC-free left sides yield exact HOLDS; recursive ones are bounded",
    )
    verdicts = {row[0]: row[1] for row in rows}
    assert verdicts["triangle ⊑ triangle+"] == "holds"
    assert verdicts["triangle+ ⊑ triangle"] == "refuted"
    assert verdicts["edge+ ⊑ edge"] == "refuted"


def test_e07_budget_scaling(benchmark, report, once_benchmark):
    """Cost of deepening the expansion exploration for tri+ ⊑ tri+."""
    tp = triangle_plus()

    def run():
        rows = []
        for applications in (8, 16, 24, 32):
            start = time.perf_counter()
            result = rq_contained(
                tp,
                tp,
                budget=Budget(max_applications=applications, max_expansions=10_000),
            )
            rows.append(
                [
                    applications,
                    result.details["expansions_checked"],
                    f"{(time.perf_counter() - start) * 1000:.0f}",
                    result.verdict.value,
                ]
            )
        return rows

    rows = once_benchmark(benchmark, run)
    report(
        "E7",
        "expansion exploration vs application bound (triangle+ ⊑ triangle+)",
        ["application bound", "expansions checked", "ms", "verdict"],
        rows,
        note="each extra TC unrolling multiplies the canonical databases — "
        "the practical face of 2EXPSPACE-hardness",
    )
    counts = [row[1] for row in rows]
    assert counts == sorted(counts)


def test_e07_exactness_split(benchmark, report, once_benchmark):
    def run():
        exact = rq_contained(path_query(["e", "e"]), TransitiveClosure(edge("e", "x", "y")))
        bounded = rq_contained(
            TransitiveClosure(edge("e", "x", "y")),
            TransitiveClosure(edge("e", "x", "y")),
            budget=Budget(max_expansions=30),
        )
        return [
            ["e;e ⊑ e+ (TC-free left)", exact.verdict.value],
            ["e+ ⊑ e+ (recursive left)", bounded.verdict.value],
        ]

    rows = once_benchmark(benchmark, run)
    report(
        "E7",
        "verdict kinds by left-side recursion",
        ["instance", "verdict"],
        rows,
        note="the HOLDS / HOLDS_UP_TO_BOUND split is the DESIGN.md contract",
    )
    assert rows[0][1] == "holds" and rows[1][1] == "holds_up_to_bound"
