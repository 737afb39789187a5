"""E11 — Sections 3.3-3.4: the expressiveness separations, empirically.

Rows reported:
- conjunction vs intersection over graphs (§3.3): a distinguishing
  database where the conjunction answers and the intersection does not,
  found automatically by the containment engine;
- UC2RPQ non-closure under TC (§3.4): triangle+ separated from each
  bounded unrolling, with the counterexample sizes (chains of k+1
  triangles);
- the relational mirror: E+ vs every bounded-length path UCQ.
"""

from repro.budget import Budget
from repro.cq.syntax import UCQ, Var, cq_from_strings
from repro.crpq.containment import uc2rpq_contained
from repro.crpq.syntax import C2RPQ
from repro.datalog.containment import datalog_in_ucq
from repro.datalog.syntax import transitive_closure_program
from repro.rq.containment import rq_contained
from repro.rq.syntax import And, Project, rename, triangle_plus, triangle_query


def test_e11_conjunction_vs_intersection(benchmark, report, once_benchmark):
    intersection = C2RPQ.from_strings("x,y", [("a b", "x", "y")])
    conjunction = C2RPQ.from_strings(
        "x,y", [("a (b|c)", "x", "y"), ("(a|d) b", "x", "y")]
    )

    def run():
        forward = uc2rpq_contained(intersection, conjunction)
        backward = uc2rpq_contained(conjunction, intersection)
        witness = backward.counterexample
        return [
            ["Q1∩Q2 ⊑ Q1∧Q2", forward.verdict.value, ""],
            [
                "Q1∧Q2 ⊑ Q1∩Q2",
                backward.verdict.value,
                f"{witness.database.num_edges}-edge witness",
            ],
        ]

    rows = once_benchmark(benchmark, run)
    report(
        "E11",
        "conjunction vs intersection over graphs (§3.3)",
        ["claim", "verdict", "witness"],
        rows,
        note="over words the two coincide; over graphs only one direction holds",
    )
    assert rows[0][1] == "holds" and rows[1][1] == "refuted"


def _unrolled_triangle(k: int):
    """triangle ∨ triangle² ∨ ... ∨ triangle^k as a TC-free RQ."""
    composed = triangle_query()
    union = triangle_query()
    for i in range(1, k):
        step = rename(triangle_query(), {"x": f"m{i}", "y": "y", "z": f"t{i}"})
        left = rename(composed, {"y": f"m{i}"})
        composed = Project(And(left, step), triangle_query().head_vars)
        union = union | composed
    return union


def test_e11_uc2rpq_not_closed_under_tc(benchmark, report, once_benchmark):
    def run():
        rows = []
        for k in (1, 2, 3):
            approx = _unrolled_triangle(k)
            under = rq_contained(
                approx, triangle_plus(), budget=Budget(max_expansions=200)
            )
            over = rq_contained(
                triangle_plus(),
                approx,
                budget=Budget(max_applications=10 * (k + 1), max_expansions=400),
            )
            witness_size = (
                over.counterexample.database.num_edges
                if over.counterexample
                else "-"
            )
            rows.append([k, under.verdict.value, over.verdict.value, witness_size])
        return rows

    rows = once_benchmark(benchmark, run)
    report(
        "E11",
        "triangle+ vs its k-fold unrollings (§3.4)",
        ["k", "unrolling ⊑ triangle+", "triangle+ ⊑ unrolling", "witness edges"],
        rows,
        note="every bounded approximation is strictly weaker: a chain of "
        "k+1 triangles separates (3(k+1) edges)",
    )
    for index, row in enumerate(rows):
        assert row[1] == "holds" and row[2] == "refuted"
        assert row[3] == 3 * (index + 2)


def test_e11_relational_mirror(benchmark, report, once_benchmark):
    """E+ is not any finite union of bounded path CQs."""
    tc = transitive_closure_program("e", "tc")

    def path_cq(length: int):
        atoms = [f"e(v{i}, v{i+1})" for i in range(length)]
        return cq_from_strings(f"v0,v{length}", atoms)

    def run():
        rows = []
        for bound in (1, 2, 3, 4):
            union = UCQ(tuple(path_cq(length) for length in range(1, bound + 1)))
            result = datalog_in_ucq(tc, union, budget=Budget(max_expansions=30))
            witness = (
                result.counterexample.database.num_facts
                if result.counterexample
                else "-"
            )
            rows.append([bound, result.verdict.value, witness])
        return rows

    rows = once_benchmark(benchmark, run)
    report(
        "E11",
        "E+ vs unions of paths up to length k (relational mirror)",
        ["k", "E+ ⊑ paths≤k", "witness facts"],
        rows,
        note="always refuted by the (k+1)-chain: recursion is essential "
        "(the paper's case for GRQ over UCQ)",
    )
    for index, row in enumerate(rows):
        assert row[1] == "refuted"
        assert row[2] == index + 2
