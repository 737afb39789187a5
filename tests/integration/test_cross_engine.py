"""Cross-engine consistency: independent procedures must agree.

The package contains several decision procedures whose domains overlap:
the automata pipeline (2RPQ), expansion checking (UC2RPQ, RQ, GRQ),
homomorphism checking (CQ/UCQ), and canonical-database evaluation
(anything vs Datalog).  These tests drive randomized inputs through two
or more of them and require identical verdicts — the strongest
correctness evidence the package has beyond brute force.
"""

import random

import pytest

from repro.budget import Budget
from repro.core.engine import check_containment
from repro.core.witness import verify_counterexample
from repro.crpq.containment import uc2rpq_contained
from repro.crpq.syntax import two_rpq_as_uc2rpq
from repro.datalog.containment import datalog_in_datalog
from repro.report import Verdict
from repro.rpq.containment import two_rpq_contained
from repro.rpq.rpq import TwoRPQ
from repro.rq.containment import rq_contained
from repro.rq.embeddings import two_rpq_to_rq
from repro.rq.to_datalog import rq_to_datalog


def random_two_rpqs(seed: int, count: int, alphabet=("a", "b"), depth=2):
    from repro.automata.regex import random_regex

    rng = random.Random(seed)
    return [
        TwoRPQ(random_regex(rng, alphabet, depth, allow_inverse=True))
        for _ in range(count)
    ]


class TestTwoRPQvsExpansion:
    def test_agreement_on_random_pairs(self):
        queries = random_two_rpqs(101, 8)
        compared = 0
        for q1 in queries[:4]:
            for q2 in queries[4:]:
                exact = two_rpq_contained(q1, q2)
                expansion = uc2rpq_contained(
                    two_rpq_as_uc2rpq(q1),
                    two_rpq_as_uc2rpq(q2),
                    budget=Budget(max_total_length=5),
                )
                if expansion.verdict is Verdict.REFUTED:
                    assert exact.verdict is Verdict.REFUTED, (q1, q2)
                if exact.holds:
                    assert expansion.holds, (q1, q2)
                compared += 1
        assert compared == 16


class TestTwoRPQvsRQEmbedding:
    def test_agreement_through_the_rq_engine(self):
        queries = random_two_rpqs(77, 6, alphabet=("a",), depth=2)
        for q1 in queries[:3]:
            for q2 in queries[3:]:
                exact = two_rpq_contained(q1, q2)
                via_rq = rq_contained(
                    two_rpq_to_rq(q1, ("a",)),
                    two_rpq_to_rq(q2, ("a",)),
                    budget=Budget(max_applications=16, max_expansions=120),
                )
                if via_rq.verdict is Verdict.REFUTED:
                    assert exact.verdict is Verdict.REFUTED, (q1, q2)
                if exact.holds:
                    assert via_rq.holds, (q1, q2)


class TestRQvsDatalog:
    def test_rq_engine_agrees_with_datalog_engine(self):
        """rq_contained vs datalog_in_datalog on the translated programs."""
        from repro.rq.syntax import Or, TransitiveClosure, edge, path_query

        candidates = [
            edge("a", "x", "y"),
            path_query(["a", "a"]),
            TransitiveClosure(edge("a", "x", "y")),
            Or(edge("a", "x", "y"), path_query(["a", "a"])),
        ]
        for q1 in candidates:
            for q2 in candidates:
                via_rq = rq_contained(q1, q2, budget=Budget(max_expansions=40))
                via_datalog = datalog_in_datalog(
                    rq_to_datalog(q1, prefix="l"),
                    rq_to_datalog(q2, prefix="r"),
                    budget=Budget(max_expansions=40),
                )
                assert via_rq.holds == via_datalog.holds, (q1, q2)


class TestEveryRefutationReplays:
    def test_engine_refutations_verify(self):
        queries = random_two_rpqs(55, 6)
        refutations = 0
        for q1 in queries[:3]:
            for q2 in queries[3:]:
                result = check_containment(q1, q2)
                if result.verdict is Verdict.REFUTED:
                    assert verify_counterexample(q1, q2, result), (q1, q2)
                    refutations += 1
        # Random pairs nearly always produce at least one refutation.
        assert refutations >= 1
