"""Tests for RQ containment (Theorem 7 class)."""

import pytest

from repro.budget import Budget
from repro.cq.syntax import Var
from repro.report import Verdict
from repro.rq.containment import rq_contained, rq_equivalent
from repro.rq.evaluation import satisfies_rq
from repro.rq.syntax import (
    And,
    Or,
    Project,
    TransitiveClosure,
    edge,
    path_query,
    triangle_plus,
    triangle_query,
)


class TestExactCases:
    def test_tc_free_left_is_exact(self):
        result = rq_contained(edge("e", "x", "y"), TransitiveClosure(edge("e", "x", "y")))
        assert result.verdict is Verdict.HOLDS

    def test_refutation_is_exact(self):
        result = rq_contained(TransitiveClosure(edge("e", "x", "y")), edge("e", "x", "y"))
        assert result.verdict is Verdict.REFUTED
        db = result.counterexample.database
        head = result.counterexample.output
        assert satisfies_rq(TransitiveClosure(edge("e", "x", "y")), db, head)
        assert not satisfies_rq(edge("e", "x", "y"), db, head)

    def test_triangle_in_triangle_plus(self):
        result = rq_contained(triangle_query(), triangle_plus())
        assert result.verdict is Verdict.HOLDS

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            rq_contained(edge("e", "x", "y"), Project(edge("e", "x", "y"), (Var("x"),)))


class TestBoundedCases:
    def test_tc_in_itself_is_bounded_positive(self):
        tc = TransitiveClosure(edge("e", "x", "y"))
        result = rq_contained(tc, tc, budget=Budget(max_expansions=30))
        assert result.verdict is Verdict.HOLDS_UP_TO_BOUND
        assert result.details["expansions_checked"] > 0

    def test_tc_vs_tc_of_union(self):
        small = TransitiveClosure(edge("a", "x", "y"))
        big = TransitiveClosure(Or(edge("a", "x", "y"), edge("b", "x", "y")))
        assert rq_contained(small, big, budget=Budget(max_expansions=25)).holds
        # The converse is refuted (a b-edge chain).
        result = rq_contained(big, small, budget=Budget(max_expansions=25))
        assert result.verdict is Verdict.REFUTED

    def test_triangle_plus_not_in_triangle(self):
        result = rq_contained(
            triangle_plus(), triangle_query(), budget=Budget(max_expansions=40)
        )
        assert result.verdict is Verdict.REFUTED

    def test_composition_vs_tc(self):
        """e;e ⊑ e+ (exact: TC-free left)."""
        two_hops = path_query(["e", "e"])
        tc = TransitiveClosure(edge("e", "x", "y"))
        assert rq_contained(two_hops, tc).verdict is Verdict.HOLDS


class TestEquivalence:
    def test_or_commutes(self):
        a = Or(edge("a", "x", "y"), edge("b", "x", "y"))
        b = Or(edge("b", "x", "y"), edge("a", "x", "y"))
        assert rq_equivalent(a, b)

    def test_tc_idempotent(self):
        tc = TransitiveClosure(edge("e", "x", "y"))
        tctc = TransitiveClosure(tc)
        assert rq_contained(tc, tctc, budget=Budget(max_expansions=20)).holds
        assert rq_contained(tctc, tc, budget=Budget(max_expansions=20)).holds


class TestCrossEngineConsistency:
    def test_agrees_with_2rpq_engine_on_regular_queries(self):
        """RQ expansion containment vs the exact Theorem 5 pipeline."""
        from repro.rpq.containment import two_rpq_contained
        from repro.rpq.rpq import TwoRPQ
        from repro.rq.embeddings import two_rpq_to_rq

        pairs = [("a a", "a+"), ("a+", "a a"), ("a b", "a (a|b)"), ("a", "a a- a")]
        for left, right in pairs:
            q1, q2 = TwoRPQ.parse(left), TwoRPQ.parse(right)
            exact = two_rpq_contained(q1, q2)
            via_rq = rq_contained(
                two_rpq_to_rq(q1, ("a", "b")),
                two_rpq_to_rq(q2, ("a", "b")),
                budget=Budget(max_expansions=40),
            )
            assert exact.holds == via_rq.holds, (left, right)
