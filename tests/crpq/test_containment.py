"""Tests for UC2RPQ containment (Theorem 6 class)."""

import pytest

from repro.budget import Budget
from repro.core.engine import check_equivalence
from repro.crpq.containment import uc2rpq_contained
from repro.crpq.evaluation import satisfies_uc2rpq
from repro.crpq.syntax import C2RPQ, UC2RPQ, paper_example_1, two_rpq_as_uc2rpq
from repro.report import Verdict
from repro.rpq.containment import two_rpq_contained
from repro.rpq.rpq import TwoRPQ


class TestBasicContainment:
    def test_disjunct_in_union(self):
        triangle, union = paper_example_1()
        result = uc2rpq_contained(triangle, union)
        assert result.verdict is Verdict.HOLDS  # finite languages: exact

    def test_union_not_in_disjunct(self):
        triangle, union = paper_example_1()
        result = uc2rpq_contained(union, triangle)
        assert result.verdict is Verdict.REFUTED
        db = result.counterexample.database
        head = result.counterexample.output
        assert satisfies_uc2rpq(union, db, head)
        assert not satisfies_uc2rpq(triangle, db, head)

    def test_adding_atoms_shrinks(self):
        small = C2RPQ.from_strings("x,y", [("a", "x", "y"), ("b", "x", "z")])
        big = C2RPQ.from_strings("x,y", [("a", "x", "y")])
        assert uc2rpq_contained(small, big).verdict is Verdict.HOLDS
        assert uc2rpq_contained(big, small).verdict is Verdict.REFUTED

    def test_arity_mismatch(self):
        a = C2RPQ.from_strings("x", [("a", "x", "y")])
        b = C2RPQ.from_strings("x,y", [("a", "x", "y")])
        with pytest.raises(ValueError):
            uc2rpq_contained(a, b)


class TestBoundedVerdicts:
    def test_infinite_left_language_gives_bounded_holds(self):
        plus = C2RPQ.from_strings("x,y", [("a+", "x", "y")])
        star_of = C2RPQ.from_strings("x,y", [("a a*|()", "x", "y")])
        result = uc2rpq_contained(plus, star_of, budget=Budget(max_total_length=5))
        assert result.verdict is Verdict.HOLDS_UP_TO_BOUND
        assert result.bound == 5

    def test_refutation_of_infinite_left_is_exact(self):
        plus = C2RPQ.from_strings("x,y", [("a+", "x", "y")])
        two = C2RPQ.from_strings("x,y", [("a a", "x", "y")])
        result = uc2rpq_contained(plus, two, budget=Budget(max_total_length=5))
        assert result.verdict is Verdict.REFUTED
        assert satisfies_uc2rpq(plus, *_unpack(result))
        assert not satisfies_uc2rpq(two, *_unpack(result))

    def test_finite_left_is_exact_even_past_default_bound(self):
        """Exhaustion bound auto-raises above max_total_length."""
        long_word = "a a a a a a a a"  # length 8 > default bound 6
        query = C2RPQ.from_strings("x,y", [(long_word, "x", "y")])
        star = C2RPQ.from_strings("x,y", [("a+", "x", "y")])
        result = uc2rpq_contained(query, star, budget=Budget(max_total_length=2))
        assert result.verdict is Verdict.HOLDS


class TestAgainstTwoRPQEngine:
    """Single-atom UC2RPQs must agree with the exact Theorem 5 engine."""

    PAIRS = [
        ("p", "p p- p"),
        ("p p", "p p- p"),
        ("a b", "a b|b a"),
        ("a", "a|b"),
        ("a b-", "a b- a a-"),
    ]

    @pytest.mark.parametrize("left,right", PAIRS)
    def test_agreement(self, left, right):
        q1, q2 = TwoRPQ.parse(left), TwoRPQ.parse(right)
        exact = two_rpq_contained(q1, q2)
        expansion = uc2rpq_contained(
            two_rpq_as_uc2rpq(q1),
            two_rpq_as_uc2rpq(q2),
            budget=Budget(max_total_length=6),
        )
        assert exact.holds == expansion.holds, (left, right)


class TestConjunctionVsIntersection:
    def test_paper_section_3_3_separation(self):
        """(Q1 ∩ Q2)(x,y) ⊑ Q1(x,y) & Q2(x,y), but not conversely.

        Q1 = a (b|c), Q2 = (a|d) b, so L(Q1) ∩ L(Q2) = {ab}.  One path
        labeled ab satisfies both conjuncts, hence the first containment;
        a database with an ac-path and a separate db-path satisfies the
        conjunction but has no single path in the intersection.
        """
        intersection = C2RPQ.from_strings("x,y", [("a b", "x", "y")])
        conjunction = C2RPQ.from_strings(
            "x,y", [("a (b|c)", "x", "y"), ("(a|d) b", "x", "y")]
        )
        assert uc2rpq_contained(intersection, conjunction).holds
        result = uc2rpq_contained(conjunction, intersection)
        assert result.verdict is Verdict.REFUTED
        db, head = _unpack(result)
        assert satisfies_uc2rpq(conjunction, db, head)
        assert not satisfies_uc2rpq(intersection, db, head)

    def test_equivalence_helper(self):
        a = C2RPQ.from_strings("x,y", [("a a*", "x", "y")])
        b = C2RPQ.from_strings("x,y", [("a+", "x", "y")])
        assert check_equivalence(a, b, budget=Budget(max_total_length=4))


def _unpack(result):
    return result.counterexample.database, result.counterexample.output
