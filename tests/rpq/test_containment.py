"""Tests for RPQ (Lemma 1) and 2RPQ (Theorem 5) containment."""

import pytest

from repro.budget import Budget
from repro.core.engine import check_equivalence
from repro.report import Verdict
from repro.rpq.containment import (
    paper_divergence_example,
    rpq_contained,
    two_rpq_contained,
)
from repro.rpq.rpq import RPQ, TwoRPQ


class TestRPQContainment:
    @pytest.mark.parametrize(
        "small,big",
        [("a a", "a+"), ("a b", "a (a|b)*"), ("a|b", "(a|b)?"), ("a a a", "(a a)* a")],
    )
    def test_holds(self, small, big):
        assert rpq_contained(RPQ.parse(small), RPQ.parse(big)).verdict is Verdict.HOLDS

    @pytest.mark.parametrize(
        "left,right", [("a+", "a a"), ("(a|b)+", "a+"), ("a*", "a+")]
    )
    def test_refuted_with_replayable_database(self, left, right):
        q1, q2 = RPQ.parse(left), RPQ.parse(right)
        result = rpq_contained(q1, q2)
        assert result.verdict is Verdict.REFUTED
        db = result.counterexample.database
        source, target = result.counterexample.output
        assert q1.matches(db, source, target)
        assert not q2.matches(db, source, target)

    def test_rejects_two_way_input(self):
        with pytest.raises(ValueError):
            rpq_contained(TwoRPQ.parse("a-"), TwoRPQ.parse("a"))  # type: ignore[arg-type]

    def test_alphabet_is_combined(self):
        """b is outside q1's own alphabet but inside the problem's."""
        result = rpq_contained(RPQ.parse("a"), RPQ.parse("a|b"))
        assert result.holds


class TestPaperDivergence:
    def test_example_of_section_3_2(self):
        """Q1 = p ⊑ Q2 = p p- p as queries, though not as languages."""
        example = paper_divergence_example()
        assert example.query_containment_holds
        assert not example.language_containment_holds


METHODS = ["shepherdson", "lemma4-onthefly", "lemma4-materialized"]


class TestTwoRPQContainment:
    @pytest.mark.parametrize("method", METHODS)
    def test_paper_example_all_methods(self, method):
        result = two_rpq_contained(
            TwoRPQ.parse("p"), TwoRPQ.parse("p p- p"), method=method
        )
        assert result.holds, method

    @pytest.mark.parametrize("method", METHODS)
    def test_refutation_all_methods(self, method):
        result = two_rpq_contained(
            TwoRPQ.parse("p p"), TwoRPQ.parse("p p- p"), method=method
        )
        assert result.verdict is Verdict.REFUTED, method
        db = result.counterexample.database
        source, target = result.counterexample.output
        assert TwoRPQ.parse("p p").matches(db, source, target)
        assert not TwoRPQ.parse("p p- p").matches(db, source, target)

    def test_methods_agree_on_random_pairs(self, rng):
        from repro.automata.regex import random_regex

        for _ in range(10):
            q1 = TwoRPQ(random_regex(rng, ("a", "b"), 2, allow_inverse=True))
            q2 = TwoRPQ(random_regex(rng, ("a", "b"), 2, allow_inverse=True))
            reference = two_rpq_contained(q1, q2, method="shepherdson")
            other = two_rpq_contained(q1, q2, method="lemma4-onthefly")
            assert reference.holds == other.holds, (q1, q2)

    def test_one_way_queries_supported(self):
        result = two_rpq_contained(TwoRPQ.parse("a a"), TwoRPQ.parse("a+"))
        assert result.holds

    def test_inverse_on_both_sides(self):
        assert two_rpq_contained(TwoRPQ.parse("a-"), TwoRPQ.parse("a- a a-")).holds

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            two_rpq_contained(TwoRPQ.parse("a"), TwoRPQ.parse("a"), method="nope")

    def test_equivalence(self):
        assert check_equivalence(TwoRPQ.parse("a a*"), TwoRPQ.parse("a+"))
        assert not check_equivalence(TwoRPQ.parse("a"), TwoRPQ.parse("a a- a"))

    @pytest.mark.parametrize("method", METHODS)
    def test_tiny_max_configs_degrades_instead_of_raising(self, method):
        """Regression: a tiny configuration cap used to leak the kernel's
        exception out of two_rpq_contained; it must report a bounded
        verdict."""
        result = two_rpq_contained(
            TwoRPQ.parse("p"),
            TwoRPQ.parse("p p- p"),
            method=method,
            budget=Budget(max_configs=1, max_states=1),
        )
        assert result.verdict is Verdict.HOLDS_UP_TO_BOUND, method
        assert result.details["budget"]["exhausted"] in ("configs", "states")

    def test_refutations_agree_with_semantic_check_on_random_graphs(self, rng):
        """Soundness of HOLDS: no random graph separates the queries."""
        from repro.automata.regex import random_regex
        from repro.graphdb.generators import random_graph

        for trial in range(8):
            q1 = TwoRPQ(random_regex(rng, ("a", "b"), 2, allow_inverse=True))
            q2 = TwoRPQ(random_regex(rng, ("a", "b"), 2, allow_inverse=True))
            if not two_rpq_contained(q1, q2).holds:
                continue
            for seed in range(3):
                db = random_graph(5, 10, ("a", "b"), seed=seed * 131 + trial)
                assert q1.evaluate(db) <= q2.evaluate(db), (q1, q2, seed)
