"""Tests for Chandra-Merlin and Sagiv-Yannakakis containment."""

import pytest

from repro.core.engine import check_equivalence
from repro.cq.containment import cq_contained, ucq_contained
from repro.cq.evaluation import evaluate_cq, evaluate_ucq
from repro.cq.syntax import UCQ, cq_from_strings
from repro.relational.generators import random_instance
from repro.report import Verdict


class TestCQContainment:
    def test_longer_path_in_shorter_is_false(self):
        path2 = cq_from_strings("x,z", ["E(x,y)", "E(y,z)"])
        path3 = cq_from_strings("x,w", ["E(x,y)", "E(y,z)", "E(z,w)"])
        assert not cq_contained(path2, path3)
        assert not cq_contained(path3, path2)

    def test_adding_atoms_shrinks(self):
        small = cq_from_strings("x", ["E(x,y)", "E(y,z)"])
        big = cq_from_strings("x", ["E(x,y)"])
        assert cq_contained(small, big)
        assert not cq_contained(big, small)

    def test_triangle_in_cycle_queries(self):
        triangle = cq_from_strings("x", ["E(x,y)", "E(y,z)", "E(z,x)"])
        hexagon = cq_from_strings(
            "x",
            ["E(x,a)", "E(a,b)", "E(b,c)", "E(c,d)", "E(d,e)", "E(e,x)"],
        )
        # A triangle maps onto... itself twice around = hexagon pattern maps
        # into triangle (6 = 2*3), but not vice versa.
        assert cq_contained(triangle, hexagon)
        assert not cq_contained(hexagon, triangle)

    def test_constants_matter(self):
        with_const = cq_from_strings("x", ["E(x, 5)"])
        without = cq_from_strings("x", ["E(x, y)"])
        assert cq_contained(with_const, without)
        assert not cq_contained(without, with_const)

    def test_equivalent_renamings(self):
        a = cq_from_strings("x", ["E(x,y)"])
        b = cq_from_strings("x", ["E(x,z)"])
        assert check_equivalence(a, b)

    def test_containment_implies_answers_subset(self):
        """Semantic soundness on random instances."""
        small = cq_from_strings("x", ["E(x,y)", "E(y,x)"])
        big = cq_from_strings("x", ["E(x,y)"])
        assert cq_contained(small, big)
        for seed in range(5):
            db = random_instance({"E": 2}, 6, 12, seed=seed)
            assert evaluate_cq(small, db) <= evaluate_cq(big, db)


class TestUCQContainment:
    def test_disjunct_wise(self):
        e = cq_from_strings("x,y", ["E(x,y)"])
        p2 = cq_from_strings("x,z", ["E(x,y)", "E(y,z)"])
        union = UCQ((e, p2))
        assert ucq_contained(e, union).holds
        assert ucq_contained(p2, union).holds
        assert not ucq_contained(union, p2).holds

    def test_needs_whole_union(self):
        """A CQ can be contained in a UCQ without being in any single
        disjunct only through case analysis on instances — for plain CQs
        over one relation the per-disjunct rule is complete, which this
        test pins down (Sagiv-Yannakakis)."""
        p2 = cq_from_strings("x,z", ["E(x,y)", "E(y,z)"])
        e = cq_from_strings("x,y", ["E(x,y)"])
        union = UCQ((e, p2))
        result = ucq_contained(union, UCQ((e,)))
        assert result.verdict is Verdict.REFUTED
        counterexample = result.counterexample
        # Replay: the counterexample separates the queries.
        assert counterexample.output in evaluate_ucq(union, counterexample.database)
        assert counterexample.output not in evaluate_ucq(
            UCQ((e,)), counterexample.database
        )

    def test_arity_mismatch_raises(self):
        a = cq_from_strings("x", ["E(x,y)"])
        b = cq_from_strings("x,y", ["E(x,y)"])
        with pytest.raises(ValueError):
            ucq_contained(a, b)

    def test_equivalence(self):
        e = cq_from_strings("x,y", ["E(x,y)"])
        e_twice = UCQ((e, cq_from_strings("x,y", ["E(x,y)", "E(x,w)"])))
        assert check_equivalence(UCQ((e,)), e_twice)

    def test_counterexamples_always_replay(self):
        """Every refutation this module produces must be replayable."""
        pairs = [
            (cq_from_strings("x", ["E(x,y)"]), cq_from_strings("x", ["E(x,x)"])),
            (
                cq_from_strings("x,y", ["E(x,y)"]),
                cq_from_strings("x,y", ["E(y,x)"]),
            ),
        ]
        for q1, q2 in pairs:
            result = ucq_contained(q1, q2)
            assert result.verdict is Verdict.REFUTED
            database, head = result.counterexample.database, result.counterexample.output
            assert head in evaluate_cq(q1, database)
            assert head not in evaluate_cq(q2, database)
