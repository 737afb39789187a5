"""Tests for unfolding and expansion enumeration."""

import itertools

import pytest

from repro.cq.evaluation import evaluate_ucq
from repro.cq.syntax import Var
from repro.datalog.evaluation import evaluate
from repro.datalog.parser import parse_program
from repro.datalog.syntax import transitive_closure_program
from repro.datalog.unfolding import enumerate_expansions, unfold_nonrecursive
from repro.relational.generators import random_instance


class TestUnfoldNonrecursive:
    def test_two_disjuncts(self):
        program = parse_program(
            """
            out(x, z) :- mid(x, y), edge(y, z).
            mid(x, y) :- edge(x, y).
            mid(x, y) :- edge(x, w), edge(w, y).
            """,
            goal="out",
        )
        ucq = unfold_nonrecursive(program)
        assert len(ucq) == 2
        assert {len(cq.body) for cq in ucq} == {2, 3}

    def test_unfolding_is_semantically_equivalent(self):
        """Section 2.2: nonrecursive Datalog ≡ UCQ, checked semantically."""
        program = parse_program(
            """
            out(x) :- a(x, y), mid(y).
            mid(y) :- b(y).
            mid(y) :- c(y, z), b(z).
            """,
            goal="out",
        )
        ucq = unfold_nonrecursive(program)
        for seed in range(4):
            db = random_instance({"a": 2, "b": 1, "c": 2}, 5, 8, seed=seed)
            assert frozenset(evaluate(program, db)) == evaluate_ucq(ucq, db)

    def test_recursive_rejected(self):
        with pytest.raises(ValueError):
            unfold_nonrecursive(transitive_closure_program())

    def test_diamond_dependencies_unfold_all_paths(self):
        program = parse_program(
            """
            top(x) :- left(x).
            top(x) :- right(x).
            left(x) :- base(x, y).
            right(x) :- base(y, x).
            """,
            goal="top",
        )
        assert len(unfold_nonrecursive(program)) == 2


class TestEnumerateExpansions:
    def test_tc_expansions_are_chains(self):
        tc = transitive_closure_program("edge", "tc")
        expansions = list(enumerate_expansions(tc, max_expansions=4))
        assert [len(cq.body) for cq in expansions] == [1, 2, 3, 4]
        for cq in expansions:
            # Each expansion is a simple edge-chain from g0 to g1.
            assert all(atom.predicate == "edge" for atom in cq.body)
            assert cq.head_vars == (Var("g0"), Var("g1"))

    def test_breadth_first_order(self):
        tc = transitive_closure_program("edge", "tc")
        sizes = [len(cq.body) for cq in enumerate_expansions(tc, max_expansions=6)]
        assert sizes == sorted(sizes)

    def test_max_applications_bounds_depth(self):
        tc = transitive_closure_program("edge", "tc")
        expansions = list(enumerate_expansions(tc, max_applications=3))
        assert max(len(cq.body) for cq in expansions) <= 3

    def test_max_atoms_prunes(self):
        tc = transitive_closure_program("edge", "tc")
        expansions = list(enumerate_expansions(tc, max_atoms=2, max_applications=10))
        assert all(len(cq.body) <= 2 for cq in expansions)

    def test_repeated_head_variables_identify_terms(self):
        """Rules with repeated head variables must rewrite the goal tuple."""
        program = parse_program(
            """
            diag(x, x) :- node(x).
            """,
            goal="diag",
        )
        (expansion,) = list(enumerate_expansions(program))
        assert expansion.head_vars[0] == expansion.head_vars[1]

    def test_head_constants_skipped(self):
        program = parse_program(
            """
            weird(1, 2) :- node(x).
            ok(x, y) :- pair(x, y).
            weird(x, y) :- ok(x, y).
            """,
            goal="weird",
        )
        expansions = list(enumerate_expansions(program))
        # Only the variable-headed expansion is a CQ.
        assert len(expansions) == 1
        assert expansions[0].body[0].predicate == "pair"

    def test_each_expansion_contained_in_program(self):
        """Soundness: every expansion's canonical db derives the goal."""
        tc = transitive_closure_program("edge", "tc")
        for cq in enumerate_expansions(tc, max_expansions=5):
            instance, head = cq.canonical_instance()
            assert head in evaluate(tc, instance)
