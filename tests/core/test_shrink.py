"""Tests for counterexample shrinking."""

import pytest

from repro.budget import Budget
from repro.core.engine import check_containment
from repro.core.shrink import shrink_counterexample
from repro.core.witness import holds_on
from repro.crpq.syntax import paper_example_1
from repro.datalog.syntax import transitive_closure_program
from repro.graphdb.database import GraphDatabase
from repro.report import ContainmentResult, Counterexample, Verdict
from repro.rpq.rpq import RPQ, TwoRPQ
from repro.rq.syntax import triangle_plus, triangle_query


def separated(q1, q2, witness):
    return holds_on(q1, witness.database, witness.output) and not holds_on(
        q2, witness.database, witness.output
    )


class TestShrink:
    def test_padded_witness_shrinks(self):
        """A witness with irrelevant extra edges loses them."""
        q1, q2 = RPQ.parse("a"), RPQ.parse("a a")
        bulky = GraphDatabase.from_edges(
            [(0, "a", 1), (5, "a", 6), (6, "b", 7), (9, "a", 9)]
        )
        result = ContainmentResult(
            Verdict.REFUTED, "manual", Counterexample(bulky, (0, 1))
        )
        small = shrink_counterexample(q1, q2, result)
        assert small.database.num_edges == 1
        assert separated(q1, q2, small)

    def test_engine_witnesses_stay_valid(self):
        cases = [
            (TwoRPQ.parse("p p"), TwoRPQ.parse("p p- p")),
            (triangle_plus(), triangle_query()),
        ]
        for q1, q2 in cases:
            result = check_containment(q1, q2, budget=Budget(max_expansions=60))
            assert result.verdict is Verdict.REFUTED
            small = shrink_counterexample(q1, q2, result)
            assert separated(q1, q2, small)
            assert small.database.num_edges <= result.counterexample.database.num_edges

    def test_local_minimality(self):
        """Removing any remaining edge destroys the separation."""
        q1, q2 = triangle_plus(), triangle_query()
        result = check_containment(q1, q2, budget=Budget(max_expansions=60))
        small = shrink_counterexample(q1, q2, result)
        edges = list(small.database.edges())
        for edge in edges:
            pruned = GraphDatabase.from_edges(
                [e for e in edges if e != edge], nodes=small.database.nodes
            )
            assert not (
                holds_on(q1, pruned, small.output)
                and not holds_on(q2, pruned, small.output)
            ), edge

    def test_relational_witness(self):
        tc = transitive_closure_program("e", "tc")
        from repro.cq.syntax import cq_from_strings

        two_hop = cq_from_strings("x,z", ["e(x,y)", "e(y,z)"])
        result = check_containment(tc, two_hop, budget=Budget(max_expansions=20))
        assert result.verdict is Verdict.REFUTED
        small = shrink_counterexample(tc, two_hop, result)
        # The minimal separator is the single edge (tc answers it, the
        # 2-hop CQ does not).
        assert small.database.num_facts == 1

    def test_rejects_positive_results(self):
        result = ContainmentResult(Verdict.HOLDS, "manual")
        with pytest.raises(ValueError):
            shrink_counterexample(RPQ.parse("a"), RPQ.parse("a"), result)

    def test_rejects_bogus_counterexample(self):
        db = GraphDatabase.from_edges([(0, "a", 1)])
        bogus = ContainmentResult(
            Verdict.REFUTED, "manual", Counterexample(db, (0, 1))
        )
        with pytest.raises(ValueError):
            shrink_counterexample(RPQ.parse("a"), RPQ.parse("a|b"), bogus)
