"""Tests for containment procedures involving Datalog."""

import pytest

from repro.report import Verdict
from repro.cq.syntax import UCQ, cq_from_strings
from repro.datalog.containment import (
    cq_in_datalog,
    datalog_equivalent_bounded,
    datalog_in_datalog,
    datalog_in_ucq,
    ucq_in_datalog,
)
from repro.datalog.evaluation import evaluate
from repro.datalog.parser import parse_program
from repro.datalog.syntax import transitive_closure_program


@pytest.fixture
def tc():
    return transitive_closure_program("edge", "tc")


class TestUCQInDatalog:
    def test_path_cq_in_tc(self, tc):
        path3 = cq_from_strings("x,w", ["edge(x,y)", "edge(y,z)", "edge(z,w)"])
        assert cq_in_datalog(path3, tc).verdict is Verdict.HOLDS

    def test_reversed_path_not_in_tc(self, tc):
        reverse = cq_from_strings("x,y", ["edge(y,x)"])
        result = cq_in_datalog(reverse, tc)
        assert result.verdict is Verdict.REFUTED
        instance, = (result.counterexample.database,)
        assert result.counterexample.output not in evaluate(tc, instance)

    def test_union_checked_disjunctwise(self, tc):
        good = cq_from_strings("x,y", ["edge(x,y)"])
        bad = cq_from_strings("x,y", ["edge(y,x)"])
        assert ucq_in_datalog(UCQ((good,)), tc).verdict is Verdict.HOLDS
        assert ucq_in_datalog(UCQ((good, bad)), tc).verdict is Verdict.REFUTED

    def test_arity_mismatch(self, tc):
        unary = cq_from_strings("x", ["edge(x,y)"])
        with pytest.raises(ValueError):
            cq_in_datalog(unary, tc)


class TestDatalogInUCQ:
    def test_nonrecursive_is_exact(self):
        program = parse_program(
            """
            out(x, y) :- edge(x, y).
            out(x, z) :- edge(x, y), edge(y, z).
            """,
            goal="out",
        )
        union = UCQ(
            (
                cq_from_strings("x,y", ["edge(x,y)"]),
                cq_from_strings("x,z", ["edge(x,y)", "edge(y,z)"]),
            )
        )
        assert datalog_in_ucq(program, union).verdict is Verdict.HOLDS

    def test_recursive_refutation_is_exact(self, tc):
        single = cq_from_strings("x,y", ["edge(x,y)"])
        result = datalog_in_ucq(tc, UCQ((single,)), max_expansions=20)
        assert result.verdict is Verdict.REFUTED
        # The smallest counterexample: a 2-chain.
        assert result.counterexample.database.num_facts == 2

    def test_recursive_positive_is_bounded(self, tc):
        everything = cq_from_strings("x,y", ["edge(x,u)", "edge(v,y)"])
        # tc(x,y) implies an edge leaves x and an edge enters y.
        result = datalog_in_ucq(tc, UCQ((everything,)), max_expansions=20)
        assert result.verdict is Verdict.HOLDS_UP_TO_BOUND
        assert result.bound is not None


class TestDatalogInDatalog:
    def test_left_and_right_linear_tc_agree(self, tc):
        right = transitive_closure_program("edge", "tc", left_linear=False)
        assert datalog_equivalent_bounded(tc, right, max_expansions=25)

    def test_tc_contains_squared_tc(self, tc):
        """tc over edge ⊑ tc over (edge ∪ edge²) — and not conversely."""
        rich = parse_program(
            """
            hop(x, y) :- edge(x, y).
            hop(x, z) :- edge(x, y), edge(y, z).
            tc2(x, y) :- hop(x, y).
            tc2(x, z) :- tc2(x, y), hop(y, z).
            """,
            goal="tc2",
        )
        assert datalog_in_datalog(tc, rich, max_expansions=25).holds
        result = datalog_in_datalog(rich, tc, max_expansions=25)
        assert result.verdict is Verdict.HOLDS_UP_TO_BOUND  # actually equivalent

    def test_goal_arity_mismatch(self, tc):
        unary = parse_program("q(x) :- edge(x, y).")
        with pytest.raises(ValueError):
            datalog_in_datalog(tc, unary)

    def test_nonrecursive_left_gives_exact_holds(self, tc):
        two_hop = parse_program(
            "p(x, z) :- edge(x, y), edge(y, z).", goal="p"
        )
        assert datalog_in_datalog(two_hop, tc).verdict is Verdict.HOLDS

    def test_refutation_counterexample_replays(self, tc):
        two_hop = parse_program("p(x, z) :- edge(x, y), edge(y, z).", goal="p")
        result = datalog_in_datalog(tc, two_hop, max_expansions=10)
        assert result.verdict is Verdict.REFUTED
        instance = result.counterexample.database
        head = result.counterexample.output
        assert head in evaluate(tc, instance)
        assert head not in evaluate(two_hop, instance)
