"""Tests for containment procedures involving Datalog."""

import pytest

from repro.budget import Budget
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
        result = datalog_in_ucq(tc, UCQ((single,)), budget=Budget(max_expansions=20))
        assert result.verdict is Verdict.REFUTED
        # The smallest counterexample: a 2-chain.
        assert result.counterexample.database.num_facts == 2

    def test_recursive_positive_is_bounded(self, tc):
        everything = cq_from_strings("x,y", ["edge(x,u)", "edge(v,y)"])
        # tc(x,y) implies an edge leaves x and an edge enters y.
        result = datalog_in_ucq(
            tc, UCQ((everything,)), budget=Budget(max_expansions=20)
        )
        assert result.verdict is Verdict.HOLDS_UP_TO_BOUND
        assert result.bound is not None


class TestDatalogInDatalog:
    def test_left_and_right_linear_tc_agree(self, tc):
        right = transitive_closure_program("edge", "tc", left_linear=False)
        assert datalog_equivalent_bounded(tc, right, budget=Budget(max_expansions=25))

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
        assert datalog_in_datalog(tc, rich, budget=Budget(max_expansions=25)).holds
        result = datalog_in_datalog(rich, tc, budget=Budget(max_expansions=25))
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
        result = datalog_in_datalog(tc, two_hop, budget=Budget(max_expansions=10))
        assert result.verdict is Verdict.REFUTED
        instance = result.counterexample.database
        head = result.counterexample.output
        assert head in evaluate(tc, instance)
        assert head not in evaluate(two_hop, instance)


def _expansion_callers():
    """Each caller of ``expansion_containment`` with its fixtures.

    Maps a caller to ``(check, method, exact_method, cases)``: *cases*
    holds a refutable pair, a pair with a nonrecursive left side, and a
    recursive pair that holds; *exact_method* is the method name the
    nonrecursive pair reports.
    """
    from repro.grq.containment import grq_contained
    from repro.rq.containment import rq_contained
    from repro.rq.syntax import TransitiveClosure, edge, path_query

    tc = transitive_closure_program("edge", "tc")
    two_hop = parse_program("p(x, z) :- edge(x, y), edge(y, z).", goal="p")
    programs = {"refuted": (tc, two_hop), "exact": (two_hop, tc), "bounded": (tc, tc)}
    rq_tc = TransitiveClosure(edge("edge", "x", "y"))
    single = UCQ((cq_from_strings("x,y", ["edge(x,y)"]),))
    everything = UCQ((cq_from_strings("x,y", ["edge(x,u)", "edge(v,y)"]),))
    return {
        "rq": (
            rq_contained,
            "rq-expansion",
            "rq-expansion",
            {
                "refuted": (rq_tc, edge("edge", "x", "y")),
                "exact": (path_query(["edge", "edge"]), rq_tc),
                "bounded": (rq_tc, rq_tc),
            },
        ),
        "grq": (grq_contained, "grq-expansion", "grq-expansion", programs),
        "datalog": (
            datalog_in_datalog,
            "expansion-vs-evaluation",
            "expansion-vs-evaluation",
            programs,
        ),
        "datalog-ucq": (
            datalog_in_ucq,
            "expansion",
            "unfold-to-ucq",
            {
                "refuted": (tc, single),
                "exact": (two_hop, everything),
                "bounded": (tc, everything),
            },
        ),
    }


@pytest.mark.parametrize("caller", ["rq", "grq", "datalog", "datalog-ucq"])
def test_expansion_containment_callers(caller):
    """The shared expansion loop gives every tower the same verdicts."""
    check, method, exact_method, cases = _expansion_callers()[caller]

    refuted = check(*cases["refuted"])
    assert refuted.verdict is Verdict.REFUTED
    assert refuted.method == method
    assert refuted.counterexample is not None
    assert refuted.details["expansions_checked"] >= 1

    exact = check(*cases["exact"])
    assert exact.verdict is Verdict.HOLDS
    assert exact.method == exact_method

    bounded = check(*cases["bounded"], budget=Budget(max_expansions=5))
    assert bounded.verdict is Verdict.HOLDS_UP_TO_BOUND
    assert bounded.method == method
    assert bounded.bound == 5
    assert bounded.details["expansions_checked"] == 5
    assert bounded.details["budget"]["spend"]["expansions"] == 5

    # Enough applications for the meter to poll its (already spent)
    # deadline before the enumeration ends on its own.
    spent = check(
        *cases["bounded"], budget=Budget(deadline_ms=0.0, max_applications=200)
    )
    assert spent.verdict is Verdict.INCONCLUSIVE
    assert spent.method == method
    assert spent.details["budget"]["exhausted"] == "deadline"
