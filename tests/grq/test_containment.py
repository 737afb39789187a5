"""Tests for GRQ containment (Theorem 8 class)."""

import pytest

from repro.budget import Budget
from repro.datalog.evaluation import evaluate
from repro.datalog.parser import parse_program
from repro.datalog.syntax import reachability_program, transitive_closure_program
from repro.grq.containment import NotGRQError, grq_contained, grq_equivalent
from repro.report import Verdict


@pytest.fixture
def tc():
    return transitive_closure_program("edge", "tc")


class TestVerdicts:
    def test_left_right_linear_equivalent(self, tc):
        other = transitive_closure_program("edge", "tc", left_linear=False)
        assert grq_equivalent(tc, other)

    def test_tc_in_tc_over_richer_base(self, tc):
        rich = parse_program(
            """
            base(x, y) :- edge(x, y).
            base(x, y) :- shortcut(x, y).
            tcr(x, y) :- base(x, y).
            tcr(x, z) :- tcr(x, y), base(y, z).
            """,
            goal="tcr",
        )
        assert grq_contained(tc, rich, budget=Budget(max_expansions=25)).holds
        result = grq_contained(rich, tc, budget=Budget(max_expansions=25))
        assert result.verdict is Verdict.REFUTED  # shortcut-edges escape tc

    def test_nonrecursive_left_exact(self, tc):
        hop = parse_program("hop(x, z) :- edge(x, y), edge(y, z).", goal="hop")
        assert grq_contained(hop, tc).verdict is Verdict.HOLDS

    def test_refutation_replays(self, tc):
        hop = parse_program("hop(x, z) :- edge(x, y), edge(y, z).", goal="hop")
        result = grq_contained(tc, hop, budget=Budget(max_expansions=20))
        assert result.verdict is Verdict.REFUTED
        instance = result.counterexample.database
        head = result.counterexample.output
        assert head in evaluate(tc, instance)
        assert head not in evaluate(hop, instance)

    def test_arity_mismatch(self, tc):
        unary = parse_program("u(x) :- edge(x, y).", goal="u")
        with pytest.raises(ValueError):
            grq_contained(tc, unary)


class TestMembershipGate:
    def test_non_grq_left_rejected(self, tc):
        with pytest.raises(NotGRQError) as excinfo:
            grq_contained(reachability_program(), tc)
        assert "left" in str(excinfo.value)

    def test_non_grq_right_rejected(self, tc):
        nonlinear = parse_program(
            """
            t(x, y) :- edge(x, y).
            t(x, z) :- t(x, y), t(y, z).
            """
        )
        with pytest.raises(NotGRQError) as excinfo:
            grq_contained(tc, nonlinear)
        assert "right" in str(excinfo.value)


class TestArbitraryArityEDB:
    def test_grq_over_ternary_edb(self):
        """GRQ proper: EDB atoms may have any arity (Section 4.1)."""
        left = parse_program(
            """
            pair(x, y) :- fact(x, y, w).
            tc(x, y) :- pair(x, y).
            tc(x, z) :- tc(x, y), pair(y, z).
            """,
            goal="tc",
        )
        right = parse_program(
            """
            anypair(x, y) :- fact(x, u, v), fact(w, y, t).
            """,
            goal="anypair",
        )
        # tc(x,y) implies x is a first and y a second component somewhere.
        result = grq_contained(left, right, budget=Budget(max_expansions=20))
        assert result.verdict is Verdict.HOLDS_UP_TO_BOUND
        assert not grq_contained(right, left, budget=Budget(max_expansions=20)).holds
