"""Tests for the generic on-the-fly product-emptiness search."""

import pytest

from repro.automata.nfa import NFA
from repro.automata.onthefly import (
    SearchStats,
    find_accepted_word,
    intersection_is_empty,
)
from repro.automata.regex import parse_regex
from repro.budget import Budget, BudgetExhausted


def nfa_of(text: str) -> NFA:
    return parse_regex(text).to_nfa()


class TestFindAcceptedWord:
    def test_single_machine(self):
        assert find_accepted_word([nfa_of("a b")], ("a", "b")) == ("a", "b")

    def test_intersection_witness_is_shortest(self):
        word = find_accepted_word([nfa_of("(a|b)* a"), nfa_of("a (a|b)*")], ("a", "b"))
        assert word == ("a",)

    def test_empty_intersection(self):
        assert find_accepted_word([nfa_of("a a"), nfa_of("b")], ("a", "b")) is None

    def test_epsilon_in_intersection(self):
        assert find_accepted_word([nfa_of("a*"), nfa_of("b*")], ("a", "b")) == ()

    def test_three_way_intersection(self):
        word = find_accepted_word(
            [nfa_of("(a|b)+"), nfa_of("(a|b)* b"), nfa_of("a (a|b)*")], ("a", "b")
        )
        assert word is not None
        assert word[0] == "a" and word[-1] == "b"

    def test_machine_with_no_initial_states(self):
        empty = NFA.build(("a",), [0], [], [0], [])
        assert find_accepted_word([empty, nfa_of("a")], ("a",)) is None

    def test_budget_raises(self):
        with pytest.raises(BudgetExhausted) as info:
            find_accepted_word(
                [nfa_of("(a|b)(a|b)(a|b)(a|b)"), nfa_of("b b b b")],
                ("a", "b"),
                meter=Budget(max_configs=2).start(),
            )
        assert info.value.resource == "configs"
        assert info.value.limit == 2

    def test_stats_populated(self):
        stats = SearchStats()
        find_accepted_word([nfa_of("a a a"), nfa_of("a*")], ("a",), stats=stats)
        assert stats.explored > 0


class TestIntersectionIsEmpty:
    def test_yes_and_no(self):
        assert intersection_is_empty([nfa_of("a"), nfa_of("b")], ("a", "b"))
        assert not intersection_is_empty([nfa_of("a+"), nfa_of("a a")], ("a", "b"))
