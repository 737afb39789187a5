"""Tests for the on-the-fly product-emptiness search.

Besides hand-built cases, a hypothesis property holds the bitset search
to the object-tuple BFS in ``tests/oracles/automata.py`` on the 2RPQ
pipeline's real inputs: a query NFA against the lazy Shepherdson and
Lemma 4 complements of a folded query.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.automata.alphabet import Alphabet
from repro.automata.complement import LazyComplement
from repro.automata.fold import fold_two_nfa
from repro.automata.nfa import NFA
from repro.automata.onthefly import find_accepted_word, intersection_is_empty
from repro.automata.regex import parse_regex, random_regex
from repro.automata.shepherdson import LazyShepherdsonComplement
from repro.budget import Budget, BudgetExhausted
from repro.rpq.rpq import TwoRPQ
from tests.oracles import automata as oracle


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
        kernel_stats: dict = {}
        find_accepted_word(
            [nfa_of("a a a"), nfa_of("a*")], ("a",), kernel_stats=kernel_stats
        )
        assert kernel_stats["configs"] > 0

    def test_first_machine_must_be_an_nfa(self):
        lazy = LazyShepherdsonComplement(
            fold_two_nfa(nfa_of("a"), Alphabet(("a",)).two_way)
        )
        with pytest.raises(TypeError, match="NFA"):
            find_accepted_word([lazy, nfa_of("a")], ("a",))


class TestIntersectionIsEmpty:
    def test_yes_and_no(self):
        assert intersection_is_empty([nfa_of("a"), nfa_of("b")], ("a", "b"))
        assert not intersection_is_empty([nfa_of("a+"), nfa_of("a a")], ("a", "b"))


KERNELS = ("subset", "antichain")


@st.composite
def two_rpq_pairs(draw, holds_depth: int) -> tuple[TwoRPQ, TwoRPQ]:
    """Random depth-2 2RPQ pairs; a third are ``q ⊑ q q- q`` instead
    (walk forward, back, forward: it always holds, so the search has to
    prove emptiness), with ``q`` of depth *holds_depth*."""
    rng = random.Random(draw(st.integers(0, 10**9)))
    if draw(st.integers(0, 2)) == 0:
        q = random_regex(rng, ("a", "b"), holds_depth, allow_inverse=True)
        return TwoRPQ(q), TwoRPQ(q + q.inverse() + q)
    return tuple(
        TwoRPQ(random_regex(rng, ("a", "b"), 2, allow_inverse=True))
        for _ in range(2)
    )


def _assert_agrees_with_tuple_bfs(q1, q2, complement, kernel):
    """Same emptiness and witness length as the object-tuple BFS, and a
    witness every machine accepts."""
    sigma_pm = Alphabet(tuple(sorted(q1.base_symbols() | q2.base_symbols()))).two_way
    machines = [q1.nfa, complement(fold_two_nfa(q2.nfa, sigma_pm))]
    word = find_accepted_word(machines, sigma_pm, kernel=kernel)
    reference = oracle.find_accepted_word(machines, sigma_pm)
    assert (word is None) == (reference is None)
    if word is not None:
        assert len(word) == len(reference)
        assert all(oracle.implicit_accepts(machine, word) for machine in machines)


@settings(max_examples=30, deadline=None)
@given(two_rpq_pairs(holds_depth=2), st.sampled_from(KERNELS))
def test_shepherdson_product_search_agrees_with_tuple_bfs(pair, kernel):
    _assert_agrees_with_tuple_bfs(*pair, LazyShepherdsonComplement, kernel)


@settings(max_examples=10, deadline=None)
@given(two_rpq_pairs(holds_depth=0), st.sampled_from(KERNELS))
def test_lemma4_product_search_agrees_with_tuple_bfs(pair, kernel):
    # A HOLDS verdict explores the whole reachable Lemma 4 complement,
    # which is exponential in the fold: q is a single letter there.
    _assert_agrees_with_tuple_bfs(*pair, LazyComplement, kernel)
