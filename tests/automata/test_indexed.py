"""Unit tests for the integer-indexed bitset kernels.

Each kernel is checked against hand-built automata and, where the
contract promises a structural equivalent (determinize, minimize,
product), against the object-state oracle in
``tests/oracles/automata.py``.  The random cross-validation lives in
``test_indexed_properties.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.automata.dfa import containment_counterexample, determinize
from repro.automata.indexed import IndexedNFA, bits, minimize_dfa, select
from repro.automata.nfa import NFA
from repro.automata.onthefly import find_accepted_word
from repro.automata.regex import parse_regex
from repro.cache import clear_caches
from tests.oracles import automata as oracle


def nfa_of(text: str) -> NFA:
    return parse_regex(text).to_nfa().trim().renumber()


def test_bits_enumerates_set_positions():
    assert list(bits(0)) == []
    assert list(bits(0b1)) == [0]
    assert list(bits(0b101001)) == [0, 3, 5]


@pytest.mark.parametrize("length", [1, 15, 16, 17, 64, 200])
def test_select_reads_sparse_and_dense_masks_alike(length):
    """Both of select's readings (bit by bit below one set bit in 16,
    binary digits above) pick exactly the items of the set bits."""
    items = [f"n{i}" for i in range(length)]
    rng = random.Random(length)
    masks = [0, 1, 1 << (length - 1), (1 << length) - 1]
    masks += [rng.getrandbits(length) & rng.getrandbits(length) for _ in range(20)]
    masks += [1 << rng.randrange(length) | 1 << rng.randrange(length) for _ in range(20)]
    for mask in masks:
        assert list(select(items, mask)) == [items[i] for i in bits(mask)]


def test_from_nfa_to_nfa_roundtrip_preserves_structure():
    nfa = nfa_of("a(b|c)*a")
    compiled = IndexedNFA.from_nfa(nfa)
    back = compiled.to_nfa()
    assert back.states == nfa.states
    assert back.initial == nfa.initial
    assert back.final == nfa.final
    assert set(back.edges()) == set(nfa.edges())


def test_accepts_matches_object_level():
    nfa = nfa_of("a(b|c)*a")
    compiled = IndexedNFA.from_nfa(nfa)
    for word in [(), ("a",), ("a", "a"), ("a", "b", "a"), ("a", "b", "c", "a"), ("b",)]:
        assert compiled.accepts(word) == nfa.accepts(word)


def test_accepts_rejects_symbols_outside_the_alphabet():
    compiled = IndexedNFA.from_nfa(nfa_of("a*"))
    assert compiled.accepts(("a", "a"))
    assert not compiled.accepts(("a", "z"))


def test_implicit_nfa_protocol_drives_onthefly_search():
    left = nfa_of("a(a|b)*")
    right = IndexedNFA.from_nfa(nfa_of("(a|b)*b"), ("a", "b"))
    word = find_accepted_word([left, right], ("a", "b"))
    assert word is not None
    assert word[0] == "a" and word[-1] == "b"


def test_emptiness_and_shortest_word():
    assert IndexedNFA.build(("a",), 1, [], [0], []).shortest_word() is None
    accepting_initial = IndexedNFA.build(("a",), 1, [], [0], [0])
    assert accepting_initial.shortest_word() == ()
    chain = IndexedNFA.build(
        ("a", "b"), 3, [(0, "a", 1), (1, "b", 2)], [0], [2]
    )
    assert not chain.is_empty()
    assert chain.shortest_word() == ("a", "b")
    no_final_reachable = IndexedNFA.build(("a",), 2, [(0, "a", 0)], [0], [1])
    assert no_final_reachable.is_empty()
    assert no_final_reachable.shortest_word() is None


def test_live_mask_drops_unreachable_and_dead_states():
    # 0 -a-> 1 -a-> 2(final); 3 unreachable; 4 reachable but dead.
    compiled = IndexedNFA.build(
        ("a",), 5, [(0, "a", 1), (1, "a", 2), (3, "a", 2), (0, "a", 4)], [0], [2]
    )
    assert set(bits(compiled.live_mask())) == {0, 1, 2}


def test_determinize_matches_baseline_exactly():
    nfa = nfa_of("(a|b)*a(a|b)")
    clear_caches()
    fast = determinize(nfa, ("a", "b"))
    slow = oracle.determinize(nfa, ("a", "b"))
    assert fast == slow


def test_indexed_dfa_complement_flips_acceptance():
    compiled = IndexedNFA.from_nfa(nfa_of("ab*"), ("a", "b")).determinize()
    flipped = compiled.complement()
    for word in [(), ("a",), ("a", "b"), ("b",), ("a", "a")]:
        assert compiled.accepts(word) != flipped.accepts(word)


def test_product_matches_baseline_exactly():
    left = nfa_of("a(a|b)*")
    right = nfa_of("(a|b)*b")
    fast = left.product(right)
    slow = oracle.product(left, right)
    assert fast == slow


def test_product_requires_shared_symbol_order():
    left = IndexedNFA.build(("a", "b"), 1, [], [0], [0])
    right = IndexedNFA.build(("b", "a"), 1, [], [0], [0])
    with pytest.raises(ValueError):
        left.product(right)


def test_minimize_matches_baseline_exactly():
    dfa = determinize(nfa_of("(a|b)*abb"), ("a", "b"))
    fast = minimize_dfa(dfa)
    slow = oracle.minimize(dfa)
    assert fast == slow


def test_containment_counterexample_agrees_with_materializing_pipeline():
    cases = [
        ("a*", "(a|b)*", True),
        ("(a|b)*", "a*", False),
        ("ab", "a(b|c)", True),
        ("a(b|c)", "ab", False),
    ]
    for left_text, right_text, contained in cases:
        left, right = nfa_of(left_text), nfa_of(right_text)
        alpha = ("a", "b", "c")
        fast = containment_counterexample(left, right, alpha)
        slow = oracle.containment_counterexample(left, right, alpha)
        assert (fast is None) == contained
        assert (slow is None) == contained
        if fast is not None:
            assert len(fast) == len(slow)
            assert left.accepts(fast) and not right.accepts(fast)

