"""Property-based cross-validation of the antichain kernel (hypothesis).

The antichain search of :mod:`repro.automata.antichain` must be a
drop-in semantic equivalent of the subset search it replaces: identical
verdicts, equal (shortest) witness lengths, and witnesses that actually
separate the languages — on random regexes AND random edge-list automata
(odd shapes: unreachable states, no finals, multiple initials).  The
simulation quotient must preserve the language exactly, and the
simulation preorder itself must imply language containment state-wise.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import given, settings, strategies as st

from repro.automata.antichain import (
    antichain_containment_search,
    resolve_kernel,
    simulation_preorder,
    simulation_quotient,
)
from repro.automata.dfa import containment_counterexample
from repro.automata.indexed import IndexedNFA, bits
from repro.automata.nfa import NFA
from repro.automata.regex import Regex, random_regex
from repro.budget import Budget, BudgetExhausted

ALPHABET = ("a", "b")


@st.composite
def regexes(draw, depth: int = 3) -> Regex:
    seed = draw(st.integers(min_value=0, max_value=10**9))
    return random_regex(random.Random(seed), ALPHABET, depth, False)


@st.composite
def edge_list_nfas(draw) -> NFA:
    """Random automata that need not come from a regex (odd shapes too)."""
    num_states = draw(st.integers(min_value=1, max_value=6))
    state_ids = st.integers(min_value=0, max_value=num_states - 1)
    edges = draw(
        st.lists(
            st.tuples(state_ids, st.sampled_from(ALPHABET), state_ids),
            max_size=14,
        )
    )
    initial = draw(st.lists(state_ids, min_size=1, max_size=2))
    final = draw(st.lists(state_ids, max_size=2))
    return NFA.build(ALPHABET, range(num_states), initial, final, edges)


def _brute_force_counterexample(left: NFA, right: NFA, max_len: int = 6):
    """Shortest word in L(left) - L(right) up to *max_len*, by enumeration."""
    for length in range(max_len + 1):
        for word in itertools.product(ALPHABET, repeat=length):
            if left.accepts(word) and not right.accepts(word):
                return word
    return None


@settings(max_examples=40, deadline=None)
@given(regexes(), regexes())
def test_antichain_agrees_with_subset_on_regexes(r1, r2):
    left, right = r1.to_nfa().trim(), r2.to_nfa().trim()
    anti = containment_counterexample(left, right, ALPHABET, kernel="antichain")
    sub = containment_counterexample(left, right, ALPHABET, kernel="subset")
    assert (anti is None) == (sub is None)
    if anti is not None:
        assert len(anti) == len(sub)  # both searches are breadth-first
        assert left.accepts(anti) and not right.accepts(anti)


@settings(max_examples=60, deadline=None)
@given(edge_list_nfas(), edge_list_nfas())
def test_antichain_agrees_with_subset_and_brute_force(left, right):
    anti = containment_counterexample(left, right, ALPHABET, kernel="antichain")
    sub = containment_counterexample(left, right, ALPHABET, kernel="subset")
    brute = _brute_force_counterexample(left, right)
    assert (anti is None) == (sub is None)
    if anti is not None:
        assert len(anti) == len(sub)
        assert left.accepts(anti) and not right.accepts(anti)
        # Shortest-witness preservation: the antichain witness is as
        # short as exhaustive enumeration's, whenever that one exists
        # inside the enumeration horizon.
        if brute is not None and len(brute) <= 6:
            assert len(anti) == len(brute)
    elif brute is not None:
        raise AssertionError(
            f"antichain claims containment but {brute!r} separates the languages"
        )


@settings(max_examples=60, deadline=None)
@given(edge_list_nfas())
def test_simulation_quotient_preserves_language(nfa):
    compiled = IndexedNFA.from_nfa(nfa, ALPHABET)
    quotient = simulation_quotient(compiled)
    assert quotient.num_states <= compiled.num_states
    for length in range(5):
        for word in itertools.product(ALPHABET, repeat=length):
            assert compiled.accepts(word) == quotient.accepts(word), (
                f"quotient changed membership of {word!r}"
            )


@settings(max_examples=60, deadline=None)
@given(edge_list_nfas())
def test_simulation_preorder_implies_word_containment(nfa):
    """If q' simulates q then every word accepted from q is accepted
    from q' — checked by brute-force enumeration from each state."""
    compiled = IndexedNFA.from_nfa(nfa, ALPHABET)
    info = simulation_preorder(compiled)

    def accepts_from(state: int, word) -> bool:
        mask = 1 << state
        for symbol in word:
            row = compiled.symbol_index[symbol]
            image = 0
            for src in bits(mask):
                image |= compiled.delta[row][src]
            mask = image
            if not mask:
                return False
        return bool(mask & compiled.final)

    all_words = [
        word
        for length in range(4)
        for word in itertools.product(ALPHABET, repeat=length)
    ]
    for q in range(compiled.num_states):
        for q_prime in bits(info.sim_by[q]):
            if q_prime == q:
                continue
            for word in all_words:
                if accepts_from(q, word):
                    assert accepts_from(q_prime, word), (
                        f"state {q_prime} claims to simulate {q} but "
                        f"rejects {word!r}"
                    )
                    break  # one witness per word-length sweep is plenty


@settings(max_examples=40, deadline=None)
@given(edge_list_nfas(), edge_list_nfas())
def test_antichain_direct_entry_point_agrees(left, right):
    """The module-level search agrees with the dispatching front door."""
    stats: dict = {}
    anti = antichain_containment_search(left, right, ALPHABET, stats=stats)
    sub = containment_counterexample(left, right, ALPHABET, kernel="subset")
    assert (anti is None) == (sub is None)
    assert {"simulation", "configs", "subsumption_hits", "antichain_peak"} <= set(stats)
    assert stats["configs"] >= 0


@settings(max_examples=25, deadline=None)
@given(edge_list_nfas(), edge_list_nfas())
def test_antichain_budget_exhaustion_matches_subset_contract(left, right):
    """A one-config budget exhausts identically on both kernels (or both
    finish): degradation parity is what keeps engine caching two-key
    correct."""
    outcomes = {}
    for kernel in ("subset", "antichain"):
        meter = Budget(max_configs=1).start()
        try:
            containment_counterexample(
                left, right, ALPHABET, meter=meter, kernel=kernel
            )
            outcomes[kernel] = "completed"
        except BudgetExhausted as exc:
            assert exc.resource == "configs"
            outcomes[kernel] = "exhausted"
    # The kernels may legitimately keep different config counts (that is
    # the point of subsumption), but a search that finishes within one
    # kept configuration on one kernel finishes on the other too for
    # the degenerate empty-frontier cases.
    if outcomes["subset"] == "completed":
        assert outcomes["antichain"] == "completed"


def test_resolve_kernel_rejects_unknown_values():
    for value in ("bogus", "", "SUBSET", None, 3):
        try:
            resolve_kernel(value)
        except (ValueError, TypeError):
            continue
        raise AssertionError(f"resolve_kernel accepted {value!r}")
    assert resolve_kernel("auto") == "antichain"
    assert resolve_kernel("subset") == "subset"
    assert resolve_kernel("antichain") == "antichain"
