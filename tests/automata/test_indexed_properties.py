"""Property-based cross-validation of the indexed kernels (hypothesis).

The design contract of :mod:`repro.automata.indexed` is that every
kernel renders exactly what the textbook object-state construction
would.  These tests hold production to the object-state oracles of
``tests/oracles`` on random regexes, random edge-list automata and
random graphs, with the caches cleared where a cached result could
stand in for a fresh kernel run.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.automata.dfa import (
    SUBSET_CAP_FACTOR,
    containment_counterexample,
    determinize,
    nfa_equivalent,
    reduce_nfa,
)
from repro.automata.indexed import IndexedNFA
from repro.automata.nfa import NFA, from_epsilon_nfa
from repro.automata.regex import Regex, parse_regex, random_regex
from repro.cache import clear_caches
from repro.graphdb.generators import random_graph
from repro.rpq.rpq import evaluate_nfa_on_graph, targets_from
from tests.oracles import automata as oracle
from tests.oracles import evaluation as evaluation_oracle

ALPHABET = ("a", "b")


@st.composite
def regexes(draw, depth: int = 3) -> Regex:
    seed = draw(st.integers(min_value=0, max_value=10**9))
    return random_regex(random.Random(seed), ALPHABET, depth, False)


@st.composite
def edge_lists(draw, labels: tuple = ALPHABET) -> tuple:
    """``(states, initial, final, edges)`` of a random automaton.

    The automata need not come from a regex, so odd shapes turn up too;
    a ``None`` in *labels* draws epsilon edges.
    """
    num_states = draw(st.integers(min_value=1, max_value=6))
    state_ids = st.integers(min_value=0, max_value=num_states - 1)
    edges = draw(
        st.lists(
            st.tuples(state_ids, st.sampled_from(labels), state_ids),
            max_size=14,
        )
    )
    initial = draw(st.lists(state_ids, min_size=1, max_size=2))
    final = draw(st.lists(state_ids, max_size=2))
    return range(num_states), initial, final, edges


def edge_list_nfas():
    return edge_lists().map(lambda spec: NFA.build(ALPHABET, *spec))


@st.composite
def words(draw, max_len: int = 5):
    return tuple(draw(st.lists(st.sampled_from(ALPHABET), max_size=max_len)))


@settings(max_examples=50, deadline=None)
@given(edge_list_nfas())
def test_determinize_is_a_structural_drop_in(nfa):
    clear_caches()
    fast = determinize(nfa, ALPHABET)
    slow = oracle.determinize(nfa, ALPHABET)
    assert fast == slow


@settings(max_examples=50, deadline=None)
@given(edge_list_nfas(), edge_list_nfas())
def test_product_is_a_structural_drop_in(left, right):
    fast = left.product(right)
    slow = oracle.product(left, right)
    assert fast == slow


@settings(max_examples=50, deadline=None)
@given(edge_list_nfas())
def test_emptiness_and_shortest_word_agree_with_baseline(nfa):
    compiled = IndexedNFA.from_nfa(nfa)
    baseline = oracle.shortest_word(nfa)
    fast = compiled.shortest_word()
    assert compiled.is_empty() == (baseline is None)
    assert (fast is None) == (baseline is None)
    if fast is not None:
        assert len(fast) == len(baseline)  # both BFS: shortest length
        assert nfa.accepts(fast)


@settings(max_examples=50, deadline=None)
@given(edge_list_nfas())
def test_trim_agrees_with_baseline(nfa):
    fast = nfa.trim()
    slow = oracle.trim(nfa)
    assert fast == slow


@settings(max_examples=50, deadline=None)
@given(edge_lists(ALPHABET + (None,)))
def test_epsilon_elimination_agrees_with_baseline(spec):
    fast = from_epsilon_nfa(ALPHABET, *spec)
    slow = oracle.from_epsilon_nfa(ALPHABET, *spec)
    assert fast == slow


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=2, max_value=5),
)
def test_reduce_nfa_agrees_with_object_pipeline(seed, depth):
    """The indexed reduce_nfa against the object-level pipeline it
    replaced, on random regexes with inverse letters: equal (state
    numbering included) unless the subset cap fired, and then the
    trimmed NFA, renumbered, with the same language."""
    regex = random_regex(random.Random(seed), ("a", "b", "c"), depth, True)
    nfa = regex.to_nfa()
    stats: dict = {}
    fast = reduce_nfa(nfa, stats=stats)
    if not stats["capped"]:
        assert fast == oracle.reduce_nfa(nfa)
    else:
        assert fast == nfa.trim().renumber()
        assert nfa_equivalent(fast, oracle.reduce_nfa(nfa))


def test_reduce_nfa_keeps_the_trimmed_nfa_past_the_subset_cap():
    for n in (6, 8):
        nfa = _blowup(n)
        stats: dict = {}
        reduced = reduce_nfa(nfa, stats=stats)
        assert stats["capped"] and stats["dfa_states"] is None
        assert reduced == nfa.trim().renumber()
        assert nfa_equivalent(reduced, oracle.reduce_nfa(nfa))
    stats = {}
    reduce_nfa(_blowup(3), stats=stats)
    assert not stats["capped"]
    assert stats["dfa_states"] <= SUBSET_CAP_FACTOR * stats["nfa_states"]


def _blowup(n: int) -> NFA:
    return parse_regex("(a|b)* a " + " ".join(["(a|b)"] * n)).to_nfa()


@settings(max_examples=60, deadline=None)
@given(edge_lists())
def test_hopcroft_minimize_agrees_with_baseline_on_edge_list_dfas(spec):
    dfa = determinize(NFA.build(ALPHABET, *spec), ALPHABET)
    assert dfa.minimize() == oracle.minimize(dfa)


@settings(max_examples=40, deadline=None)
@given(regexes(), regexes())
def test_minimize_produces_identical_canonical_dfa(r1, r2):
    clear_caches()
    dfa = determinize(r1.to_nfa().union(r2.to_nfa()), ALPHABET)
    fast = dfa.minimize()
    slow = oracle.minimize(dfa)
    assert fast == slow


@settings(max_examples=40, deadline=None)
@given(regexes(), regexes())
def test_containment_counterexamples_agree_with_baseline(r1, r2):
    left, right = r1.to_nfa().trim(), r2.to_nfa().trim()
    fast = containment_counterexample(left, right, ALPHABET)
    slow = oracle.containment_counterexample(left, right, ALPHABET)
    assert (fast is None) == (slow is None)
    if fast is not None:
        assert len(fast) == len(slow)  # both searches are breadth-first
        assert left.accepts(fast) and not right.accepts(fast)
        assert left.accepts(slow) and not right.accepts(slow)


@settings(max_examples=25, deadline=None)
@given(regexes(depth=2), st.integers(min_value=0, max_value=10**6))
def test_rpq_graph_evaluation_agrees_with_baseline(regex, graph_seed):
    nfa = regex.to_nfa().trim()
    db = random_graph(6, 12, ALPHABET, seed=graph_seed)
    fast = evaluate_nfa_on_graph(nfa, db)
    slow = evaluation_oracle.evaluate_nfa_on_graph(nfa, db)
    assert fast == slow
    source = sorted(db.nodes, key=repr)[0]
    fast_targets = targets_from(nfa, db, source)
    slow_targets = evaluation_oracle.targets_from(nfa, db, source)
    assert fast_targets == slow_targets
