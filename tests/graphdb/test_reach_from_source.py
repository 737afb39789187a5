"""The layered single-source kernel against the object-state oracle.

``reach_from_source`` answers ``targets``/``matches`` one frontier layer
at a time over per-state node bitsets.  Its answers must equal
``tests/oracles/evaluation.targets_from``'s per-configuration BFS on
random graphs: for random 2RPQs, and for raw automata with several
initial states, an empty language, or a source with no edges.  The meter
contract is pinned too: one ``configs`` unit per newly reached
(state, node), and ``BudgetExhausted`` under a small ``max_configs`` or
an expired deadline.
"""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.automata.indexed import IndexedNFA, bits
from repro.automata.nfa import NFA
from repro.automata.regex import random_regex
from repro.budget import Budget, BudgetExhausted
from repro.graphdb.database import GraphDatabase
from repro.graphdb.generators import path_graph, random_graph
from repro.graphdb.snapshot import reach_from_source
from repro.rpq import rpq
from repro.rpq.rpq import TwoRPQ
from tests.oracles import evaluation as oracle

LABELS = ("a", "b")
SYMBOLS = ("a", "b", "a-", "b-")
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

_graph = st.tuples(st.integers(1, 9), st.integers(0, 24), st.integers(0, 10**6))


def _database(shape):
    """A random graph plus the node ``"lonely"``, which has no edges."""
    nodes, edges, seed = shape
    db = random_graph(nodes, edges, LABELS, seed=seed)
    db.add_node("lonely")
    return db


@st.composite
def _automata(draw):
    """Raw NFAs over a+b±: any number of initial (and final) states,
    so several initial states and empty languages both occur."""
    states = draw(st.integers(1, 4))
    state = st.integers(0, states - 1)
    moves = draw(st.lists(st.tuples(state, st.sampled_from(SYMBOLS), state), max_size=10))
    return NFA.build(
        SYMBOLS,
        range(states),
        draw(st.sets(state)),
        draw(st.sets(state)),
        moves,
    )


def _kernel_targets(nfa: NFA, db, source) -> frozenset:
    """The kernel run directly on *db*'s snapshot, answers as nodes."""
    snapshot = db.snapshot()
    compiled = IndexedNFA.from_nfa(nfa)
    mask = reach_from_source(
        compiled,
        snapshot.adjacency_for(compiled.symbols),
        snapshot.num_nodes,
        snapshot.node_index[source],
    )
    return frozenset(snapshot.nodes[node] for node in bits(mask))


@SETTINGS
@given(_graph, st.integers(0, 10**6), st.integers(0, 3))
def test_random_2rpqs_agree_with_the_oracle(shape, seed, depth):
    db = _database(shape)
    query = TwoRPQ(random_regex(random.Random(seed), LABELS, depth, allow_inverse=True))
    for source in db.nodes_in_order():
        expected = oracle.targets_from(query.nfa, db, source)
        assert query.targets(db, source) == expected
        assert _kernel_targets(query.nfa, db, source) == expected


@SETTINGS
@given(_graph, _automata())
def test_raw_automata_agree_with_the_oracle(shape, nfa):
    db = _database(shape)
    for source in db.nodes_in_order():
        expected = oracle.targets_from(nfa, db, source)
        assert rpq.targets_from(nfa, db, source) == expected
        assert _kernel_targets(nfa, db, source) == expected
    assert rpq.targets_from(nfa, db, "absent") == frozenset()


def test_branching_moves_from_several_initial_states():
    """A move with several successor states sends a layer to each."""
    db = random_graph(8, 20, LABELS, seed=2)
    nfa = NFA.build(
        LABELS,
        (0, 1, 2, 3),
        (0, 2),
        (1, 3),
        ((0, "a", 0), (0, "a", 1), (2, "b", 3), (2, "b", 2), (1, "b", 3)),
    )
    for source in db.nodes_in_order():
        expected = oracle.targets_from(nfa, db, source)
        assert rpq.targets_from(nfa, db, source) == expected
        assert _kernel_targets(nfa, db, source) == expected


def test_empty_language_and_edgeless_source():
    db = random_graph(6, 12, LABELS, seed=4)
    db.add_node("lonely")
    nothing = NFA.build(LABELS, (0, 1), (), (1,), ((0, "a", 1),))
    for source in db.nodes_in_order():
        assert rpq.targets_from(nothing, db, source) == frozenset()
    star = TwoRPQ.parse("(a|b|a-|b-)*")
    assert star.targets(db, "lonely") == {"lonely"}
    assert TwoRPQ.parse("a+").targets(db, "lonely") == frozenset()


class TestMeter:
    """A single-source read charges the meter it is given and checks its
    deadline."""

    def test_configs_charged_per_newly_reached_state_node(self):
        # Two layers of five nodes: 0 -> 1..5, and i -> i + 5.
        db = GraphDatabase.from_edges(
            [(0, "r", i) for i in range(1, 6)] + [(i, "r", i + 5) for i in range(1, 6)]
        )
        meter = Budget(max_configs=100).start()
        assert TwoRPQ.parse("r+").targets(db, 0, meter=meter) == set(range(1, 11))
        assert meter.spent["configs"] == 10

    def test_small_max_configs_raises(self):
        db = path_graph(50, "r")
        meter = Budget(max_configs=5).start()
        with pytest.raises(BudgetExhausted) as caught:
            TwoRPQ.parse("r+").targets(db, 0, meter=meter)
        assert caught.value.resource == "configs"

    def test_expired_deadline_raises(self):
        # One wide layer is a single charge, too few for the meter's
        # periodic poll to read the clock: only the kernel's own
        # deadline check can raise.
        db = GraphDatabase.from_edges([(0, "r", i) for i in range(1, 300)])
        meter = Budget(deadline_ms=1).start()
        time.sleep(0.01)
        with pytest.raises(BudgetExhausted) as caught:
            TwoRPQ.parse("r+").targets(db, 0, meter=meter)
        assert caught.value.resource == "deadline"
