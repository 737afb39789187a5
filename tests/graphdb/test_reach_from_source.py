"""The layered single-source kernel against the object-state oracle.

``reach_from_source`` answers ``targets``/``matches`` one frontier layer
at a time over per-state node bitsets, and ``witness_path`` walks back
through those layers.  The answers must equal
``tests/oracles/evaluation.targets_from``'s per-configuration BFS on
random graphs: for random 2RPQs, and for raw automata with several
initial states, an empty language, or a source with no edges, searched
both plainly and with the snapshot's loop closure for every looping
state (loops on inverse letters, on two symbols, and on a symbol that
also moves to another state); on the raw automata every witness must
conform and be as short as ``tests/oracles/evaluation.witness_semipath``'s.
The meter contract is pinned for the three reads that run the layered
search, the all-pairs ``evaluate`` included: one ``configs`` unit per
newly reached (state, node), summed over sources for ``evaluate``,
initial configurations free, the same total with closures as without,
and ``BudgetExhausted`` under a small ``max_configs`` or an expired
deadline.
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
from repro.graphdb.snapshot import loop_symbols, reach_from_source, witness_path
from repro.obs.trace import Tracer
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


def _closures(compiled: IndexedNFA, snapshot) -> list:
    """Per state, the snapshot's closure rows of the set it loops on,
    built for every looping state."""
    return [
        None if symbols is None else snapshot.closure(symbols)
        for symbols in loop_symbols(compiled)
    ]


def _kernel_targets(nfa: NFA, db, source, closed: bool = False, meter=None) -> frozenset:
    """The kernel run directly on *db*'s snapshot, answers as nodes;
    *closed* closes every looping state's frontiers."""
    snapshot = db.snapshot()
    compiled = IndexedNFA.from_nfa(nfa)
    mask = reach_from_source(
        compiled,
        snapshot.adjacency_for(compiled.symbols),
        snapshot.num_nodes,
        snapshot.node_index[source],
        meter=meter,
        closures=_closures(compiled, snapshot) if closed else None,
    )
    return frozenset(snapshot.nodes[node] for node in bits(mask))


def _kernel_witness(nfa: NFA, db, source, target) -> tuple | None:
    """``witness_path`` run directly on *db*'s snapshot, as a semipath
    ``(y0, p1, y1, ..., pn, yn)``."""
    snapshot = db.snapshot()
    compiled = IndexedNFA.from_nfa(nfa)
    steps = witness_path(
        compiled,
        snapshot.adjacency_for(compiled.symbols),
        snapshot.num_nodes,
        snapshot.node_index[source],
        snapshot.node_index[target],
    )
    if steps is None:
        return None
    path = [source]
    for row, node in steps:
        path += [compiled.symbols[row], snapshot.nodes[node]]
    return tuple(path)


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
        assert _kernel_targets(nfa, db, source, closed=True) == expected
    assert rpq.targets_from(nfa, db, "absent") == frozenset()


@pytest.mark.parametrize(
    "moves, loops",
    [
        # A loop on an inverse letter, then a forward step.
        (((0, "a-", 0), (0, "b", 1)), [("a-",), None]),
        # A loop on two symbols, one of them inverse, in a final state.
        (((0, "a", 1), (1, "a", 1), (1, "b-", 1)), [None, ("a", "b-")]),
        # The loop symbol also moves on: a reads into state 0 and state 1,
        # and state 1 loops on b- and b.
        (((0, "a", 0), (0, "a", 1), (1, "b", 1), (1, "b-", 1), (1, "a", 2)),
         [("a",), ("b", "b-"), None]),
    ],
    ids=["inverse-loop", "two-symbol-loop", "loop-symbol-moves-on"],
)
def test_closed_search_agrees_with_the_oracle(moves, loops):
    db = random_graph(9, 22, LABELS, seed=6)
    db.add_node("lonely")
    states = len(loops)
    nfa = NFA.build(SYMBOLS, range(states), (0,), range(states), moves)
    assert loop_symbols(IndexedNFA.from_nfa(nfa)) == loops
    for source in db.nodes_in_order():
        expected = oracle.targets_from(nfa, db, source)
        assert _kernel_targets(nfa, db, source, closed=True) == expected


@SETTINGS
@given(_graph, _automata())
def test_raw_automata_witnesses_agree_with_the_oracle(shape, nfa):
    db = _database(shape)
    for source in db.nodes_in_order():
        answers = oracle.targets_from(nfa, db, source)
        for target in db.nodes_in_order():
            path = _kernel_witness(nfa, db, source, target)
            if target not in answers:
                assert path is None
                continue
            nodes, word = path[0::2], path[1::2]
            assert nodes[0] == source and nodes[-1] == target
            assert nfa.accepts(word)
            for here, symbol, there in zip(nodes, word, nodes[1:]):
                assert there in db.successors(here, symbol)
            assert len(path) == len(oracle.witness_semipath(nfa, db, source, target))


def test_witness_stops_at_the_first_accepting_depth():
    """*y* is accepted at depth 1 and, through its self-loop, in a second
    final state at depth 2: the witness takes one step.  An accepting
    initial state gives the empty witness."""
    db = GraphDatabase.from_edges([("x", "a", "y"), ("y", "a", "y")])
    nfa = NFA.build(("a",), (0, 1, 2), (0,), (0, 1, 2), ((0, "a", 1), (1, "a", 2)))
    assert _kernel_witness(nfa, db, "x", "y") == ("x", "a", "y")
    assert _kernel_witness(nfa, db, "x", "x") == ("x",)


def test_witness_steps_back_along_a_move_into_the_current_state():
    """*y* is one step from *x* under both labels but final only under
    ``b``: the witness reads ``b``, not the ``a`` checked first."""
    db = GraphDatabase.from_edges([("x", "a", "y"), ("x", "b", "y")])
    nfa = NFA.build(LABELS, (0, 1, 2), (0,), (1,), ((0, "a", 2), (0, "b", 1)))
    assert _kernel_witness(nfa, db, "x", "y") == ("x", "b", "y")


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
        assert _kernel_targets(nfa, db, source, closed=True) == expected


def test_empty_language_and_edgeless_source():
    db = random_graph(6, 12, LABELS, seed=4)
    db.add_node("lonely")
    nothing = NFA.build(LABELS, (0, 1), (), (1,), ((0, "a", 1),))
    for source in db.nodes_in_order():
        assert rpq.targets_from(nothing, db, source) == frozenset()
    star = TwoRPQ.parse("(a|b|a-|b-)*")
    assert star.targets(db, "lonely") == {"lonely"}
    assert TwoRPQ.parse("a+").targets(db, "lonely") == frozenset()


def _targets(db, target, meter):
    return TwoRPQ.parse("r+").targets(db, 0, meter=meter)


def _witness(db, target, meter):
    return TwoRPQ.parse("r+").witness_semipath(db, 0, target, meter=meter)


def _evaluate(db, target, meter):
    return TwoRPQ.parse("r+").evaluate(db, meter=meter)


READS = pytest.mark.parametrize(
    "read", [_targets, _witness, _evaluate], ids=["targets", "witness_semipath", "evaluate"]
)


class TestMeter:
    """A single-source read, a witness built on one, and the all-pairs
    answer (one search per source) charge the meter they are given and
    check its deadline."""

    @pytest.mark.parametrize(
        "read, expected, configs",
        [
            (_targets, set(range(1, 11)), 10),
            (_witness, (0, "r", 5, "r", 10), 10),
            # Source 0 reaches 10 nodes, sources 1..5 one each, 6..10 none.
            (
                _evaluate,
                {(0, i) for i in range(1, 11)} | {(i, i + 5) for i in range(1, 6)},
                15,
            ),
        ],
        ids=["targets", "witness_semipath", "evaluate"],
    )
    def test_configs_charged_per_newly_reached_state_node(self, read, expected, configs):
        # Two layers of five nodes: 0 -> 1..5, and i -> i + 5.
        db = GraphDatabase.from_edges(
            [(0, "r", i) for i in range(1, 6)] + [(i, "r", i + 5) for i in range(1, 6)]
        )
        meter = Budget(max_configs=100).start()
        assert read(db, 10, meter) == expected
        assert meter.spent["configs"] == configs

    def test_evaluate_span_reports_what_it_charges(self):
        db = GraphDatabase.from_edges(
            [(0, "r", i) for i in range(1, 6)] + [(i, "r", i + 5) for i in range(1, 6)]
        )
        tracer, meter = Tracer(), Budget(max_configs=100).start()
        TwoRPQ.parse("r+").evaluate(db, tracer=tracer, meter=meter)
        (span,) = [span for root in tracer.roots for span in root.walk() if span.name == "eval-bfs"]
        assert span.tags["mode"] == "all-sources"
        assert span.counters["configs"] == meter.spent["configs"] == 15

    @READS
    def test_small_max_configs_raises(self, read):
        db = path_graph(50, "r")
        meter = Budget(max_configs=5).start()
        with pytest.raises(BudgetExhausted) as caught:
            read(db, 50, meter)
        assert caught.value.resource == "configs"

    @pytest.mark.parametrize("text", ["r+", "(r|s)* s", "r- (r|s-)+", "s (r r-)* r+"])
    def test_closed_search_charges_what_the_plain_one_does(self, text):
        """Closures change how a search reaches its (state, node) pairs,
        not which: the same answers for the same ``configs`` total."""
        db = random_graph(12, 30, ("r", "s"), seed=8)
        nfa = TwoRPQ.parse(text).nfa
        charged = 0
        for source in db.nodes_in_order():
            plain, closed = (Budget(max_configs=10_000).start() for _ in range(2))
            expected = _kernel_targets(nfa, db, source, meter=plain)
            assert _kernel_targets(nfa, db, source, closed=True, meter=closed) == expected
            assert closed.spent.get("configs", 0) == plain.spent.get("configs", 0)
            charged += plain.spent.get("configs", 0)
        assert charged > 0

    def test_closed_search_raises_on_an_expired_deadline(self):
        db = GraphDatabase.from_edges([(0, "r", i) for i in range(1, 300)])
        nfa = TwoRPQ.parse("r+").nfa
        meter = Budget(deadline_ms=1).start()
        time.sleep(0.01)
        with pytest.raises(BudgetExhausted) as caught:
            _kernel_targets(nfa, db, 0, closed=True, meter=meter)
        assert caught.value.resource == "deadline"

    @READS
    def test_expired_deadline_raises(self, read):
        # One wide layer is a single charge, too few for the meter's
        # periodic poll to read the clock: only the kernel's own
        # deadline check can raise.
        db = GraphDatabase.from_edges([(0, "r", i) for i in range(1, 300)])
        meter = Budget(deadline_ms=1).start()
        time.sleep(0.01)
        with pytest.raises(BudgetExhausted) as caught:
            read(db, 299, meter)
        assert caught.value.resource == "deadline"
