"""Property tests for witness semipaths against the object-state oracle.

``TwoRPQ.witness_semipath`` runs on the compiled snapshot; the oracle in
``tests/oracles/evaluation.py`` runs a per-source object-state BFS.  Both
must produce witnesses that (a) conform to L(Q) — the label word is in
the language and each step is a real semipath step of the database — and
(b) are shortest among conforming semipaths.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.automata.regex import random_regex
from repro.cache import clear_caches
from repro.graphdb.database import GraphDatabase
from repro.graphdb.generators import random_graph
from repro.rpq.rpq import TwoRPQ
from tests.oracles.evaluation import witness_semipath

ALPHABET = ("a", "b")
SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


def _query(seed: int) -> TwoRPQ:
    return TwoRPQ(random_regex(random.Random(seed), ALPHABET, 2, allow_inverse=True))


def _check_conforms(query: TwoRPQ, db: GraphDatabase, path: tuple) -> None:
    """The alternating sequence is a real semipath spelling a word of L(Q)."""
    nodes = path[0::2]
    word = path[1::2]
    assert query.accepts_word(tuple(word))
    for here, label, there in zip(nodes, word, nodes[1:]):
        assert there in db.successors(here, label)


@SETTINGS
@given(st.integers(0, 10**9), st.integers(0, 10**6))
def test_witnesses_conform_and_match_lengths_across_paths(seed, db_seed):
    query = _query(seed)
    db = random_graph(6, 12, ALPHABET, seed=db_seed)
    clear_caches()
    for source, target in sorted(query.evaluate(db), key=repr):
        fast = query.witness_semipath(db, source, target)
        slow = witness_semipath(query.nfa, db, source, target)
        assert fast is not None and slow is not None
        assert fast[0] == source and fast[-1] == target
        _check_conforms(query, db, fast)
        _check_conforms(query, db, slow)
        # Both searches are BFS, so both witnesses are shortest; they may
        # differ in route but never in length.
        assert len(fast) == len(slow)


@SETTINGS
@given(st.integers(0, 10**9), st.integers(0, 10**6))
def test_non_answers_have_no_witness_on_either_path(seed, db_seed):
    query = _query(seed)
    db = random_graph(5, 8, ALPHABET, seed=db_seed)
    clear_caches()
    answers = query.evaluate(db)
    nodes = db.nodes_in_order()
    non_answers = [
        (x, y) for x in nodes for y in nodes if (x, y) not in answers
    ][:10]
    for source, target in non_answers:
        assert query.witness_semipath(db, source, target) is None
        assert witness_semipath(query.nfa, db, source, target) is None


@SETTINGS
@given(st.integers(0, 10**6))
def test_witness_is_shortest_on_word_paths(db_seed):
    """On a labeled line graph the shortest witness length is exact."""
    rng = random.Random(db_seed)
    word = tuple(rng.choice(ALPHABET) for _ in range(rng.randint(1, 5)))
    db = GraphDatabase.from_edges(
        (i, label, i + 1) for i, label in enumerate(word)
    )
    query = TwoRPQ.parse(" ".join(word))
    clear_caches()
    path = query.witness_semipath(db, 0, len(word))
    assert path is not None
    assert len(path) == 2 * len(word) + 1
