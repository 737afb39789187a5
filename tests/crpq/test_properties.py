"""Property-based tests for the C2RPQ/UC2RPQ layer."""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.automata.regex import random_regex
from repro.budget import Budget
from repro.cq.syntax import Var
from repro.crpq.containment import uc2rpq_contained
from repro.crpq.evaluation import evaluate_c2rpq, satisfies_c2rpq
from repro.crpq.expansion import build_expansion, enumerate_expansions
from repro.crpq.syntax import C2RPQ, RegularAtom
from repro.graphdb.generators import random_graph
from repro.report import Verdict
from repro.rpq.rpq import TwoRPQ

LABELS = ("a", "b")


def random_c2rpq(rng: random.Random, num_atoms: int = 2) -> C2RPQ:
    """A random connected C2RPQ with head (v0, v1)."""
    names = [Var(f"v{i}") for i in range(3)]
    atoms = []
    for index in range(num_atoms):
        query = TwoRPQ(random_regex(rng, LABELS, 2, allow_inverse=True))
        source = names[rng.randrange(min(index + 1, len(names)))]
        target = rng.choice(names)
        atoms.append(RegularAtom(query, source, target))
    # Anchor the head variables.
    atoms.append(
        RegularAtom(
            TwoRPQ(random_regex(rng, LABELS, 1, allow_inverse=True)),
            names[0],
            names[1],
        )
    )
    return C2RPQ((names[0], names[1]), tuple(atoms))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 10**6))
def test_evaluation_and_satisfies_agree(seed, db_seed):
    query = random_c2rpq(random.Random(seed))
    db = random_graph(4, 8, LABELS, seed=db_seed)
    answers = evaluate_c2rpq(query, db)
    for x in db.nodes:
        for y in db.nodes:
            assert satisfies_c2rpq(query, db, (x, y)) == ((x, y) in answers)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_expansions_satisfy_their_query(seed):
    query = random_c2rpq(random.Random(seed))
    for expansion in enumerate_expansions(query, 3, max_expansions=8):
        assert satisfies_c2rpq(query, expansion.database, expansion.head), (
            expansion.words
        )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 10**6))
def test_containment_holds_is_sound_on_samples(seed, db_seed):
    rng = random.Random(seed)
    q1 = random_c2rpq(rng, 1)
    q2 = random_c2rpq(rng, 1)
    result = uc2rpq_contained(q1, q2, budget=Budget(max_total_length=4))
    if result.verdict is Verdict.HOLDS:
        db = random_graph(4, 8, LABELS, seed=db_seed)
        assert evaluate_c2rpq(q1, db) <= evaluate_c2rpq(q2, db)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_refutations_replay(seed):
    rng = random.Random(seed)
    q1 = random_c2rpq(rng, 1)
    q2 = random_c2rpq(rng, 1)
    result = uc2rpq_contained(q1, q2, budget=Budget(max_total_length=4))
    if result.verdict is Verdict.REFUTED:
        db = result.counterexample.database
        head = result.counterexample.output
        assert satisfies_c2rpq(q1, db, head)
        assert not satisfies_c2rpq(q2, db, head)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 10**6))
def test_evaluation_monotone_under_more_edges(seed, db_seed):
    query = random_c2rpq(random.Random(seed))
    small = random_graph(4, 6, LABELS, seed=db_seed)
    bigger = random_graph(4, 6, LABELS, seed=db_seed)
    rng = random.Random(db_seed + 1)
    for _ in range(4):
        bigger.add_edge(rng.randrange(4), rng.choice(LABELS), rng.randrange(4))
    assert evaluate_c2rpq(query, small) <= evaluate_c2rpq(query, bigger)
