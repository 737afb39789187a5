"""Property-based tests for the RQ layer.

Random algebra terms (from :mod:`repro.rq.generators`) drive the three
load-bearing invariants: the Section 4.1 Datalog translation preserves
semantics, simplification preserves semantics while never growing the
term, and the containment checker is sound on its refutations.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.budget import Budget
from repro.datalog.evaluation import evaluate as datalog_evaluate
from repro.graphdb.generators import random_graph
from repro.grq.membership import is_grq
from repro.relational.instance import graph_to_instance
from repro.report import Verdict
from repro.rq.containment import rq_contained
from repro.rq.evaluation import evaluate_rq, satisfies_rq
from repro.rq.generators import random_rq
from repro.rq.optimize import simplify
from repro.rq.to_datalog import rq_to_datalog

LABELS = ("a", "b")


def term_from_seed(seed: int, depth: int = 3):
    return random_rq(random.Random(seed), LABELS, depth)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 10**6))
def test_datalog_translation_preserves_semantics(seed, db_seed):
    term = term_from_seed(seed)
    program = rq_to_datalog(term)
    db = random_graph(5, 10, LABELS, seed=db_seed)
    assert datalog_evaluate(program, graph_to_instance(db)) == evaluate_rq(term, db)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_translation_image_is_always_grq(seed):
    assert is_grq(rq_to_datalog(term_from_seed(seed)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 10**6))
def test_simplify_preserves_semantics_and_size(seed, db_seed):
    term = term_from_seed(seed, depth=4)
    simplified = simplify(term)
    assert simplified.size() <= term.size()
    db = random_graph(5, 10, LABELS, seed=db_seed)
    assert evaluate_rq(term, db) == evaluate_rq(simplified, db)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**9))
def test_containment_refutations_replay(seed):
    rng = random.Random(seed)
    q1 = random_rq(rng, LABELS, 2)
    q2 = random_rq(rng, LABELS, 2)
    if q1.arity != q2.arity:
        return
    result = rq_contained(q1, q2, budget=Budget(max_applications=10, max_expansions=40))
    if result.verdict is Verdict.REFUTED:
        db = result.counterexample.database
        head = result.counterexample.output
        assert satisfies_rq(q1, db, head)
        assert not satisfies_rq(q2, db, head)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**9))
def test_containment_reflexive_never_refuted(seed):
    term = term_from_seed(seed, depth=2)
    result = rq_contained(
        term, term, budget=Budget(max_applications=10, max_expansions=40)
    )
    assert result.verdict is not Verdict.REFUTED


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 10**6))
def test_union_monotone(seed, db_seed):
    """t ⊑ t | s semantically on every sampled database."""
    rng = random.Random(seed)
    t = random_rq(rng, LABELS, 2)
    from repro.rq.generators import _align

    s = _align(random_rq(rng, LABELS, 2), t.head_vars, rng)
    if s is None:
        return
    from repro.rq.syntax import Or

    union = Or(t, s)
    db = random_graph(5, 10, LABELS, seed=db_seed)
    assert evaluate_rq(t, db) <= evaluate_rq(union, db)
