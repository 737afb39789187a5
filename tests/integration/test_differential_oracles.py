"""Differential oracles: hypothesis-driven agreement between independent engines.

Each property drives randomized queries through two procedures that were
implemented independently and requires their answers to agree:

- the RPQ automata pipeline vs brute-force word enumeration;
- UC2RPQ direct evaluation / containment vs the Section 4.1 Datalog
  translation (:mod:`repro.crpq.to_datalog`) run through the Datalog
  engine;
- RQ algebra evaluation / containment vs its Datalog image
  (:mod:`repro.rq.to_datalog`);
- the snapshot-based set-at-a-time evaluation engine vs the object-state
  oracle of ``tests/oracles/evaluation.py`` vs sequential (uncached,
  per-call) CRPQ instantiation, over random regexes/graphs including
  mixed-type and non-string node names.

All properties are derandomized (``derandomize=True``) so CI replays the
exact same example sequence on every run: a red run is reproducible, and
a green run certifies a fixed corpus rather than a lucky draw.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.automata.regex import random_regex
from repro.budget import Budget
from repro.cache import clear_caches
from repro.crpq.evaluation import evaluate_uc2rpq, satisfies_c2rpq, satisfies_uc2rpq
from repro.crpq.containment import uc2rpq_contained
from repro.crpq.syntax import C2RPQ
from repro.crpq.to_datalog import uc2rpq_to_datalog
from repro.datalog.evaluation import evaluate
from repro.graphdb.generators import random_graph
from repro.relational.instance import graph_to_instance
from repro.report import Verdict
from repro.rpq.containment import rpq_contained
from repro.rpq.rpq import RPQ, TwoRPQ
from repro.rq.containment import rq_contained
from repro.rq.evaluation import evaluate_rq
from repro.rq.generators import random_rq
from repro.rq.to_datalog import rq_to_datalog
from tests.oracles import evaluation as oracle

ALPHABET = ("a", "b")

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much],
)


def _brute_words(nfa, alphabet, max_length):
    import itertools

    return {
        word
        for length in range(max_length + 1)
        for word in itertools.product(alphabet, repeat=length)
        if nfa.accepts(word)
    }


def _rpq_pair(seed: int) -> tuple[RPQ, RPQ]:
    rng = random.Random(seed)
    return (
        RPQ(random_regex(rng, ALPHABET, 3)),
        RPQ(random_regex(rng, ALPHABET, 3)),
    )


def _incident(db, labels):
    """Nodes incident to an edge labeled within *labels* — the active
    domain the Datalog translations quantify over."""
    return {
        node
        for source, label, target in db.edges()
        if label in labels
        for node in (source, target)
    }


# -- RPQ pipeline vs brute-force enumeration ---------------------------------


@SETTINGS
@given(st.integers(0, 10**9))
def test_rpq_holds_agrees_with_brute_force(seed):
    """HOLDS from the automata pipeline means no short word separates."""
    q1, q2 = _rpq_pair(seed)
    result = rpq_contained(q1, q2)
    if result.holds:
        for word in _brute_words(q1.nfa, ALPHABET, 5):
            assert q2.accepts_word(word), (q1, q2, word)


@SETTINGS
@given(st.integers(0, 10**9))
def test_rpq_refutation_replays_and_brute_force_confirms(seed):
    """REFUTED comes with a database only Q1 answers; and conversely a
    brute-force separating word forces the pipeline to refute."""
    q1, q2 = _rpq_pair(seed)
    result = rpq_contained(q1, q2)
    if result.verdict is Verdict.REFUTED:
        db = result.counterexample.database
        source, target = result.counterexample.output
        assert q1.matches(db, source, target)
        assert not q2.matches(db, source, target)
    separating = _brute_words(q1.nfa, ALPHABET, 4) - _brute_words(
        q2.nfa, ALPHABET, 4
    )
    if separating:
        assert result.verdict is Verdict.REFUTED, (q1, q2, sorted(separating)[:3])


# -- UC2RPQ vs its Datalog translation ---------------------------------------


def _c2rpq(seed: int) -> C2RPQ:
    rng = random.Random(seed)
    # The first atom spans the head so the query is always well-formed.
    atoms = [(str(random_regex(rng, ALPHABET, 2)), "x", "y")]
    if rng.random() < 0.5:
        source, target = rng.sample(["x", "y", "z"], 2)
        atoms.append((str(random_regex(rng, ALPHABET, 2)), source, target))
    return C2RPQ.from_strings("x,y", atoms)


@SETTINGS
@given(st.integers(0, 10**9), st.integers(0, 10**6))
def test_uc2rpq_evaluation_agrees_with_datalog_translation(seed, db_seed):
    """Direct C2RPQ evaluation == Datalog engine on the translated program."""
    query = _c2rpq(seed)
    program = uc2rpq_to_datalog(query)
    db = random_graph(5, 10, ALPHABET, seed=db_seed)
    via_datalog = evaluate(program, graph_to_instance(db))
    incident = _incident(db, query.base_symbols())
    direct = frozenset(
        row
        for row in evaluate_uc2rpq(query, db)
        if all(value in incident for value in row)
    )
    assert via_datalog == direct, (query, db_seed)


@SETTINGS
@given(st.integers(0, 10**9))
def test_uc2rpq_refutation_separates_the_datalog_translations(seed):
    """A containment counterexample separates the translated programs too."""
    q1, q2 = _c2rpq(seed), _c2rpq(seed + 1)
    result = uc2rpq_contained(
        q1, q2, budget=Budget(max_total_length=4, max_expansions=300)
    )
    if result.verdict is not Verdict.REFUTED:
        return
    db = result.counterexample.database
    head = result.counterexample.output
    if not all(value in _incident(db, q1.base_symbols()) for value in head):
        # Epsilon-word expansions put head nodes outside the active
        # domain the translation quantifies over; the translations are
        # only claimed equivalent on adom tuples.
        return
    instance = graph_to_instance(db)
    assert head in evaluate(uc2rpq_to_datalog(q1), instance)
    assert head not in evaluate(uc2rpq_to_datalog(q2), instance)


# -- RQ vs its Datalog translation -------------------------------------------


@SETTINGS
@given(st.integers(0, 10**9), st.integers(0, 10**6))
def test_rq_evaluation_agrees_with_datalog_translation(seed, db_seed):
    """RQ algebra semantics == Datalog engine on the translated program."""
    rng = random.Random(seed)
    query = random_rq(rng, ALPHABET, 2)
    program = rq_to_datalog(query)
    db = random_graph(5, 10, ALPHABET, seed=db_seed)
    via_datalog = evaluate(program, graph_to_instance(db))
    direct = frozenset(evaluate_rq(query, db))
    assert via_datalog == direct, (query, db_seed)


@SETTINGS
@given(st.integers(0, 10**9))
def test_rq_refutation_separates_the_datalog_translations(seed):
    """An RQ containment counterexample separates the Datalog images."""
    rng = random.Random(seed)
    q1 = random_rq(rng, ALPHABET, 2)
    q2 = random_rq(rng, ALPHABET, 2)
    if q1.arity != q2.arity:
        return
    result = rq_contained(q1, q2, budget=Budget(max_applications=8, max_expansions=120))
    if result.verdict is not Verdict.REFUTED:
        return
    db = result.counterexample.database
    head = result.counterexample.output
    instance = graph_to_instance(db)
    assert head in evaluate(rq_to_datalog(q1), instance)
    assert head not in evaluate(rq_to_datalog(q2), instance)


# -- snapshot engine vs object-state oracle vs sequential instantiation ------


def _mixed_node_graph(db_seed: int):
    """A random graph whose nodes mix ints, strings, and tuples — the
    node-name shapes canonical databases and user data actually use."""
    base = random_graph(6, 14, ALPHABET, seed=db_seed)
    rename = {}
    for index, node in enumerate(base.nodes_in_order()):
        kind = index % 3
        rename[node] = node if kind == 0 else (
            f"n{node}" if kind == 1 else ("t", node)
        )
    return base.renamed(rename)


@SETTINGS
@given(st.integers(0, 10**9), st.integers(0, 10**6))
def test_snapshot_evaluation_agrees_with_object_state(seed, db_seed):
    """Set-at-a-time snapshot BFS == per-source object-state BFS."""
    rng = random.Random(seed)
    query = TwoRPQ(random_regex(rng, ALPHABET, 3, allow_inverse=True))
    db = _mixed_node_graph(db_seed)
    clear_caches()
    fast = query.evaluate(db)
    slow = oracle.evaluate_nfa_on_graph(query.nfa, db)
    assert fast == slow, (query, db_seed)


@SETTINGS
@given(st.integers(0, 10**9), st.integers(0, 10**6))
def test_crpq_cached_instantiation_agrees_with_sequential(seed, db_seed):
    """Atom instantiation memoized on the snapshot == the object-state oracle.

    Three arms: snapshot engine from a fresh database, the same call
    again (served from the snapshot memo), and the object-state oracle.
    """
    query = _c2rpq(seed)
    db = _mixed_node_graph(db_seed)
    clear_caches()
    cold = evaluate_uc2rpq(query, db)
    warm = evaluate_uc2rpq(query, db)  # second call exercises hits
    baseline = oracle.evaluate_uc2rpq(query, db)
    assert cold == warm == baseline, (query, db_seed)


@SETTINGS
@given(st.integers(0, 10**9), st.integers(0, 10**6))
def test_crpq_membership_agrees_across_arms(seed, db_seed):
    """satisfies_uc2rpq (the containment hot loop) agrees on every head."""
    query = _c2rpq(seed)
    db = _mixed_node_graph(db_seed)
    nodes = db.nodes_in_order()[:4]
    heads = [(x, y) for x in nodes for y in nodes][:8]
    clear_caches()
    for head in heads:
        cached = satisfies_uc2rpq(query, db, head)
        baseline = oracle.satisfies_uc2rpq(query, db, head)
        assert cached == baseline, (query, head, db_seed)


# The evaluation-engine bench workloads (EXPERIMENTS.md A9), at their
# recorded sizes: the bench times them, these pin their answers.


def test_snapshot_evaluation_agrees_on_the_repeated_query_workload():
    """10 random 2RPQs on a 40-node graph == the object-state oracle."""
    rng = random.Random(41)
    queries = [TwoRPQ(random_regex(rng, ALPHABET, 3, allow_inverse=True)) for _ in range(10)]
    db = random_graph(40, 160, ALPHABET, seed=43)
    clear_caches()
    for query in queries:
        assert query.evaluate(db) == oracle.evaluate_nfa_on_graph(query.nfa, db), query


def test_crpq_membership_agrees_on_the_multi_atom_workload():
    """The 4-atom CRPQ's 36 membership tests == the object-state oracle."""
    query = C2RPQ.from_strings(
        "x,y",
        [
            ("(a|b)* a (a|b)*", "x", "y"),
            ("a (b a-)+", "x", "y"),
            ("b- (a|b)+ a", "x", "z"),
            ("(a b)+ b-", "z", "y"),
        ],
    )
    db = random_graph(30, 100, ALPHABET, seed=47)
    nodes = db.nodes_in_order()[:6]
    clear_caches()
    for head in [(x, y) for x in nodes for y in nodes]:
        assert satisfies_c2rpq(query, db, head) == oracle.satisfies_uc2rpq(query, db, head), head
