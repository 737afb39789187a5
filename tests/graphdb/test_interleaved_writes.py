"""Writes and reads interleave without stale answers.

A database is written to (``add_edge``, ``add_node``) between reads
(``TwoRPQ.evaluate`` / ``targets`` / ``witness_semipath``,
``evaluate_c2rpq`` / ``satisfies_c2rpq``).  Every read is checked
against the object-state oracle on a database freshly rebuilt from the
same writes, so an answer memoized on a snapshot that a write dropped
can never pass.  A second property checks the snapshot each write
leaves, whether it patched a snapshot that was read or dropped it: the
live snapshot equals one rebuilt from the database, each loop closure
it holds equals one built from scratch on that rebuild, and a snapshot
captured before a write keeps its rows, its closures, its memo and its
answers.  A third makes every write patch a snapshot that holds loop
closures on forward, inverse and mixed symbol sets, and checks each
against a rebuild.  Another test bounds the snapshots alive across such
a loop with the cyclic collector off: what a read memoizes on a
snapshot must not keep the snapshot alive once a write has replaced
it.  A last one races readers on one snapshot's unlocked memo.
"""

from __future__ import annotations

import gc
import sys
import threading

from hypothesis import given, settings, strategies as st

from repro.automata.indexed import IndexedNFA, bits
from repro.crpq.evaluation import evaluate_c2rpq, satisfies_c2rpq
from repro.crpq.syntax import C2RPQ
from repro.graphdb import GraphSnapshot
from repro.graphdb.database import GraphDatabase
from repro.graphdb.generators import random_graph
from repro.graphdb.snapshot import loop_symbols, reach_from_source
from repro.rpq.rpq import TwoRPQ
from tests.oracles import evaluation as oracle

#: Loops on ``a``, on ``b``, on ``(a, b)`` and on ``(a, b-)``.
QUERIES = [
    TwoRPQ.parse(text)
    for text in ("a+", "a b-", "(a|b)* b", "a- (a|b)*", "b (a b-)*", "b (a|b-)*")
]
CRPQS = [
    C2RPQ.from_strings("x,y", [("a+", "x", "z"), ("b", "z", "y")]),
    C2RPQ.from_strings("x,y", [("(a|b-)*", "x", "y"), ("a", "y", "x")]),
]

_node = st.integers(0, 5)
_query = st.integers(0, len(QUERIES) - 1)
_crpq = st.integers(0, len(CRPQS) - 1)
_op = st.one_of(
    st.tuples(st.just("edge"), _node, st.sampled_from(("a", "b")), _node),
    st.tuples(st.just("node"), st.integers(0, 7)),
    st.tuples(st.just("evaluate"), _query),
    st.tuples(st.just("targets"), _query, _node),
    st.tuples(st.just("witness"), _query, _node, _node),
    st.tuples(st.just("c2rpq"), _crpq),
    st.tuples(st.just("member"), _crpq, _node, _node),
)


def _conforms(query: TwoRPQ, db: GraphDatabase, path: tuple) -> bool:
    """The alternating sequence is a real semipath spelling a word of L(Q)."""
    nodes, word = path[0::2], path[1::2]
    return query.accepts_word(tuple(word)) and all(
        there in db.successors(here, label)
        for here, label, there in zip(nodes, word, nodes[1:])
    )


def _check_read(op: tuple, db: GraphDatabase, fresh: GraphDatabase) -> None:
    kind = op[0]
    if kind == "evaluate":
        query = QUERIES[op[1]]
        assert query.evaluate(db) == oracle.evaluate_nfa_on_graph(query.nfa, fresh)
    elif kind == "targets":
        query, source = QUERIES[op[1]], op[2]
        assert query.targets(db, source) == oracle.targets_from(query.nfa, fresh, source)
    elif kind == "witness":
        query, source, target = QUERIES[op[1]], op[2], op[3]
        path = query.witness_semipath(db, source, target)
        expected = oracle.witness_semipath(query.nfa, fresh, source, target)
        if expected is None:
            assert path is None
        else:
            assert path is not None and path[0] == source and path[-1] == target
            assert _conforms(query, fresh, path)
            assert len(path) == len(expected)  # both shortest
    elif kind == "c2rpq":
        query = CRPQS[op[1]]
        assert evaluate_c2rpq(query, db) == oracle.evaluate_uc2rpq(query, fresh)
    else:
        query, head = CRPQS[op[1]], (op[2], op[3])
        assert satisfies_c2rpq(query, db, head) == oracle.satisfies_uc2rpq(
            query, fresh, head
        )


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(_op, min_size=1, max_size=40))
def test_reads_after_writes_match_a_fresh_database(ops):
    db = GraphDatabase()
    edges: list[tuple] = []
    nodes: list = []
    for op in ops:
        if op[0] == "edge":
            db.add_edge(*op[1:])
            edges.append(op[1:])
        elif op[0] == "node":
            db.add_node(op[1])
            nodes.append(op[1])
        else:
            _check_read(op, db, GraphDatabase.from_edges(edges, nodes=nodes))


#: Every field a patch must get exactly as a rebuild does.
_SNAPSHOT_FIELDS = (
    "nodes", "node_index", "labels", "label_index", "forward", "backward",
    "num_nodes", "num_edges",
)
#: The start graph has labels a, b and d, so c is a new label that
#: sorts between existing ones; nodes 6-9 are new nodes.  With its
#: a-edges 0 -> 1 and 2 -> 3 -> 4, a new edge often grows closure rows
#: besides its source's.
_START = ((0, "a", 1), (1, "d", 2), (2, "a", 3), (3, "a", 4), (4, "b", 5))
_patch_op = st.one_of(
    st.tuples(
        st.just("edge"), st.integers(0, 7), st.sampled_from("abcd"), st.integers(0, 7)
    ),
    st.tuples(st.just("node"), st.integers(0, 9)),
    st.tuples(st.just("read"), _query, _node),
)


def _targets_on(snapshot: GraphSnapshot, query: TwoRPQ, source) -> frozenset:
    """*query*'s targets from *source*, answered on *snapshot* itself
    through the evaluation context memoized on it, with the closures the
    snapshot holds for its looping states."""
    if source not in snapshot.node_index:
        return frozenset()
    context = snapshot.memo[("regex-context", query.regex)]
    mask = reach_from_source(
        context.compiled,
        context.adjacency,
        snapshot.num_nodes,
        snapshot.node_index[source],
        closures=snapshot.loop_closures(context.loops),
    )
    return frozenset(snapshot.nodes[node] for node in bits(mask))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(_patch_op, min_size=1, max_size=40))
def test_patched_snapshots_equal_a_rebuild_and_leave_old_ones_intact(ops):
    db = GraphDatabase.from_edges(_START)
    edges, nodes = list(_START), []
    # One record per read: [snapshot, rows, node_index, memo, closures,
    # query, source, answer]; memo and closures as the first effective
    # write after the read finds them.
    kept = []
    for op in ops:
        if op[0] == "read":
            live = db.snapshot()
            rebuilt = GraphSnapshot.from_database(db)
            for field in _SNAPSHOT_FIELDS:
                assert getattr(live, field) == getattr(rebuilt, field), field
            query, source = QUERIES[op[1]], op[2]
            # Every set the query loops on gets built, so writes patch
            # closures from the first read on, not only once rent is due.
            for symbols in loop_symbols(IndexedNFA.from_nfa(query.nfa)):
                if symbols is not None:
                    live.closure(symbols)
            answer = query.targets(db, source)
            fresh = GraphDatabase.from_edges(edges, nodes=nodes)
            assert answer == oracle.targets_from(query.nfa, fresh, source)
            for symbols, closure in live.closures.items():
                assert closure == rebuilt.closure(symbols), symbols
            rows = [
                [list(row) for row in table] for table in (live.forward, live.backward)
            ]
            kept.append(
                [live, rows, dict(live.node_index), None, None, query, source, answer]
            )
            continue
        unsealed = [
            (record, dict(record[0].memo), dict(record[0].closures))
            for record in kept
            if record[3] is None
        ]
        revision = db.revision
        if op[0] == "edge":
            db.add_edge(*op[1:])
            edges.append(op[1:])
        else:
            db.add_node(op[1])
            nodes.append(op[1])
        if db.revision != revision:
            for record, memo, closures in unsealed:
                record[3] = memo
                record[4] = {
                    symbols: (closure, list(closure))
                    for symbols, closure in closures.items()
                }
    for snapshot, rows, node_index, memo, closures, query, source, answer in kept:
        assert [snapshot.forward, snapshot.backward] == rows
        assert snapshot.node_index == node_index
        if memo is not None:
            assert snapshot.memo.keys() == memo.keys()
            assert all(snapshot.memo[key] is value for key, value in memo.items())
            assert snapshot.closures.keys() == closures.keys()
            for symbols, (closure, copied) in closures.items():
                assert snapshot.closures[symbols] is closure and closure == copied
        assert _targets_on(snapshot, query, source) == answer


#: Closure sets a write can grow forward, backward, through two symbols
#: or not at all.
_LOOP_SETS = (("a",), ("a-",), ("a", "b"), ("a", "b-"), ("b-",), ("c",))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(0, 10**6),
    st.lists(st.tuples(st.integers(0, 6), st.sampled_from("ab"), st.integers(0, 6)),
             min_size=1, max_size=25),
)
def test_every_write_patches_closures_to_equal_a_rebuild(seed, writes):
    """Each write follows a read, so each one patches: every closure set,
    inverse letters included, equals its rebuild after every write, and
    the snapshot before the write keeps the rows it had."""
    db = random_graph(7, 8, ("a", "b"), seed=seed)
    db.add_edge(5, "a", 6)  # nodes 0-6 and both labels exist, so no write
    db.add_edge(6, "b", 0)  # brings a node or a label and drops the snapshot
    for symbols in _LOOP_SETS:
        db.snapshot().closure(symbols)
    for source, label, target in writes:
        before = db.snapshot()
        rows = {symbols: list(closure) for symbols, closure in before.closures.items()}
        db.add_edge(source, label, target)
        after, rebuilt = db.snapshot(), GraphSnapshot.from_database(db)
        assert after.closures.keys() == rows.keys()
        for symbols, closure in after.closures.items():
            assert closure == rebuilt.closure(symbols), (symbols, source, label, target)
        assert before.closures == rows


def test_writes_leave_at_most_two_snapshots_alive():
    """Derived state forms no cycle with its snapshot: with the cyclic
    collector off, reference counting alone frees each dropped one."""
    db = random_graph(30, 60, ("a", "b"), seed=5)
    people = db.nodes_in_order()
    query, crpq = QUERIES[1], CRPQS[0]
    seen: set[int] = set()  # ids only: holding a snapshot would keep it alive
    gc.collect()
    gc.disable()
    try:
        for step in range(60):
            source = people[step % len(people)]
            seen.add(id(db.snapshot()))
            query.evaluate(db)
            query.targets(db, source)
            query.witness_semipath(db, source, people[0])
            satisfies_c2rpq(crpq, db, (source, people[0]))
            db.snapshot().relation("a-")
            db.add_edge(f"new{step}", "a", source)
        alive = sum(
            isinstance(obj, GraphSnapshot) and id(obj) in seen
            for obj in gc.get_objects()
        )
    finally:
        gc.enable()
    assert alive <= 2


def test_concurrent_readers_never_see_a_wrong_memo_entry():
    """Readers racing on one snapshot's unlocked memo (and on clearing
    it) may compute an entry twice, but every answer stays exact."""
    db = random_graph(25, 60, ("a", "b"), seed=9)
    people = db.nodes_in_order()
    expected = [oracle.evaluate_nfa_on_graph(query.nfa, db) for query in QUERIES]
    expected_crpq = oracle.evaluate_uc2rpq(CRPQS[1], db)
    errors: list[Exception] = []

    def read(worker: int) -> None:
        try:
            for _ in range(3):
                for index, query in enumerate(QUERIES):
                    source = people[(worker + index) % len(people)]
                    sliced = {y for x, y in expected[index] if x == source}
                    assert query.targets(db, source) == sliced
                    assert query.evaluate(db) == expected[index]
                assert evaluate_c2rpq(CRPQS[1], db) == expected_crpq
                db.snapshot().memo.clear()
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(w,)) for w in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
