"""Tests for compiled graph snapshots.

Covers the snapshot lifecycle (stable insertion-order ids, a new
snapshot object after every write, the patch-or-drop write rule), the
adjacency/relation compilers, the loop-closure index (its rows, its
patches, and which reads build it), and the contract that evaluation
state memoized on a snapshot can never serve answers for a database
that has since changed.
"""

import pytest

from repro.automata.indexed import bits
from repro.cache import clear_caches
from repro.graphdb import GraphSnapshot
from repro.graphdb.database import GraphDatabase
from repro.graphdb.generators import path_graph, random_graph, social_network
from repro.rpq.rpq import RPQ, TwoRPQ
from tests.oracles.evaluation import evaluate_nfa_on_graph, targets_from


class _Opaque:
    """A node with default object.__repr__ (memory-address repr)."""

    def __str__(self):  # pragma: no cover - never serialized here
        return "opaque"


class TestNodeIds:
    def test_insertion_order_ids(self):
        db = GraphDatabase()
        db.add_edge("z", "r", "a")
        db.add_node("m")
        snap = db.snapshot()
        assert snap.nodes == ("z", "a", "m")
        assert snap.node_index == {"z": 0, "a": 1, "m": 2}

    def test_repr_unstable_nodes_get_stable_ids(self):
        """Ids depend on insertion order, never on memory addresses."""
        first, second = _Opaque(), _Opaque()
        db = GraphDatabase()
        db.add_edge(first, "r", second)
        snap = db.snapshot()
        assert snap.node_index[first] == 0
        assert snap.node_index[second] == 1

    def test_nodes_in_order_matches_snapshot(self):
        db = random_graph(12, 30, ("a", "b"), seed=3)
        assert db.snapshot().nodes == db.nodes_in_order()


class TestFingerprint:
    """The snapshot object is the identity of graph-derived state (there
    is no content fingerprint): a write yields a new snapshot object."""

    def test_changes_on_new_edge(self):
        db = GraphDatabase.from_edges([("a", "r", "b")])
        before = db.snapshot()
        db.add_edge("b", "r", "a")
        after = db.snapshot()
        assert after is not before
        assert before.relation("r") == {("a", "b")}
        assert after.relation("r") == {("a", "b"), ("b", "a")}

    def test_duplicate_edge_keeps_revision_and_snapshot(self):
        db = GraphDatabase.from_edges([("a", "r", "b")])
        snap = db.snapshot()
        revision = db.revision
        db.add_edge("a", "r", "b")  # already present: not a mutation
        assert db.revision == revision
        assert db.snapshot() is snap

    def test_mutation_rebuilds_snapshot(self):
        db = GraphDatabase.from_edges([("a", "r", "b")])
        snap = db.snapshot()
        db.add_edge("a", "r", "c")
        assert db.snapshot() is not snap
        assert db.revision > 0

    def test_new_node_rebuilds_snapshot(self):
        db = GraphDatabase.from_edges([("a", "r", "b")])
        snap = db.snapshot()
        snap.relation("r")
        db.add_node("c")
        assert db.snapshot() is not snap
        assert db.snapshot().memo == {}


class TestWriteRule:
    """A new edge between known nodes under a known label patches a
    snapshot that a read has taken since the last write; every other
    write drops the snapshot."""

    @staticmethod
    def _counts() -> tuple[int, int]:
        from repro.obs.metrics import counter

        return (
            counter("evaluation.snapshot_builds").value,
            counter("evaluation.snapshot_patches").value,
        )

    def _delta(self, before: tuple[int, int]) -> tuple[int, int]:
        after = self._counts()
        return after[0] - before[0], after[1] - before[1]

    def test_read_write_read_builds_once_and_patches_once(self):
        db = GraphDatabase.from_edges([("a", "r", "b")])
        before = self._counts()
        first = db.snapshot()
        db.add_edge("b", "r", "a")
        second = db.snapshot()
        assert self._delta(before) == (1, 1)
        assert second is not first and second.memo == {}
        assert second.relation("r") == {("a", "b"), ("b", "a")}

    def test_a_second_write_drops_the_unread_patched_snapshot(self):
        db = GraphDatabase.from_edges([("a", "r", "b"), ("b", "r", "c")])
        before = self._counts()
        db.snapshot()
        db.add_edge("c", "r", "a")  # patches the snapshot just read
        db.add_edge("a", "r", "c")  # nobody read the patch: dropped
        snap = db.snapshot()
        assert self._delta(before) == (2, 1)
        assert snap.relation("r") == {("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")}

    def test_duplicate_edge_is_neither_a_build_nor_a_patch(self):
        db = GraphDatabase.from_edges([("a", "r", "b")])
        snap = db.snapshot()
        before = self._counts()
        db.add_edge("a", "r", "b")
        db.add_node("a")
        assert db.snapshot() is snap
        assert self._delta(before) == (0, 0)

    def test_a_write_with_no_snapshot_patches_nothing(self):
        db = GraphDatabase()
        before = self._counts()
        for index in range(5):
            db.add_edge(index, "r", index + 1)
        assert self._delta(before) == (0, 0)

    def test_new_nodes_and_labels_drop_the_snapshot(self):
        db = GraphDatabase.from_edges([("a", "r", "b"), ("b", "t", "a")])
        before = self._counts()
        old = db.snapshot()
        db.add_edge("c", "r", "a")  # new source node
        new = db.snapshot()
        assert new.nodes == ("a", "b", "c")
        assert new.rows_for("r") == [1 << 1, 0, 1 << 0]
        db.add_edge("a", "s", "b")  # new label, between r and t
        new = db.snapshot()
        assert new.labels == ("r", "s", "t") and new.rows_for("s") == [1 << 1, 0, 0]
        db.add_node("z")
        assert db.snapshot().nodes == ("a", "b", "c", "z")
        assert self._delta(before) == (4, 0)
        assert (old.nodes, old.labels) == (("a", "b"), ("r", "t"))

    def test_patch_shares_the_rows_it_does_not_touch(self):
        db = GraphDatabase.from_edges([("a", "r", "b"), ("b", "t", "a")])
        old = db.snapshot()
        db.add_edge("b", "r", "a")
        new = db.snapshot()
        assert new.forward[1] is old.forward[1] and new.backward[1] is old.backward[1]
        assert new.forward[0] is not old.forward[0]
        assert old.rows_for("r") == [1 << 1, 0]
        assert new.rows_for("r") == [1 << 1, 1 << 0]
        assert new.num_edges == 3 and old.num_edges == 2


class TestAdjacency:
    def test_forward_and_backward_rows(self):
        db = GraphDatabase.from_edges([("a", "r", "b"), ("c", "r", "b")])
        snap = db.snapshot()
        a, b, c = (snap.node_index[n] for n in "abc")
        forward = snap.rows_for("r")
        backward = snap.rows_for("r-")
        assert forward[a] == 1 << b
        assert backward[b] == (1 << a) | (1 << c)

    def test_unknown_label_is_empty(self):
        db = GraphDatabase.from_edges([("a", "r", "b")])
        snap = db.snapshot()
        assert all(row == 0 for row in snap.rows_for("ghost"))
        assert all(row == 0 for row in snap.rows_for("ghost-"))

    def test_relation_matches_database(self):
        db = random_graph(10, 25, ("a", "b"), seed=7)
        snap = db.snapshot()
        for label in ("a", "b", "a-", "b-"):
            assert snap.relation(label) == db.relation(label)


class TestEvaluationAgainstBaseline:
    @pytest.mark.parametrize("regex", ["a+", "a b", "(a|b)* a", "a- b", "(a b-)+"])
    def test_kernels_agree_with_object_state(self, regex):
        db = random_graph(9, 22, ("a", "b"), seed=11)
        query = TwoRPQ.parse(regex)
        clear_caches()
        fast = query.evaluate(db)
        slow = evaluate_nfa_on_graph(query.nfa, db)
        assert fast == slow

    def test_targets_and_matches_agree(self):
        db = random_graph(8, 20, ("a", "b"), seed=5)
        query = TwoRPQ.parse("a (b|a-)*")
        clear_caches()
        for source in db.nodes_in_order():
            fast = query.targets(db, source)
            slow = targets_from(query.nfa, db, source)
            assert fast == slow


class TestStaleCacheNeverServed:
    """The acceptance-criteria mutation test: a cached evaluation result
    must become unreachable the moment the database changes."""

    def test_mutation_invalidates_evaluation(self):
        query = RPQ.parse("r+")
        db = path_graph(3, "r")
        clear_caches()
        before = query.evaluate(db)
        assert (0, 3) in before and (3, 0) not in before
        db.add_edge(3, "r", 0)  # close the cycle
        after = query.evaluate(db)
        assert (3, 0) in after

    def test_mutation_invalidates_targets_and_witness(self):
        query = TwoRPQ.parse("r r")
        db = path_graph(2, "r")
        clear_caches()
        assert query.targets(db, 0) == {2}
        assert query.witness_semipath(db, 1, 3) is None
        db.add_edge(2, "r", 3)
        assert query.targets(db, 1) == {3}
        assert query.witness_semipath(db, 1, 3) == (1, "r", 2, "r", 3)

    def test_two_databases_do_not_cross_contaminate(self):
        query = RPQ.parse("r")
        one = GraphDatabase.from_edges([("a", "r", "b")])
        two = GraphDatabase.from_edges([("x", "r", "y")])
        clear_caches()
        assert query.evaluate(one) == {("a", "b")}
        assert query.evaluate(two) == {("x", "y")}


class TestSnapshotMemo:
    """Evaluation state lives on the snapshot that it was derived from."""

    def test_all_pairs_answer_is_memoized_and_sliced(self):
        from repro.obs.metrics import counter

        query = TwoRPQ.parse("r+")
        db = path_graph(3, "r")
        runs = counter("evaluation.bfs_runs")
        answers = query.evaluate(db)
        before = runs.value
        assert query.evaluate(db) is answers
        assert query.targets(db, 1) == {2, 3}
        assert runs.value == before  # served from the memo, no BFS

    def test_slices_read_source_bitsets_not_the_answer_set(self):
        """Once the all-pairs answer exists, a single-source read takes
        the source's memoized target row; it never scans the answer set,
        and it runs no BFS."""
        from repro.obs.metrics import counter

        class Unscannable(frozenset):
            def __iter__(self):
                raise AssertionError("a slice scanned the whole answer set")

        query = TwoRPQ.parse("r+ r-?")
        db = random_graph(30, 60, ("r",), seed=5)
        query.evaluate(db)
        (context,) = [
            value for key, value in db.snapshot().memo.items() if "context" in key[0]
        ]
        context.pairs = Unscannable(context.pairs)
        runs = counter("evaluation.bfs_runs")
        before = runs.value
        for source in db.nodes_in_order()[:10]:
            expected = targets_from(query.nfa, db, source)
            assert query.targets(db, source) == expected
            for target in db.nodes_in_order()[:5]:
                assert query.matches(db, source, target) == (target in expected)
        assert runs.value == before

    def test_a_recompiled_query_reuses_its_context(self):
        """Query reads key the memo by regex: a fresh automaton for the
        same regex (after clear_caches) adds no context entry."""
        query = TwoRPQ.parse("knows knows")
        db = path_graph(4, "knows")
        for _ in range(5):
            clear_caches()
            assert query.evaluate(db) == {(0, 2), (1, 3), (2, 4)}
        contexts = [key for key in db.snapshot().memo if "context" in key[0]]
        assert len(contexts) == 1

    def test_memo_clear_forgets_derived_state_only(self):
        query = TwoRPQ.parse("r+")
        db = path_graph(3, "r")
        snap = db.snapshot()
        query.evaluate(db)
        assert snap.memo
        snap.memo.clear()
        assert db.snapshot() is snap
        assert query.targets(db, 0) == {1, 2, 3}

    def test_equal_automata_never_share_an_entry(self):
        """Entries key on the automaton object and hold it, so an id
        cannot be reused while its entry lives."""
        from repro.automata.dfa import reduce_nfa
        from repro.automata.regex import parse_regex
        from repro.rpq.rpq import evaluate_nfa_on_graph as evaluate

        db = path_graph(2, "r")
        first, second = (reduce_nfa(parse_regex("r r").to_nfa()) for _ in range(2))
        assert first == second and first is not second
        assert evaluate(first, db) == evaluate(second, db) == {(0, 2)}
        contexts = [v for k, v in db.snapshot().memo.items() if k[0] == "context"]
        assert sorted(id(context.nfa) for context in contexts) == sorted(
            [id(first), id(second)]
        )


class TestSnapshotExport:
    def test_reexported_from_package(self):
        db = GraphDatabase.from_edges([("a", "r", "b")])
        assert isinstance(db.snapshot(), GraphSnapshot)

    def test_repr_mentions_sizes(self):
        db = GraphDatabase.from_edges([("a", "r", "b")])
        assert "nodes=2" in repr(db.snapshot())


class TestLoopClosures:
    """The loop-closure index: one row list per symbol set some automaton
    state loops on, built by rent-or-buy in single-source reads only and
    patched by each write like the adjacency rows."""

    @staticmethod
    def _counts() -> tuple[int, int]:
        from repro.obs.metrics import counter

        return (
            counter("evaluation.closure_builds").value,
            counter("evaluation.closure_patches").value,
        )

    def _delta(self, before: tuple[int, int]) -> tuple[int, int]:
        after = self._counts()
        return after[0] - before[0], after[1] - before[1]

    @pytest.mark.parametrize(
        "symbols", [("a",), ("a-",), ("a", "b"), ("a", "b-"), ("ghost",)]
    )
    def test_rows_are_the_reflexive_transitive_closure(self, symbols):
        db = random_graph(14, 30, ("a", "b"), seed=12)
        snap = db.snapshot()
        rows = snap.closure(symbols)
        for node in db.nodes_in_order():
            reached, todo = {node}, [node]
            while todo:
                here = todo.pop()
                for symbol in symbols:
                    for there in db.successors(here, symbol):
                        if there not in reached:
                            reached.add(there)
                            todo.append(there)
            assert {snap.nodes[i] for i in bits(rows[snap.node_index[node]])} == reached

    def test_a_component_shares_one_row(self):
        db = GraphDatabase.from_edges(
            [(0, "r", 1), (1, "r", 2), (2, "r", 0), (2, "r", 3), (4, "r", 0)]
        )
        rows = db.snapshot().closure(("r",))
        assert rows[0] is rows[1] is rows[2] and rows[0] == 0b1111
        assert rows[3] == 0b1000 and rows[4] == 0b11111

    def test_a_write_patches_closures_and_keeps_the_old_ones(self):
        db = GraphDatabase.from_edges([(0, "r", 1), (2, "r", 3), (3, "t", 0)])
        old = db.snapshot()
        r_rows, t_rows = old.closure(("r",)), old.closure(("t",))
        before = self._counts()
        db.add_edge(1, "r", 2)  # 0 and 1 now reach 2 and 3
        new = db.snapshot()
        assert new.closures[("r",)] == [0b1111, 0b1110, 0b1100, 0b1000]
        assert new.closures[("t",)] is t_rows  # not read by an r edge
        assert old.closures == {("r",): r_rows, ("t",): t_rows}
        assert r_rows == [0b11, 0b10, 0b1100, 0b1000]
        db.add_edge(0, "r", 2)  # 0 already reaches 2: nothing grows
        assert db.snapshot().closures[("r",)] is new.closures[("r",)]
        assert self._delta(before) == (0, 1)

    def test_memo_clear_keeps_the_closures(self):
        db = path_graph(3, "r")
        snap = db.snapshot()
        rows = snap.closure(("r",))
        snap.memo.clear()
        assert snap.closures == {("r",): rows}

    def test_a_fresh_databases_first_read_builds_nothing(self):
        db = social_network(200, seed=4)
        person = db.nodes_in_order()[0]
        before = self._counts()
        for text in ("knows+", "knows* worksAt", "livesIn partOf+"):
            TwoRPQ.parse(text).targets(db, person)
        assert self._delta(before) == (0, 0)
        assert db.snapshot().closures == {}

    def test_reads_and_writes_build_each_set_once(self):
        """A loop of star reads and writes between known nodes buys the
        knows closure and the partOf closure once each, then carries them
        through every write: after both are bought, 0 builds per write."""
        import random

        db = social_network(200, seed=4)
        nodes = db.nodes_in_order()
        people = [node for node in nodes if node.startswith("p")]
        cities = [node for node in nodes if node.startswith("city")]
        queries = [TwoRPQ.parse(text) for text in ("knows+", "knows* worksAt", "livesIn partOf+")]
        rng = random.Random(1)
        before = self._counts()
        builds = []  # total builds as each write finds them
        for step in range(3000):
            if step % 10 == 9:
                if step % 20 == 9:
                    db.add_edge(rng.choice(people), "knows", rng.choice(people))
                else:
                    db.add_edge(rng.choice(people), "livesIn", rng.choice(cities))
                builds.append(self._delta(before)[0])
                continue
            query, source = queries[step % 3], rng.choice(people)
            answer = query.targets(db, source)
            if step % 11 == 0:
                assert answer == targets_from(query.nfa, db, source)
        assert set(db.snapshot().closures) == {("knows",), ("partOf",)}
        assert builds[-1] == 2
        first = builds.index(2)
        assert set(builds[first:]) == {2} and len(builds) - first >= 50
        assert self._delta(before)[1] > 0  # some writes grew the knows rows

    def test_evaluate_and_witness_stay_on_the_plain_search(self):
        db = random_graph(20, 50, ("r",), seed=3)
        query = TwoRPQ.parse("r+")
        before = self._counts()
        for source in db.nodes_in_order():
            query.witness_semipath(db, source, db.nodes_in_order()[0])
        query.evaluate(db)
        for source in db.nodes_in_order():
            query.targets(db, source)  # sliced from the all-pairs answer
        assert self._delta(before) == (0, 0)

    def test_the_single_source_span_tags_the_closed_states(self):
        from repro.obs.trace import Tracer

        db = path_graph(4, "r")
        query = TwoRPQ.parse("r+")
        tracer = Tracer()
        query.targets(db, 0, tracer=tracer)
        db.snapshot().closure(("r",))
        query.targets(db, 1, tracer=tracer)
        spans = [span for root in tracer.roots for span in root.walk() if span.name == "eval-bfs"]
        assert [span.tags["closed"] for span in spans] == [[], [0]]
