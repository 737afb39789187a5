"""Tests for compiled graph snapshots.

Covers the snapshot lifecycle (stable insertion-order ids, a new
snapshot object after every write, the patch-or-drop write rule), the
adjacency/relation compilers, and the contract that evaluation state
memoized on a snapshot can never serve answers for a database that has
since changed.
"""

import pytest

from repro.cache import clear_caches
from repro.graphdb import GraphSnapshot
from repro.graphdb.database import GraphDatabase
from repro.graphdb.generators import path_graph, random_graph
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
