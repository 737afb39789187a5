"""Unit tests for relational instances and graph conversions."""

import pytest

from repro.cq.evaluation import evaluate_cq, satisfies
from repro.cq.syntax import cq_from_strings
from repro.crpq.evaluation import satisfies_c2rpq
from repro.crpq.syntax import C2RPQ
from repro.datalog.evaluation import seminaive_evaluate
from repro.datalog.syntax import transitive_closure_program
from repro.graphdb.database import GraphDatabase
from repro.relational.generators import chain_instance
from repro.relational.instance import (
    Instance,
    graph_to_instance,
    instance_to_graph,
)


class TestInstance:
    def test_from_facts(self):
        db = Instance.from_facts([("edge", (1, 2)), ("edge", (2, 3))])
        assert db.tuples("edge") == {(1, 2), (2, 3)}
        assert db.num_facts == 2

    def test_arity_enforced(self):
        db = Instance.from_facts([("r", (1, 2))])
        with pytest.raises(ValueError):
            db.add("r", (1, 2, 3))

    def test_declare_registers_empty_relation(self):
        db = Instance()
        db.declare("r", 2)
        assert db.tuples("r") == frozenset()
        with pytest.raises(ValueError):
            db.declare("r", 3)

    def test_unknown_predicate_is_empty(self):
        assert Instance().tuples("nope") == frozenset()

    def test_active_domain(self):
        db = Instance.from_facts([("r", (1, "x")), ("s", (2,))])
        assert db.active_domain == {1, "x", 2}

    def test_union(self):
        a = Instance.from_facts([("r", (1,))])
        b = Instance.from_facts([("r", (2,)), ("s", (3,))])
        merged = a.union(b)
        assert merged.tuples("r") == {(1,), (2,)}
        assert merged.tuples("s") == {(3,)}
        # inputs untouched
        assert a.tuples("r") == {(1,)}

    def test_copy_is_independent(self):
        a = Instance.from_facts([("r", (1,))])
        b = a.copy()
        b.add("r", (2,))
        assert a.tuples("r") == {(1,)}

    def test_copy_keeps_empty_relations_and_their_arities(self):
        a = Instance.from_facts([("r", (1, 2))])
        a.declare("p", 1)
        b = a.copy()
        assert b.predicates == {"r", "p"}
        assert b.arity("p") == 1 and b.arity("r") == 2
        with pytest.raises(ValueError, match="arity"):
            b.add("p", (1, 2))

    def test_contains(self):
        db = Instance.from_facts([("r", (1, 2))])
        assert ("r", (1, 2)) in db
        assert ("r", (2, 1)) not in db

    def test_equality_ignores_empty_relations(self):
        a = Instance.from_facts([("r", (1,))])
        b = Instance.from_facts([("r", (1,))])
        b.declare("s", 2)
        assert a == b


class TestMatching:
    def test_probes_bound_positions_in_relation_order(self):
        db = Instance.from_facts([("t", (1, 2, 3)), ("t", (1, 5, 3)), ("t", (2, 2, 3))])
        assert sorted(db.matching("t", (0, 2), (1, 3))) == [(1, 2, 3), (1, 5, 3)]
        assert db.matching("t", (1,), (5,)) == [(1, 5, 3)]
        assert list(db.matching("t", (0,), (1,))) == [
            row for row in db.matching("t", (), ()) if row[0] == 1
        ]
        assert db.matching("t", (0, 1, 2), (2, 2, 3)) == ((2, 2, 3),)
        assert db.matching("t", (0, 1, 2), (9, 2, 3)) == ()
        assert db.matching("absent", (0,), (1,)) == ()

    def test_a_new_row_drops_its_predicates_indexes(self):
        db = Instance.from_facts([("r", (1, 2)), ("s", (1, 2))])
        assert db.matching("r", (0,), (1,)) == [(1, 2)]
        assert db.matching("s", (0,), (1,)) == [(1, 2)]
        db.add("r", (1, 3))
        db.add("s", (1, 2))  # not a new row
        assert sorted(db.matching("r", (0,), (1,))) == [(1, 2), (1, 3)]
        assert db.matching("s", (0,), (1,)) == [(1, 2)]

    def test_install_replaces_a_relation(self):
        db = Instance.from_facts([("r", (1, 2))])
        assert db.matching("d", (0,), (1,)) == ()
        db.install("d", 2, {(1, 2)})
        assert db.matching("d", (0,), (1,)) == [(1, 2)]
        db.install("d", 2, {(1, 3)})
        assert db.matching("d", (0,), (1,)) == [(1, 3)]
        assert db.size("d") == 1 and db.size("absent") == 0


class TestJoinsDoNotCopy:
    """Joins read relations through ``matching``: with the copying
    ``tuples`` patched to raise they still answer, and a semi-naive
    fixpoint copies its EDB once and nothing else."""

    def test_no_join_calls_tuples_or_copies_per_round(self, monkeypatch):
        def refuse(self, predicate):
            raise AssertionError(f"a join copied {predicate}")

        copies = []
        copy = Instance.copy
        monkeypatch.setattr(Instance, "tuples", refuse)
        monkeypatch.setattr(Instance, "copy", lambda self: copies.append(self) or copy(self))

        db = chain_instance(6)
        path = cq_from_strings("x,z", ["edge(x,y)", "edge(y,z)"])
        assert evaluate_cq(path, db) == {(i, i + 2) for i in range(5)}
        assert satisfies(path, db, (0, 2)) and not satisfies(path, db, (0, 3))
        graph = GraphDatabase.from_edges([("a", "r", "b"), ("b", "r", "c")])
        query = C2RPQ.from_strings("x,y", [("r+", "x", "y"), ("r r", "x", "y")])
        assert satisfies_c2rpq(query, graph, ("a", "c"))
        assert not copies
        tc = transitive_closure_program("edge", "tc")
        for length in (3, 6):
            edb = chain_instance(length)
            closure = seminaive_evaluate(tc, edb)["tc"]
            assert len(closure) == length * (length + 1) // 2
            assert copies == [edb]
            copies.clear()


class TestGraphConversion:
    def test_roundtrip(self):
        graph = GraphDatabase.from_edges([("a", "r", "b"), ("b", "s", "a")])
        instance = graph_to_instance(graph)
        assert instance.tuples("r") == {("a", "b")}
        back = instance_to_graph(instance)
        assert back.relation("r") == {("a", "b")}
        assert back.relation("s") == {("b", "a")}

    def test_non_binary_rejected(self):
        instance = Instance.from_facts([("t", (1, 2, 3))])
        with pytest.raises(ValueError):
            instance_to_graph(instance)
