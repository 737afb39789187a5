"""Tests for naive/semi-naive evaluation and the P^i semantics."""

import pytest

from repro.datalog.evaluation import (
    EvaluationStats,
    _seed_instance,
    bounded_evaluate,
    evaluate,
    naive_evaluate,
    seminaive_evaluate,
)
from repro.datalog.parser import parse_program
from repro.datalog.syntax import reachability_program, transitive_closure_program
from repro.relational.generators import chain_instance, random_instance
from repro.relational.instance import Instance


@pytest.fixture
def tc():
    return transitive_closure_program("edge", "tc")


class TestFixpoint:
    def test_tc_on_chain(self, tc):
        db = chain_instance(4)
        expected = {(i, j) for i in range(5) for j in range(i + 1, 5)}
        assert evaluate(tc, db) == expected

    def test_tc_on_cycle(self, tc):
        db = Instance.from_facts([("edge", (0, 1)), ("edge", (1, 2)), ("edge", (2, 0))])
        assert evaluate(tc, db) == {(i, j) for i in range(3) for j in range(3)}

    def test_empty_edb(self, tc):
        assert evaluate(tc, Instance()) == frozenset()

    def test_reachability_program(self):
        program = reachability_program("E", "P", "Q")
        db = Instance.from_facts(
            [("E", (1, 2)), ("E", (2, 3)), ("E", (4, 1)), ("P", (3,))]
        )
        assert evaluate(program, db) == {(1,), (2,), (4,)}

    def test_naive_and_seminaive_agree(self, tc):
        for seed in range(4):
            db = random_instance({"edge": 2}, 6, 10, seed=seed)
            assert naive_evaluate(tc, db) == seminaive_evaluate(tc, db)

    def test_mutual_recursion(self):
        program = parse_program(
            """
            even(x, y) :- edge(x, y), start(x).
            odd(x, z) :- even(x, y), edge(y, z).
            even(x, z) :- odd(x, y), edge(y, z).
            """,
            goal="even",
        )
        db = chain_instance(5)
        db.add("start", (0,))
        assert evaluate(program, db) == {(0, 1), (0, 3), (0, 5)}

    def test_nonlinear_rules(self):
        doubling = parse_program(
            """
            tc(x, y) :- edge(x, y).
            tc(x, z) :- tc(x, y), tc(y, z).
            """
        )
        db = chain_instance(6)
        expected = {(i, j) for i in range(7) for j in range(i + 1, 7)}
        assert evaluate(doubling, db) == expected

    def test_ground_fact_rules(self):
        program = parse_program(
            """
            seed(0, 1).
            tc(x, y) :- seed(x, y).
            tc(x, z) :- tc(x, y), edge(y, z).
            """,
            goal="tc",
        )
        db = chain_instance(3)
        assert (0, 3) in evaluate(program, db)


class TestStats:
    def test_seminaive_fewer_rule_firings_than_naive(self, tc):
        db = chain_instance(12)
        naive_stats, semi_stats = EvaluationStats(), EvaluationStats()
        naive_evaluate(tc, db, naive_stats)
        seminaive_evaluate(tc, db, semi_stats)
        assert naive_stats.facts_derived == semi_stats.facts_derived
        # The decisive metric: naive re-derives everything each round.
        assert sum(naive_stats.derivations_per_iteration) == sum(
            semi_stats.derivations_per_iteration
        )
        assert naive_stats.iterations >= semi_stats.iterations - 1

    def test_iterations_scale_with_chain_length(self, tc):
        short, long_ = EvaluationStats(), EvaluationStats()
        naive_evaluate(tc, chain_instance(3), short)
        naive_evaluate(tc, chain_instance(9), long_)
        assert long_.iterations > short.iterations


class TestBoundedSemantics:
    def test_p_i_is_monotone_and_converges(self, tc):
        """The paper's P^inf(D) = U_i P^i(D), observably."""
        db = chain_instance(5)
        previous = frozenset()
        for rounds in range(8):
            current = bounded_evaluate(tc, db, rounds)
            assert previous <= current
            previous = current
        assert previous == evaluate(tc, db)

    def test_p_1_is_base_facts(self, tc):
        db = chain_instance(4)
        assert bounded_evaluate(tc, db, 1) == {(i, i + 1) for i in range(4)}

    def test_p_0_is_empty(self, tc):
        assert bounded_evaluate(tc, chain_instance(3), 0) == frozenset()


class TestSeedInstance:
    """Regression tests for _seed_instance declaring the IDB schema.

    An earlier version only copied the EDB, so IDB predicates entered
    the instance lazily on first derivation — and an EDB relation
    clashing with an IDB head's arity went undetected whenever the
    clashing rule happened never to fire.
    """

    def test_idb_predicates_are_declared_with_head_arity(self, tc):
        seeded = _seed_instance(tc, chain_instance(2))
        assert seeded.arity("tc") == 2
        assert seeded.tuples("tc") == frozenset()

    def test_idb_predicate_that_never_fires_stays_empty(self):
        program = parse_program(
            """
            T(x,y) :- E(x,y), Missing(x).
            Goal(x) :- T(x,y).
            """
        )
        edb = Instance.from_facts([("E", ("a", "b"))])
        for engine in (naive_evaluate, seminaive_evaluate):
            assert engine(program, edb)[program.goal] == frozenset()

    def test_edb_idb_arity_clash_fails_loudly_even_when_rule_never_fires(self):
        program = parse_program(
            """
            P(x,y) :- E(x,y).
            Goal(x) :- P(x,x).
            """
        )
        # E is empty, so the clashing rule derives nothing; the old
        # seeding accepted this ill-formed input silently.
        edb = Instance.from_facts([("P", ("a",))])
        edb.declare("E", 2)
        with pytest.raises(ValueError, match="arity"):
            evaluate(program, edb)
        with pytest.raises(ValueError, match="arity"):
            bounded_evaluate(program, edb, 3)

    def test_arity_clash_with_an_edb_relation_declared_empty(self):
        # The clashing EDB relation has no rows, only a declared arity,
        # which the seed copy must keep.
        program = parse_program("P(x,y) :- E(x,y).")
        edb = Instance.from_facts([("E", (1, 2))])
        edb.declare("P", 1)
        for engine in (evaluate, naive_evaluate, seminaive_evaluate):
            with pytest.raises(ValueError, match="arity"):
                engine(program, edb)
