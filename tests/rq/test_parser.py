"""Tests for the RQ rule syntax parser."""

import pytest

from repro.graphdb.database import GraphDatabase
from repro.graphdb.generators import random_graph
from repro.rq.evaluation import evaluate_rq
from repro.rq.parser import RQSyntaxError, parse_rq
from repro.rq.syntax import triangle_plus, triangle_query


class TestBasicRules:
    def test_single_regex_atom(self):
        query = parse_rq("ans(x, y) :- [knows+](x, y).")
        db = GraphDatabase.from_edges([("a", "knows", "b"), ("b", "knows", "c")])
        assert evaluate_rq(query, db) == {("a", "b"), ("a", "c"), ("b", "c")}

    def test_conjunction_joins_shared_variables(self):
        query = parse_rq("ans(x, z) :- [a](x, y), [b](y, z).")
        db = GraphDatabase.from_edges([(1, "a", 2), (2, "b", 3), (9, "b", 3)])
        assert evaluate_rq(query, db) == {(1, 3)}

    def test_body_variables_projected(self):
        query = parse_rq("ans(x) :- [a](x, y), [a](y, z).")
        db = GraphDatabase.from_edges([(1, "a", 2), (2, "a", 3)])
        assert evaluate_rq(query, db) == {(1,)}

    def test_multiple_rules_disjoin(self):
        query = parse_rq(
            """
            ans(x, y) :- [a](x, y).
            ans(x, y) :- [b](x, y).
            """
        )
        db = GraphDatabase.from_edges([(1, "a", 2), (3, "b", 4)])
        assert evaluate_rq(query, db) == {(1, 2), (3, 4)}

    def test_self_variable_atom(self):
        query = parse_rq("loops(x) :- [e+](x, x).")
        db = GraphDatabase.from_edges([(1, "e", 2), (2, "e", 1), (3, "e", 3), (4, "e", 1)])
        assert evaluate_rq(query, db) == {(1,), (2,), (3,)}

    def test_comments(self):
        query = parse_rq("% comment\nans(x, y) :- [a](x, y).  % trailing")
        assert query.arity == 2


class TestNamedDefinitions:
    def test_reference_and_closure(self):
        query = parse_rq(
            """
            tri(x, y) :- [r](x, y), [r](y, z), [r](z, x).
            ans(x, y) :- tri+(x, y).
            """
        )
        db = random_graph(5, 12, ("r",), seed=3)
        assert evaluate_rq(query, db) == evaluate_rq(triangle_plus("r"), db)

    def test_plain_reference(self):
        query = parse_rq(
            """
            hop(u, v) :- [e](u, v).
            ans(x, z) :- hop(x, y), hop(y, z).
            """
        )
        db = GraphDatabase.from_edges([(1, "e", 2), (2, "e", 3)])
        assert evaluate_rq(query, db) == {(1, 3)}

    def test_goal_selection(self):
        query = parse_rq(
            """
            tri(x, y) :- [r](x, y), [r](y, z), [r](z, x).
            other(x, y) :- [r](x, y).
            """,
            goal="tri",
        )
        db = random_graph(5, 10, ("r",), seed=1)
        assert evaluate_rq(query, db) == evaluate_rq(triangle_query("r"), db)

    def test_call_site_variables_do_not_capture(self):
        query = parse_rq(
            """
            hop(x, y) :- [e](x, y).
            ans(y, x) :- hop(y, x).
            """
        )
        db = GraphDatabase.from_edges([(1, "e", 2)])
        assert evaluate_rq(query, db) == {(1, 2)}


class TestErrors:
    def test_undefined_reference(self):
        with pytest.raises(RQSyntaxError):
            parse_rq("ans(x, y) :- ghost(x, y). ghost(x, y) :- [a](x, y).", goal="ans")

    def test_head_variable_not_in_body(self):
        with pytest.raises(RQSyntaxError):
            parse_rq("ans(x, w) :- [a](x, y).")

    def test_arity_mismatch_across_rules(self):
        with pytest.raises(RQSyntaxError):
            parse_rq("ans(x, y) :- [a](x, y). ans(x) :- [a](x, y).")

    def test_call_arity_mismatch(self):
        with pytest.raises(RQSyntaxError):
            parse_rq(
                """
                hop(x, y) :- [e](x, y).
                ans(x) :- hop(x).
                """
            )

    def test_empty_text(self):
        with pytest.raises(RQSyntaxError):
            parse_rq("   % nothing")

    def test_malformed_rule(self):
        with pytest.raises(RQSyntaxError):
            parse_rq("this is not a rule.")

    def test_closure_of_non_binary(self):
        from repro.rq.syntax import RQError

        with pytest.raises((RQSyntaxError, RQError)):
            parse_rq(
                """
                u(x) :- [a](x, y).
                ans(x) :- u+(x).
                """
            )


def chain(rules: int) -> str:
    """*rules* rules, each calling the one before: the term grows two
    levels per rule."""
    lines = ["r0(x, y) :- [a](x, y)."]
    lines += [f"r{i}(x, y) :- r{i - 1}(x, z), [a](z, y)." for i in range(1, rules)]
    return "\n".join(lines)


class TestHeightLimit:
    """RQ terms are bounded as regexes are: a term taller than
    MAX_RQ_HEIGHT is a syntax error, never a RecursionError later."""

    def test_chain_at_the_limit_parses_and_hashes(self):
        term = parse_rq(chain(51))  # exactly MAX_RQ_HEIGHT (100) levels
        hash(term)
        assert term.arity == 2

    def test_chained_rules_past_the_limit_are_refused(self):
        with pytest.raises(RQSyntaxError, match="definition of r51 nests deeper than"):
            parse_rq(chain(400))

    def test_wide_body_is_refused_before_it_is_built(self):
        with pytest.raises(RQSyntaxError, match="body of ans nests deeper than"):
            parse_rq("ans(x, y) :- " + ", ".join(["[a](x, y)"] * 5_000) + ".")

    def test_long_union_is_refused_before_it_is_built(self):
        with pytest.raises(RQSyntaxError, match="rules for ans nests deeper than"):
            parse_rq("\n".join(["ans(x, y) :- [a](x, y)."] * 5_000))


class TestAlphabetHandling:
    def test_explicit_alphabet_for_star(self):
        query = parse_rq("ans(x, y) :- [a*](x, y).", alphabet=("a", "b"))
        db = GraphDatabase.from_edges([(1, "a", 2), (3, "b", 4)])
        answers = evaluate_rq(query, db)
        assert (3, 3) in answers  # identity over incident nodes incl. b-nodes

    def test_inferred_alphabet(self):
        query = parse_rq("ans(x, y) :- [a b-](x, y).")
        assert query.base_symbols() == {"a", "b"}
