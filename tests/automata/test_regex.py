"""Unit tests for the regex AST, parser, and Thompson construction."""

import random

import pytest

from repro.automata.regex import (
    MAX_REGEX_HEIGHT,
    Concat,
    EmptySet,
    Epsilon,
    Optional_,
    Plus,
    RegexSyntaxError,
    Star,
    Sym,
    Union,
    enumerate_language,
    parse_regex,
    random_regex,
    word_regex,
)


class TestParser:
    def test_single_symbol(self):
        assert parse_regex("a") == Sym("a")

    def test_inverse_symbol(self):
        assert parse_regex("a-") == Sym("a-")

    def test_multi_char_symbol(self):
        assert parse_regex("worksAt") == Sym("worksAt")

    def test_concat_by_juxtaposition(self):
        assert parse_regex("a b") == Concat(Sym("a"), Sym("b"))

    def test_concat_by_dot(self):
        assert parse_regex("a.b") == Concat(Sym("a"), Sym("b"))

    def test_union_binds_looser_than_concat(self):
        assert parse_regex("a b|c") == Union(Concat(Sym("a"), Sym("b")), Sym("c"))

    def test_postfix_operators(self):
        assert parse_regex("a*") == Star(Sym("a"))
        assert parse_regex("a+") == Plus(Sym("a"))
        assert parse_regex("a?") == Optional_(Sym("a"))

    def test_postfix_binds_tightest(self):
        assert parse_regex("a b*") == Concat(Sym("a"), Star(Sym("b")))

    def test_parentheses(self):
        assert parse_regex("(a|b) c") == Concat(Union(Sym("a"), Sym("b")), Sym("c"))

    def test_epsilon_literal(self):
        assert parse_regex("()") == Epsilon()

    def test_paper_example_q2(self):
        """The paper's Q2 = p p- p parses as a two-way expression."""
        regex = parse_regex("p p- p")
        assert regex.uses_inverse()
        assert regex.symbols() == {"p", "p-"}

    @pytest.mark.parametrize("bad", ["", "a |", "(a", "a)", "*", "|a", "a @ b"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(RegexSyntaxError):
            parse_regex(bad)

    def test_reparse_of_printed_random_regexes_keeps_the_language(self):
        rng = random.Random(31)
        alphabet = ("a", "a-", "b", "b-")
        for _ in range(300):
            regex = random_regex(rng, ("a", "b"), 4, allow_inverse=True)
            reparsed = parse_regex(str(regex))
            assert set(enumerate_language(reparsed, alphabet, 3)) == set(
                enumerate_language(regex, alphabet, 3)
            ), str(regex)

    def test_roundtrip_via_str(self):
        for text in ["a b|c", "(a|b)* c", "p p- p", "a+ b? c*"]:
            regex = parse_regex(text)
            assert parse_regex(str(regex)) == regex


class TestLongAndDeepInput:
    """Long or deeply nested text parses into a short tree, or is rejected
    with RegexSyntaxError; never RecursionError."""

    def test_long_word_is_a_balanced_word(self):
        regex = parse_regex(" ".join(["a"] * 1000))
        assert regex.to_nfa().accepts(("a",) * 1000)
        assert not regex.to_nfa().accepts(("a",) * 999)
        assert parse_regex(str(regex)) == regex

    def test_many_alternatives(self):
        regex = parse_regex("|".join(f"s{i}" for i in range(1000)))
        assert len(regex.symbols()) == 1000
        assert hash(regex) == hash(parse_regex(str(regex)))

    def test_deep_parentheses_around_an_atom(self):
        assert parse_regex("(" * 10_000 + "a" + ")" * 10_000) == Sym("a")

    def test_right_nested_groups_flatten(self):
        nested = parse_regex("(a " * 2000 + "a" + ")" * 2000)
        assert nested == parse_regex(" ".join(["a"] * 2001))
        unions = parse_regex("(a|" * 2000 + "b" + ")" * 2000)
        assert unions == parse_regex("|".join(["a"] * 2000 + ["b"]))

    def test_stacked_postfix_is_one_operator(self):
        assert parse_regex("a" + "*" * 1000) == Star(Sym("a"))
        assert parse_regex("a++") == Plus(Sym("a"))
        assert parse_regex("a??") == Optional_(Sym("a"))
        assert parse_regex("a+?") == parse_regex("a?+") == Star(Sym("a"))

    def test_nesting_at_the_height_limit_walks(self):
        levels = MAX_REGEX_HEIGHT // 2  # each ((x b)*) level adds a Concat and a Star
        text = "(" * levels + "a" + " b)*" * levels
        regex, again = parse_regex(text), parse_regex(text)
        assert regex == again and hash(regex) == hash(again)
        assert regex.inverse().inverse() == regex
        assert parse_regex(str(regex)) == regex
        nfa = regex.to_nfa()
        assert nfa.accepts(()) and not nfa.accepts(("a",))

    def test_nesting_past_the_limit_is_a_syntax_error(self):
        levels = MAX_REGEX_HEIGHT
        with pytest.raises(RegexSyntaxError, match="nests deeper") as caught:
            parse_regex("(" * levels + "a" + " b)*" * levels)
        assert len(str(caught.value)) < 200

    @pytest.mark.parametrize(
        "bad",
        ["(" * 20_000 + "a", "a" + ")" * 20_000, "a @" * 9000],
        ids=["unclosed", "unopened", "untokenizable"],
    )
    def test_error_messages_stay_short(self, bad):
        with pytest.raises(RegexSyntaxError) as caught:
            parse_regex(bad)
        assert len(str(caught.value)) < 200


class TestThompson:
    @pytest.mark.parametrize(
        "text,accepted,rejected",
        [
            ("a", [("a",)], [(), ("b",), ("a", "a")]),
            ("a b", [("a", "b")], [("a",), ("b", "a")]),
            ("a|b", [("a",), ("b",)], [(), ("a", "b")]),
            ("a*", [(), ("a",), ("a", "a", "a")], [("b",)]),
            ("a+", [("a",), ("a", "a")], [()]),
            ("a?", [(), ("a",)], [("a", "a")]),
            ("(a b)+", [("a", "b"), ("a", "b", "a", "b")], [("a",), ("a", "b", "a")]),
            ("()", [()], [("a",)]),
        ],
    )
    def test_acceptance(self, text, accepted, rejected):
        nfa = parse_regex(text).to_nfa()
        for word in accepted:
            assert nfa.accepts(word), word
        for word in rejected:
            assert not nfa.accepts(word), word

    def test_empty_set(self):
        nfa = EmptySet().to_nfa()
        assert nfa.is_empty()

    def test_word_regex(self):
        nfa = word_regex(("a", "b", "a")).to_nfa()
        assert nfa.accepts(("a", "b", "a"))
        assert not nfa.accepts(("a", "b"))
        assert word_regex(()).to_nfa().accepts(())


class TestInversion:
    def test_symbol_inverse(self):
        assert Sym("a").inverse() == Sym("a-")

    def test_concat_inverse_reverses(self):
        regex = parse_regex("a b")
        assert regex.inverse() == Concat(Sym("b-"), Sym("a-"))

    def test_inverse_language_matches(self):
        """L(e.inverse()) = { inverse_word(w) : w in L(e) }."""
        from repro.automata.alphabet import inverse_word

        regex = parse_regex("a (b|c-)* a-")
        alphabet = ("a", "a-", "b", "b-", "c", "c-")
        forward = set(enumerate_language(regex, alphabet, 3))
        backward = set(enumerate_language(regex.inverse(), alphabet, 3))
        assert backward == {inverse_word(word) for word in forward}


class TestRandomRegex:
    def test_is_deterministic_given_seed(self):
        a = random_regex(random.Random(5), ("a", "b"), 3)
        b = random_regex(random.Random(5), ("a", "b"), 3)
        assert a == b

    def test_respects_inverse_flag(self):
        rng = random.Random(11)
        for _ in range(50):
            regex = random_regex(rng, ("a",), 3, allow_inverse=False)
            assert not regex.uses_inverse()

    def test_compiles(self):
        rng = random.Random(2)
        for _ in range(25):
            regex = random_regex(rng, ("a", "b"), 4, allow_inverse=True)
            regex.to_nfa()  # must not raise
