"""Regular expressions over edge alphabets, with inverse letters.

This module supplies the surface syntax for RPQs and 2RPQs (Section 3.1
of the paper): a regular expression over Sigma (or Sigma±, when inverse
letters such as ``r-`` appear) together with a Thompson construction to
:class:`repro.automata.nfa.NFA`.

Grammar (whitespace is insignificant; ``.`` is an optional explicit
concatenation operator)::

    expr    := term ("|" term)*
    term    := factor+                      # concatenation
    factor  := atom ("*" | "+" | "?")*
    atom    := SYMBOL | "(" expr ")" | "()"  # "()" denotes epsilon

    SYMBOL  := [A-Za-z_][A-Za-z0-9_]* "-"?   # trailing "-" = inverse letter

Examples: ``"p p- p"`` (the paper's Q2 = p·p⁻·p), ``"(a|b)* c"``,
``"knows+ worksAt"``.
"""

from __future__ import annotations

import itertools
import re as _re
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Iterator

from .alphabet import inverse, is_inverse
from .nfa import EPSILON, NFA, Word, epsilon_free


class RegexSyntaxError(ValueError):
    """Raised when a regular-expression string cannot be parsed."""


# --- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class Regex:
    """Base class for regular-expression AST nodes.

    Each node class is a frozen dataclass (:func:`_node`) whose hash, the
    hash of its field tuple, is computed once per node, on first use, from
    its children's cached hashes: the engine hashes a query's tree several
    times per check (cache keys, the compile cache, the snapshot memo), and
    after the first time each is one attribute read.  A node that is never
    hashed, such as a query's tree while the server parses its frame,
    costs nothing extra.  A node pickles as a call of its class on its
    field values, so the cached value is not pickled and a process whose
    string hashes use another seed computes its own.
    """

    #: Not a field (no annotation): a node's own value shadows it once set.
    _hash = None

    def symbols(self) -> frozenset[str]:
        """All letters (from Sigma±) occurring in the expression."""
        raise NotImplementedError

    def to_nfa(self, meter=None) -> NFA:
        """Compile to a trimmed epsilon-free NFA via the Thompson construction.

        States are the Thompson automaton's ints; epsilon moves are
        removed in one pass (:func:`repro.automata.nfa.epsilon_free`).
        An optional :class:`repro.budget.BudgetMeter` is polled for its
        deadline once per regex node and while epsilon moves are removed.
        """
        builder = _ThompsonBuilder(meter)
        start, end = builder.compile(self)
        alphabet = tuple(sorted(self.symbols()))
        return epsilon_free(
            alphabet, builder.counter, [start], [end], builder.transitions, meter=meter
        )

    def uses_inverse(self) -> bool:
        """True iff some inverse letter occurs (i.e. this is 2-way syntax)."""
        return any(is_inverse(symbol) for symbol in self.symbols())

    def inverse(self) -> "Regex":
        """The expression for the inverse language: reverse + invert letters."""
        raise NotImplementedError

    # Operator sugar so expressions compose naturally in user code.
    def __or__(self, other: "Regex") -> "Regex":
        return Union(self, other)

    def __add__(self, other: "Regex") -> "Regex":
        return Concat(self, other)

    def star(self) -> "Regex":
        return Star(self)

    def plus(self) -> "Regex":
        return Plus(self)

    def optional(self) -> "Regex":
        return Optional_(self)


def _node(cls: type) -> type:
    """``@dataclass(frozen=True)``, with the generated ``__hash__`` run once
    per node and its value kept on the node, pickled as ``cls(*fields)``."""
    cls = dataclass(frozen=True)(cls)
    fields_hash = cls.__hash__
    names = [field.name for field in fields(cls)]
    values = attrgetter(*names) if names else (lambda node: ())
    if len(names) == 1:
        value_of = values
        values = lambda node: (value_of(node),)  # noqa: E731

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = fields_hash(self)
            object.__setattr__(self, "_hash", value)
        return value

    def __reduce__(self) -> tuple:
        return cls, values(self)

    cls.__hash__ = __hash__
    cls.__reduce__ = __reduce__
    return cls


@_node
class EmptySet(Regex):
    """The empty language."""

    def symbols(self) -> frozenset[str]:
        return frozenset()

    def inverse(self) -> Regex:
        return self

    def __str__(self) -> str:
        return "{}"


@_node
class Epsilon(Regex):
    """The language containing only the empty word."""

    def symbols(self) -> frozenset[str]:
        return frozenset()

    def inverse(self) -> Regex:
        return self

    def __str__(self) -> str:
        return "()"


@_node
class Sym(Regex):
    """A single letter of Sigma±."""

    symbol: str

    def symbols(self) -> frozenset[str]:
        return frozenset({self.symbol})

    def inverse(self) -> Regex:
        return Sym(inverse(self.symbol))

    def __str__(self) -> str:
        return self.symbol


@_node
class Concat(Regex):
    left: Regex
    right: Regex

    def symbols(self) -> frozenset[str]:
        return self.left.symbols() | self.right.symbols()

    def inverse(self) -> Regex:
        return Concat(self.right.inverse(), self.left.inverse())

    def __str__(self) -> str:
        return f"{_wrap(self.left)} {_wrap(self.right)}"


@_node
class Union(Regex):
    left: Regex
    right: Regex

    def symbols(self) -> frozenset[str]:
        return self.left.symbols() | self.right.symbols()

    def inverse(self) -> Regex:
        return Union(self.left.inverse(), self.right.inverse())

    def __str__(self) -> str:
        return f"{self.left}|{self.right}"


@_node
class Star(Regex):
    body: Regex

    def symbols(self) -> frozenset[str]:
        return self.body.symbols()

    def inverse(self) -> Regex:
        return Star(self.body.inverse())

    def __str__(self) -> str:
        return f"{_wrap(self.body)}*"


@_node
class Plus(Regex):
    body: Regex

    def symbols(self) -> frozenset[str]:
        return self.body.symbols()

    def inverse(self) -> Regex:
        return Plus(self.body.inverse())

    def __str__(self) -> str:
        return f"{_wrap(self.body)}+"


@_node
class Optional_(Regex):
    body: Regex

    def symbols(self) -> frozenset[str]:
        return self.body.symbols()

    def inverse(self) -> Regex:
        return Optional_(self.body.inverse())

    def __str__(self) -> str:
        return f"{_wrap(self.body)}?"


def _wrap(node: Regex) -> str:
    if isinstance(node, (Union, Concat)):
        return f"({node})"
    return str(node)


def word_regex(word: Word) -> Regex:
    """The regex denoting exactly one word (epsilon for the empty word)."""
    node: Regex = Epsilon()
    for index, symbol in enumerate(word):
        node = Sym(symbol) if index == 0 else Concat(node, Sym(symbol))
    return node


# --- Thompson construction ----------------------------------------------------


class _ThompsonBuilder:
    """Accumulates epsilon-NFA fragments for a regex AST."""

    def __init__(self, meter=None) -> None:
        self.counter = 0
        self.transitions: list[tuple[int, str | None, int]] = []
        self.meter = meter

    def _fresh(self) -> int:
        self.counter += 1
        return self.counter - 1

    def compile(self, node: Regex) -> tuple[int, int]:
        if self.meter is not None:
            self.meter.poll()
        start, end = self._fresh(), self._fresh()
        if isinstance(node, EmptySet):
            pass  # no path from start to end
        elif isinstance(node, Epsilon):
            self.transitions.append((start, EPSILON, end))
        elif isinstance(node, Sym):
            self.transitions.append((start, node.symbol, end))
        elif isinstance(node, Concat):
            s1, e1 = self.compile(node.left)
            s2, e2 = self.compile(node.right)
            self.transitions += [(start, EPSILON, s1), (e1, EPSILON, s2), (e2, EPSILON, end)]
        elif isinstance(node, Union):
            s1, e1 = self.compile(node.left)
            s2, e2 = self.compile(node.right)
            self.transitions += [
                (start, EPSILON, s1),
                (start, EPSILON, s2),
                (e1, EPSILON, end),
                (e2, EPSILON, end),
            ]
        elif isinstance(node, Star):
            s1, e1 = self.compile(node.body)
            self.transitions += [
                (start, EPSILON, s1),
                (e1, EPSILON, s1),
                (e1, EPSILON, end),
                (start, EPSILON, end),
            ]
        elif isinstance(node, Plus):
            s1, e1 = self.compile(node.body)
            self.transitions += [
                (start, EPSILON, s1),
                (e1, EPSILON, s1),
                (e1, EPSILON, end),
            ]
        elif isinstance(node, Optional_):
            s1, e1 = self.compile(node.body)
            self.transitions += [
                (start, EPSILON, s1),
                (e1, EPSILON, end),
                (start, EPSILON, end),
            ]
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown regex node {node!r}")
        return start, end


# --- parser -------------------------------------------------------------------

_TOKEN = _re.compile(
    r"\s*(?:(?P<symbol>[A-Za-z_][A-Za-z0-9_]*-?)"
    r"|(?P<lparen>\()"
    r"|(?P<rparen>\))"
    r"|(?P<bar>\|)"
    r"|(?P<star>\*)"
    r"|(?P<plus>\+)"
    r"|(?P<opt>\?)"
    r"|(?P<dot>\.))"
)


def _tokenize(text: str) -> Iterator[tuple[str, str]]:
    position = 0
    while position < len(text):
        match = _TOKEN.match(text, position)
        if match is None:
            remainder = text[position:].strip()
            if not remainder:
                break
            raise RegexSyntaxError(
                f"cannot tokenize {_excerpt(remainder)} in {_excerpt(text)}"
            )
        position = match.end()
        kind = match.lastgroup
        assert kind is not None
        yield kind, match.group(kind)
    yield "end", ""


#: Tallest AST the parser returns.  Every walk over a regex (hashing,
#: equality, printing, compilation, inversion) recurses once per level,
#: so a bounded height keeps them all far below Python's recursion
#: limit.  Concatenations and unions, parenthesized or not, are built as
#: balanced trees, so a word or alternation of any length stays short;
#: only deep nesting of different operators reaches the limit, e.g.
#: ``((a b)* c)*`` nested about 100 times.
MAX_REGEX_HEIGHT = 200

_POSTFIX = {"star": Star, "plus": Plus, "opt": Optional_}
_UNARY = (Star, Plus, Optional_)


def _excerpt(text: str, limit: int = 40) -> str:
    return repr(text if len(text) <= limit else text[:limit] + "...")


def _height(node: Regex) -> int:
    """Edges on the longest root-to-leaf path (iterative: no recursion)."""
    tallest, stack = 0, [(node, 0)]
    while stack:
        node, depth = stack.pop()
        tallest = max(tallest, depth)
        if isinstance(node, (Concat, Union)):
            stack += ((node.left, depth + 1), (node.right, depth + 1))
        elif isinstance(node, _UNARY):
            stack.append((node.body, depth + 1))
    return tallest


class _Parser:
    """Iterative parser: an explicit stack of open groups, so parenthesis
    depth costs no Python recursion.

    Factors and alternatives live in two flat lists shared by all open
    groups.  A group without ``|`` leaves its factors inline in the
    enclosing concatenation, and a union group stays a pending marker
    (the index of its first alternative) that splices into an enclosing
    union — so ``(a (b (c d)))`` and ``a|(b|(c|d))`` flatten before
    being balanced.  A postfix operator or a neighbouring factor makes
    the group a node of its own.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.factors: list[Regex | int] = []
        self.alternatives: list[Regex] = []

    def fail(self, problem: str) -> RegexSyntaxError:
        return RegexSyntaxError(f"{problem} in {_excerpt(self.text)}")

    @staticmethod
    def balanced(kind: type, parts: list[Regex]) -> Regex:
        """``kind`` over *parts* as a balanced tree (left-nested up to 3)."""
        while len(parts) > 3:
            paired = [kind(left, right) for left, right in zip(parts[::2], parts[1::2])]
            parts = paired + parts[len(paired) * 2:]
        if len(parts) == 3:
            return kind(kind(parts[0], parts[1]), parts[2])
        return kind(parts[0], parts[1]) if len(parts) == 2 else parts[0]

    def take(self, start: int) -> Regex:
        """Pop the factors from *start* on as one operand (their Concat)."""
        factors = self.factors
        if factors[-1].__class__ is int:  # a union group becomes a node
            first = factors.pop()
            factors.append(self.balanced(Union, self.alternatives[first:]))
            del self.alternatives[first:]
        if len(factors) == start + 1:
            return factors.pop()
        operand = self.balanced(Concat, factors[start:])
        del factors[start:]
        return operand

    def close_alternative(self, start: int) -> None:
        """Move the factors from *start* on into the alternatives."""
        factors = self.factors
        if len(factors) == start + 1:
            last = factors.pop()
            if last.__class__ is not int:  # else a lone union group: its
                self.alternatives.append(last)  # alternatives are already ours
        else:
            self.alternatives.append(self.take(start))

    def parse(self) -> Regex:
        factors, alternatives = self.factors, self.alternatives
        groups: list[tuple[int, int]] = []  # the enclosing groups' starts
        first_factor = first_alternative = 0  # where the open group starts
        deepest = 0
        closed = None  # first factor of the group the last token closed
        after_dot = False
        for kind, value in _tokenize(self.text):
            if kind == "symbol":
                if closed is not None and factors[-1].__class__ is int:
                    factors.append(self.take(len(factors) - 1))
                factors.append(Sym(value))
                closed = None
                after_dot = False
                continue
            in_alternative = len(factors) > first_factor
            closing, closed = closed, None
            if kind == "lparen":
                if closing is not None and factors[-1].__class__ is int:
                    factors.append(self.take(len(factors) - 1))
                groups.append((first_factor, first_alternative))
                first_factor, first_alternative = len(factors), len(alternatives)
                if len(groups) > deepest:
                    deepest = len(groups)
            elif kind in _POSTFIX and in_alternative and not after_dot:
                # A stack of postfix operators is one operator: a** = a*,
                # and any mix of them is *.
                node = factors.pop() if closing is None else self.take(closing)
                op = _POSTFIX[kind]
                if not isinstance(node, op):
                    node = Star(node.body) if isinstance(node, _UNARY) else op(node)
                factors.append(node)
            elif kind == "dot" and in_alternative:
                after_dot, closed = True, closing  # a pending union stays pending
                continue
            elif kind == "bar" and in_alternative:
                self.close_alternative(first_factor)
            elif kind == "rparen" and groups and (
                in_alternative or len(alternatives) == first_alternative
            ):
                if not in_alternative:
                    factors.append(Epsilon())  # "()" denotes epsilon
                elif len(alternatives) == first_alternative:
                    closed = first_factor  # no "|": the factors stay inline
                else:
                    self.close_alternative(first_factor)
                    factors.append(first_alternative)
                    closed = len(factors) - 1
                first_factor, first_alternative = groups.pop()
            elif kind == "end" and not groups and in_alternative:
                self.close_alternative(0)
                return self.checked(self.balanced(Union, alternatives), deepest)
            elif kind == "end" and groups:
                raise self.fail("expected ')' but got end of input")
            else:
                raise self.fail(f"unexpected {value or kind!r}")
            after_dot = False
        raise AssertionError("unreachable: the token stream ends with 'end'")

    def checked(self, node: Regex, deepest: int) -> Regex:
        # Each group level adds at most a balanced union, a balanced
        # concatenation and a postfix operator over at most len(text)
        # parts; only trees that may exceed the limit are measured.
        bound = (deepest + 1) * (2 * len(self.text).bit_length() + 2)
        if bound > MAX_REGEX_HEIGHT and _height(node) > MAX_REGEX_HEIGHT:
            raise self.fail(f"regex nests deeper than {MAX_REGEX_HEIGHT} levels")
        return node


def parse_regex(text: str) -> Regex:
    """Parse the textual regex syntax documented in the module docstring.

    Raises :class:`RegexSyntaxError` (a ``ValueError``, with a bounded
    message) on malformed text or a tree taller than
    :data:`MAX_REGEX_HEIGHT`.
    """
    return _Parser(text).parse()


def random_regex(rng, alphabet: tuple[str, ...], depth: int, allow_inverse: bool = False) -> Regex:
    """Sample a random regex of the given structural depth (for fuzzing).

    Args:
        rng: a :class:`random.Random` instance (determinism is the
            caller's responsibility).
        alphabet: base symbols to draw letters from.
        depth: maximum AST depth.
        allow_inverse: also draw inverse letters (2RPQ syntax).
    """
    letters = list(alphabet)
    if allow_inverse:
        letters += [inverse(symbol) for symbol in alphabet]
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.05:
            return Epsilon()
        return Sym(rng.choice(letters))
    kind = rng.choice(["concat", "union", "star", "plus", "opt"])
    if kind == "concat":
        return Concat(
            random_regex(rng, alphabet, depth - 1, allow_inverse),
            random_regex(rng, alphabet, depth - 1, allow_inverse),
        )
    if kind == "union":
        return Union(
            random_regex(rng, alphabet, depth - 1, allow_inverse),
            random_regex(rng, alphabet, depth - 1, allow_inverse),
        )
    body = random_regex(rng, alphabet, depth - 1, allow_inverse)
    if kind == "star":
        return Star(body)
    if kind == "plus":
        return Plus(body)
    return Optional_(body)


def enumerate_language(regex: Regex, alphabet: tuple[str, ...], max_length: int) -> Iterator[Word]:
    """Every word of L(regex) over *alphabet* up to *max_length* (oracle)."""
    nfa = regex.to_nfa()
    for length in range(max_length + 1):
        for word in itertools.product(alphabet, repeat=length):
            if nfa.accepts(word):
                yield word
