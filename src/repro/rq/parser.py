"""A textual rule syntax for regular queries.

RQ terms are verbose to build by hand, so this module provides a
rule-based surface syntax in the spirit of the paper's Datalog examples,
with regular expressions as atoms and ``+`` on defined predicates for
transitive closure::

    ans(x, y) :- [knows+](x, y), [worksAt worksAt-](x, y).

    % named definitions, usable in later rules; <name>+ is closure
    tri(x, y)  :- [r](x, y), [r](y, z), [r](z, x).
    ans(x, y)  :- tri+(x, y).

Semantics: each rule body is a conjunction (shared variables join),
body-only variables are projected away, multiple rules for the same
head disjoin, and ``name+`` applies transitive closure to a *binary*
defined query.  The result of :func:`parse_rq` is a plain
:class:`repro.rq.syntax.RQ` term for the requested goal (default: the
head of the last rule), so everything downstream — evaluation,
containment, the Datalog embedding — applies unchanged.
"""

from __future__ import annotations

import itertools
import re

from ..automata.alphabet import base_symbol
from ..automata.regex import parse_regex
from ..cq.syntax import Var
from .syntax import (
    And,
    EdgeAtom,
    Or,
    Project,
    RQ,
    Select,
    TransitiveClosure,
    rename,
)
from .embeddings import regex_to_rq, _Fresh


class RQSyntaxError(ValueError):
    """Raised when an RQ rule text cannot be parsed."""


#: Tallest term the parser returns (in edges).  Every walk over an RQ
#: term (hashing, equality, evaluation, containment, the Datalog
#: embedding) recurses once per level, and a named atom inlines its
#: definition, so rules that each call the one before grow two levels per
#: rule, at a cost quadratic in the chain.  Each definition is measured as
#: it is folded; a body of more atoms, or a head of more rules, than the
#: limit (a left-deep chain that tall) is refused before it is built.
MAX_RQ_HEIGHT = 100


def _height(term: RQ) -> int:
    """Edges on the longest root-to-leaf path (iterative: no recursion)."""
    tallest, stack = 0, [(term, 0)]
    while stack:
        node, depth = stack.pop()
        tallest = max(tallest, depth)
        stack += ((child, depth + 1) for child in node.children())
    return tallest


def _too_deep(what: str) -> RQSyntaxError:
    return RQSyntaxError(f"{what} nests deeper than {MAX_RQ_HEIGHT} levels")


_RULE = re.compile(r"^\s*(?P<head>[^:]+?)\s*:-\s*(?P<body>.+?)\s*$", re.S)
_HEAD = re.compile(r"^(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*\(\s*(?P<vars>[^)]*)\)$")
_REGEX_ATOM = re.compile(
    r"^\[(?P<regex>[^\]]+)\]\s*\(\s*(?P<x>[A-Za-z_][A-Za-z0-9_]*)\s*,"
    r"\s*(?P<y>[A-Za-z_][A-Za-z0-9_]*)\s*\)$"
)
_NAMED_ATOM = re.compile(
    r"^(?P<name>[A-Za-z_][A-Za-z0-9_]*)(?P<plus>\+?)\s*\(\s*(?P<vars>[^)]*)\)$"
)


def _strip_comments(text: str) -> str:
    lines = []
    for line in text.splitlines():
        index = line.find("%")
        if index >= 0:
            line = line[:index]
        lines.append(line)
    return "\n".join(lines)


def _split_atoms(body: str) -> list[str]:
    """Split a rule body on commas not inside brackets or parens."""
    atoms, depth, current = [], 0, []
    for char in body:
        if char in "([":
            depth += 1
        elif char in ")]":
            depth -= 1
        if char == "," and depth == 0:
            atoms.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    tail = "".join(current).strip()
    if tail:
        atoms.append(tail)
    return atoms


class _RQParser:
    def __init__(self, alphabet: tuple[str, ...] | None) -> None:
        self.definitions: dict[str, RQ] = {}
        self.alphabet = alphabet
        self.fresh = _Fresh("__rqp")
        self._stamp = itertools.count()

    def parse(self, text: str, goal: str | None) -> RQ:
        cleaned = _strip_comments(text)
        chunks = [chunk.strip() for chunk in cleaned.split(".") if chunk.strip()]
        if not chunks:
            raise RQSyntaxError("empty query text")
        if self.alphabet is None:
            self.alphabet = self._infer_alphabet(chunks)
        # Parse rules in order, folding each head's rules into the
        # definitions table as they arrive, so later rules may reference
        # earlier heads (recursion beyond '+' is outside RQ anyway).
        order: list[str] = []
        grouped: dict[str, list[tuple[tuple[Var, ...], RQ]]] = {}
        for chunk in chunks:
            name, head_vars, term = self._parse_rule(chunk)
            variants = grouped.setdefault(name, [])
            variants.append((head_vars, term))
            if len(variants) > MAX_RQ_HEIGHT:
                raise _too_deep(f"the union of the rules for {name}")
            if name not in order:
                order.append(name)
            definition = self._fold_variants(name, variants)
            if _height(definition) > MAX_RQ_HEIGHT:
                raise _too_deep(f"the definition of {name}")
            self.definitions[name] = definition
        target = goal if goal is not None else order[-1]
        if target not in self.definitions:
            raise RQSyntaxError(f"goal {target!r} is not defined")
        return self.definitions[target]

    def _fold_variants(
        self, name: str, variants: list[tuple[tuple[Var, ...], RQ]]
    ) -> RQ:
        canonical = variants[0][0]
        pieces: list[RQ] = []
        for head_vars, term in variants:
            if len(head_vars) != len(canonical):
                raise RQSyntaxError(f"rules for {name} disagree on arity")
            mapping = {
                old.name: new.name
                for old, new in zip(head_vars, canonical)
                if old != new
            }
            pieces.append(rename(term, mapping) if mapping else term)
        node = pieces[0]
        for piece in pieces[1:]:
            node = Or(node, piece)
        return node

    def _infer_alphabet(self, chunks: list[str]) -> tuple[str, ...]:
        symbols: set[str] = set()
        for match in re.finditer(r"\[([^\]]+)\]", "\n".join(chunks)):
            regex = parse_regex(match.group(1))
            symbols |= {base_symbol(s) for s in regex.symbols()}
        if not symbols:
            raise RQSyntaxError("no regex atoms to infer the alphabet from")
        return tuple(sorted(symbols))

    def _parse_rule(self, chunk: str) -> tuple[str, tuple[Var, ...], RQ]:
        match = _RULE.match(chunk)
        if match is None:
            raise RQSyntaxError(f"expected 'head(...) :- body' in {chunk!r}")
        head_match = _HEAD.match(match.group("head").strip())
        if head_match is None:
            raise RQSyntaxError(f"malformed head in {chunk!r}")
        head_vars = tuple(
            Var(token.strip())
            for token in head_match.group("vars").split(",")
            if token.strip()
        )
        if not head_vars:
            raise RQSyntaxError("rules need at least one head variable")
        atoms = _split_atoms(match.group("body"))
        if len(atoms) > MAX_RQ_HEIGHT:
            raise _too_deep(f"the body of {head_match.group('name')}")
        conjuncts = [self._parse_atom(text) for text in atoms]
        node: RQ = conjuncts[0]
        for conjunct in conjuncts[1:]:
            node = And(node, conjunct)
        missing = [var for var in head_vars if var not in node.head_vars]
        if missing:
            raise RQSyntaxError(
                f"head variables {missing} do not occur in the body of {chunk!r}"
            )
        projected = Project(node, head_vars) if node.head_vars != head_vars else node
        return head_match.group("name"), head_vars, projected

    def _parse_atom(self, text: str) -> RQ:
        regex_match = _REGEX_ATOM.match(text)
        if regex_match is not None:
            assert self.alphabet is not None
            x, y = Var(regex_match.group("x")), Var(regex_match.group("y"))
            if x == y:
                # kappa(x, x): route through a fresh endpoint + selection,
                # then project to the single variable.
                other = self.fresh()
                term = regex_to_rq(
                    parse_regex(regex_match.group("regex")), x, other, self.alphabet, self.fresh
                )
                return Project(Select(term, x, other), (x,))
            return regex_to_rq(
                parse_regex(regex_match.group("regex")), x, y, self.alphabet, self.fresh
            )
        named_match = _NAMED_ATOM.match(text)
        if named_match is not None:
            name = named_match.group("name")
            if name not in self.definitions:
                raise RQSyntaxError(
                    f"atom {text!r} refers to undefined query {name!r} "
                    "(definitions must precede uses; recursion beyond '+' "
                    "is outside RQ)"
                )
            term = self.definitions[name]
            if named_match.group("plus"):
                term = TransitiveClosure(term)
            call_vars = tuple(
                Var(token.strip())
                for token in named_match.group("vars").split(",")
                if token.strip()
            )
            if len(call_vars) != term.arity:
                raise RQSyntaxError(
                    f"{name} has arity {term.arity}, called with {len(call_vars)}"
                )
            namespace = {
                old.name: new.name for old, new in zip(term.head_vars, call_vars)
            }
            # Rename non-head variables apart so call sites never capture.
            for node in term.walk():
                if isinstance(node, EdgeAtom):
                    for var in (node.source, node.target):
                        namespace.setdefault(var.name, f"{var.name}@{next(self._stamp)}")
            return rename(term, namespace)
        raise RQSyntaxError(f"cannot parse atom {text!r}")


def parse_rq(
    text: str,
    goal: str | None = None,
    alphabet: tuple[str, ...] | None = None,
) -> RQ:
    """Parse the RQ rule syntax documented in the module docstring.

    Args:
        text: one or more period-terminated rules.
        goal: which defined query to return (default: the last head).
        alphabet: base symbols for ``*``/``?``/epsilon identity atoms;
            inferred from the regex atoms when omitted.

    Raises :class:`RQSyntaxError` (a ``ValueError``) on malformed text
    or a term taller than :data:`MAX_RQ_HEIGHT`.
    """
    return _RQParser(alphabet).parse(text, goal)
