"""The algebra of Regular Queries (Section 3.4).

RQ is *defined by closure*: atomic queries ``r(x, y)`` closed under
selection, projection, disjunction, conjunction, and — the new
ingredient — transitive closure.  (The first four operations alone
define UCQ; adding TC gives RQ.)  We represent queries as an explicit
algebra AST in which every node knows its tuple of head variables:

- :class:`EdgeAtom` — ``r(x, y)`` (inverse labels allowed; ``r-(x, y)``
  abbreviates ``r(y, x)``, so 2RPQs embed).
- :class:`Select` — ``Q ∧ y = z`` (filter; head unchanged).
- :class:`Project` — ``exists y . Q`` generalized to keeping any
  subsequence/reordering of the head.
- :class:`And` / :class:`Or` — conjunction joins on shared variables;
  disjunction requires identical heads.
- :class:`TransitiveClosure` — ``Q+`` of a binary query.

The paper's "triangle-plus" example — the transitive closure of the
triangle C2RPQ, which no UC2RPQ expresses — is :func:`triangle_plus`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from ..automata.alphabet import base_symbol, is_inverse
from ..cq.syntax import Var


class RQError(ValueError):
    """Raised on ill-formed RQ algebra terms."""


@dataclass(frozen=True)
class RQ:
    """Base class of RQ algebra nodes."""

    @property
    def head_vars(self) -> tuple[Var, ...]:
        raise NotImplementedError

    @property
    def arity(self) -> int:
        return len(self.head_vars)

    def base_symbols(self) -> frozenset[str]:
        raise NotImplementedError

    def children(self) -> tuple["RQ", ...]:
        raise NotImplementedError

    def uses_transitive_closure(self) -> bool:
        return isinstance(self, TransitiveClosure) or any(
            child.uses_transitive_closure() for child in self.children()
        )

    def size(self) -> int:
        """Number of AST nodes (benchmark parameter)."""
        return 1 + sum(child.size() for child in self.children())

    def walk(self) -> Iterator["RQ"]:
        """Every node, in pre-order (iterative: no per-level generator)."""
        stack: list[RQ] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))

    # -- operator sugar ---------------------------------------------------------

    def __and__(self, other: "RQ") -> "RQ":
        return And(self, other)

    def __or__(self, other: "RQ") -> "RQ":
        return Or(self, other)

    def plus(self) -> "RQ":
        return TransitiveClosure(self)

    def project(self, *names: str) -> "RQ":
        return Project(self, tuple(Var(name) for name in names))

    def select_eq(self, a: str, b: str) -> "RQ":
        return Select(self, Var(a), Var(b))


@dataclass(frozen=True)
class EdgeAtom(RQ):
    """``r(x, y)`` — or ``r-(x, y)``, the same as ``r(y, x)``."""

    label: str
    source: Var
    target: Var

    def __post_init__(self) -> None:
        if self.source == self.target:
            # r(x, x) is legal (a self-loop test); nothing to validate.
            pass

    @property
    def head_vars(self) -> tuple[Var, ...]:
        if self.source == self.target:
            return (self.source,)
        return (self.source, self.target)

    def base_symbols(self) -> frozenset[str]:
        return frozenset({base_symbol(self.label)})

    def children(self) -> tuple[RQ, ...]:
        return ()

    def __repr__(self) -> str:
        return f"{self.label}({self.source!r}, {self.target!r})"


@dataclass(frozen=True)
class Select(RQ):
    """``child ∧ left = right``: keep rows where the two columns agree."""

    child: RQ
    left: Var
    right: Var

    def __post_init__(self) -> None:
        head = self.child.head_vars
        for var in (self.left, self.right):
            if var not in head:
                raise RQError(f"selection variable {var!r} not in head {head}")

    @property
    def head_vars(self) -> tuple[Var, ...]:
        return self.child.head_vars

    def base_symbols(self) -> frozenset[str]:
        return self.child.base_symbols()

    def children(self) -> tuple[RQ, ...]:
        return (self.child,)

    def __repr__(self) -> str:
        return f"sigma[{self.left!r}={self.right!r}]({self.child!r})"


@dataclass(frozen=True)
class Project(RQ):
    """Keep a subsequence/reordering of the child's head (exists the rest)."""

    child: RQ
    keep: tuple[Var, ...]

    def __post_init__(self) -> None:
        head = set(self.child.head_vars)
        missing = [var for var in self.keep if var not in head]
        if missing:
            raise RQError(f"projection variables {missing} not in child head")
        if len(set(self.keep)) != len(self.keep):
            raise RQError("projection variables must be distinct")

    @property
    def head_vars(self) -> tuple[Var, ...]:
        return self.keep

    def base_symbols(self) -> frozenset[str]:
        return self.child.base_symbols()

    def children(self) -> tuple[RQ, ...]:
        return (self.child,)

    def __repr__(self) -> str:
        inner = ", ".join(repr(v) for v in self.keep)
        return f"pi[{inner}]({self.child!r})"


@dataclass(frozen=True)
class And(RQ):
    """Conjunction: natural join on shared variables; head is the union."""

    left: RQ
    right: RQ

    @property
    def head_vars(self) -> tuple[Var, ...]:
        seen = list(self.left.head_vars)
        for var in self.right.head_vars:
            if var not in seen:
                seen.append(var)
        return tuple(seen)

    def base_symbols(self) -> frozenset[str]:
        return self.left.base_symbols() | self.right.base_symbols()

    def children(self) -> tuple[RQ, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} & {self.right!r})"


@dataclass(frozen=True)
class Or(RQ):
    """Disjunction: the two sides must have identical head tuples."""

    left: RQ
    right: RQ

    def __post_init__(self) -> None:
        if self.left.head_vars != self.right.head_vars:
            raise RQError(
                f"disjunction heads differ: {self.left.head_vars} vs "
                f"{self.right.head_vars} (project/rename first)"
            )

    @property
    def head_vars(self) -> tuple[Var, ...]:
        return self.left.head_vars

    def base_symbols(self) -> frozenset[str]:
        return self.left.base_symbols() | self.right.base_symbols()

    def children(self) -> tuple[RQ, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} | {self.right!r})"


@dataclass(frozen=True)
class TransitiveClosure(RQ):
    """``Q+`` — one or more compositions of a binary query."""

    child: RQ

    def __post_init__(self) -> None:
        if self.child.arity != 2:
            raise RQError(
                f"transitive closure needs a binary query, got arity {self.child.arity}"
            )

    @property
    def head_vars(self) -> tuple[Var, ...]:
        return self.child.head_vars

    def base_symbols(self) -> frozenset[str]:
        return self.child.base_symbols()

    def children(self) -> tuple[RQ, ...]:
        return (self.child,)

    def __repr__(self) -> str:
        return f"({self.child!r})+"


def edge(label: str, source: str, target: str) -> EdgeAtom:
    """Convenience constructor: ``edge("knows", "x", "y")``."""
    return EdgeAtom(label, Var(source), Var(target))


def rename(query: RQ, mapping: dict[str, str]) -> RQ:
    """Rename head variables via projection-free rebuilding.

    RQ has no primitive rename; we rebuild the AST substituting
    variables, which is the standard derived operation.
    """
    subst = {Var(old): Var(new) for old, new in mapping.items()}

    def rebuild(node: RQ) -> RQ:
        if isinstance(node, EdgeAtom):
            return EdgeAtom(
                node.label, subst.get(node.source, node.source), subst.get(node.target, node.target)
            )
        if isinstance(node, Select):
            return Select(
                rebuild(node.child), subst.get(node.left, node.left), subst.get(node.right, node.right)
            )
        if isinstance(node, Project):
            return Project(rebuild(node.child), tuple(subst.get(v, v) for v in node.keep))
        if isinstance(node, And):
            return And(rebuild(node.left), rebuild(node.right))
        if isinstance(node, Or):
            return Or(rebuild(node.left), rebuild(node.right))
        if isinstance(node, TransitiveClosure):
            return TransitiveClosure(rebuild(node.child))
        raise RQError(f"unknown node {node!r}")  # pragma: no cover

    return rebuild(query)


def path_query(labels: Sequence[str], source: str = "x", target: str = "y") -> RQ:
    """Composition ``l1 ; l2 ; ... ; lk`` as an RQ (joins + projection)."""
    if not labels:
        raise RQError("path_query needs at least one label")
    hops = []
    names = [source] + [f"__m{i}" for i in range(1, len(labels))] + [target]
    for index, label in enumerate(labels):
        hops.append(edge(label, names[index], names[index + 1]))
    node: RQ = hops[0]
    for hop in hops[1:]:
        node = And(node, hop)
    return Project(node, (Var(source), Var(target)))


def triangle_query(label: str = "r") -> RQ:
    """The paper's triangle query as an RQ: ``Q(x,y) :- r(x,y)&r(y,z)&r(z,x)``."""
    body = And(And(edge(label, "x", "y"), edge(label, "y", "z")), edge(label, "z", "x"))
    return Project(body, (Var("x"), Var("y")))


def triangle_plus(label: str = "r") -> RQ:
    """``Q+`` of the triangle query — in RQ but in no UC2RPQ (Section 3.4)."""
    return TransitiveClosure(triangle_query(label))
