"""Relational database instances (Section 2 of the paper).

A database is a finite set of facts ``p(a1, ..., ak)`` over a set of
predicate names with fixed arities.  As the paper observes (Section
3.1), a graph database *is* a relational structure whose schema consists
of binary relations — conversions both ways live here.

Joins read an instance through :meth:`Instance.matching`: a hash index
per (predicate, bound positions), built on first use, stored only once
complete and dropped when its predicate gains a row.
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import Collection, Hashable, Iterable, Iterator

Constant = Hashable
Fact = tuple[str, tuple[Constant, ...]]


class Instance:
    """A relational instance: predicate name -> set of tuples.

    Arities are enforced per predicate as facts are added.

    >>> db = Instance.from_facts([("edge", (1, 2)), ("edge", (2, 3))])
    >>> sorted(db.tuples("edge"))
    [(1, 2), (2, 3)]
    """

    def __init__(self) -> None:
        self._relations: dict[str, set[tuple[Constant, ...]]] = defaultdict(set)
        self._arities: dict[str, int] = {}
        # predicate -> bound positions -> key -> rows, in relation order.
        self._indexes: dict[str, dict[tuple[int, ...], dict[tuple, list]]] = {}

    @classmethod
    def from_facts(cls, facts: Iterable[Fact]) -> "Instance":
        instance = cls()
        for predicate, row in facts:
            instance.add(predicate, row)
        return instance

    def add(self, predicate: str, row: tuple[Constant, ...]) -> None:
        """Insert fact ``predicate(*row)``, enforcing a consistent arity."""
        row = tuple(row)
        arity = self._arities.setdefault(predicate, len(row))
        if arity != len(row):
            raise ValueError(
                f"{predicate} has arity {arity}, got tuple of length {len(row)}"
            )
        rows = self._relations[predicate]
        if row not in rows:
            rows.add(row)
            self._indexes.pop(predicate, None)

    def declare(self, predicate: str, arity: int) -> None:
        """Register a (possibly empty) relation with the given arity."""
        existing = self._arities.setdefault(predicate, arity)
        if existing != arity:
            raise ValueError(f"{predicate} has arity {existing}, not {arity}")
        self._relations.setdefault(predicate, set())

    def install(self, predicate: str, arity: int, rows: set[tuple[Constant, ...]]) -> None:
        """Make *predicate* hold exactly *rows* (of *arity*), taking the
        set over uncopied: semi-naive Datalog's per-round deltas."""
        self.declare(predicate, arity)
        self._relations[predicate] = rows
        self._indexes.pop(predicate, None)

    def tuples(self, predicate: str) -> frozenset[tuple[Constant, ...]]:
        """A copy of *predicate*'s rows (joins use :meth:`matching`)."""
        return frozenset(self._relations.get(predicate, ()))

    def size(self, predicate: str) -> int:
        """The number of rows of *predicate* (0 when unknown)."""
        rows = self._relations.get(predicate)
        return 0 if rows is None else len(rows)

    def matching(
        self, predicate: str, positions: tuple[int, ...], key: tuple
    ) -> Collection[tuple[Constant, ...]]:
        """The rows of *predicate* whose values at *positions* (ascending)
        are *key*, in the relation's iteration order; read-only (with no
        positions, the relation itself)."""
        rows = self._relations.get(predicate)
        if not rows:
            return ()
        if not positions:
            return rows
        if len(positions) == self._arities[predicate]:
            return (key,) if key in rows else ()
        indexes = self._indexes.setdefault(predicate, {})
        index = indexes.get(positions)
        if index is None:
            index = {}
            if len(positions) == 1:
                (position,) = positions
                for row in rows:
                    index.setdefault((row[position],), []).append(row)
            else:
                key_of = itemgetter(*positions)
                for row in rows:
                    index.setdefault(key_of(row), []).append(row)
            indexes[positions] = index
        return index.get(key, ())

    def arity(self, predicate: str) -> int | None:
        return self._arities.get(predicate)

    @property
    def predicates(self) -> frozenset[str]:
        return frozenset(self._relations)

    def facts(self) -> Iterator[Fact]:
        for predicate, rows in self._relations.items():
            for row in rows:
                yield predicate, row

    @property
    def num_facts(self) -> int:
        return sum(len(rows) for rows in self._relations.values())

    @property
    def active_domain(self) -> frozenset:
        domain: set = set()
        for rows in self._relations.values():
            for row in rows:
                domain.update(row)
        return frozenset(domain)

    def copy(self) -> "Instance":
        """An independent copy, with every relation and its arity, empty
        ones included.  Rows go in one at a time, as :meth:`from_facts`
        adds them, so the copy iterates them as an instance built from
        ``self.facts()`` would."""
        copied = Instance()
        copied._arities = dict(self._arities)
        for predicate, rows in self._relations.items():
            copied_rows = copied._relations[predicate]
            for row in rows:
                copied_rows.add(row)
        return copied

    def union(self, other: "Instance") -> "Instance":
        merged = self.copy()
        for predicate, row in other.facts():
            merged.add(predicate, row)
        return merged

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return {p: self.tuples(p) for p in self.predicates if self.tuples(p)} == {
            p: other.tuples(p) for p in other.predicates if other.tuples(p)
        }

    def __hash__(self) -> int:  # pragma: no cover - rarely needed
        return hash(frozenset(self.facts()))

    def __contains__(self, fact: Fact) -> bool:
        predicate, row = fact
        return tuple(row) in self._relations.get(predicate, ())

    def __repr__(self) -> str:
        counts = {predicate: len(rows) for predicate, rows in self._relations.items()}
        return f"Instance({counts})"


def graph_to_instance(graph) -> Instance:
    """View a graph database as a relational structure over binary symbols."""
    instance = Instance()
    for source, label, target in graph.edges():
        instance.add(label, (source, target))
    return instance


def instance_to_graph(instance: Instance):
    """View a binary-relations-only instance as a graph database."""
    from ..graphdb.database import GraphDatabase

    graph = GraphDatabase()
    for predicate, row in instance.facts():
        if len(row) != 2:
            raise ValueError(
                f"cannot view {predicate}/{len(row)} as a graph edge relation"
            )
        graph.add_edge(row[0], predicate, row[1])
    for constant in instance.active_domain:
        graph.add_node(constant)
    return graph
