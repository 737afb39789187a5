"""Edge-labeled graph databases (Section 3.1 of the paper).

A graph database is a finite directed graph whose edges carry labels
from a finite alphabet Sigma: an edge ``r(x, y)`` states that relation
``r`` holds between objects ``x`` and ``y``.  The alphabet doubles as
the (flexible) schema — it is derived from the data, never declared.

Besides storage and indexing, this module implements the *semipath*
machinery of Section 3.1: navigation along edges in both directions,
where traversing an edge backwards reads its inverse letter.

Nodes are kept in **insertion order** (the stable total order every
compiled artifact uses — see :mod:`repro.graphdb.snapshot`), and every
structural mutation bumps a **revision counter** and replaces the
compiled snapshot.  A new edge between nodes the snapshot knows, under
a label it knows, patches a snapshot that a read has taken since the
last write copy-on-write into a new one that shares the rows it does
not touch; every other mutation drops the snapshot and the next read
rebuilds.  Everything evaluation derives from the data is memoized on a
snapshot, so the next read starts from the new content with an empty
memo.  The database assumes one writer and no read running
concurrently with a write.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator

from ..automata.alphabet import Alphabet, base_symbol, inverse, is_inverse

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (snapshot imports us)
    from .snapshot import GraphSnapshot

Node = Hashable
Edge = tuple[Node, str, Node]
Word = tuple[str, ...]


class GraphDatabase:
    """A finite directed edge-labeled graph with forward/backward indexes.

    >>> db = GraphDatabase.from_edges([("a", "knows", "b"), ("b", "knows", "c")])
    >>> sorted(db.successors("a", "knows"))
    ['b']
    >>> sorted(db.successors("b", "knows-"))   # inverse letter: backwards
    ['a']
    """

    def __init__(self) -> None:
        self._forward: dict[tuple[Node, str], set] = defaultdict(set)
        self._backward: dict[tuple[Node, str], set] = defaultdict(set)
        # dict-as-ordered-set: insertion order is the stable node order.
        self._nodes: dict[Node, None] = {}
        self._labels: set[str] = set()
        self._edge_count = 0
        self._revision = 0
        self._snapshot: "GraphSnapshot | None" = None
        # Has a read taken _snapshot since it was built or patched?
        self._snapshot_read = False

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_edges(cls, edges: Iterable[Edge], nodes: Iterable[Node] = ()) -> "GraphDatabase":
        """Build a database from ``(source, label, target)`` triples.

        Args:
            edges: the labeled edges.
            nodes: extra isolated nodes to include.
        """
        db = cls()
        for source, label, target in edges:
            db.add_edge(source, label, target)
        for node in nodes:
            db.add_node(node)
        return db

    def add_node(self, node: Node) -> None:
        if node not in self._nodes:
            self._nodes[node] = None
            self._touch()

    def add_edge(self, source: Node, label: str, target: Node) -> None:
        """Insert edge ``label(source, target)``; labels must be base symbols."""
        if is_inverse(label):
            raise ValueError(
                f"edges are stored under base labels; got inverse label {label!r}"
            )
        targets = self._forward[(source, label)]
        if target in targets:
            return
        targets.add(target)
        self._backward[(target, label)].add(source)
        self._nodes.setdefault(source)
        self._nodes.setdefault(target)
        self._labels.add(label)
        self._edge_count += 1
        snapshot = self._touch()
        if snapshot is not None:
            self._snapshot = snapshot.with_edge(source, label, target, self._edge_count)

    def _touch(self) -> "GraphSnapshot | None":
        """Record a structural mutation: bump the revision and drop the
        snapshot, returning it for :meth:`add_edge` to patch if a read
        has taken it since the last write.

        Patching only a snapshot that was read keeps a run of writes
        with no read between them at one patch plus the rebuild the next
        read pays anyway.
        """
        self._revision += 1
        snapshot = self._snapshot if self._snapshot_read else None
        self._snapshot = None
        self._snapshot_read = False
        return snapshot

    # -- inspection --------------------------------------------------------------

    @property
    def nodes(self) -> frozenset:
        return frozenset(self._nodes)

    def nodes_in_order(self) -> tuple:
        """All nodes in insertion order — the stable total order compiled
        artifacts (snapshots, IO serializations) index nodes by.  Unlike
        ``sorted(key=repr)`` it does not depend on memory addresses, so
        it is identical across runs for the same construction sequence.
        """
        return tuple(self._nodes)

    @property
    def revision(self) -> int:
        """Monotone counter of structural mutations."""
        return self._revision

    def snapshot(self, tracer=None) -> "GraphSnapshot":
        """The compiled :class:`~repro.graphdb.snapshot.GraphSnapshot`.

        Built when there is none; otherwise the one the last write
        patched, or the one an earlier read took.  Each mutation
        (:meth:`add_edge` / :meth:`add_node`) replaces the snapshot with
        a new object whose memo starts empty, so a stale snapshot or
        answer can never be observed through this accessor, while a
        caller still holding an older snapshot keeps its content.
        """
        snapshot = self._snapshot
        if snapshot is None:
            from .snapshot import GraphSnapshot

            snapshot = self._snapshot = GraphSnapshot.from_database(self, tracer=tracer)
        self._snapshot_read = True
        return snapshot

    @property
    def labels(self) -> frozenset[str]:
        """The edge alphabet Sigma, as read off the data."""
        return frozenset(self._labels)

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet(tuple(sorted(self._labels)))

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return self._edge_count

    def edges(self) -> Iterator[Edge]:
        for (source, label), targets in self._forward.items():
            for target in targets:
                yield (source, label, target)

    def relation(self, label: str) -> frozenset[tuple[Node, Node]]:
        """The binary relation ``r(D)`` for a (possibly inverse) label."""
        if is_inverse(label):
            return frozenset(
                (target, source)
                for (source, base), targets in self._forward.items()
                if base == base_symbol(label)
                for target in targets
            )
        return frozenset(
            (source, target)
            for (src, base), targets in self._forward.items()
            if base == label
            for source, target in ((src, t) for t in targets)
        )

    def successors(self, node: Node, label: str) -> frozenset:
        """One navigation step; inverse labels navigate backwards."""
        if is_inverse(label):
            return frozenset(self._backward.get((node, base_symbol(label)), ()))
        return frozenset(self._forward.get((node, label), ()))

    # -- semipaths (Section 3.1) --------------------------------------------------

    def semipath_targets(self, source: Node, word: Word) -> frozenset:
        """Nodes reachable from *source* by a semipath labeled *word*."""
        current = {source} if source in self._nodes else set()
        for label in word:
            nxt: set = set()
            for node in current:
                nxt |= self.successors(node, label)
            current = nxt
            if not current:
                break
        return frozenset(current)

    def has_semipath(self, source: Node, target: Node, word: Word) -> bool:
        """Is there a semipath labeled *word* from *source* to *target*?"""
        return target in self.semipath_targets(source, word)

    def find_semipath(self, source: Node, target: Node, word: Word) -> tuple | None:
        """A concrete semipath ``(y0, p1, y1, ..., pn, yn)`` or None."""
        layers: list[set] = [{source} if source in self._nodes else set()]
        for label in word:
            nxt: set = set()
            for node in layers[-1]:
                nxt |= self.successors(node, label)
            layers.append(nxt)
        if target not in layers[-1]:
            return None
        # Walk backwards choosing any predecessor at each layer.
        path: list = [target]
        cursor = target
        for index in range(len(word) - 1, -1, -1):
            label = word[index]
            for candidate in layers[index]:
                if cursor in self.successors(candidate, label):
                    path.append(label)
                    path.append(candidate)
                    cursor = candidate
                    break
        path.reverse()
        return tuple(path)

    # -- misc ----------------------------------------------------------------------

    def restrict(self, nodes: Iterable[Node]) -> "GraphDatabase":
        """The induced subdatabase on *nodes*."""
        keep = set(nodes)
        sub = GraphDatabase()
        for node in self._nodes:  # insertion order: keeps sub-db ids stable
            if node in keep:
                sub.add_node(node)
        for source, label, target in self.edges():
            if source in keep and target in keep:
                sub.add_edge(source, label, target)
        return sub

    def renamed(self, mapping: dict) -> "GraphDatabase":
        """Apply a node renaming (useful for canonical databases)."""
        db = GraphDatabase()
        for node in self._nodes:
            db.add_node(mapping.get(node, node))
        for source, label, target in self.edges():
            db.add_edge(mapping.get(source, source), label, mapping.get(target, target))
        return db

    def disjoint_union(self, other: "GraphDatabase") -> "GraphDatabase":
        """Tagged disjoint union of two databases."""
        db = GraphDatabase()
        for node in self._nodes:
            db.add_node((0, node))
        for node in other._nodes:
            db.add_node((1, node))
        for source, label, target in self.edges():
            db.add_edge((0, source), label, (0, target))
        for source, label, target in other.edges():
            db.add_edge((1, source), label, (1, target))
        return db

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphDatabase):
            return NotImplemented
        return self._nodes == other._nodes and set(self.edges()) == set(other.edges())

    def __hash__(self) -> int:  # pragma: no cover - rarely needed
        return hash((frozenset(self._nodes), frozenset(self.edges())))

    def __repr__(self) -> str:
        return f"GraphDatabase(nodes={self.num_nodes}, edges={self.num_edges})"


def canonical_database_of_word(word: Word, start: Node = 0) -> tuple[GraphDatabase, Node, Node]:
    """The canonical semipath database of a word over Sigma±.

    Returns ``(db, source, target)`` where ``db`` is a fresh path of
    ``len(word)`` edges: forward letters produce forward edges, inverse
    letters produce backward edges (so the *semipath* from source to
    target spells exactly *word*).  This is the building block of
    expansion-based containment for UC2RPQ and RQ.
    """
    db = GraphDatabase()
    if isinstance(start, int):
        names: list[Node] = list(range(start, start + len(word) + 1))
    else:  # pragma: no cover - defensive
        raise TypeError("start must be an integer node id")
    db.add_node(names[0])
    for index, label in enumerate(word):
        here, there = names[index], names[index + 1]
        if is_inverse(label):
            db.add_edge(there, base_symbol(label), here)
        else:
            db.add_edge(here, label, there)
    return db, names[0], names[-1]
