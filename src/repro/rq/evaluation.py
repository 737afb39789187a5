"""Direct evaluation of RQ algebra terms over graph databases.

Each node evaluates to a set of tuples aligned with its ``head_vars``.
Conjunction is a hash join on the shared variables; transitive closure
is an iterated composition to fixpoint (the paper's ``Q+``).  The
alternative evaluation path — translate to Datalog and run the
semi-naive engine — lives in :mod:`repro.rq.to_datalog`; experiment E8
cross-validates the two.
"""

from __future__ import annotations

from collections import defaultdict

from ..graphdb.database import GraphDatabase, Node
from .syntax import (
    And,
    EdgeAtom,
    Or,
    Project,
    RQ,
    RQError,
    Select,
    TransitiveClosure,
)

Rows = frozenset[tuple]


def evaluate_rq(query: RQ, db: GraphDatabase) -> Rows:
    """The answer relation of *query* over *db* (columns = head_vars)."""
    return _eval(query, db)


def _eval(node: RQ, db: GraphDatabase) -> Rows:
    if isinstance(node, EdgeAtom):
        # Leaf relations come off the compiled snapshot (materialized
        # once per database revision and memoized there) instead of
        # being rebuilt per EdgeAtom visit.
        pairs = db.snapshot().relation(node.label)
        if node.source == node.target:
            return frozenset((a,) for a, b in pairs if a == b)
        return frozenset(pairs)
    if isinstance(node, Select):
        rows = _eval(node.child, db)
        head = node.child.head_vars
        i, j = head.index(node.left), head.index(node.right)
        return frozenset(row for row in rows if row[i] == row[j])
    if isinstance(node, Project):
        rows = _eval(node.child, db)
        head = node.child.head_vars
        indexes = [head.index(var) for var in node.keep]
        return frozenset(tuple(row[i] for i in indexes) for row in rows)
    if isinstance(node, And):
        return _join(node, db)
    if isinstance(node, Or):
        return _eval(node.left, db) | _eval(node.right, db)
    if isinstance(node, TransitiveClosure):
        return transitive_closure_pairs(_eval(node.child, db))
    raise RQError(f"unknown node {node!r}")  # pragma: no cover


def _join(node: And, db: GraphDatabase) -> Rows:
    left_rows = _eval(node.left, db)
    right_rows = _eval(node.right, db)
    left_head = node.left.head_vars
    right_head = node.right.head_vars
    shared = [var for var in right_head if var in left_head]
    left_key = [left_head.index(var) for var in shared]
    right_key = [right_head.index(var) for var in shared]
    right_extra = [
        index for index, var in enumerate(right_head) if var not in left_head
    ]
    index: dict[tuple, list[tuple]] = defaultdict(list)
    for row in right_rows:
        index[tuple(row[i] for i in right_key)].append(row)
    out: set[tuple] = set()
    for row in left_rows:
        key = tuple(row[i] for i in left_key)
        for match in index.get(key, ()):
            out.add(row + tuple(match[i] for i in right_extra))
    return frozenset(out)


def transitive_closure_pairs(pairs: Rows) -> Rows:
    """``R+``: semi-naive iteration of ``R+ := R+ ∪ (R+ ; R)``."""
    closure: set[tuple] = set(pairs)
    by_source: dict[Node, set[Node]] = defaultdict(set)
    for a, b in pairs:
        by_source[a].add(b)
    delta = set(pairs)
    while delta:
        new: set[tuple] = set()
        for a, b in delta:
            for c in by_source.get(b, ()):
                if (a, c) not in closure:
                    new.add((a, c))
        closure |= new
        delta = new
    return frozenset(closure)


def satisfies_rq(query: RQ, db: GraphDatabase, head: tuple[Node, ...]) -> bool:
    """Membership test ``head in Q(D)``.

    RQ evaluation is bottom-up (transitive closures make classic
    top-down early exit awkward), so this simply evaluates and checks;
    canonical databases in the containment loop are small.
    """
    return tuple(head) in _eval(query, db)
