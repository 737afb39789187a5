"""UC2RPQ evaluation (Section 3.3).

Exactly the paper's recipe: "to evaluate a C2RPQ Q over a graph database
D we first evaluate all the 2RPQs appearing in Q, instantiating each as
a binary relation over the elements of D, and then evaluate Q as a
conjunctive query over this collection of relations."

Set-at-a-time engineering on top of the recipe: each **distinct**
regular atom is instantiated once — atoms sharing a regex share the
materialized relation — and the whole ``(CQ, Instance)`` artifact is
memoized on the database's snapshot, which a write replaces with one
whose memo is empty.  That matters
because :func:`satisfies_c2rpq` is the hot loop of expansion-based
containment: the same query is tested against a stream of canonical
databases, and each database is probed for many heads, so
re-materializing atom relations per membership test dominated the
pre-snapshot cost.
"""

from __future__ import annotations

from ..cache import query_cache_key
from ..cq.evaluation import evaluate_cq, satisfies
from ..cq.syntax import CQ, Atom
from ..graphdb.database import GraphDatabase, Node
from ..obs.metrics import counter
from ..obs.trace import maybe_span
from ..relational.instance import Instance
from .syntax import C2RPQ, UC2RPQ

_ATOMS_INSTANTIATED = counter("evaluation.atoms_instantiated")


def _materialize(
    query: C2RPQ, db: GraphDatabase, tracer=None, meter=None
) -> tuple[CQ, Instance]:
    """Materialize each *distinct* regular atom as a relation; join CQ.

    Atoms with equal regexes share one materialized relation (and hence
    one evaluation BFS); the returned Instance is treated as frozen by
    every caller, so it is safe to share through the snapshot memo.
    """
    instance = Instance()
    atoms = []
    relation_of: dict = {}
    for atom in query.atoms:
        relation = relation_of.get(atom.query)
        if relation is None:
            relation = f"__atom{len(relation_of)}"
            relation_of[atom.query] = relation
            with maybe_span(
                tracer, "atom-instantiate", relation=relation, regex=str(atom.query)
            ) as span:
                pairs = atom.query.evaluate(db, tracer=tracer, meter=meter)
                span.count("pairs", len(pairs))
            for pair in pairs:
                instance.add(relation, pair)
            if not pairs:
                # Keep the predicate known (empty): the join is then empty.
                instance.declare(relation, 2)
            _ATOMS_INSTANTIATED.inc()
        atoms.append(Atom(relation, (atom.source, atom.target)))
    return CQ(query.head_vars, tuple(atoms)), instance


def _instantiate(
    query: C2RPQ, db: GraphDatabase, tracer=None, meter=None
) -> tuple[CQ, Instance]:
    """The ``(CQ, Instance)`` pair for *query* over *db*, memoized on
    the snapshot, so the expansion loop's membership tests against one
    canonical database share a single materialization.  Unhashable
    queries re-materialize.
    """
    key = query_cache_key(query)
    if key is None:
        return _materialize(query, db, tracer=tracer, meter=meter)
    return db.snapshot(tracer=tracer).memoized(
        ("instance", key), lambda: _materialize(query, db, tracer=tracer, meter=meter)
    )


def evaluate_c2rpq(
    query: C2RPQ, db: GraphDatabase, tracer=None, meter=None
) -> frozenset[tuple[Node, ...]]:
    """The answer relation Q(D)."""
    cq, instance = _instantiate(query, db, tracer=tracer, meter=meter)
    return evaluate_cq(cq, instance)


def evaluate_uc2rpq(
    query: UC2RPQ | C2RPQ, db: GraphDatabase, tracer=None, meter=None
) -> frozenset[tuple[Node, ...]]:
    union = query if isinstance(query, UC2RPQ) else UC2RPQ((query,))
    answers: set[tuple[Node, ...]] = set()
    for disjunct in union:
        answers |= evaluate_c2rpq(disjunct, db, tracer=tracer, meter=meter)
    return frozenset(answers)


def satisfies_c2rpq(
    query: C2RPQ, db: GraphDatabase, head: tuple[Node, ...], tracer=None, meter=None
) -> bool:
    """Early-exit membership test ``head in Q(D)``.

    Used in the hot loop of expansion-based containment, where *db* is a
    small canonical database and only one tuple matters; the memoized
    instantiation means successive heads against the same database skip
    straight to the join.
    """
    cq, instance = _instantiate(query, db, tracer=tracer, meter=meter)
    return satisfies(cq, instance, head)


def satisfies_uc2rpq(
    query: UC2RPQ | C2RPQ,
    db: GraphDatabase,
    head: tuple[Node, ...],
    tracer=None,
    meter=None,
) -> bool:
    union = query if isinstance(query, UC2RPQ) else UC2RPQ((query,))
    return any(
        satisfies_c2rpq(disjunct, db, head, tracer=tracer, meter=meter)
        for disjunct in union
    )
