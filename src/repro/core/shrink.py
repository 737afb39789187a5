"""Counterexample shrinking: smaller witnesses, better explanations.

Expansion-based refutations return canonical databases that may carry
more structure than the disagreement needs.  :func:`shrink_counterexample`
greedily deletes facts/edges while the database still separates the
queries (re-checked semantically each step via
:mod:`repro.core.witness`), yielding a locally minimal witness: removing
any single remaining fact would destroy the refutation.
"""

from __future__ import annotations

from typing import Any

from ..graphdb.database import GraphDatabase
from ..relational.instance import Instance
from ..report import ContainmentResult, Counterexample, Verdict
from .witness import holds_on


def _separates(q1: Any, q2: Any, database: Any, output: tuple) -> bool:
    return holds_on(q1, database, output) and not holds_on(q2, database, output)


def _without_edge(db: GraphDatabase, edge: tuple) -> GraphDatabase:
    out = GraphDatabase()
    for node in db.nodes:
        out.add_node(node)
    for candidate in db.edges():
        if candidate != edge:
            out.add_edge(*candidate)
    return out


def _without_fact(instance: Instance, fact: tuple) -> Instance:
    out = Instance()
    for candidate in instance.facts():
        if candidate != fact:
            out.add(candidate[0], candidate[1])
    return out


def shrink_counterexample(q1: Any, q2: Any, result: ContainmentResult) -> Counterexample:
    """A locally minimal counterexample for a REFUTED *result*.

    Greedy single-fact deletion to a fixpoint; the returned witness
    still satisfies ``output in Q1(D) - Q2(D)`` (asserted on entry and
    preserved by construction).  Isolated nodes left behind by edge
    deletions are dropped when the separation survives without them.
    """
    if result.verdict is not Verdict.REFUTED:
        raise ValueError("only REFUTED results carry counterexamples")
    assert result.counterexample is not None
    database = result.counterexample.database
    output = tuple(result.counterexample.output)
    if not _separates(q1, q2, database, output):
        raise ValueError("counterexample does not replay; refusing to shrink")

    changed = True
    while changed:
        changed = False
        if isinstance(database, GraphDatabase):
            for edge in sorted(database.edges(), key=repr):
                candidate = _without_edge(database, edge)
                if _separates(q1, q2, candidate, output):
                    database = candidate
                    changed = True
                    break
        else:
            for fact in sorted(database.facts(), key=repr):
                candidate = _without_fact(database, fact)
                if _separates(q1, q2, candidate, output):
                    database = candidate
                    changed = True
                    break
    if isinstance(database, GraphDatabase):
        touched = {n for e in database.edges() for n in (e[0], e[2])}
        touched |= set(output)
        trimmed = database.restrict(touched)
        if _separates(q1, q2, trimmed, output):
            database = trimmed
    return Counterexample(database, output)
