"""Counterexample replay: independently verifying REFUTED verdicts.

Every refutation in this package carries a concrete database and output
tuple.  :func:`verify_counterexample` replays it: evaluate both queries
on the database and confirm the tuple separates them.  The test suite
runs this on every refutation any procedure emits, which is the
strongest correctness guarantee short of verifying the positive
verdicts (those are cross-checked against brute force in the tests).
"""

from __future__ import annotations

from typing import Any

from ..cq.evaluation import satisfies as cq_satisfies, satisfies_ucq
from ..cq.syntax import CQ, UCQ
from ..crpq.evaluation import satisfies_uc2rpq
from ..crpq.syntax import C2RPQ, UC2RPQ
from ..datalog.evaluation import evaluate as datalog_evaluate
from ..datalog.syntax import Program
from ..graphdb.database import GraphDatabase
from ..relational.instance import Instance, graph_to_instance, instance_to_graph
from ..rpq.rpq import TwoRPQ
from ..rq.evaluation import satisfies_rq
from ..rq.syntax import RQ
from ..report import ContainmentResult, Verdict


def holds_on(query: Any, database: Any, output: tuple) -> bool:
    """Does ``output in query(database)``, for any query/database kind?

    Databases convert both ways: a graph query receives a
    :class:`GraphDatabase` (converting a binary-relations instance when
    needed) and a relational query receives an :class:`Instance`.
    """
    if isinstance(query, TwoRPQ):
        return query.matches(as_graph(database), output[0], output[1])
    if isinstance(query, (C2RPQ, UC2RPQ)):
        return satisfies_uc2rpq(query, as_graph(database), tuple(output))
    if isinstance(query, RQ):
        return satisfies_rq(query, as_graph(database), tuple(output))
    if isinstance(query, CQ):
        return cq_satisfies(query, as_instance(database), tuple(output))
    if isinstance(query, UCQ):
        return satisfies_ucq(query, as_instance(database), tuple(output))
    if isinstance(query, Program):
        return tuple(output) in datalog_evaluate(query, as_instance(database))
    raise TypeError(f"not a query object: {query!r}")


def as_graph(database: Any) -> GraphDatabase:
    if isinstance(database, GraphDatabase):
        return database
    if isinstance(database, Instance):
        return instance_to_graph(database)
    raise TypeError(f"not a database: {database!r}")


def as_instance(database: Any) -> Instance:
    if isinstance(database, Instance):
        return database
    if isinstance(database, GraphDatabase):
        return graph_to_instance(database)
    raise TypeError(f"not a database: {database!r}")


def verify_counterexample(q1: Any, q2: Any, result: ContainmentResult) -> bool:
    """Replay a REFUTED result: the tuple must be in Q1(D) but not Q2(D)."""
    if result.verdict is not Verdict.REFUTED:
        raise ValueError("only REFUTED results carry counterexamples")
    assert result.counterexample is not None
    database = result.counterexample.database
    output = result.counterexample.output
    return holds_on(q1, database, output) and not holds_on(q2, database, output)
