"""Regular Queries (Section 3.4): algebra, evaluation, Datalog embedding
(Section 4.1), and containment (Theorem 7 class)."""

from .containment import rq_contained
from .parser import RQSyntaxError, parse_rq
from .evaluation import evaluate_rq, satisfies_rq, transitive_closure_pairs
from .syntax import (
    And,
    EdgeAtom,
    Or,
    Project,
    RQ,
    RQError,
    Select,
    TransitiveClosure,
    edge,
    path_query,
    rename,
    triangle_plus,
    triangle_query,
)
from .generators import random_rq
from .optimize import simplify, size_reduction
from .to_datalog import rq_to_datalog

__all__ = [
    "RQSyntaxError",
    "parse_rq",
    "rq_contained",
    "evaluate_rq",
    "satisfies_rq",
    "transitive_closure_pairs",
    "And",
    "EdgeAtom",
    "Or",
    "Project",
    "RQ",
    "RQError",
    "Select",
    "TransitiveClosure",
    "edge",
    "path_query",
    "rename",
    "triangle_plus",
    "triangle_query",
    "random_rq",
    "simplify",
    "size_reduction",
    "rq_to_datalog",
]
