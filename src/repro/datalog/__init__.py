"""Datalog (Section 2.2): syntax, parser, fixpoint engines, analysis,
unfolding, and containment procedures."""

from .analysis import (
    DependenceGraph,
    dependence_graph,
    is_linear,
    is_monadic,
    is_nonrecursive,
    predicate_depth,
    recursive_components,
    recursive_predicates,
)
from .containment import (
    cq_in_datalog,
    datalog_in_datalog,
    datalog_in_ucq,
    ucq_in_datalog,
)
from .evaluation import (
    EvaluationStats,
    bounded_evaluate,
    evaluate,
    naive_evaluate,
    seminaive_evaluate,
)
from .parser import DatalogSyntaxError, parse_program, parse_rule
from .syntax import (
    Program,
    Rule,
    program_to_text,
    reachability_program,
    transitive_closure_program,
)
from .to_sql import SQLTranslationError, evaluate_via_sql, program_to_sql
from .unfolding import enumerate_expansions, unfold_nonrecursive

__all__ = [
    "DependenceGraph",
    "dependence_graph",
    "is_linear",
    "is_monadic",
    "is_nonrecursive",
    "predicate_depth",
    "recursive_components",
    "recursive_predicates",
    "cq_in_datalog",
    "datalog_in_datalog",
    "datalog_in_ucq",
    "ucq_in_datalog",
    "EvaluationStats",
    "bounded_evaluate",
    "evaluate",
    "naive_evaluate",
    "seminaive_evaluate",
    "DatalogSyntaxError",
    "parse_program",
    "parse_rule",
    "Program",
    "program_to_text",
    "Rule",
    "reachability_program",
    "transitive_closure_program",
    "SQLTranslationError",
    "evaluate_via_sql",
    "program_to_sql",
    "enumerate_expansions",
    "unfold_nonrecursive",
]
