"""RPQs and 2RPQs (Section 3): evaluation and containment (Theorem 5)."""

from .containment import (
    DivergenceExample,
    paper_divergence_example,
    rpq_contained,
    two_rpq_contained,
    word_counterexample,
)
from .rpq import RPQ, TwoRPQ, evaluate_nfa_on_graph, targets_from
from .views import Rewriting, answer_using_views, rewrite, view_graph

__all__ = [
    "DivergenceExample",
    "paper_divergence_example",
    "rpq_contained",
    "two_rpq_contained",
    "word_counterexample",
    "Rewriting",
    "answer_using_views",
    "rewrite",
    "view_graph",
    "RPQ",
    "TwoRPQ",
    "evaluate_nfa_on_graph",
    "targets_from",
]
