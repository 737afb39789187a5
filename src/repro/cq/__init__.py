"""Conjunctive queries and unions (Section 2.1): syntax, evaluation,
Chandra-Merlin / Sagiv-Yannakakis containment, and core minimization."""

from .containment import cq_contained, ucq_contained
from .evaluation import (
    bindings,
    evaluate_cq,
    evaluate_ucq,
    satisfies,
    satisfies_ucq,
)
from .homomorphism import (
    cq_homomorphism,
    has_homomorphism,
    homomorphism_to_instance,
)
from .minimization import is_minimal, minimize_cq, minimize_ucq
from .syntax import CQ, UCQ, Atom, Term, Var, cq_from_strings, is_var

__all__ = [
    "cq_contained",
    "ucq_contained",
    "bindings",
    "evaluate_cq",
    "evaluate_ucq",
    "satisfies",
    "satisfies_ucq",
    "cq_homomorphism",
    "has_homomorphism",
    "homomorphism_to_instance",
    "is_minimal",
    "minimize_ucq",
    "minimize_cq",
    "CQ",
    "UCQ",
    "Atom",
    "Term",
    "Var",
    "cq_from_strings",
    "is_var",
]
