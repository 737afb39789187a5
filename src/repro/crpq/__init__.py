"""C2RPQ / UC2RPQ (Section 3.3): syntax, evaluation, expansions,
containment (Theorem 6 class)."""

from .containment import uc2rpq_contained
from .evaluation import (
    evaluate_c2rpq,
    evaluate_uc2rpq,
    satisfies_c2rpq,
    satisfies_uc2rpq,
)
from .expansion import (
    Expansion,
    build_expansion,
    enumerate_expansions,
    exhaustive_length_bound,
    expansion_space_is_finite,
)
from .minimization import canonicalize_atoms, minimize_c2rpq, minimize_uc2rpq
from .to_datalog import uc2rpq_to_datalog
from .syntax import C2RPQ, UC2RPQ, RegularAtom, paper_example_1, two_rpq_as_uc2rpq

__all__ = [
    "canonicalize_atoms",
    "minimize_c2rpq",
    "minimize_uc2rpq",
    "uc2rpq_to_datalog",
    "uc2rpq_contained",
    "evaluate_c2rpq",
    "evaluate_uc2rpq",
    "satisfies_c2rpq",
    "satisfies_uc2rpq",
    "Expansion",
    "build_expansion",
    "enumerate_expansions",
    "exhaustive_length_bound",
    "expansion_space_is_finite",
    "C2RPQ",
    "UC2RPQ",
    "RegularAtom",
    "paper_example_1",
    "two_rpq_as_uc2rpq",
]
