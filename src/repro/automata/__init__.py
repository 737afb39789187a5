"""Automata-theoretic substrate for the containment pipelines.

Public surface:

- :mod:`repro.automata.alphabet` — Sigma / Sigma± symbol handling.
- :mod:`repro.automata.regex` — regex AST, parser, Thompson construction.
- :mod:`repro.automata.nfa` / :mod:`repro.automata.dfa` — one-way
  automata, products, subset construction, Hopcroft minimization.
- :mod:`repro.automata.two_nfa` — two-way automata with end-markers.
- :mod:`repro.automata.fold` — Lemma 3 (2NFA for fold(L)).
- :mod:`repro.automata.complement` — Lemma 4 (single-exponential 2NFA
  complementation) plus its lazy, on-the-fly variant.
- :mod:`repro.automata.shepherdson` — the classical conversion baseline.
- :mod:`repro.automata.onthefly` — on-the-fly product emptiness for an
  NFA against lazily complemented two-way automata.
- :mod:`repro.automata.indexed` — integer-indexed bitset kernels every
  hot path above runs on.
"""

from .alphabet import (
    Alphabet,
    LEFT_MARKER,
    RIGHT_MARKER,
    base_symbol,
    inverse,
    inverse_word,
    is_inverse,
)
from .complement import LazyComplement, complement_two_nfa
from .dot import graph_to_dot, nfa_to_dot, two_nfa_to_dot
from .dfa import (
    DFA,
    reduce_nfa,
    complement_nfa,
    containment_counterexample,
    determinize,
    nfa_contains,
    nfa_equivalent,
)
from .fold import fold_two_nfa, folds_onto, fold_witness, lemma3_state_bound
from .indexed import IndexedDFA, IndexedNFA
from .nfa import NFA, Word, from_epsilon_nfa
from .onthefly import find_accepted_word, intersection_is_empty
from .regex import (
    Concat,
    EmptySet,
    Epsilon,
    Optional_,
    Plus,
    Regex,
    RegexSyntaxError,
    Star,
    Sym,
    Union,
    parse_regex,
    random_regex,
    word_regex,
)
from .state_elimination import nfa_to_regex
from .shepherdson import (
    LazyShepherdsonComplement,
    naive_complement_two_nfa,
    two_nfa_to_dfa,
)
from .two_nfa import LEFT, RIGHT, STAY, TwoNFA, one_way_as_two_way

__all__ = [
    "graph_to_dot",
    "nfa_to_dot",
    "two_nfa_to_dot",
    "Alphabet",
    "LEFT_MARKER",
    "RIGHT_MARKER",
    "base_symbol",
    "inverse",
    "inverse_word",
    "is_inverse",
    "LazyComplement",
    "complement_two_nfa",
    "DFA",
    "complement_nfa",
    "reduce_nfa",
    "containment_counterexample",
    "determinize",
    "nfa_contains",
    "nfa_equivalent",
    "fold_two_nfa",
    "folds_onto",
    "fold_witness",
    "lemma3_state_bound",
    "IndexedDFA",
    "IndexedNFA",
    "NFA",
    "Word",
    "from_epsilon_nfa",
    "find_accepted_word",
    "intersection_is_empty",
    "Concat",
    "EmptySet",
    "Epsilon",
    "Optional_",
    "Plus",
    "Regex",
    "RegexSyntaxError",
    "Star",
    "Sym",
    "Union",
    "parse_regex",
    "random_regex",
    "word_regex",
    "nfa_to_regex",
    "LazyShepherdsonComplement",
    "naive_complement_two_nfa",
    "two_nfa_to_dfa",
    "LEFT",
    "RIGHT",
    "STAY",
    "TwoNFA",
    "one_way_as_two_way",
]
