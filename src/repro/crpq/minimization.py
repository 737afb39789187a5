"""Minimization of C2RPQs and UC2RPQs — structural optimization, graph side.

The graph-database mirror of :mod:`repro.cq.minimization`, with the
verdict caveats that Theorem 6 forces (containment for this class is
only bounded-exact in general):

- :func:`canonicalize_atoms` — rewrite every regular atom through
  determinize -> Hopcroft-minimize -> state elimination, keeping the
  smaller expression; exact, always (language-preserving).
- :func:`minimize_c2rpq` — drop atoms whose removal keeps the query
  equivalent.  Removal can only enlarge answers, so a dropped atom needs
  ``smaller ⊑ original``; we drop only on an *exact* HOLDS verdict
  (finite expansion space) unless the caller opts into bounded evidence
  with ``allow_bounded=True``.
- :func:`minimize_uc2rpq` — additionally remove disjuncts subsumed by
  the rest of the union (same exactness policy), pruning against the
  shrinking union so one member of each equivalence class survives.
"""

from __future__ import annotations

from ..automata.dfa import determinize, reduce_nfa
from ..automata.state_elimination import nfa_to_regex
from ..budget import Budget
from ..report import Verdict
from ..rpq.rpq import TwoRPQ
from .containment import uc2rpq_contained
from .syntax import C2RPQ, UC2RPQ, RegularAtom


def _acceptable(verdict: Verdict, allow_bounded: bool) -> bool:
    if verdict is Verdict.HOLDS:
        return True
    return allow_bounded and verdict is Verdict.HOLDS_UP_TO_BOUND


def canonicalize_atoms(query: C2RPQ) -> C2RPQ:
    """Per-atom regex canonicalization (exact; never changes semantics).

    Each atom's language goes through the minimal DFA and back to an
    expression; the rewrite is kept only when it is syntactically
    smaller than the original.
    """
    atoms = []
    for atom in query.atoms:
        nfa = atom.query.nfa
        minimal = reduce_nfa(nfa)
        candidate = nfa_to_regex(minimal)
        if candidate.to_nfa().num_states and len(str(candidate)) < len(
            str(atom.query.regex)
        ):
            atoms.append(RegularAtom(TwoRPQ(candidate), atom.source, atom.target))
        else:
            atoms.append(atom)
    return C2RPQ(query.head_vars, tuple(atoms))


def minimize_c2rpq(
    query: C2RPQ,
    max_total_length: int = 6,
    allow_bounded: bool = False,
) -> C2RPQ:
    """Drop redundant atoms (the graph-side core computation).

    Args:
        query: the C2RPQ to minimize.
        max_total_length: expansion bound for the containment checks.
        allow_bounded: also drop atoms justified only up to the bound
            (the result is then equivalent *up to that evidence*; leave
            False for guaranteed-equivalent output).
    """
    current = query
    changed = True
    while changed and len(current.atoms) > 1:
        changed = False
        for index in range(len(current.atoms)):
            candidate_atoms = current.atoms[:index] + current.atoms[index + 1 :]
            remaining_vars = {
                var for atom in candidate_atoms for var in atom.variables()
            }
            if not set(current.head_vars) <= remaining_vars:
                continue
            candidate = C2RPQ(current.head_vars, candidate_atoms)
            verdict = uc2rpq_contained(
                candidate, current, budget=Budget(max_total_length=max_total_length)
            ).verdict
            if _acceptable(verdict, allow_bounded):
                current = candidate
                changed = True
                break
    return current


def minimize_uc2rpq(
    query: UC2RPQ | C2RPQ,
    max_total_length: int = 6,
    allow_bounded: bool = False,
) -> UC2RPQ:
    """Minimize each disjunct, then prune subsumed disjuncts."""
    union = query if isinstance(query, UC2RPQ) else UC2RPQ((query,))
    disjuncts = [
        minimize_c2rpq(d, max_total_length, allow_bounded) for d in union
    ]
    index = 0
    while index < len(disjuncts) and len(disjuncts) > 1:
        rest = disjuncts[:index] + disjuncts[index + 1 :]
        verdict = uc2rpq_contained(
            disjuncts[index],
            UC2RPQ(tuple(rest)),
            budget=Budget(max_total_length=max_total_length),
        ).verdict
        if _acceptable(verdict, allow_bounded):
            disjuncts = rest
        else:
            index += 1
    return UC2RPQ(tuple(disjuncts))
