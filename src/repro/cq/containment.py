"""Exact containment for CQ and UCQ (Sections 2.1 and 2.3).

- CQ containment is the Chandra-Merlin test [18]: ``Q1 ⊆ Q2`` iff
  ``Q2``'s body maps homomorphically into ``Q1``'s canonical database
  hitting the head — NP-complete, exact.
- UCQ containment is the Sagiv-Yannakakis characterization [50]:
  ``U1 ⊆ U2`` iff every disjunct of ``U1`` is contained in ``U2``, and a
  CQ is contained in a UCQ iff *some* disjunct maps in.  (The
  per-disjunct check must be done against the whole union: evaluating
  ``U2`` over the canonical database of the disjunct.)

Refutations come with a counterexample database on which the answers
differ, so every negative verdict is independently replayable.
"""

from __future__ import annotations

from ..report import ContainmentResult, Counterexample, Verdict
from .evaluation import satisfies_ucq, satisfies
from .syntax import CQ, UCQ


def cq_contained(q1: CQ, q2: CQ) -> bool:
    """Chandra-Merlin: Q1 ⊆ Q2 via homomorphism Q2 -> canonical(Q1)."""
    instance, head = q1.canonical_instance()
    return satisfies(q2, instance, head)


def ucq_contained(u1: UCQ | CQ, u2: UCQ | CQ) -> ContainmentResult:
    """Sagiv-Yannakakis UCQ containment with counterexample extraction.

    Exact: ``HOLDS``, or ``REFUTED`` by the canonical database and frozen
    head of the first disjunct of *u1* that *u2* does not cover.
    """
    left = u1 if isinstance(u1, UCQ) else UCQ((u1,))
    right = u2 if isinstance(u2, UCQ) else UCQ((u2,))
    if left.arity != right.arity:
        raise ValueError(
            f"containment between arities {left.arity} and {right.arity} is ill-typed"
        )
    for disjunct in left:
        instance, head = disjunct.canonical_instance()
        if not satisfies_ucq(right, instance, head):
            return ContainmentResult(
                Verdict.REFUTED, "ucq-homomorphism", Counterexample(instance, head)
            )
    return ContainmentResult(Verdict.HOLDS, "ucq-homomorphism")
