"""Homomorphisms between conjunctive queries and into instances.

The Chandra-Merlin theorem (the paper's [18]): ``Q1 ⊆ Q2`` for CQs iff
there is a homomorphism from ``Q2`` to ``Q1`` that is the identity on
distinguished variables — equivalently, iff the head of ``Q1`` is in
``Q2`` evaluated over ``Q1``'s canonical database.  We implement the
search by exactly that reduction, reusing the evaluation engine, and
also expose the mapping itself.
"""

from __future__ import annotations

from ..relational.instance import Instance
from .evaluation import _first_binding, satisfies
from .syntax import CQ, Term, Var


def homomorphism_to_instance(
    cq: CQ, instance: Instance, head_image: tuple[Term, ...]
) -> dict[Var, Term] | None:
    """A homomorphism from *cq*'s body into *instance* hitting *head_image*.

    Returns a full variable mapping, or None.  The join runs with the
    head variables bound to *head_image* up front, so it meets the same
    first mapping as enumerating every binding and keeping those that hit
    the head; ``satisfies`` is its boolean form.
    """
    return _first_binding(cq, instance, head_image)


def cq_homomorphism(source: CQ, target: CQ) -> dict[Var, Term] | None:
    """A homomorphism from *source* onto *target*'s canonical database.

    The mapping sends source variables to frozen constants of the
    target; it witnesses ``target ⊆ source`` (note the contravariance:
    homomorphisms go opposite to containment).
    """
    instance, head = target.canonical_instance()
    return homomorphism_to_instance(source, instance, head)


def has_homomorphism(source: CQ, target: CQ) -> bool:
    """Boolean version of :func:`cq_homomorphism` (early exit)."""
    instance, head = target.canonical_instance()
    return satisfies(source, instance, head)
