"""GRQ containment (Theorem 8 class).

GRQ is the sweet spot the paper's whole narrative aims at: a fragment of
Datalog expressive enough for connectivity (unlike Monadic Datalog) with
a decidable — indeed elementary, 2EXPSPACE-complete — containment
problem (unlike full Datalog).

The procedure mirrors :mod:`repro.rq.containment`: the left program's
expansions (which unroll each TC component into explicit chains) are
each decided exactly by evaluating the right program over the
expansion's canonical database.  Both sides are first *verified* to be
GRQ — the decidability claim is specific to the fragment, and the
checker refuses programs outside it rather than silently running the
(sound-but-possibly-non-terminating) general Datalog procedure.
"""

from __future__ import annotations

from ..automata.antichain import resolve_kernel
from ..budget import Budget
from ..obs.trace import maybe_span
from ..report import ContainmentResult, EquivalenceResult
from ..datalog.containment import evaluation_refuter, expansion_containment
from ..datalog.syntax import Program
from .membership import check_grq

DEFAULT_EXPANSION_BUDGET = 3000
DEFAULT_APPLICATION_BOUND = 20


class NotGRQError(ValueError):
    """Raised when a program offered to the GRQ checker is not in GRQ."""

    def __init__(self, which: str, violations: tuple[str, ...]) -> None:
        detail = "; ".join(violations)
        super().__init__(f"{which} program is not in GRQ: {detail}")
        self.violations = violations


def grq_contained(
    left: Program,
    right: Program,
    budget: Budget | None = None,
    tracer=None,
    kernel: str = "auto",
) -> ContainmentResult:
    """Containment between two GRQ programs.

    Raises :class:`NotGRQError` if either side fails the membership
    check of :mod:`repro.grq.membership`.  An optional *budget*'s
    ``max_applications`` / ``max_expansions`` fields bound the
    enumeration (defaults :data:`DEFAULT_APPLICATION_BOUND` /
    :data:`DEFAULT_EXPANSION_BUDGET`); its deadline interrupts the
    enumeration cooperatively and is reported as a structured verdict,
    never an exception.  An optional *tracer* records a
    ``grq-membership`` span for the fragment check and an
    ``expansion-loop`` span counting expansions.  *kernel* is accepted
    for engine-wide option uniformity and validated eagerly; the
    expansion procedure runs no language-inclusion search (the engine
    records ``selected: None``).
    """
    resolve_kernel(kernel)
    with maybe_span(tracer, "grq-membership"):
        for which, program in (("left", left), ("right", right)):
            report = check_grq(program)
            if not report.is_grq:
                raise NotGRQError(which, report.violations)
    if left.goal_arity != right.goal_arity:
        raise ValueError("arity mismatch between program goals")
    return expansion_containment(
        left,
        "grq-expansion",
        evaluation_refuter(right),
        budget,
        default_applications=DEFAULT_APPLICATION_BOUND,
        default_expansions=DEFAULT_EXPANSION_BUDGET,
        tracer=tracer,
    )


def grq_equivalent(
    left: Program, right: Program, exact: bool = False, budget: Budget | None = None
) -> EquivalenceResult:
    """Equivalence via both containment directions.

    Returns an :class:`repro.report.EquivalenceResult` (truthy like the
    bool this used to return); with ``exact=True`` bounded directions do
    not count and are surfaced via ``bounded_directions``.
    """
    return EquivalenceResult(
        grq_contained(left, right, budget=budget),
        grq_contained(right, left, budget=budget),
        exact=exact,
    )
