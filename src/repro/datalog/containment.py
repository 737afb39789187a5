"""Containment involving Datalog programs (Sections 2.3 and 4).

Exactly decidable directions implemented exactly:

- ``UCQ ⊆ Datalog`` (:func:`ucq_in_datalog`): evaluate the program over
  the canonical database of each disjunct — decidable because Datalog
  evaluation terminates; the classical reduction from [20].
- ``nonrecursive Datalog ⊆/⊇ anything UCQ-like``: via
  :func:`repro.datalog.unfolding.unfold_nonrecursive`.

The undecidable/expensive directions use the expansion characterization
(a Datalog query equals the union of its expansions), giving a sound
refutation procedure that is exact whenever the expansion space is
exhausted and reports ``HOLDS_UP_TO_BOUND`` otherwise — the contract
DESIGN.md section 2 spells out.  Full Datalog containment is undecidable
(the paper's [52]), so *some* bound is intrinsic, not an implementation
shortcut.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from ..budget import UNLIMITED, Budget, BudgetExhausted, bounded_result
from ..cq.containment import ucq_contained
from ..cq.evaluation import satisfies_ucq
from ..cq.syntax import CQ, UCQ
from ..obs.trace import maybe_span
from ..report import ContainmentResult, Counterexample, Verdict
from ..relational.instance import Instance
from .analysis import is_nonrecursive
from .evaluation import evaluate
from .syntax import Program
from .unfolding import enumerate_expansions, unfold_nonrecursive

DEFAULT_EXPANSION_BUDGET = 2000

#: Decides one expansion exactly: its canonical instance and frozen head
#: in, a refuting counterexample (or None) out.
Refuter = Callable[[Instance, tuple], "Counterexample | None"]


def expansion_containment(
    program: Program,
    method: str,
    refute: Refuter,
    budget: Budget | None,
    *,
    default_applications: int | None,
    default_expansions: int,
    tracer=None,
) -> ContainmentResult:
    """The expansion loop shared by the RQ, GRQ and Datalog towers.

    Each expansion of *program*, breadth-first, goes to *refute*; the
    first counterexample is an exact REFUTED.  A nonrecursive *program*
    is enumerated exhaustively (HOLDS); otherwise the positive verdict is
    HOLDS_UP_TO_BOUND at the expansion cap.  The tower's defaults fill
    only the ``max_applications`` / ``max_expansions`` fields *budget*
    leaves unset, and the enumerator enforces both caps; the meter,
    built from the caller's budget alone, enforces its deadline.
    """
    bounds = (budget or UNLIMITED).merged(
        max_applications=default_applications, max_expansions=default_expansions
    )
    meter = None
    if budget is not None and not budget.is_null:
        meter = Budget(deadline_ms=budget.deadline_ms).start()
    exhaustive = is_nonrecursive(program)
    iterator = enumerate_expansions(
        program,
        max_applications=None if exhaustive else bounds.max_applications,
        max_expansions=None if exhaustive else bounds.max_expansions,
        meter=meter,
    )
    checked = 0
    try:
        with maybe_span(tracer, "expansion-loop", exhaustive=exhaustive) as span:
            try:
                for expansion in iterator:
                    checked += 1
                    if meter is not None:
                        meter.note("expansions")
                    counterexample = refute(*expansion.canonical_instance())
                    if counterexample is not None:
                        return ContainmentResult(
                            Verdict.REFUTED,
                            method,
                            counterexample,
                            details={"expansions_checked": checked},
                        )
            finally:
                span.count("expansions", checked)
    except BudgetExhausted as exc:
        return bounded_result(
            method, exc, meter, details={"expansions_checked": checked}
        )
    if exhaustive:
        return ContainmentResult(
            Verdict.HOLDS, method, details={"expansions_checked": checked}
        )
    details = {
        "expansions_checked": checked,
        "max_applications": bounds.max_applications,
    }
    if meter is not None:
        details["budget"] = {"spend": meter.spend()}
    return ContainmentResult(
        Verdict.HOLDS_UP_TO_BOUND,
        method,
        bound=bounds.max_expansions,
        details=details,
    )


def cq_in_datalog(cq: CQ, program: Program) -> ContainmentResult:
    """Exact: ``cq ⊆ program`` iff the program derives the frozen head
    over the canonical database of *cq* (one terminating evaluation)."""
    if cq.arity != program.goal_arity:
        raise ValueError("arity mismatch between CQ and program goal")
    instance, head = cq.canonical_instance()
    answers = evaluate(program, instance)
    if head in answers:
        return ContainmentResult(Verdict.HOLDS, "canonical-db-evaluation")
    return ContainmentResult(
        Verdict.REFUTED,
        "canonical-db-evaluation",
        Counterexample(instance, head),
    )


def ucq_in_datalog(ucq: UCQ | CQ, program: Program, tracer=None) -> ContainmentResult:
    """Exact: every disjunct must map into the program's answers."""
    union = ucq if isinstance(ucq, UCQ) else UCQ((ucq,))
    with maybe_span(tracer, "canonical-db-evaluation") as span:
        checked = 0
        try:
            for disjunct in union:
                checked += 1
                result = cq_in_datalog(disjunct, program)
                if result.verdict is Verdict.REFUTED:
                    return result
        finally:
            span.count("disjuncts", checked)
    return ContainmentResult(Verdict.HOLDS, "canonical-db-evaluation")


def datalog_in_ucq(
    program: Program,
    ucq: UCQ | CQ,
    budget: Budget | None = None,
    tracer=None,
) -> ContainmentResult:
    """``program ⊆ ucq`` via expansion enumeration.

    Exact (HOLDS/REFUTED) for nonrecursive programs; for recursive
    programs a REFUTED verdict is exact and a positive verdict is
    ``HOLDS_UP_TO_BOUND`` over the explored expansions.  An optional
    *budget*'s ``max_applications`` / ``max_expansions`` fields bound
    the enumeration (unset: unbounded applications,
    :data:`DEFAULT_EXPANSION_BUDGET` expansions); its deadline is polled
    cooperatively and produces a structured verdict, never an exception.
    An optional *tracer* records an ``unfold-to-ucq`` span (nonrecursive
    path) or an ``expansion-loop`` span counting expansions.
    """
    union = ucq if isinstance(ucq, UCQ) else UCQ((ucq,))
    if is_nonrecursive(program):
        with maybe_span(tracer, "unfold-to-ucq") as span:
            unfolded = unfold_nonrecursive(program)
            span.count("disjuncts", len(tuple(unfolded)))
            result = ucq_contained(unfolded, union)
        return dataclasses.replace(result, method="unfold-to-ucq")

    def refute(instance: Instance, head: tuple) -> Counterexample | None:
        held = satisfies_ucq(union, instance, head)
        return None if held else Counterexample(instance, head)

    return expansion_containment(
        program,
        "expansion",
        refute,
        budget,
        default_applications=None,
        default_expansions=DEFAULT_EXPANSION_BUDGET,
        tracer=tracer,
    )


def evaluation_refuter(right: Program) -> Refuter:
    """Refute an expansion when *right* does not derive its frozen head."""

    def refute(instance: Instance, head: tuple) -> Counterexample | None:
        held = head in evaluate(right, instance)
        return None if held else Counterexample(instance, head)

    return refute


def datalog_in_datalog(
    left: Program,
    right: Program,
    budget: Budget | None = None,
    tracer=None,
) -> ContainmentResult:
    """``left ⊆ right`` for two Datalog programs.

    For each expansion of *left*, check (exactly) whether its canonical
    database makes *right* derive the head — the [20]-style combination
    of expansions with terminating evaluation.  Undecidable in general
    [52], hence the bounded verdict; REFUTED is always exact, and a
    nonrecursive *left* exhausts its finite expansion space, upgrading
    the positive verdict to HOLDS.  An optional *budget* bounds the
    enumeration (defaults as in :func:`datalog_in_ucq`) and adds
    cooperative deadline polling (structured verdict on exhaustion,
    never an exception).
    """
    if left.goal_arity != right.goal_arity:
        raise ValueError("arity mismatch between program goals")
    return expansion_containment(
        left,
        "expansion-vs-evaluation",
        evaluation_refuter(right),
        budget,
        default_applications=None,
        default_expansions=DEFAULT_EXPANSION_BUDGET,
        tracer=tracer,
    )
