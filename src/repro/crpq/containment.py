"""UC2RPQ containment (Theorem 6 class) via the expansion characterization.

``Q1 ⊑ Q2`` iff for every expansion E of every disjunct of Q1, the head
nodes of E are in ``Q2(E.database)`` — the right-hand check is a plain
(exact) UC2RPQ evaluation, so each individual expansion is decided
exactly; only the quantification over expansions needs a bound when some
atom language is infinite.

Contract (DESIGN.md §2): REFUTED verdicts carry a real counterexample
database; HOLDS is only reported when the expansion space was exhausted
(all atom languages finite, explored to their maximal total length);
otherwise HOLDS_UP_TO_BOUND reports the *per-disjunct bounds actually
used* — a disjunct with a finite expansion space has its length bound
raised to the exhaustion bound, and the reported bound reflects that,
not the requested ``max_total_length``.  The exact procedure for this
class is EXPSPACE-complete (Theorem 6), so the bound is the calibrated
substitute for an algorithm that cannot run at scale on any hardware.

Budgets: an optional :class:`repro.budget.Budget` sets the length bound
and the per-disjunct expansion cap (unset fields take this module's
defaults) and adds a wall-clock deadline; exhaustion is caught here and
reported as a bounded/inconclusive verdict with spend accounting —
never an exception.
"""

from __future__ import annotations

from ..budget import UNLIMITED, Budget, BudgetExhausted, bounded_result
from ..obs.trace import maybe_span
from ..report import ContainmentResult, Counterexample, Verdict
from .evaluation import satisfies_uc2rpq
from .expansion import (
    enumerate_expansions,
    exhaustive_length_bound,
    expansion_space_is_finite,
)
from .syntax import C2RPQ, UC2RPQ

DEFAULT_LENGTH_BOUND = 6
DEFAULT_EXPANSION_BUDGET = 5000


def _as_union(query: UC2RPQ | C2RPQ) -> UC2RPQ:
    return query if isinstance(query, UC2RPQ) else UC2RPQ((query,))


def uc2rpq_contained(
    q1: UC2RPQ | C2RPQ,
    q2: UC2RPQ | C2RPQ,
    budget: Budget | None = None,
    tracer=None,
) -> ContainmentResult:
    """Expansion-based containment check for UC2RPQs.

    Args:
        q1, q2: the queries (C2RPQs are auto-wrapped).
        budget: optional :class:`repro.budget.Budget`.
            ``max_total_length`` bounds the total word length per
            expansion of a Q1 disjunct (raised automatically to the
            exhaustion bound when the disjunct's expansion space is
            finite; default :data:`DEFAULT_LENGTH_BOUND`);
            ``max_expansions`` caps the expansions examined per disjunct
            (default :data:`DEFAULT_EXPANSION_BUDGET`); the deadline is
            checked cooperatively.  Exhaustion yields a structured
            bounded or inconclusive verdict, never an exception.
        tracer: optional :class:`repro.obs.trace.Tracer`; records one
            ``disjunct-expansions`` span per Q1 disjunct, tagged with
            the finiteness verdict and effective length bound and
            counting the expansions examined.
    """
    left, right = _as_union(q1), _as_union(q2)
    if left.arity != right.arity:
        raise ValueError(
            f"containment between arities {left.arity} and {right.arity} is ill-typed"
        )
    bounds = (budget or UNLIMITED).merged(
        max_total_length=DEFAULT_LENGTH_BOUND,
        max_expansions=DEFAULT_EXPANSION_BUDGET,
    )
    length_bound = bounds.max_total_length
    per_disjunct_cap = bounds.max_expansions
    # The per-disjunct cap is enforced by the enumerator; the meter
    # enforces only the deadline, and accounts expansions for the spend
    # report.
    meter = None
    if budget is not None and not budget.is_null:
        meter = Budget(deadline_ms=budget.deadline_ms).start()
    exact = True
    checked = 0
    truncated_by_budget = False
    bounds_used: list[int] = []
    try:
        for index, disjunct in enumerate(left):
            bound = length_bound
            finite = expansion_space_is_finite(disjunct)
            if finite:
                exhaust = exhaustive_length_bound(disjunct)
                assert exhaust is not None
                bound = max(bound, exhaust)
            else:
                exact = False
            bounds_used.append(bound)
            count_before = checked
            with maybe_span(
                tracer,
                "disjunct-expansions",
                index=index,
                finite=finite,
                bound=bound,
            ) as span:
                try:
                    for expansion in enumerate_expansions(
                        disjunct, bound, per_disjunct_cap, meter=meter
                    ):
                        checked += 1
                        if meter is not None:
                            meter.note("expansions")
                        if not satisfies_uc2rpq(
                            right,
                            expansion.database,
                            expansion.head,
                            tracer=tracer,
                            meter=meter,
                        ):
                            return ContainmentResult(
                                Verdict.REFUTED,
                                "uc2rpq-expansion",
                                Counterexample(expansion.database, expansion.head),
                                details={
                                    "expansions_checked": checked,
                                    "witness_words": expansion.words,
                                },
                            )
                finally:
                    span.count("expansions", checked - count_before)
            if (
                per_disjunct_cap is not None
                and checked - count_before >= per_disjunct_cap
            ):
                # The expansion budget, not the length bound, stopped this
                # disjunct: the run is not exhaustive even when finite.
                truncated_by_budget = True
                exact = False
    except BudgetExhausted as exc:
        return bounded_result(
            "uc2rpq-expansion",
            exc,
            meter,
            details={
                "expansions_checked": checked,
                "disjunct_bounds": tuple(bounds_used),
            },
        )
    details = {
        "expansions_checked": checked,
        "disjunct_bounds": tuple(bounds_used),
    }
    if meter is not None:
        details["budget"] = {"spend": meter.spend()}
    if exact:
        return ContainmentResult(Verdict.HOLDS, "uc2rpq-expansion", details=details)
    details["truncated_by_budget"] = truncated_by_budget
    # Report the smallest bound actually applied across disjuncts: that
    # is the largest B for which "no counterexample of total length <= B"
    # is sound for the whole union.  A finite disjunct's bound may have
    # been raised to its exhaustion bound, so this can exceed the
    # requested max_total_length (the old code misreported the request);
    # the per-disjunct bounds are in details["disjunct_bounds"].
    return ContainmentResult(
        Verdict.HOLDS_UP_TO_BOUND,
        "uc2rpq-expansion",
        bound=min(bounds_used) if bounds_used else length_bound,
        details=details,
    )
