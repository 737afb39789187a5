"""The unified containment engine — the package's front door.

:func:`check_containment` accepts any two query objects from the paper's
towers, promotes them to their least common class, and dispatches to the
strongest decision procedure available for that class:

====================  =========================================  ========
common class          procedure                                  verdicts
====================  =========================================  ========
RPQ                   Lemma 1 language containment               exact
2RPQ                  Theorem 5 fold pipeline                    exact
UC2RPQ                Theorem 6 expansion check                  exact when atom languages are finite, else bounded
RQ                    Theorem 7 expansion check                  exact when the left side is TC-free, else bounded
CQ / UCQ              Chandra-Merlin / Sagiv-Yannakakis          exact
UCQ vs Datalog        canonical-database evaluation              exact
GRQ                   Theorem 8 expansion check                  exact for nonrecursive left, else bounded
Datalog               expansion semi-decision                    refutation-sound (containment undecidable [52])
====================  =========================================  ========

Graph queries may also be checked against Datalog programs whose EDB is
binary: the graph query is translated through the Section 4.1 embedding.

Resource governance (DESIGN.md "Resource governance"): every dispatch
accepts an optional ``budget`` — a :class:`repro.budget.Budget` or the
string ``"auto"`` — threaded down to the kernels.  Exhaustion never
raises out of the engine: counter exhaustion degrades to
``HOLDS_UP_TO_BOUND``, deadline exhaustion to ``INCONCLUSIVE``, both
with spend accounting in ``details["budget"]``.  ``budget="auto"`` (or
any Budget with ``escalate=True``) runs staged escalation: geometrically
larger bounds until the verdict is exact or the deadline is spent.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any

from ..automata.antichain import resolve_kernel
from ..budget import Budget, deadline_scope
from ..cache import caching_enabled, containment_cache, query_cache_key
from ..obs.metrics import counter as _metric_counter, histogram as _metric_histogram
from ..obs.trace import Tracer, maybe_span
from ..cq.containment import ucq_contained
from ..cq.syntax import CQ, UCQ
from ..crpq.containment import uc2rpq_contained
from ..datalog.containment import datalog_in_datalog, datalog_in_ucq, ucq_in_datalog
from ..datalog.syntax import Program
from ..grq.containment import grq_contained
from ..grq.membership import is_grq
from ..rpq.rpq import RPQ, TwoRPQ
from ..rpq.containment import rpq_contained, two_rpq_contained
from ..rq.containment import rq_contained
from ..rq.syntax import RQ
from .classify import QueryClass, classify, least_common_class, promote
from ..report import ContainmentResult, Counterexample, EquivalenceResult, Verdict

#: Every option name any dispatch target understands.  Anything else is
#: a typo and raises TypeError at the engine boundary instead of being
#: silently discarded.  Options select an algorithm; limits travel only
#: in the ``budget``.
_OPTION_UNIVERSE = frozenset({"method", "stats", "kernel"})

#: Staged-escalation schedule: round k gets geometrically larger limits.
_ESCALATION_CONFIG_BASE = 4096
_ESCALATION_EXPANSION_BASE = 512
_ESCALATION_LENGTH_BASE = 4
_ESCALATION_APPLICATION_BASE = 8
_MAX_ESCALATION_ROUNDS = 32

#: Module-level metric handles (hoisted so the hot path pays one method
#: call per event, never a registry lookup).
_CHECKS = _metric_counter("engine.checks")
_CACHE_HITS = _metric_counter("engine.cache_hits")
_CHECK_MS = _metric_histogram("engine.check_ms")
_VERDICT_COUNTERS = {
    verdict: _metric_counter(f"engine.verdict.{verdict.value}") for verdict in Verdict
}


def check_containment(
    q1: Any,
    q2: Any,
    budget: Budget | str | None = None,
    trace: "bool | Tracer" = False,
    **options: Any,
) -> ContainmentResult:
    """Decide ``Q1 ⊆ Q2`` with the strongest applicable procedure.

    Args:
        q1, q2: query objects (TwoRPQ/RPQ, C2RPQ/UC2RPQ, RQ, CQ, UCQ, or
            Datalog ``Program``).  Cross-tower pairs are supported when
            an embedding exists (graph queries vs binary-EDB Datalog).
        budget: optional :class:`repro.budget.Budget` (or ``"auto"`` for
            :meth:`Budget.auto`), threaded through the dispatched
            procedure down to its kernels.  Budget exhaustion never
            raises: counters degrade to ``HOLDS_UP_TO_BOUND``, a spent
            deadline to ``INCONCLUSIVE``, both with spend accounting in
            ``details["budget"]``.  A budget with ``escalate=True`` runs
            staged escalation (see module docstring).
        trace: ``True`` to record a span tree of the pipeline stages the
            check ran, returned as ``details["trace"]`` (a JSON-ready
            dict; see DESIGN.md §8 for the span taxonomy).  An existing
            :class:`repro.obs.trace.Tracer` may be passed instead to
            accumulate several checks into one tree.  The default
            ``False`` costs one pointer test — tracing is strictly
            pay-for-what-you-use.
        **options: forwarded to the underlying procedure (``method=``
            and ``stats=`` for 2RPQs, ``kernel=`` everywhere).  Unknown
            names raise TypeError; names valid for *some* procedure but
            not the dispatched one are dropped and recorded in
            ``details["ignored_options"]``.

    Returns:
        A :class:`repro.report.ContainmentResult`; see its module
        for the exactness contract.  Its ``details`` always carry a
        ``"cache"`` key (outcome) and a ``"budget"`` key (spend
        accounting; ``{"spend": {}}`` for unmetered runs).

    Repeated calls with the same queries and options are served from
    the containment cache in :mod:`repro.cache`; the returned result's
    ``details["cache"]`` records ``"hit"``, ``"miss"``, or ``"bypass"``
    (unhashable queries or options — e.g. a mutable ``stats=`` object —
    opt out of caching rather than risking a stale or shared value).
    Caching is bound-aware: exact verdicts are stored under a key that
    ignores budgets and serve any later budget, while bounded verdicts
    are keyed by their budget, so a cached small-budget result never
    shadows a larger-budget recomputation.  Traces are never cached:
    ``details["trace"]`` always describes the current call.
    """
    unknown = sorted(set(options) - _OPTION_UNIVERSE)
    if unknown:
        raise TypeError(
            f"unknown option(s) {', '.join(map(repr, unknown))}; "
            f"valid options are {', '.join(sorted(_OPTION_UNIVERSE))}"
        )
    if "kernel" in options:
        # Reject bad kernel values at the boundary, before classification
        # or caching can swallow them (a typo must never silently fall
        # back to the default kernel).
        resolve_kernel(options["kernel"])
    budget = _normalize_budget(budget)
    _CHECKS.inc()  # locked: unsynchronized += loses events under batch workers
    if not trace:
        if budget is not None and budget.escalate:
            return _escalate(q1, q2, budget, options, None)
        return _check_with_cache(q1, q2, budget, options, None)
    tracer = trace if isinstance(trace, Tracer) else Tracer()
    with tracer.span("check-containment"):
        if budget is not None and budget.escalate:
            result = _escalate(q1, q2, budget, options, tracer)
        else:
            result = _check_with_cache(q1, q2, budget, options, tracer)
    return dataclasses.replace(
        result, details={**dict(result.details), "trace": tracer.to_dict()}
    )


def _normalize_budget(budget: Budget | str | None) -> Budget | None:
    if budget is None or isinstance(budget, Budget):
        return budget
    if budget == "auto":
        return Budget.auto()
    raise TypeError(f"budget must be a Budget, 'auto', or None, not {budget!r}")


def _check_with_cache(
    q1: Any, q2: Any, budget: Budget | None, options: dict, tracer
) -> ContainmentResult:
    exact_key, full_key = _cache_keys(q1, q2, budget, options)
    if exact_key is None:
        if tracer is not None:
            tracer.event("cache", outcome="bypass")
        return _annotate(_run_uncached(q1, q2, budget, options, tracer), "bypass")
    # Probe the exact key without counting: the two keys serve one
    # logical request, and only the authoritative lookup below should
    # move the hit/miss counters.
    cached = containment_cache.peek(exact_key)
    if cached is not None and cached.is_exact:
        _CACHE_HITS.inc()
        if tracer is not None:
            tracer.event("cache", outcome="hit")
        return _annotate(containment_cache.get(exact_key), "hit")
    cached = containment_cache.get(full_key)
    if cached is not None:
        _CACHE_HITS.inc()
        if tracer is not None:
            tracer.event("cache", outcome="hit")
        return _annotate(cached, "hit")
    if tracer is not None:
        tracer.event("cache", outcome="miss")
    result = _run_uncached(q1, q2, budget, options, tracer)
    if result.is_exact:
        containment_cache.put(exact_key, result)
    elif budget is None or budget.deadline_ms is None:
        # Deadline-bounded results depend on wall-clock conditions and
        # are not reproducible; bounded results under pure counter
        # budgets are, and are keyed by their budget so a small-budget
        # verdict can never shadow a larger-budget recomputation.
        containment_cache.put(full_key, result)
    return _annotate(result, "miss")


def _run_uncached(
    q1: Any, q2: Any, budget: Budget | None, options: dict, tracer
) -> ContainmentResult:
    """One fresh dispatch, with metrics and the budget-details guarantee.

    Every result leaving here carries ``details["budget"]`` (spend
    accounting, or the empty ``{"spend": {}}`` for unmetered runs) —
    normalized *before* the caller stores it in the cache, so hits
    inherit the key for free.
    """
    # time.monotonic throughout: the same clock BudgetMeter and the
    # escalation loop read, so details["budget"]["elapsed_ms"], the
    # remaining-deadline math, and the check_ms histogram can't drift.
    start = time.monotonic()
    with deadline_scope(budget):
        result = _check_containment_uncached(q1, q2, budget, options, tracer)
    if "budget" not in result.details:
        result = dataclasses.replace(
            result, details={**dict(result.details), "budget": {"spend": {}}}
        )
    if "kernel" not in result.details:
        # Procedures that run no language-inclusion search (expansion
        # towers, homomorphism checks) select no kernel; record that
        # honestly so every engine result carries the key — normalized
        # before caching, so hits inherit it for free.
        result = dataclasses.replace(
            result,
            details={
                **dict(result.details),
                "kernel": {
                    "requested": options.get("kernel", "auto"),
                    "selected": None,
                },
            },
        )
    _CHECK_MS.observe((time.monotonic() - start) * 1000.0)
    _VERDICT_COUNTERS[result.verdict].inc()
    return result


def _cache_keys(
    q1: Any, q2: Any, budget: Budget | None, options: dict
) -> tuple[Any | None, Any | None]:
    """(exact_key, full_key) for the containment cache, or (None, None).

    The exact key drops the budget — an exact verdict holds regardless
    of the bounds in force — and is tagged so it can never collide with
    a full key.
    """
    if not caching_enabled():
        return None, None
    left, right = query_cache_key(q1), query_cache_key(q2)
    if left is None or right is None:
        return None, None
    try:
        all_options = tuple(sorted(options.items()))
        hash(all_options)
    except TypeError:
        return None, None
    exact_key = (left, right, all_options, "exact")
    full_key = (left, right, all_options, budget)
    return exact_key, full_key


def _annotate(result: ContainmentResult, outcome: str) -> ContainmentResult:
    """A copy of *result* whose details record the cache outcome."""
    return dataclasses.replace(
        result, details={**dict(result.details), "cache": outcome}
    )


def _escalate(
    q1: Any, q2: Any, budget: Budget, options: dict, tracer
) -> ContainmentResult:
    """Staged escalation: geometrically larger bounds until exact or spent.

    Each round shares the overall wall-clock deadline (rounds get the
    *remaining* time), and user-pinned limits on the escalating budget
    stay fixed while unset ones follow the geometric schedule.
    """
    start = time.monotonic()
    rounds: list[dict] = []
    result: ContainmentResult | None = None
    for k in range(_MAX_ESCALATION_ROUNDS):
        remaining = None
        if budget.deadline_ms is not None:
            remaining = budget.deadline_ms - (time.monotonic() - start) * 1000.0
            if remaining <= 0:
                break
        round_budget = dataclasses.replace(
            budget.merged(
                max_configs=_ESCALATION_CONFIG_BASE * 4**k,
                max_expansions=_ESCALATION_EXPANSION_BASE * 4**k,
                max_total_length=_ESCALATION_LENGTH_BASE + 2 * k,
                max_applications=_ESCALATION_APPLICATION_BASE * 2**k,
            ),
            deadline_ms=remaining,
            escalate=False,
        )
        if tracer is not None:
            tracer.event("escalation-round", round=k)
        result = _check_with_cache(q1, q2, round_budget, options, tracer)
        rounds.append(
            {
                "round": k,
                "verdict": result.verdict.value,
                "limits": {
                    name: round_budget.limit(name)
                    for name in ("configs", "expansions", "total_length", "applications")
                },
            }
        )
        if result.is_exact:
            break
        if result.verdict is Verdict.INCONCLUSIVE:
            break  # deadline spent mid-round; the next round has no time
    if result is None:
        # The deadline was already spent before the first round could run.
        result = ContainmentResult(
            Verdict.INCONCLUSIVE,
            "escalation",
            details={
                "budget": {"exhausted": "deadline", "spend": {}},
                "cache": "bypass",
                "kernel": {
                    "requested": options.get("kernel", "auto"),
                    "selected": None,
                },
            },
        )
    escalation = {
        "rounds": rounds,
        "elapsed_ms": (time.monotonic() - start) * 1000.0,
    }
    return dataclasses.replace(
        result, details={**dict(result.details), "escalation": escalation}
    )


def _check_containment_uncached(
    q1: Any, q2: Any, budget: Budget | None, options: dict, tracer=None
) -> ContainmentResult:
    class1, class2 = classify(q1), classify(q2)
    common = least_common_class(class1, class2)
    if tracer is not None:
        tracer.annotate(
            q1_class=class1.name,
            q2_class=class2.name,
            common_class=common.name if common is not None else "cross-tower",
        )
    if common is None:
        # Cross-tower: route graph queries through the Datalog embedding.
        graph_side = class1 in (QueryClass.RPQ, QueryClass.TWO_RPQ, QueryClass.UC2RPQ, QueryClass.RQ)
        q1 = promote(promote(q1, QueryClass.RQ), QueryClass.DATALOG) if graph_side else q1
        q2 = q2 if graph_side else q2
        if not graph_side:
            q2 = promote(promote(q2, QueryClass.RQ), QueryClass.DATALOG)
        return check_containment(
            q1, q2, budget=budget, trace=tracer if tracer is not None else False,
            **options,
        )

    # Only the 2RPQ pipeline selects by method/stats; every procedure
    # accepts the universal kernel option (non-searching ones record
    # it via details["kernel"] normalization).
    allowed = ("kernel",)
    if common is QueryClass.TWO_RPQ:
        allowed = ("method", "stats", "kernel")
    picked, ignored = _pick(options, *allowed)
    result = _dispatch(q1, q2, common, budget, picked, tracer)
    if ignored:
        result = dataclasses.replace(
            result, details={**dict(result.details), "ignored_options": ignored}
        )
    return result


def _dispatch(
    q1: Any, q2: Any, common: QueryClass, budget: Budget | None, picked: dict, tracer
) -> ContainmentResult:
    """Run the procedure for *common* with the options it understands."""
    if common is QueryClass.RPQ:
        return rpq_contained(
            RPQ(q1.regex), RPQ(q2.regex), budget=budget, tracer=tracer, **picked
        )
    # Looked up per call: wrappers that patch these module attributes
    # (perfbench's span tracing) must see every dispatch.
    towers = {
        QueryClass.TWO_RPQ: two_rpq_contained,
        QueryClass.UC2RPQ: uc2rpq_contained,
        QueryClass.RQ: rq_contained,
    }
    if common in towers:
        return towers[common](
            promote(q1, common), promote(q2, common), budget=budget,
            tracer=tracer, **picked,
        )
    left_ucq, right_ucq = isinstance(q1, (CQ, UCQ)), isinstance(q2, (CQ, UCQ))
    if left_ucq and right_ucq:
        # Chandra-Merlin is exact and terminating: no budget to thread.
        with maybe_span(tracer, "ucq-homomorphism"):
            result = ucq_contained(q1, q2)
        if result.holds:
            return ContainmentResult(Verdict.HOLDS, "ucq-homomorphism")
        instance, head = result.counterexample  # type: ignore[misc]
        return ContainmentResult(
            Verdict.REFUTED, "ucq-homomorphism", Counterexample(instance, head)
        )
    # A program on at least one side (recursive, or a nonrecursive one
    # classified as a UCQ).  Against a (U)CQ, the canonical-database /
    # expansion procedures are stronger than promoting the (U)CQ to a
    # one-rule-per-disjunct program (ucq_in_datalog is exact).
    if left_ucq:
        return ucq_in_datalog(
            q1, promote(q2, QueryClass.DATALOG), tracer=tracer, **picked
        )
    left = promote(q1, QueryClass.DATALOG)
    if right_ucq:
        return datalog_in_ucq(left, q2, budget=budget, tracer=tracer, **picked)
    right = promote(q2, QueryClass.DATALOG)
    if common is QueryClass.GRQ or (
        common is QueryClass.DATALOG and is_grq(left) and is_grq(right)
    ):
        return grq_contained(left, right, budget=budget, tracer=tracer, **picked)
    return datalog_in_datalog(left, right, budget=budget, tracer=tracer, **picked)


def _pick(options: dict, *allowed: str) -> tuple[dict, tuple[str, ...]]:
    """Split options into those the chosen procedure understands and the rest.

    The engine's **options surface is a union across procedures; an
    option meant for the 2RPQ pipeline must not crash the expansion
    path it did not end up taking — but neither may it vanish silently,
    so the dropped names are returned for ``details["ignored_options"]``.
    """
    picked = {key: options[key] for key in allowed if key in options}
    ignored = tuple(sorted(key for key in options if key not in allowed))
    return picked, ignored


def check_equivalence(
    q1: Any,
    q2: Any,
    exact: bool = False,
    budget: Budget | str | None = None,
    **options: Any,
) -> EquivalenceResult:
    """Equivalence via both containment directions.

    Returns an :class:`repro.report.EquivalenceResult`, truthy
    exactly when the old bool was (both directions non-refuted) — except
    with ``exact=True``, where a direction established only up to a
    bound does not count as holding; ``bounded_directions`` names any
    such direction either way.
    """
    return EquivalenceResult(
        check_containment(q1, q2, budget=budget, **options),
        check_containment(q2, q1, budget=budget, **options),
        exact=exact,
    )
