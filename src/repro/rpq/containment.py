"""Containment for RPQs and 2RPQs (Lemmas 1-2, Theorem 5).

RPQs: Lemma 1 reduces query containment to language containment, solved
by the paper's five-step automata pipeline (PSPACE).

2RPQs: Lemma 1 *fails* (the paper's ``p ⊑ p p- p`` example); Lemma 2
repairs it via folding: ``Q1 ⊑ Q2 iff L(Q1) ⊆ fold(L(Q2))``.  The
pipeline is then Theorem 5's: build the fold 2NFA (Lemma 3), complement
it (Lemma 4 or the Shepherdson baseline), intersect with Q1's NFA on the
fly, and search for an accepted word.

Every refutation is converted into a concrete counterexample *database*:
the canonical semipath database of the witness word ``u``, on which
``Q1`` answers the endpoints but ``Q2`` does not — semipaths in a path
database spell exactly the words that fold onto ``u``, which is the
content of Lemma 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from ..automata.alphabet import Alphabet, base_symbol
from ..automata.complement import LazyComplement, complement_two_nfa
from ..automata.dfa import containment_counterexample
from ..automata.fold import fold_two_nfa
from ..automata.nfa import NFA, Word
from ..automata.onthefly import SearchStats, find_accepted_word
from ..automata.shepherdson import LazyShepherdsonComplement
from ..budget import Budget, BudgetExhausted, bounded_result, deadline_scope
from ..obs.trace import maybe_span
from ..report import ContainmentResult, Counterexample, EquivalenceResult, Verdict
from ..graphdb.database import canonical_database_of_word
from .rpq import RPQ, TwoRPQ

TwoRPQMethod = Literal["shepherdson", "lemma4-onthefly", "lemma4-materialized"]


def _combined_alphabet(q1: TwoRPQ, q2: TwoRPQ) -> Alphabet:
    return Alphabet(tuple(sorted(q1.base_symbols() | q2.base_symbols())))


def word_counterexample(word: Word) -> Counterexample:
    """The canonical semipath database refuting containment via *word*."""
    db, source, target = canonical_database_of_word(word)
    return Counterexample(db, (source, target))


def rpq_contained(
    q1: RPQ,
    q2: RPQ,
    budget: Budget | None = None,
    tracer=None,
    kernel: str = "auto",
) -> ContainmentResult:
    """Lemma 1 pipeline: exact, via language containment over Sigma.

    The witness word (if any) is materialized as a path database on
    which ``(0, n) in Q1(D) - Q2(D)``.  An optional *budget* bounds the
    product search; exhaustion yields a structured bounded verdict
    rather than an exception.  An optional *tracer* records one span per
    automata-pipeline stage.  *kernel* selects the language-inclusion
    search (``"subset" | "antichain" | "auto"``); the choice and its
    frontier statistics are reported in ``details["kernel"]`` on every
    return path.
    """
    for query in (q1, q2):
        if not query.is_one_way():
            raise ValueError("rpq_contained expects one-way queries; use two_rpq_contained")
    alphabet = _combined_alphabet(q1, q2).symbols
    meter = None if budget is None or budget.is_null else budget.start()
    kstats: dict = {"requested": kernel}
    try:
        witness = containment_counterexample(
            q1.nfa, q2.nfa, alphabet, meter=meter, tracer=tracer,
            kernel=kernel, kernel_stats=kstats,
        )
    except BudgetExhausted as exc:
        return bounded_result("rpq-language", exc, meter, details={"kernel": kstats})
    if witness is None:
        return ContainmentResult(
            Verdict.HOLDS, "rpq-language", details={"kernel": kstats}
        )
    return ContainmentResult(
        Verdict.REFUTED,
        "rpq-language",
        word_counterexample(witness),
        details={"kernel": kstats},
    )


def two_rpq_contained(
    q1: TwoRPQ,
    q2: TwoRPQ,
    method: TwoRPQMethod = "shepherdson",
    stats: SearchStats | None = None,
    budget: Budget | None = None,
    tracer=None,
    kernel: str = "auto",
) -> ContainmentResult:
    """Theorem 5 pipeline: exact 2RPQ containment via folding.

    Args:
        q1, q2: the queries (one-way queries are fine too).
        method: which complementation to use for ``fold(L(Q2))``:

            - ``"shepherdson"`` (default): deterministic table
              construction; complement is free, product exploration is
              one successor per step.  The production path.
            - ``"lemma4-onthefly"``: the paper-faithful Lemma 4
              complement explored lazily inside the product search.
            - ``"lemma4-materialized"``: Lemma 4 complement fully built,
              then an explicit product; only viable for tiny queries,
              used by benchmark E4/E5 as the measured upper bound.
        stats: optional search instrumentation.
        budget: optional :class:`repro.budget.Budget`: ``max_configs``
            bounds product configurations, ``max_states`` the
            materialized complement.  Exhaustion of any resource returns
            a structured bounded/inconclusive verdict — this procedure
            never raises on budget exhaustion.
        tracer: optional :class:`repro.obs.trace.Tracer`; records a
            ``fold`` span plus the method-specific search/complement
            stage spans.
        kernel: the product-search kernel (``"subset" | "antichain" |
            "auto"``) for the on-the-fly methods; the materialized
            method ignores it (recorded honestly in
            ``details["kernel"]``).
    """
    from ..automata.antichain import resolve_kernel

    resolve_kernel(kernel)  # reject typos before any automata work
    meter = None if budget is None or budget.is_null else budget.start()
    method_name = f"2rpq-fold-{method}"
    sigma_pm = _combined_alphabet(q1, q2).two_way
    kstats: dict = {"requested": kernel}
    try:
        with deadline_scope(budget):
            with maybe_span(tracer, "fold", nfa_states=q2.nfa.num_states) as span:
                folded = fold_two_nfa(q2.nfa, sigma_pm)
                span.annotate(two_nfa_states=folded.num_states)
            left = q1.nfa
            if method == "shepherdson":
                witness = find_accepted_word(
                    [left, LazyShepherdsonComplement(folded)],
                    sigma_pm,
                    stats=stats,
                    meter=meter,
                    tracer=tracer,
                    kernel=kernel,
                    kernel_stats=kstats,
                )
            elif method == "lemma4-onthefly":
                witness = find_accepted_word(
                    [left, LazyComplement(folded)],
                    sigma_pm,
                    stats=stats,
                    meter=meter,
                    tracer=tracer,
                    kernel=kernel,
                    kernel_stats=kstats,
                )
            elif method == "lemma4-materialized":
                kstats.update(selected="subset", pipeline="materialized")
                complement = complement_two_nfa(folded, meter=meter, tracer=tracer)
                if meter is not None:
                    meter.check_deadline()
                with maybe_span(tracer, "product") as span:
                    product = left.product(complement)
                    span.count("configs", product.num_states)
                if meter is not None:
                    meter.charge("configs", product.num_states)
                with maybe_span(tracer, "emptiness-search"):
                    witness = product.shortest_word()
            else:
                raise ValueError(f"unknown method {method!r}")
    except BudgetExhausted as exc:
        return bounded_result(method_name, exc, meter, details={"kernel": kstats})
    if witness is None:
        return ContainmentResult(
            Verdict.HOLDS, method_name, details={"kernel": kstats}
        )
    return ContainmentResult(
        Verdict.REFUTED,
        method_name,
        word_counterexample(witness),
        details={"kernel": kstats},
    )


def two_rpq_equivalent(
    q1: TwoRPQ,
    q2: TwoRPQ,
    method: TwoRPQMethod = "shepherdson",
    exact: bool = False,
    budget: Budget | None = None,
) -> EquivalenceResult:
    """Equivalence of 2RPQs, both directions via :func:`two_rpq_contained`.

    Returns an :class:`repro.report.EquivalenceResult` (truthy like the
    bool this used to return).  With ``exact=True``, a direction that
    was only established up to a bound does not count as holding; the
    result's ``bounded_directions`` names any such direction.
    """
    return EquivalenceResult(
        two_rpq_contained(q1, q2, method, budget=budget),
        two_rpq_contained(q2, q1, method, budget=budget),
        exact=exact,
    )


@dataclass(frozen=True)
class DivergenceExample:
    """A pair witnessing that Lemma 1 fails for 2RPQs (Section 3.2).

    ``query_containment_holds`` with ``language_containment_fails`` is
    the paper's point: the theories of regular expressions over words
    and over graphs diverge once inverses appear.
    """

    q1: TwoRPQ
    q2: TwoRPQ
    query_containment_holds: bool
    language_containment_holds: bool


def paper_divergence_example() -> DivergenceExample:
    """The paper's own example: Q1 = p, Q2 = p p- p."""
    q1 = TwoRPQ.parse("p")
    q2 = TwoRPQ.parse("p p- p")
    query = two_rpq_contained(q1, q2).holds
    sigma_pm = _combined_alphabet(q1, q2).two_way
    language = containment_counterexample(q1.nfa, q2.nfa, sigma_pm) is None
    return DivergenceExample(q1, q2, query, language)
