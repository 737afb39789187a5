"""Tests for the unified resource governor (repro.budget) and its
integration through the engine: graceful degradation, option
validation, bound-aware caching, staged escalation, and deadline
compliance on a complement blow-up pair.
"""

from __future__ import annotations

import time

import pytest

from repro.budget import (
    UNLIMITED,
    Budget,
    BudgetExhausted,
    bounded_result,
)
from repro.cache import cache_stats, clear_caches
from repro.core.engine import check_containment, check_equivalence
from repro.cq.syntax import cq_from_strings
from repro.crpq.containment import uc2rpq_contained
from repro.crpq.syntax import paper_example_1
from repro.datalog.syntax import transitive_closure_program
from repro.report import EquivalenceResult, Verdict
from repro.rpq.containment import two_rpq_contained, two_rpq_equivalent
from repro.rpq.rpq import RPQ, TwoRPQ
from repro.rq.syntax import TransitiveClosure, edge


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches(reset_stats=True)
    yield
    clear_caches(reset_stats=True)


class TestBudgetSpec:
    def test_null_budget(self):
        assert UNLIMITED.is_null
        assert not Budget(max_configs=10).is_null
        assert not Budget(deadline_ms=5).is_null
        assert not Budget(escalate=True).is_null

    def test_budget_is_hashable_and_cacheable(self):
        assert hash(Budget(deadline_ms=10)) == hash(Budget(deadline_ms=10))
        assert Budget(max_configs=5) != Budget(max_configs=6)

    def test_merged_keeps_explicit_fields(self):
        merged = Budget(max_configs=7).merged(max_configs=100, max_expansions=3)
        assert merged.max_configs == 7
        assert merged.max_expansions == 3

    def test_merged_rejects_unknown_fields(self):
        with pytest.raises(TypeError):
            Budget().merged(max_widgets=1)

    def test_auto_budget_escalates_with_deadline(self):
        auto = Budget.auto()
        assert auto.escalate and auto.deadline_ms is not None

    def test_limit_lookup(self):
        budget = Budget(deadline_ms=12.5, max_expansions=3)
        assert budget.limit("deadline") == 12.5
        assert budget.limit("expansions") == 3
        assert budget.limit("configs") is None


class TestBudgetMeter:
    def test_charge_raises_past_limit_with_accounting(self):
        meter = Budget(max_configs=3).start()
        meter.charge("configs", 3)
        with pytest.raises(BudgetExhausted) as info:
            meter.charge("configs")
        assert info.value.resource == "configs"
        assert info.value.spent == 4 and info.value.limit == 3

    def test_note_never_raises(self):
        meter = Budget(max_expansions=1).start()
        meter.note("expansions", 100)
        assert meter.spend()["expansions"] == 100

    def test_deadline_check(self):
        meter = Budget(deadline_ms=0.0).start()
        time.sleep(0.002)
        with pytest.raises(BudgetExhausted) as info:
            meter.check_deadline()
        assert info.value.resource == "deadline"

    def test_spend_snapshot_has_elapsed(self):
        meter = Budget(max_configs=10).start()
        meter.charge("configs", 2)
        snapshot = meter.spend()
        assert snapshot["configs"] == 2 and "elapsed_ms" in snapshot


class TestBoundedResult:
    def test_counter_exhaustion_is_bounded_verdict(self):
        exc = BudgetExhausted(resource="configs", spent=11, limit=10)
        result = bounded_result("m", exc)
        assert result.verdict is Verdict.HOLDS_UP_TO_BOUND and result.bound == 10
        assert result.details["budget"]["exhausted"] == "configs"

    def test_deadline_exhaustion_is_inconclusive(self):
        exc = BudgetExhausted(resource="deadline", spent=50.0, limit=40.0)
        result = bounded_result("m", exc)
        assert result.verdict is Verdict.INCONCLUSIVE
        assert not result.holds  # falsy: wall clock bounds nothing structural
        assert not result.is_exact


class TestSearchBudgetNoLongerLeaks:
    """A configuration cap used to raise the kernel's own exception out of
    two_rpq_contained / check_containment; it must degrade instead."""

    @pytest.mark.parametrize("method", ["shepherdson", "lemma4-onthefly"])
    def test_tiny_max_configs_returns_bounded_verdict(self, method):
        result = two_rpq_contained(
            TwoRPQ.parse("p"),
            TwoRPQ.parse("p p- p"),
            method=method,
            budget=Budget(max_configs=1),
        )
        assert result.verdict is Verdict.HOLDS_UP_TO_BOUND
        assert result.details["budget"]["exhausted"] == "configs"
        assert result.details["budget"]["spend"]

    def test_materialized_state_budget_degrades_too(self):
        result = two_rpq_contained(
            TwoRPQ.parse("p"),
            TwoRPQ.parse("p p- p"),
            method="lemma4-materialized",
            budget=Budget(max_configs=1, max_states=1),
        )
        assert result.verdict is Verdict.HOLDS_UP_TO_BOUND
        assert result.details["budget"]["exhausted"] in ("states", "configs")

    def test_engine_route_never_raises(self):
        result = check_containment(
            TwoRPQ.parse("p"), TwoRPQ.parse("p p- p"), budget=Budget(max_configs=1)
        )
        assert result.verdict is Verdict.HOLDS_UP_TO_BOUND

    def test_direct_kernel_callers_keep_the_exception(self):
        from repro.automata.onthefly import find_accepted_word

        nfa = RPQ.parse("a a a").nfa
        with pytest.raises(BudgetExhausted) as info:
            find_accepted_word([nfa], ("a",), meter=Budget(max_configs=1).start())
        assert info.value.resource == "configs"
        assert info.value.limit == 1


class TestDeadlineNeverRaises:
    """A deadline budget must produce a structured verdict for every
    dispatch class, never an exception."""

    @pytest.fixture
    def tight(self):
        return Budget(deadline_ms=200.0)

    def test_rpq(self, tight):
        assert check_containment(RPQ.parse("a a"), RPQ.parse("a+"), budget=tight)

    def test_two_rpq(self, tight):
        result = check_containment(
            TwoRPQ.parse("p"), TwoRPQ.parse("p p- p"), budget=tight
        )
        assert result.verdict in (Verdict.HOLDS, Verdict.INCONCLUSIVE)

    def test_uc2rpq(self, tight):
        triangle, union = paper_example_1()
        result = check_containment(triangle, union, budget=tight)
        assert result.verdict is not Verdict.REFUTED

    def test_rq(self, tight):
        result = check_containment(
            edge("e", "x", "y"), TransitiveClosure(edge("e", "x", "y")), budget=tight
        )
        assert result.verdict in (Verdict.HOLDS, Verdict.INCONCLUSIVE)

    def test_cq(self, tight):
        small = cq_from_strings("x", ["e(x,y)", "e(y,z)"])
        big = cq_from_strings("x", ["e(x,y)"])
        assert check_containment(small, big, budget=tight).holds

    def test_datalog(self, tight):
        tc = transitive_closure_program("e", "tc")
        result = check_containment(tc, tc, budget=tight.merged(max_expansions=50))
        assert result.verdict in (
            Verdict.HOLDS_UP_TO_BOUND,
            Verdict.INCONCLUSIVE,
        )

    def test_grq(self, tight):
        left = transitive_closure_program("edge", "tc")
        right = transitive_closure_program("edge", "tc", left_linear=False)
        result = check_containment(
            left, right, budget=tight.merged(max_expansions=25)
        )
        assert result.verdict is not Verdict.REFUTED

    def test_cross_tower(self, tight):
        tc = transitive_closure_program("e", "tc")
        result = check_containment(TwoRPQ.parse("e e"), tc, budget=tight)
        assert result.verdict in (Verdict.HOLDS, Verdict.INCONCLUSIVE)


class TestOptionValidation:
    """Satellite 3: unknown options are a TypeError at the boundary;
    valid-but-ignored options are recorded, not silently dropped."""

    def test_unknown_option_raises(self):
        # A typo, and a limit: limits travel only in the budget.
        for option in ("max_expnasions", "max_expansions"):
            with pytest.raises(TypeError, match=option):
                check_containment(RPQ.parse("a"), RPQ.parse("a|b"), **{option: 5})

    def test_unknown_budget_type_raises(self):
        with pytest.raises(TypeError, match="budget"):
            check_containment(RPQ.parse("a"), RPQ.parse("a|b"), budget=42)

    def test_ignored_options_are_recorded(self):
        # method belongs to the 2RPQ procedure; a one-way RPQ pair
        # dispatches past it.
        result = check_containment(
            RPQ.parse("a"), RPQ.parse("a|b"), method="shepherdson"
        )
        assert result.details["ignored_options"] == ("method",)

    def test_applicable_options_are_not_recorded_as_ignored(self):
        result = check_containment(
            TwoRPQ.parse("p"), TwoRPQ.parse("p p- p"), method="shepherdson"
        )
        assert "ignored_options" not in result.details


class TestBoundAwareCache:
    def test_small_budget_then_large_budget_reaches_exact(self):
        q1, q2 = TwoRPQ.parse("p"), TwoRPQ.parse("p p- p")
        first = check_containment(q1, q2, budget=Budget(max_configs=1))
        assert first.verdict is Verdict.HOLDS_UP_TO_BOUND
        second = check_containment(q1, q2, budget=Budget(max_configs=10_000))
        assert second.verdict is Verdict.HOLDS
        assert second.details["cache"] == "miss"  # not shadowed by the bounded entry

    def test_exact_result_serves_any_budget(self):
        q1, q2 = TwoRPQ.parse("p"), TwoRPQ.parse("p p- p")
        exact = check_containment(q1, q2)
        assert exact.verdict is Verdict.HOLDS
        replay = check_containment(q1, q2, budget=Budget(max_configs=1))
        assert replay.verdict is Verdict.HOLDS
        assert replay.details["cache"] == "hit"

    def test_same_bounded_budget_is_still_cached(self):
        q1, q2 = TwoRPQ.parse("p"), TwoRPQ.parse("p p- p")
        check_containment(q1, q2, budget=Budget(max_configs=1))
        repeat = check_containment(q1, q2, budget=Budget(max_configs=1))
        assert repeat.verdict is Verdict.HOLDS_UP_TO_BOUND
        assert repeat.details["cache"] == "hit"

    def test_deadline_results_are_not_cached(self):
        q1, q2 = TwoRPQ.parse("p"), TwoRPQ.parse("p p- p")
        budget = Budget(deadline_ms=10_000.0)
        first = check_containment(q1, q2, budget=budget)
        assert first.verdict is Verdict.HOLDS
        # Exact verdicts are cached even from deadline runs (they are
        # budget-independent facts); only bounded ones are dropped.
        second = check_containment(q1, q2, budget=budget)
        assert second.details["cache"] == "hit"


class TestEscalation:
    def test_auto_reaches_exact_on_easy_pair(self):
        result = check_containment(
            TwoRPQ.parse("p"), TwoRPQ.parse("p p- p"), budget="auto"
        )
        assert result.verdict is Verdict.HOLDS
        assert result.details["escalation"]["rounds"]

    def test_escalation_bounds_grow_geometrically(self):
        tc = transitive_closure_program("e", "tc")
        result = check_containment(
            tc, tc, budget=Budget.auto(deadline_ms=500.0)
        )
        rounds = result.details["escalation"]["rounds"]
        limits = [r["limits"]["expansions"] for r in rounds]
        assert limits == sorted(limits)
        if len(limits) > 1:
            assert limits[1] > limits[0]

    def test_pinned_limit_stays_fixed_in_every_round(self):
        """A limit set on an escalating budget is not the schedule's to
        grow: the path `--auto-budget --max-expansions` now takes."""
        tc = transitive_closure_program("e", "tc")
        result = check_containment(
            tc, tc, budget=Budget.auto(deadline_ms=400.0, max_expansions=5)
        )
        assert result.verdict is Verdict.HOLDS_UP_TO_BOUND
        assert result.bound == 5
        rounds = result.details["escalation"]["rounds"]
        assert rounds
        assert all(r["limits"]["expansions"] == 5 for r in rounds)

    def test_escalation_respects_overall_deadline(self):
        q1 = TwoRPQ.parse("(a|b)* b")
        q2 = TwoRPQ.parse("(a|b)* a (a|b) (a|b) (a|b) (a|b) (a|b) (a|b) a a-")
        start = time.monotonic()
        result = check_containment(
            q1, q2, method="lemma4-materialized", budget=Budget.auto(deadline_ms=500.0)
        )
        elapsed_ms = (time.monotonic() - start) * 1000.0
        assert elapsed_ms <= 500.0 * 1.4  # generous slack for slow CI machines
        assert result.verdict in (Verdict.INCONCLUSIVE, Verdict.HOLDS_UP_TO_BOUND)


class TestEquivalenceStrictness:
    """Satellite 4: exact= distinguishes HOLDS from HOLDS_UP_TO_BOUND."""

    def test_exact_equivalence_of_rpqs(self):
        eq = check_equivalence(RPQ.parse("a a*"), RPQ.parse("a+"), exact=True)
        assert eq and eq.is_exact and eq.bounded_directions == ()

    def test_bounded_direction_fails_exact_but_not_lenient(self):
        tc = transitive_closure_program("e", "tc")
        lenient = check_equivalence(tc, tc, budget=Budget(max_expansions=10))
        strict = check_equivalence(tc, tc, budget=Budget(max_expansions=10), exact=True)
        assert isinstance(lenient, EquivalenceResult)
        assert lenient  # both directions non-refuted (legacy truthiness)
        assert not strict  # bounded directions do not count as exact
        assert set(strict.bounded_directions) == {"forward", "backward"}

    def test_two_rpq_equivalent_surfaces_directions(self):
        eq = two_rpq_equivalent(
            TwoRPQ.parse("p"),
            TwoRPQ.parse("p p- p"),
            exact=True,
            budget=Budget(max_configs=1),
        )
        assert not eq
        assert "forward" in eq.bounded_directions

    def test_refuted_direction_is_not_reported_as_bounded(self):
        eq = check_equivalence(RPQ.parse("a"), RPQ.parse("a+"))
        assert not eq and eq.bounded_directions == ()


class TestUC2RPQBoundReporting:
    """Satellite 2: the reported bound is the bound actually used."""

    def test_finite_disjunct_bound_raised_to_exhaustion(self):
        triangle, union = paper_example_1()
        result = uc2rpq_contained(triangle, union, budget=Budget(max_total_length=1))
        # All atom languages in the pattern are finite: the run is
        # exhaustive and exact despite the tiny requested bound.
        assert result.verdict is Verdict.HOLDS
        assert all(b >= 1 for b in result.details["disjunct_bounds"])

    def test_truncation_by_expansion_cap_is_reported(self):
        triangle, union = paper_example_1()
        result = uc2rpq_contained(
            union, union, budget=Budget(max_total_length=2, max_expansions=1)
        )
        if result.verdict is Verdict.HOLDS_UP_TO_BOUND:
            assert result.details["truncated_by_budget"] is True


class TestDeadlineSmoke:
    def test_pathological_pair_returns_within_deadline(self):
        """A Lemma 4 complement blow-up pair (the E4 family's failure
        mode) must come back within deadline + 10%."""
        q1 = TwoRPQ.parse("(a|b)* b")
        q2 = TwoRPQ.parse("(a|b)* a (a|b) (a|b) (a|b) (a|b) (a|b) (a|b) a a-")
        deadline_ms = 2000.0
        start = time.monotonic()
        result = check_containment(
            q1, q2, method="lemma4-materialized", budget=Budget(deadline_ms=deadline_ms)
        )
        elapsed_ms = (time.monotonic() - start) * 1000.0
        assert result.verdict is Verdict.INCONCLUSIVE
        assert result.details["budget"]["exhausted"] == "deadline"
        assert elapsed_ms <= deadline_ms * 1.1, elapsed_ms
