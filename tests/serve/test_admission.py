"""Unit tests for admission control and the shed-response contract."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.budget import Budget
from repro.report import Verdict
from repro.serve.admission import SHED_REASONS, AdmissionController, shed_result

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


class TestController:
    def test_admits_until_capacity_then_sheds_queue_full(self):
        controller = AdmissionController(capacity=3)
        assert [controller.try_admit() for _ in range(3)] == [None, None, None]
        assert controller.try_admit() == "queue_full"
        assert controller.pending == 3
        controller.release()
        assert controller.try_admit() is None
        assert controller.admitted_total == 4
        assert controller.shed_total == 1

    def test_draining_sheds_regardless_of_load(self):
        controller = AdmissionController(capacity=8)
        assert controller.try_admit(draining=True) == "draining"
        assert controller.pending == 0

    def test_release_without_admission_is_a_bug(self):
        controller = AdmissionController(capacity=1)
        with pytest.raises(RuntimeError):
            controller.release()

    def test_policy_validation(self):
        # The controller checks the one value it consumes.
        for capacity in (0, -3):
            with pytest.raises(ValueError, match="queue limit"):
                AdmissionController(capacity=capacity)


class TestShedResult:
    @SETTINGS
    @given(
        reason=st.sampled_from(SHED_REASONS),
        queue_depth=st.integers(min_value=0, max_value=1000),
        queue_limit=st.integers(min_value=1, max_value=1000),
        waited_ms=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    )
    def test_always_inconclusive_with_admission_spend(
        self, reason, queue_depth, queue_limit, waited_ms
    ):
        """The acceptance-criterion shape: every shed response carries
        details['admission'] with spend accounting, and degrades like a
        budget-exhausted check."""
        result = shed_result(
            reason,
            queue_depth=queue_depth,
            queue_limit=queue_limit,
            waited_ms=waited_ms,
        )
        assert result.verdict is Verdict.INCONCLUSIVE
        assert not result.holds
        admission = result.details["admission"]
        assert admission["shed"] == reason
        assert admission["queue_depth"] == queue_depth
        assert admission["queue_limit"] == queue_limit
        assert admission["spend"]["queued_ms"] == pytest.approx(
            waited_ms, abs=1e-3
        )
        budget = result.details["budget"]
        assert budget["exhausted"] == f"admission:{reason}"
        assert budget["spend"] == admission["spend"]
        # Uniform details contract with engine results.
        assert result.details["kernel"]["selected"] is None
        assert result.details["cache"] == "bypass"

    def test_unknown_reason_rejected(self):
        with pytest.raises(ValueError):
            shed_result("tired", queue_depth=0, queue_limit=1)


class TestBudgetTightening:
    """Deadline inheritance from wire requests into Budget objects."""

    def test_none_inherits_unchanged(self):
        budget = Budget(deadline_ms=500.0, max_configs=7)
        assert budget.tightened(None) is budget

    def test_request_can_only_tighten(self):
        budget = Budget(deadline_ms=500.0, max_configs=7)
        assert budget.tightened(200.0).deadline_ms == 200.0
        assert budget.tightened(900.0).deadline_ms == 500.0
        # Non-deadline fields (and escalation policy) are inherited.
        assert budget.tightened(200.0).max_configs == 7
        assert Budget.auto().tightened(100.0).escalate is True

    def test_unbounded_server_adopts_request_deadline(self):
        assert Budget().tightened(250.0).deadline_ms == 250.0

    def test_nonpositive_deadline_rejected(self):
        with pytest.raises(ValueError):
            Budget().tightened(0.0)
        with pytest.raises(ValueError):
            Budget().tightened(-10.0)

    @pytest.mark.parametrize("deadline_ms", [float("nan"), float("inf")])
    def test_nonfinite_deadline_rejected(self, deadline_ms):
        # NaN compares false with everything, so it would otherwise
        # "tighten" nothing and leave the request without a deadline.
        with pytest.raises(ValueError):
            Budget(deadline_ms=500.0).tightened(deadline_ms)
        with pytest.raises(ValueError):
            Budget().tightened(deadline_ms)
