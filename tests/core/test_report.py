"""Tests for the shared result types."""

import pytest

from repro.graphdb.database import GraphDatabase
from repro.report import ContainmentResult, Counterexample, Verdict


class TestVerdict:
    def test_truthiness(self):
        assert Verdict.HOLDS
        assert Verdict.HOLDS_UP_TO_BOUND
        assert not Verdict.REFUTED


class TestContainmentResult:
    def test_refuted_requires_counterexample(self):
        with pytest.raises(ValueError):
            ContainmentResult(Verdict.REFUTED, "x")

    def test_holds_forbids_counterexample(self):
        cex = Counterexample(GraphDatabase(), (0, 1))
        with pytest.raises(ValueError):
            ContainmentResult(Verdict.HOLDS, "x", cex)

    def test_bounded_requires_bound(self):
        with pytest.raises(ValueError):
            ContainmentResult(Verdict.HOLDS_UP_TO_BOUND, "x")

    def test_holds_property(self):
        assert ContainmentResult(Verdict.HOLDS, "m").holds
        assert ContainmentResult(Verdict.HOLDS_UP_TO_BOUND, "m", bound=5).holds
        cex = Counterexample(GraphDatabase(), (0,))
        assert not ContainmentResult(Verdict.REFUTED, "m", cex).holds

    def test_to_dict(self):
        result = ContainmentResult(
            Verdict.HOLDS_UP_TO_BOUND, "m", bound=7, details={"n": 3}
        )
        data = result.to_dict()
        assert data == {
            "verdict": "holds_up_to_bound",
            "method": "m",
            "bound": 7,
            "has_counterexample": False,
            "details": {"n": 3},
        }

    def test_describe(self):
        assert "HOLDS" in ContainmentResult(Verdict.HOLDS, "m").describe()
        assert "bound 7" in ContainmentResult(
            Verdict.HOLDS_UP_TO_BOUND, "m", bound=7
        ).describe()
        cex = Counterexample(GraphDatabase(), (0,))
        assert "REFUTED" in ContainmentResult(Verdict.REFUTED, "m", cex).describe()
