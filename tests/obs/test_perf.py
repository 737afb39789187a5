"""Tests for the performance observatory (repro.obs.perf)."""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import repro
from repro.cli import main
from repro.obs import perf
from repro.obs.env import environment_fingerprint
from repro.obs.perf import (
    CALIBRATION,
    SCHEMA,
    SUITES,
    CheckFailed,
    Experiment,
    Gate,
    check,
    compare_runs,
    experiments_for,
    render_comparison,
    run_suite,
    time_workload,
    validate_run,
    write_run,
)


@pytest.fixture(scope="module")
def smoke_run():
    """One real smoke run shared by the module (repeats=1 keeps it fast)."""
    return run_suite("smoke", repeats=1)


def synthetic_run(run_id="base", median=10.0, mad=1.0, exact_value=7):
    """A minimal schema-valid document for detector unit tests."""
    return {
        "schema": SCHEMA,
        "run_id": run_id,
        "suite": "smoke",
        "created": "2026-08-06T00:00:00",
        "timing_repeats": 3,
        "environment": {
            "python": "3.11.0",
            "implementation": "CPython",
            "platform": "linux",
            "machine": "x86_64",
            "commit": None,
        },
        "metrics": {},
        "cache": {},
        "experiments": [
            {
                "id": "X1",
                "title": "synthetic",
                "exact": {"value": exact_value, "series": [[1, 2], [3, 4]]},
                "timings": {
                    "work": {
                        "reps": 3,
                        "best_ms": median - mad,
                        "median_ms": median,
                        "mad_ms": mad,
                        "samples_ms": [median - mad, median, median + mad],
                    }
                },
            }
        ],
    }


class TestTiming:
    def test_time_workload_stats(self):
        timing = time_workload(lambda: sum(range(100)), repeats=4)
        assert timing["reps"] == 4
        assert len(timing["samples_ms"]) == 4
        assert timing["best_ms"] == min(timing["samples_ms"])
        assert timing["best_ms"] <= timing["median_ms"]
        assert timing["mad_ms"] >= 0.0

    def test_repeats_must_be_positive(self):
        with pytest.raises(ValueError):
            time_workload(lambda: None, repeats=0)


class TestRegistry:
    def test_suites_known(self):
        assert SUITES == ("smoke", "full")
        with pytest.raises(ValueError):
            experiments_for("nightly")

    def test_smoke_subset_of_full(self):
        smoke = {spec.id for spec in experiments_for("smoke")}
        full = {spec.id for spec in experiments_for("full")}
        assert smoke <= full
        assert len(smoke) >= 5


class TestRunSuite:
    def test_schema_valid(self, smoke_run):
        assert validate_run(smoke_run) == []
        assert smoke_run["schema"] == SCHEMA
        assert smoke_run["suite"] == "smoke"

    def test_environment_fingerprint(self, smoke_run):
        environment = smoke_run["environment"]
        assert environment["python"]
        assert environment["platform"]
        assert "commit" in environment
        assert environment == {  # fingerprint fields are stable per process
            **environment_fingerprint(),
        }

    def test_experiment_rows(self, smoke_run):
        by_id = {exp["id"]: exp for exp in smoke_run["experiments"]}
        assert by_id["E1-oracle"]["exact"]["inconsistent"] == 0
        assert by_id["E3-fold-size"]["exact"]["fold_exactly_2n"] is True
        assert by_id["E4-complement"]["exact"]["all_within_bound"] is True
        assert by_id["budget-degradation"]["exact"]["verdict"] == (
            "holds_up_to_bound"
        )
        # timing values never leak into the exact gate
        assert "elapsed_ms" not in by_id["budget-degradation"]["exact"]["spend"]

    def test_cache_outcomes_cold_then_warm(self, smoke_run):
        by_id = {exp["id"]: exp for exp in smoke_run["experiments"]}
        outcomes = [row[1] for row in by_id["engine-cache"]["exact"]["outcomes"]]
        assert outcomes == ["miss"] * 3 + ["hit"] * 3

    def test_metrics_and_profile_attached(self, smoke_run):
        assert "engine.checks" in smoke_run["metrics"]
        assert smoke_run["profile"]["traces"] == 3
        paths = [row["path"] for row in smoke_run["profile"]["entries"]]
        assert any(path.startswith("check-containment") for path in paths)

    def test_document_is_json_serializable(self, smoke_run):
        json.dumps(smoke_run)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("nightly")

    def test_smoke_tier_carries_no_timing_gate(self, smoke_run):
        for experiment in smoke_run["experiments"]:
            assert "gates" not in experiment
            assert CALIBRATION not in experiment["timings"]

    def test_full_suite_extends_smoke_series(self, smoke_run):
        full = run_suite("full", repeats=1, profile=False)
        assert validate_run(full) == []
        assert "profile" not in full
        # Every declared gate is evaluated (its workloads exist); best of
        # one sample is too little for the gates that replace best-of-k.
        gates = {
            gate["name"]: gate
            for exp in full["experiments"]
            for gate in exp.get("gates", ())
        }
        assert len(gates) == sum(len(spec.gates) for spec in experiments_for("full"))
        assert gates["trace-off-budget"]["verdict"] == "skipped"
        smoke_by_id = {exp["id"]: exp for exp in smoke_run["experiments"]}
        full_by_id = {exp["id"]: exp for exp in full["experiments"]}
        # Full sweeps strictly extend the smoke workloads...
        assert len(full_by_id["E3-fold-size"]["exact"]["series"]) > len(
            smoke_by_id["E3-fold-size"]["exact"]["series"]
        )
        assert full_by_id["E1-oracle"]["exact"]["pairs"] > (
            smoke_by_id["E1-oracle"]["exact"]["pairs"]
        )
        # ...and the shape claims still hold at the larger tier.
        assert full_by_id["E1-oracle"]["exact"]["inconsistent"] == 0
        assert full_by_id["E4-complement"]["exact"]["all_within_bound"] is True

    def test_write_run_default_name(self, smoke_run, tmp_path):
        path = write_run(smoke_run, directory=tmp_path)
        assert path.endswith(f"BENCH_{smoke_run['run_id']}.json")
        assert validate_run(json.loads((tmp_path / path.split("/")[-1]).read_text())) == []

    def test_write_run_explicit_path(self, smoke_run, tmp_path):
        target = tmp_path / "baseline.json"
        assert write_run(smoke_run, path=target) == str(target)
        assert target.exists()


class TestValidate:
    def test_rejects_non_dict(self):
        assert validate_run([]) != []

    def test_flags_each_problem(self):
        document = synthetic_run()
        document["schema"] = "nope"
        document["suite"] = "nightly"
        del document["experiments"][0]["timings"]["work"]["mad_ms"]
        problems = validate_run(document)
        assert any("schema" in problem for problem in problems)
        assert any("suite" in problem for problem in problems)
        assert any("mad_ms" in problem for problem in problems)

    def test_empty_experiments_invalid(self):
        document = synthetic_run()
        document["experiments"] = []
        assert validate_run(document) != []


class TestCompare:
    def test_identical_real_runs_pass(self, smoke_run):
        rerun = run_suite("smoke", repeats=1)
        comparison = compare_runs(smoke_run, rerun)
        assert comparison.ok
        assert comparison.exact_failures == []
        assert comparison.exact_checked == len(smoke_run["experiments"])
        assert "OK" in render_comparison(comparison)

    def test_perturbed_exact_series_fails(self):
        baseline = synthetic_run()
        current = synthetic_run(run_id="current")
        current["experiments"][0]["exact"]["series"][1][0] = 999
        comparison = compare_runs(baseline, current)
        assert not comparison.ok
        assert any("series" in failure for failure in comparison.exact_failures)
        assert "FAIL" in render_comparison(comparison)

    def test_missing_experiment_fails(self):
        baseline = synthetic_run()
        current = synthetic_run(run_id="current")
        current["experiments"] = [
            {**current["experiments"][0], "id": "renamed"}
        ]
        comparison = compare_runs(baseline, current)
        assert any("missing" in failure for failure in comparison.exact_failures)
        assert any("renamed" in note for note in comparison.notes)

    def test_suite_mismatch_fails(self):
        baseline = synthetic_run()
        current = synthetic_run(run_id="current")
        current["suite"] = "full"
        assert not compare_runs(baseline, current).ok

    def test_invalid_document_fails_with_role_prefix(self):
        comparison = compare_runs({}, synthetic_run())
        assert any(
            failure.startswith("baseline:")
            for failure in comparison.exact_failures
        )

    def test_timing_regression_detected_but_soft(self):
        baseline = synthetic_run(median=10.0, mad=0.5)
        current = synthetic_run(run_id="current", median=30.0, mad=0.5)
        comparison = compare_runs(baseline, current)
        assert comparison.ok  # timing is the soft gate
        assert len(comparison.timing_regressions) == 1
        record = comparison.timing_regressions[0]
        assert record["workload"] == "work"
        assert "timing regressions" in render_comparison(comparison)

    def test_timing_improvement_reported(self):
        # A speedup can only beat the threshold when the floor is below
        # the drop (defaults allow drops up to 100% of the median).
        baseline = synthetic_run(median=30.0, mad=0.5)
        current = synthetic_run(run_id="current", median=10.0, mad=0.5)
        comparison = compare_runs(
            baseline, current, tolerance_mads=2.0, rel_floor=0.1
        )
        assert comparison.timing_regressions == []
        assert len(comparison.timing_improvements) == 1
        assert "improvement" in render_comparison(comparison)

    def test_timing_within_tolerance_passes(self):
        baseline = synthetic_run(median=10.0, mad=2.0)
        current = synthetic_run(run_id="current", median=12.0, mad=2.0)
        comparison = compare_runs(baseline, current)
        assert comparison.timing_regressions == []
        assert comparison.timings_checked == 1

    def test_tolerance_floor_shields_quiet_baselines(self):
        # MAD 0 would make any jitter a regression without the floors.
        baseline = synthetic_run(median=10.0, mad=0.0)
        current = synthetic_run(run_id="current", median=11.0, mad=0.0)
        assert compare_runs(baseline, current).timing_regressions == []

    def test_missing_workload_is_note_not_failure(self):
        baseline = synthetic_run()
        current = synthetic_run(run_id="current")
        current["experiments"][0]["timings"] = {}
        comparison = compare_runs(baseline, current)
        assert comparison.ok
        assert any("work" in note for note in comparison.notes)


def _gate_experiment(*gates, build=None):
    """A synthetic full-tier experiment timing a no-op and a 2 ms sleep."""

    def default_build(suite):
        return {
            "exact": {"value": 1},
            "timed": {"fast": lambda: None, "slow": lambda: time.sleep(0.002)},
        }

    return Experiment("X-gates", "synthetic", SUITES, build or default_build, gates)


@pytest.fixture
def registry(monkeypatch):
    """Swap the registered suite for synthetic experiments."""

    def install(*experiments):
        monkeypatch.setattr(perf, "_EXPERIMENTS", list(experiments))

    return install


_GOOD_GATE = {
    "name": "g",
    "ratios": [["a", "b"]],
    "aggregate": "max",
    "op": ">=",
    "bound": 1.0,
    "value": 2.0,
    "verdict": "pass",
}


class TestGates:
    def _gates(self, document):
        return {gate["name"]: gate for gate in document["experiments"][0]["gates"]}

    def test_ratio_gate_value_is_the_best_ms_ratio(self, registry):
        registry(_gate_experiment(Gate("slow-vs-fast", (("slow", "fast"),), ">=", 1.0)))
        document = run_suite("full", repeats=3, profile=False)
        timings = document["experiments"][0]["timings"]
        gate = self._gates(document)["slow-vs-fast"]
        assert gate["value"] == pytest.approx(
            timings["slow"]["best_ms"] / timings["fast"]["best_ms"], rel=1e-3
        )
        assert gate["verdict"] == "pass"
        assert validate_run(document) == []

    def test_calibration_gate_times_the_calibration_loop_beside_it(self, registry):
        gate = Gate("slow-budget", (("slow", CALIBRATION),), "<", 1e6)
        registry(_gate_experiment(gate))
        document = run_suite("full", repeats=3, profile=False)
        timings = document["experiments"][0]["timings"]
        assert timings[CALIBRATION]["reps"] == 3
        gate = self._gates(document)["slow-budget"]
        assert gate["value"] == pytest.approx(
            timings["slow"]["best_ms"] / timings[CALIBRATION]["best_ms"],
            rel=1e-3,
            abs=1e-4,
        )
        assert gate["verdict"] == "pass"

    def test_aggregate_over_several_ratios(self, registry):
        ratios = (("slow", "fast"), ("fast", "slow"))
        registry(_gate_experiment(Gate("highest", ratios, ">", 1.0, aggregate="max")))
        document = run_suite("full", repeats=2, profile=False)
        timings = document["experiments"][0]["timings"]
        gate = self._gates(document)["highest"]
        assert gate["value"] == pytest.approx(
            timings["slow"]["best_ms"] / timings["fast"]["best_ms"], rel=1e-3
        )
        assert gate["verdict"] == "pass"

    def test_smoke_tier_skips_evaluation(self, registry):
        registry(_gate_experiment(Gate("never", (("fast", "fast"),), ">", 2.0)))
        document = run_suite("smoke", repeats=1, profile=False)
        assert "gates" not in document["experiments"][0]

    def test_core_count_condition_records_skipped(self, registry, monkeypatch):
        gate = Gate("multicore", (("slow", "fast"),), ">=", 1.0, min_cpus=2)
        registry(_gate_experiment(gate))
        monkeypatch.setattr(perf.os, "cpu_count", lambda: 1)
        gate = self._gates(run_suite("full", repeats=2, profile=False))["multicore"]
        assert gate["verdict"] == "skipped" and gate["value"] is None
        assert "2 cores" in gate["reason"]

    def test_too_few_reps_records_skipped(self, registry):
        gate = Gate("best-of-3", (("slow", "fast"),), ">=", 1.0, min_reps=3)
        registry(_gate_experiment(gate))
        gate = self._gates(run_suite("full", repeats=1, profile=False))["best-of-3"]
        assert gate["verdict"] == "skipped" and "reps" in gate["reason"]

    def test_process_speedup_gate_needs_two_cores(self):
        (spec,) = [s for s in experiments_for("full") if s.id == "process-scaling"]
        assert [gate.min_cpus for gate in spec.gates] == [2]

    def test_failing_gate_exits_1_naming_it(self, registry, tmp_path, capsys):
        registry(_gate_experiment(Gate("impossible", (("fast", "fast"),), ">=", 2.0)))
        out = tmp_path / "run.json"
        argv = ["bench", "run", "--suite", "full", "--repeats", "2", "--no-profile"]
        assert main(argv + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "gate failed: X-gates/impossible" in captured.err
        assert "gate impossible: fail" in captured.out
        recorded = self._gates(json.loads(out.read_text()))
        assert recorded["impossible"]["verdict"] == "fail"

    def test_passing_gates_exit_0(self, registry, tmp_path):
        registry(_gate_experiment(Gate("easy", (("slow", "fast"),), ">", 0.0)))
        argv = ["bench", "run", "--suite", "full", "--repeats", "2", "--no-profile"]
        assert main(argv + ["--out", str(tmp_path / "run.json")]) == 0

    def test_failed_hard_check_exits_1_naming_it(self, registry, tmp_path, capsys):
        def build(suite):
            check(1 + 1 == 3, "arithmetic drifted")
            return {"exact": {}}

        registry(_gate_experiment(build=build))
        with pytest.raises(CheckFailed, match="X-gates: arithmetic drifted"):
            run_suite("smoke", repeats=1, profile=False)
        argv = ["bench", "run", "--suite", "smoke", "--no-profile"]
        assert main(argv + ["--out", str(tmp_path / "run.json")]) == 1
        assert "X-gates: arithmetic drifted" in capsys.readouterr().err
        assert not (tmp_path / "run.json").exists()

    @pytest.mark.parametrize(
        "broken",
        [
            {"name": "g"},
            {**_GOOD_GATE, "verdict": "maybe"},
            {**_GOOD_GATE, "value": None},
            {**_GOOD_GATE, "op": "~"},
        ],
        ids=["missing-keys", "unknown-verdict", "pass-without-value", "unknown-op"],
    )
    def test_validate_rejects_malformed_gate_record(self, broken):
        document = synthetic_run()
        document["experiments"][0]["gates"] = [_GOOD_GATE]
        assert validate_run(document) == []
        document["experiments"][0]["gates"] = [broken]
        assert any("gate" in problem for problem in validate_run(document))


def test_serving_import_path_leaves_the_bench_harness_out():
    """Server, forkserver and worker processes never load the bench code."""
    probe = (
        "import sys, repro.serve.server; "
        "print(sorted(m for m in sys.modules if m in "
        "('repro.obs.perf', 'repro.obs.experiments')))"
    )
    source_root = pathlib.Path(repro.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(source_root)},
    )
    assert result.stdout.strip() == "[]"
