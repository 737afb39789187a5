"""Concurrency regression suite for the batch containment front door.

Three pillars (ISSUE: concurrent batch containment):

- **Differential oracle**: the worker-pool batch must return verdicts
  identical to the sequential loop on a seeded E1-style workload, at
  ``workers ∈ {1, 4}`` on both backends — concurrency may change
  wall-clock, never answers.
- **Trace isolation**: traced concurrent checks never interleave spans
  across workers (each item owns its tracer and yields one well-formed
  single-root tree).
- **Counter exactness**: cache and metrics counters sum correctly
  across threads — N cold checks are N engine.checks and N cache
  misses, no lost increments, and single-flight keeps one miss + one
  compute per cold key no matter how many threads race.

Each test carries a ``pytest.mark.timeout`` so a deadlock shows up as
a failure, not a hung CI job (active when pytest-timeout is installed,
as in the concurrency CI job).
"""

from __future__ import annotations

import random
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.automata.regex import parse_regex, random_regex
from repro.budget import Budget
from repro.cache import cache_stats, clear_caches, containment_cache
from repro.core.batch import (
    BatchItem,
    BatchResult,
    ContainmentExecutor,
    check_containment_many,
    sequential_baseline,
)
from repro.obs.metrics import REGISTRY, reset_metrics
from repro.report import ContainmentResult, Verdict
from repro.rpq.rpq import RPQ

pytestmark = pytest.mark.timeout(120)

BACKENDS = ("thread", "process")
WORKER_COUNTS = (1, 4)


@pytest.fixture(autouse=True)
def fresh_state():
    clear_caches(reset_stats=True)
    reset_metrics()
    yield
    clear_caches(reset_stats=True)
    reset_metrics()


def e1_workload(n_random: int = 12) -> list[tuple[RPQ, RPQ]]:
    """A seeded E1-style workload: atom pairs plus random regex pairs.

    The same generator family as the E1 oracle experiment in
    :mod:`repro.obs.experiments` — deterministic, so the expected verdicts
    are fixed across runs and machines.
    """
    atoms = ["a", "b", "a b", "a|b", "a*", "a+"]
    alphabet = ("a", "b")
    rng = random.Random(1)
    pairs = [
        (RPQ(parse_regex(x)), RPQ(parse_regex(y))) for x in atoms for y in atoms
    ]
    pairs += [
        (RPQ(random_regex(rng, alphabet, 3)), RPQ(random_regex(rng, alphabet, 3)))
        for _ in range(n_random)
    ]
    return pairs


class TestDifferentialOracle:
    """Batch verdicts are bit-identical to the sequential loop."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_matches_sequential_loop(self, backend, workers):
        pairs = e1_workload()
        expected = [r.verdict for r in sequential_baseline(pairs)]
        clear_caches(reset_stats=True)  # batch recomputes from cold
        batch = check_containment_many(pairs, workers=workers, backend=backend)
        assert [item.result.verdict for item in batch.items] == expected

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_preserves_input_order_and_length(self, backend):
        pairs = e1_workload()
        batch = check_containment_many(pairs, workers=4, backend=backend)
        assert len(batch) == len(pairs)
        assert [item.index for item in batch.items] == list(range(len(pairs)))

    def test_budget_threads_through_to_items(self):
        from repro.datalog.parser import parse_program

        program = parse_program("t(x,y) :- e(x,y). t(x,z) :- t(x,y), e(y,z).")
        pairs = [(program, program)] * 3
        budget = Budget(max_expansions=5)
        batch = check_containment_many(pairs, workers=3, budget=budget)
        for item in batch.items:
            assert item.result.verdict is Verdict.HOLDS_UP_TO_BOUND
            assert item.result.details["budget"]["spend"]["expansions"] == 5

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_items_carry_their_own_budget_and_options(self, backend):
        from repro.datalog.parser import parse_program

        program = parse_program("t(x,y) :- e(x,y). t(x,z) :- t(x,y), e(y,z).")
        holds = (RPQ(parse_regex("a a")), RPQ(parse_regex("a+")))
        batch = check_containment_many(
            [
                (program, program, Budget(max_expansions=5), None),
                (*holds, None, {"kernel": "subset"}),
                holds,
            ],
            workers=2,
            backend=backend,
            budget=Budget(max_expansions=7),
            kernel="antichain",
        )
        first, second, third = batch.results
        assert first.bound == 5  # the item's budget replaces the batch's
        assert second.details["kernel"]["requested"] == "subset"
        assert third.details["kernel"]["requested"] == "antichain"

    def test_empty_batch(self):
        batch = check_containment_many([], workers=4)
        assert isinstance(batch, BatchResult)
        assert len(batch) == 0
        assert batch.results == ()


class TestFailureIsolation:
    """One item's exception is that item's ERROR, never a batch abort."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_poisoned_item_is_isolated(self, backend):
        good = (RPQ(parse_regex("a a")), RPQ(parse_regex("a+")))
        poisoned = ("not a query", RPQ(parse_regex("a")))
        batch = check_containment_many(
            [good, poisoned, good], workers=2, backend=backend
        )
        verdicts = [item.result.verdict for item in batch.items]
        assert verdicts == [Verdict.HOLDS, Verdict.ERROR, Verdict.HOLDS]
        error = batch.items[1].result.details["error"]
        assert error["type"] == "TypeError"
        assert "Traceback" in error["traceback"]
        assert batch.errors == (batch.items[1],)

    def test_error_results_are_falsy_and_inexact(self):
        poisoned = [(object(), object())]
        batch = check_containment_many(poisoned, workers=1)
        result = batch.items[0].result
        assert not result.holds
        assert not result.is_exact
        assert result.method == "batch-isolated"
        assert result.details["budget"] == {"spend": {}}

    def test_unknown_option_raises_eagerly(self):
        # A typo is caller error, exactly as in the sequential loop —
        # not something to bury in per-item ERROR results.
        with pytest.raises(TypeError, match="unknown option"):
            check_containment_many(e1_workload()[:2], workers=1, bogus=1)

    def test_bad_backend_and_workers_raise(self):
        with pytest.raises(ValueError, match="backend"):
            check_containment_many([], backend="greenlet")
        with pytest.raises(ValueError, match="workers"):
            check_containment_many([], workers=0)


class TestPoolDeadline:
    """Expired pool deadlines degrade unstarted items to INCONCLUSIVE."""

    def test_tiny_deadline_degrades_tail(self):
        pairs = e1_workload()
        batch = check_containment_many(
            pairs, workers=1, pool_deadline_ms=0.01
        )
        assert len(batch) == len(pairs)
        degraded = [
            item for item in batch.items
            if item.result.method == "batch-pool-deadline"
        ]
        assert degraded, "a 0.01ms deadline must starve most of the batch"
        for item in degraded:
            accounting = item.result.details["budget"]
            assert item.result.verdict is Verdict.INCONCLUSIVE
            assert accounting["exhausted"] == "pool_deadline"
            assert accounting["limit"] == 0.01
            assert accounting["spent"] >= 0
            assert item.wall_ms == 0.0
            assert item.worker is None

    def test_generous_deadline_degrades_nothing(self):
        pairs = e1_workload()[:6]
        batch = check_containment_many(
            pairs, workers=4, pool_deadline_ms=120_000.0
        )
        assert all(
            item.result.method != "batch-pool-deadline" for item in batch.items
        )


class TestKernelOption:
    """The ``kernel`` option threads through the pool to every item."""

    def test_kernels_agree_on_batch_verdicts(self):
        pairs = e1_workload()
        verdicts = {}
        for kernel in ("subset", "antichain"):
            clear_caches(reset_stats=True)
            batch = check_containment_many(pairs, workers=4, kernel=kernel)
            verdicts[kernel] = [item.result.verdict for item in batch.items]
            for item in batch.items:
                info = item.result.details["kernel"]
                assert info["requested"] == kernel
                assert info["selected"] == kernel  # RPQ pairs all search
        assert verdicts["subset"] == verdicts["antichain"]

    def test_to_dict_carries_kernel_details(self):
        batch = check_containment_many(
            e1_workload()[:3], workers=1, kernel="antichain"
        )
        for item in batch.items:
            payload = item.to_dict()
            assert payload["kernel"]["requested"] == "antichain"

    def test_unknown_kernel_raises_in_caller_frame(self):
        # A bad kernel value is caller error like any unknown option —
        # rejected before the pool spins up, not buried per-item.
        with pytest.raises(ValueError, match="unknown kernel"):
            check_containment_many(e1_workload()[:2], workers=1, kernel="bogus")

    def test_error_items_carry_requested_kernel(self):
        poisoned = [("not a query", RPQ(parse_regex("a")))]
        batch = check_containment_many(poisoned, workers=1, kernel="subset")
        details = batch.items[0].result.details
        assert batch.items[0].result.verdict is Verdict.ERROR
        assert details["kernel"] == {"requested": "subset", "selected": None}

    def test_pool_deadline_items_carry_requested_kernel(self):
        batch = check_containment_many(
            e1_workload(), workers=1, pool_deadline_ms=0.01, kernel="antichain"
        )
        degraded = [
            item for item in batch.items
            if item.result.method == "batch-pool-deadline"
        ]
        assert degraded
        for item in degraded:
            assert item.result.details["kernel"] == {
                "requested": "antichain",
                "selected": None,
            }


class TestTraceIsolation:
    """Per-item tracers: concurrent span trees never interleave."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_each_item_gets_one_single_root_tree(self, backend):
        pairs = e1_workload()[:8]
        batch = check_containment_many(
            pairs, workers=4, backend=backend, trace=True
        )
        for item in batch.items:
            trace = dict(item.result.details)["trace"]
            # One root named for the engine's own span: a shared tracer
            # would have accumulated sibling roots / foreign children.
            assert trace["name"] == "check-containment"
            for child in trace["children"]:
                assert child["start_ms"] >= 0
                assert child["duration_ms"] <= trace["duration_ms"] + 1.0

    def test_trace_spans_cover_only_own_check(self):
        # Cold distinct pairs, 4 workers: every trace must contain at
        # most one cache event (its own), proving no cross-talk.
        pairs = e1_workload()[:8]
        batch = check_containment_many(pairs, workers=4, trace=True)
        for item in batch.items:
            trace = dict(item.result.details)["trace"]
            events = [
                event
                for event in trace.get("events", [])
                if event["name"] == "cache"
            ]
            assert len(events) == 1


class TestCounterExactness:
    """Metrics and cache stats sum exactly across worker threads."""

    def test_engine_checks_counter_sums(self):
        pairs = e1_workload()
        check_containment_many(pairs, workers=4, backend="thread")
        assert REGISTRY.counter("engine.checks").value == len(pairs)
        assert REGISTRY.counter("batch.items").value == len(pairs)
        assert REGISTRY.histogram("batch.wall_ms").count == 1

    def test_cache_stats_sum_over_cold_distinct_pairs(self):
        pairs = e1_workload()
        # Dedupe: distinct pairs only, so the expected miss count is exact.
        seen, distinct = set(), []
        for q1, q2 in pairs:
            key = (repr(q1), repr(q2))
            if key not in seen:
                seen.add(key)
                distinct.append((q1, q2))
        check_containment_many(distinct, workers=4, backend="thread")
        stats = cache_stats()["containment"]
        assert stats["hits"] + stats["misses"] == len(distinct)
        assert stats["misses"] == len(distinct)

    def test_repeated_pair_hits_cache_across_workers(self):
        pair = (RPQ(parse_regex("a a")), RPQ(parse_regex("a+")))
        batch = check_containment_many([pair] * 12, workers=4, backend="thread")
        outcomes = [dict(item.result.details)["cache"] for item in batch.items]
        assert all(outcome in ("hit", "miss") for outcome in outcomes)
        # All verdicts identical regardless of who computed first.
        assert len({item.result.verdict for item in batch.items}) == 1
        assert containment_cache.hits.value + containment_cache.misses.value == 12

    def test_worker_utilization_gauge_in_unit_range(self):
        check_containment_many(e1_workload()[:6], workers=2)
        utilization = REGISTRY.gauge("batch.worker_utilization").value
        assert 0.0 <= utilization <= 1.0


class TestSingleFlight:
    """Concurrent misses on one cold key compute once (tentpole fix
    folded back into the sequential path — see repro.cache)."""

    def test_one_miss_one_compute_under_concurrent_callers(self):
        from repro.cache import LRUCache

        cache = LRUCache("test-single-flight", maxsize=8)
        computes = []
        barrier = threading.Barrier(8)
        release = threading.Event()

        def compute():
            computes.append(threading.get_ident())
            release.wait(timeout=30)
            return "value"

        def caller():
            barrier.wait(timeout=30)
            return cache.get_or_compute("cold-key", compute)

        threads = [threading.Thread(target=caller) for _ in range(7)]
        for thread in threads:
            thread.start()
        barrier.wait(timeout=30)  # all callers racing on the same key
        release.set()
        for thread in threads:
            thread.join(timeout=30)
        # Straggler call after the flight resolves: a plain hit.
        assert cache.get_or_compute("cold-key", compute) == "value"
        assert len(computes) == 1, "single-flight: compute ran once"
        assert cache.misses.value == 1
        assert cache.hits.value == 7

    def test_leader_failure_propagates_to_followers_and_caches_nothing(self):
        from repro.cache import LRUCache

        cache = LRUCache("test-single-flight-error", maxsize=8)
        barrier = threading.Barrier(4)
        release = threading.Event()
        failures = []

        def compute():
            # Hold the flight open until main releases it, so the other
            # callers are provably enqueued as followers when it fails.
            release.wait(timeout=30)
            raise RuntimeError("compute exploded")

        def caller():
            barrier.wait(timeout=30)
            try:
                cache.get_or_compute("bad-key", compute)
            except RuntimeError as exc:
                failures.append(str(exc))

        threads = [threading.Thread(target=caller) for _ in range(3)]
        for thread in threads:
            thread.start()
        barrier.wait(timeout=30)  # all callers racing on the same key
        release.set()
        for thread in threads:
            thread.join(timeout=30)
        # Every caller sees the leader's exception; errors are not cached.
        assert failures == ["compute exploded"] * 3
        assert len(cache) == 0


class TestUtilizationAccounting:
    """worker_utilization / wall_ms stay finite and in [0, 1] for every
    batch shape, including the zero-item and instant degenerate cases
    that used to divide by zero (satellite fix)."""

    def make_batch(self, item_walls, wall_ms, workers):
        items = tuple(
            BatchItem(i, ContainmentResult(Verdict.HOLDS, "stub"), w, "w")
            for i, w in enumerate(item_walls)
        )
        return BatchResult(items, wall_ms, workers, "thread")

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        item_walls=st.lists(
            st.floats(min_value=-1.0, max_value=1e5, allow_nan=False),
            max_size=16,
        ),
        wall_ms=st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
        workers=st.integers(min_value=1, max_value=32),
    )
    def test_always_finite_and_clamped(self, item_walls, wall_ms, workers):
        batch = self.make_batch(item_walls, wall_ms, workers)
        utilization = batch.worker_utilization
        assert 0.0 <= utilization <= 1.0
        batch.describe()  # formats without raising for every shape

    def test_zero_item_batch_reports_zero(self):
        batch = self.make_batch([], 0.0, 4)
        assert batch.worker_utilization == 0.0
        assert "0 items" in batch.describe()

    def test_instant_batch_reports_zero_not_nan(self):
        # Coarse clocks can measure wall_ms == 0 even when items ran.
        batch = self.make_batch([1.0, 2.0], 0.0, 2)
        assert batch.worker_utilization == 0.0

    def test_jitter_above_one_clamps(self):
        # Summed per-item time above workers*wall (measurement skew).
        batch = self.make_batch([100.0, 100.0], 10.0, 2)
        assert batch.worker_utilization == 1.0

    def test_empty_batch_records_wall_and_gauges(self):
        batch = check_containment_many([], workers=3)
        assert len(batch) == 0
        assert batch.wall_ms >= 0.0
        assert batch.worker_utilization == 0.0
        # The common exit path still runs: pool facts + metrics land.
        assert (batch.workers, batch.backend) == (3, "thread")
        assert REGISTRY.gauge("batch.workers").value == 3
        assert 0.0 <= REGISTRY.gauge("batch.worker_utilization").value <= 1.0


class TestContainmentExecutor:
    """The persistent single-pair submission path under the serve layer."""

    def pair(self, left="a a", right="a+"):
        return RPQ(parse_regex(left)), RPQ(parse_regex(right))

    def test_submit_resolves_to_batch_item(self):
        with ContainmentExecutor(workers=2) as executor:
            q1, q2 = self.pair()
            item = executor.submit(q1, q2, index=7).result(timeout=60)
            assert item.index == 7
            assert item.result.verdict is Verdict.HOLDS
            assert item.wall_ms >= 0.0
            assert item.worker and "batch-worker" in item.worker

    def test_matches_sequential_baseline_across_submissions(self):
        pairs = e1_workload()[:10]
        expected = [r.verdict for r in sequential_baseline(pairs)]
        with ContainmentExecutor(workers=4) as executor:
            futures = [
                executor.submit(q1, q2, index=i)
                for i, (q1, q2) in enumerate(pairs)
            ]
            verdicts = [f.result(timeout=120).result.verdict for f in futures]
        assert verdicts == expected

    def test_worker_exception_is_isolated(self):
        with ContainmentExecutor(workers=1) as executor:
            item = executor.submit(object(), object(), index=3).result(timeout=60)
            assert item.result.verdict is Verdict.ERROR
            assert item.result.details["error"]["index"] == 3

    def test_submit_after_shutdown_is_an_error_item_not_a_raise(self):
        executor = ContainmentExecutor(workers=1)
        executor.shutdown(wait=True)
        q1, q2 = self.pair()
        item = executor.submit(q1, q2, index=5).result(timeout=60)
        assert item.result.verdict is Verdict.ERROR
        assert item.index == 5

    def test_expired_start_deadline_sheds_instead_of_running(self):
        import time as _time

        with ContainmentExecutor(workers=1) as executor:
            q1, q2 = self.pair()
            item = executor.submit(
                q1, q2, start_deadline=_time.monotonic() - 1.0
            ).result(timeout=60)
            assert item.result.verdict is Verdict.INCONCLUSIVE
            assert item.result.method == "start-deadline"
            assert item.result.details["budget"]["exhausted"] == "start_deadline"
            assert item.worker is None and item.wall_ms == 0.0

    def test_expired_result_factory_overrides_default(self):
        import time as _time

        marker = ContainmentResult(
            Verdict.INCONCLUSIVE, "custom-shed", details={"admission": {}}
        )
        with ContainmentExecutor(workers=1) as executor:
            q1, q2 = self.pair()
            item = executor.submit(
                q1,
                q2,
                start_deadline=_time.monotonic() - 1.0,
                expired_result=lambda late_ms: marker,
            ).result(timeout=60)
            assert item.result is marker

    def test_per_call_options_override_defaults(self):
        with ContainmentExecutor(workers=1, kernel="antichain") as executor:
            q1, q2 = self.pair()
            item = executor.submit(
                q1, q2, options={"kernel": "subset"}
            ).result(timeout=60)
            assert item.result.details["kernel"]["requested"] == "subset"
            # And the executor default still applies when not overridden.
            item = executor.submit(q1, q2).result(timeout=60)
            assert item.result.details["kernel"]["requested"] == "antichain"

    def test_bad_per_call_option_raises_eagerly(self):
        with ContainmentExecutor(workers=1) as executor:
            q1, q2 = self.pair()
            with pytest.raises(TypeError):
                executor.submit(q1, q2, options={"no_such_option": 1})
            with pytest.raises(ValueError):
                executor.submit(q1, q2, options={"kernel": "warp"})

    def test_constructor_validates_eagerly(self):
        with pytest.raises(ValueError):
            ContainmentExecutor(workers=0)
        with pytest.raises(ValueError):
            ContainmentExecutor(backend="fiber")
        with pytest.raises(TypeError):
            ContainmentExecutor(bogus_option=1)

    def test_budget_deadline_bounds_submission(self):
        q1, q2 = self.pair("(a|b)*", "(a b|b a)*")
        with ContainmentExecutor(workers=1) as executor:
            item = executor.submit(
                q1, q2, budget=Budget(deadline_ms=1e9)
            ).result(timeout=120)
            assert item.result.verdict in (
                Verdict.HOLDS,
                Verdict.REFUTED,
                Verdict.INCONCLUSIVE,
            )


def _trace_shape(trace: dict) -> dict:
    """A trace tree reduced to its structure: keys, event names, children.

    Timings differ across runs; the *shape* of the span tree must not
    differ across backends for the same pair under the same cache state.
    """
    return {
        "name": trace.get("name"),
        "keys": sorted(trace),
        "events": [event["name"] for event in trace.get("events", [])],
        "children": [_trace_shape(child) for child in trace.get("children", [])],
    }


class TestProcessBackend:
    """The process pool as a first-class substrate: picklable shed
    hooks, trace round-trips, crash isolation, telemetry repatriation."""

    def pair(self, left="a a", right="a+"):
        return RPQ(parse_regex(left)), RPQ(parse_regex(right))

    def test_expired_start_deadline_sheds_on_process_backend(self):
        # Regression: the default expired_result path used to be a
        # thread-only contract; a queue-expired item on the process
        # backend must degrade identically, not crash on pickling.
        import time as _time

        with ContainmentExecutor(workers=1, backend="process") as executor:
            q1, q2 = self.pair()
            item = executor.submit(
                q1, q2, start_deadline=_time.monotonic() - 1.0
            ).result(timeout=60)
            assert item.result.verdict is Verdict.INCONCLUSIVE
            assert item.result.method == "start-deadline"
            assert item.result.details["budget"]["exhausted"] == "start_deadline"
            assert item.worker is None and item.wall_ms == 0.0

    def test_deadline_shed_spec_pickles_across_the_pool_boundary(self):
        # The serving layer's shed hook is a frozen dataclass precisely
        # so it crosses the process boundary; assert the worker-side
        # invocation produces the serve-admission degraded shape.
        import time as _time

        from repro.serve.admission import DeadlineShedSpec

        spec = DeadlineShedSpec(
            queue_depth=3, queue_limit=64, deadline_ms=5.0, kernel="auto"
        )
        with ContainmentExecutor(workers=1, backend="process") as executor:
            q1, q2 = self.pair()
            item = executor.submit(
                q1,
                q2,
                start_deadline=_time.monotonic() - 1.0,
                expired_result=spec,
            ).result(timeout=60)
            assert item.result.method == "serve-admission"
            admission = item.result.details["admission"]
            assert admission["shed"] == "deadline"
            assert admission["queue_depth"] == 3
            assert item.result.details["budget"]["exhausted"] == "admission:deadline"

    def test_trace_structure_identical_across_backends(self):
        # Same pair, same cache state (cold both times — under fork a
        # worker inherits the parent's caches, so the parent must be
        # cleared before each arm or one arm traces a hit and the other
        # a miss), so the span tree's *structure* must match exactly.
        pair = self.pair("a b a", "(a|b)+")
        shapes = {}
        for backend in BACKENDS:
            clear_caches()
            batch = check_containment_many(
                [pair], workers=1, backend=backend, trace=True
            )
            trace = dict(batch.items[0].result.details)["trace"]
            assert trace["name"] == "check-containment"
            shapes[backend] = _trace_shape(trace)
        assert shapes["thread"] == shapes["process"]

    def test_worker_crash_is_isolated_and_pool_recovers(self):
        from repro.obs.experiments import _PoisonPill

        pairs = e1_workload()[:4]
        expected = [r.verdict for r in sequential_baseline(pairs)]
        crash_pairs = list(pairs)
        crash_pairs.insert(2, (_PoisonPill(), _PoisonPill()))
        clear_caches()
        batch = check_containment_many(crash_pairs, workers=2, backend="process")

        poison = batch.items[2].result
        assert poison.verdict is Verdict.ERROR
        assert "error" in poison.details
        assert poison.details["error"]["index"] == 2
        survivors = [
            item.result.verdict
            for index, item in enumerate(batch.items)
            if index != 2
        ]
        assert survivors == expected
        # The rebuild was counted — operators can see crashes happened.
        assert REGISTRY.counter("batch.pool_rebuilds").value >= 1

    def test_executor_accepts_submissions_after_a_crash(self):
        from repro.obs.experiments import _PoisonPill

        with ContainmentExecutor(workers=1, backend="process") as executor:
            crashed = executor.submit(
                _PoisonPill(), _PoisonPill(), index=0
            ).result(timeout=60)
            assert crashed.result.verdict is Verdict.ERROR
            q1, q2 = self.pair()
            after = executor.submit(q1, q2, index=1).result(timeout=60)
            assert after.result.verdict is Verdict.HOLDS

    def test_worker_telemetry_repatriates_exactly(self):
        # Worker processes mutate their own registries; the executor
        # merges each item's drained window exactly once, so the
        # parent's counters read as if the work ran in-process.
        pairs = e1_workload()
        seen, distinct = set(), []
        for q1, q2 in pairs:
            key = (repr(q1), repr(q2))
            if key not in seen:
                seen.add(key)
                distinct.append((q1, q2))
        sequential_baseline(distinct)
        in_process = cache_stats()["regex-nfa"]
        reset_metrics()
        batch = check_containment_many(distinct, workers=2, backend="process")
        assert all(item.telemetry is not None for item in batch.items)
        assert REGISTRY.counter("engine.checks").value == len(distinct)
        assert REGISTRY.histogram("engine.check_ms").count == len(distinct)
        stats = cache_stats()
        containment = stats["containment"]
        assert containment["hits"] + containment["misses"] == len(distinct)
        # The parent compiled nothing itself: every regex-nfa lookup it
        # reports came home from a worker, and each distinct regex
        # missed at least once in some worker.
        compiled = stats["regex-nfa"]
        assert compiled["hits"] + compiled["misses"] == (
            in_process["hits"] + in_process["misses"]
        )
        assert compiled["misses"] >= in_process["misses"]
        for name in stats:
            for what in ("hits", "misses", "evictions"):
                counter = REGISTRY.counter(f"cache.{name}.{what}")
                assert counter.value == stats[name][what], (name, what)

    def test_repatriated_histogram_window_carries_only_its_own_bounds(self):
        # Neither the warm-up checks nor an item from before the
        # parent's reset may leak into the parent's min/max.
        slow = self.pair("(a|b)* a" + " (a|b)" * 6, "(a|b)* a" + " (a|b)" * 7)
        with ContainmentExecutor(workers=1, backend="process") as executor:
            executor.submit(*slow).result(timeout=60)
            reset_metrics()
            executor.submit(*self.pair("a", "a|b")).result(timeout=60)
        check_ms = REGISTRY.histogram("engine.check_ms")
        assert check_ms.count == 1
        assert check_ms.min == check_ms.max
        assert check_ms.max == pytest.approx(check_ms.total, abs=1e-3)

    def test_thread_backend_items_carry_no_telemetry_delta(self):
        # Thread workers share the parent registry: repatriating a
        # delta would double-count, so none is collected.
        batch = check_containment_many(
            e1_workload()[:4], workers=2, backend="thread"
        )
        assert all(item.telemetry is None for item in batch.items)
        assert REGISTRY.counter("engine.checks").value == 4
