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

import asyncio
import collections
import os
import random
import selectors
import signal
import threading
import time

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
    error_result,
    sequential_baseline,
)
from repro.obs.metrics import REGISTRY, reset_metrics
from repro.report import ContainmentResult, Verdict
from repro.rpq.containment import rpq_contained
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
        # An item is (q1, q2) or (q1, q2, budget); the engine picks the
        # search, so a budget is all an item can carry.
        from repro.datalog.parser import parse_program

        program = parse_program("t(x,y) :- e(x,y). t(x,z) :- t(x,y), e(y,z).")
        holds = (RPQ(parse_regex("a a")), RPQ(parse_regex("a+")))
        batch = check_containment_many(
            [(program, program, Budget(max_expansions=5)), (program, program), holds],
            workers=2,
            backend=backend,
            budget=Budget(max_expansions=7),
        )
        first, second, third = batch.results
        assert first.bound == 5  # the item's budget replaces the batch's
        assert second.bound == 7  # a pair takes the batch's
        assert third.verdict is Verdict.HOLDS
        assert third.details["kernel"]["selected"] == "antichain"

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

    def test_wire_error_is_type_bounded_message_and_index(self):
        """The payload carries no traceback (file paths stay on the
        server) and at most 512 characters of message."""
        try:
            raise ValueError("x" * 5_000)
        except ValueError as exc:
            result = error_result(4, exc)
        wire = BatchItem(4, result, 0.0, None).to_dict()["error"]
        assert wire == {"type": "ValueError", "message": "x" * 512, "index": 4}
        assert "Traceback" in result.details["error"]["traceback"]

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
        with pytest.raises(TypeError, match="bogus"):
            check_containment_many(e1_workload()[:2], workers=1, bogus=1)

    def test_bad_backend_and_workers_raise(self):
        with pytest.raises(ValueError, match="backend"):
            check_containment_many([], backend="greenlet")
        with pytest.raises(ValueError, match="workers"):
            check_containment_many([], workers=0)

    @pytest.mark.parametrize("deadline", [-1.0, float("nan")])
    def test_bad_pool_deadline_raises(self, deadline):
        # A NaN deadline never expires (every comparison is False), so it
        # would bound nothing; it is caller error like a negative one.
        with pytest.raises(ValueError, match="pool_deadline_ms"):
            check_containment_many(
                e1_workload()[:2], workers=1, pool_deadline_ms=deadline
            )


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
    """Every item carries the engine's kernel block through the pool."""

    def test_kernels_agree_on_batch_verdicts(self):
        # The kernels are a tower parameter: on every RPQ pair of the
        # workload the Lemma 1 tower gives one verdict under both, and
        # the batch (the engine's default path) gives it too.
        pairs = e1_workload()
        towers = {}
        for kernel in ("subset", "antichain"):
            clear_caches(reset_stats=True)
            towers[kernel] = [
                rpq_contained(q1, q2, kernel=kernel).verdict for q1, q2 in pairs
            ]
        clear_caches(reset_stats=True)
        batch = check_containment_many(pairs, workers=4)
        for item in batch.items:
            assert item.result.details["kernel"]["selected"] == "antichain"
        assert towers["subset"] == towers["antichain"]
        assert [item.result.verdict for item in batch.items] == towers["antichain"]

    def test_to_dict_carries_kernel_details(self):
        batch = check_containment_many(e1_workload()[:3], workers=1)
        for item in batch.items:
            payload = item.to_dict()
            assert payload["kernel"]["selected"] == "antichain"
            assert "requested" not in payload["kernel"]

    def test_unknown_kernel_raises_in_caller_frame(self):
        # The batch takes no kernel: the keyword is caller error like
        # any unknown option, rejected before the pool spins up, not
        # buried per-item.
        with pytest.raises(TypeError, match="kernel"):
            check_containment_many(e1_workload()[:2], workers=1, kernel="bogus")

    def test_error_items_carry_requested_kernel(self):
        poisoned = [("not a query", RPQ(parse_regex("a")))]
        batch = check_containment_many(poisoned, workers=1)
        details = batch.items[0].result.details
        assert batch.items[0].result.verdict is Verdict.ERROR
        assert details["kernel"] == {"selected": None}

    def test_pool_deadline_items_carry_requested_kernel(self):
        batch = check_containment_many(e1_workload(), workers=1, pool_deadline_ms=0.01)
        degraded = [
            item for item in batch.items
            if item.result.method == "batch-pool-deadline"
        ]
        assert degraded
        for item in degraded:
            assert item.result.details["kernel"] == {"selected": None}


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
        batch = check_containment_many(pairs, workers=4, backend="thread")
        assert REGISTRY.counter("engine.checks").value == len(pairs)
        assert len(batch.items) == len(pairs)

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

    def test_worker_utilization_in_unit_range(self):
        batch = check_containment_many(e1_workload()[:6], workers=2)
        assert 0.0 <= batch.worker_utilization <= 1.0
        assert batch.wall_ms > 0.0


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

    def test_empty_batch_records_wall_and_pool_facts(self):
        batch = check_containment_many([], workers=3)
        assert len(batch) == 0
        assert batch.wall_ms >= 0.0
        assert batch.worker_utilization == 0.0
        # The common exit path still runs: the pool facts land.
        assert (batch.workers, batch.backend) == (3, "thread")


class TestContainmentExecutor:
    """The persistent single-pair submission path under the serve layer."""

    def pair(self, left="a a", right="a+"):
        return RPQ(parse_regex(left)), RPQ(parse_regex(right))

    def test_submit_resolves_to_batch_item(self):
        async def run():
            async with ContainmentExecutor(workers=2) as executor:
                q1, q2 = self.pair()
                item = await executor.submit(q1, q2, index=7)
                assert item.index == 7
                assert item.result.verdict is Verdict.HOLDS
                assert item.wall_ms >= 0.0
                assert item.worker and "batch-worker" in item.worker

        asyncio.run(run())

    def test_matches_sequential_baseline_across_submissions(self):
        pairs = e1_workload()[:10]
        expected = [r.verdict for r in sequential_baseline(pairs)]

        async def run():
            async with ContainmentExecutor(workers=4) as executor:
                futures = [
                    executor.submit(q1, q2, index=i)
                    for i, (q1, q2) in enumerate(pairs)
                ]
                return [(await f).result.verdict for f in futures]

        verdicts = asyncio.run(run())
        assert verdicts == expected

    def test_worker_exception_is_isolated(self):
        async def run():
            async with ContainmentExecutor(workers=1) as executor:
                item = await executor.submit(object(), object(), index=3)
                assert item.result.verdict is Verdict.ERROR
                assert item.result.details["error"]["index"] == 3

        asyncio.run(run())

    def test_submit_after_shutdown_is_an_error_item_not_a_raise(self):
        async def run():
            executor = ContainmentExecutor(workers=1)
            await executor.shutdown()
            q1, q2 = self.pair()
            item = await executor.submit(q1, q2, index=5)
            assert item.result.verdict is Verdict.ERROR
            assert item.index == 5

        asyncio.run(run())

    def test_expired_start_deadline_sheds_instead_of_running(self):
        import time as _time

        async def run():
            async with ContainmentExecutor(workers=1) as executor:
                q1, q2 = self.pair()
                item = await executor.submit(
                    q1, q2, start_deadline=_time.monotonic() - 1.0
                )
                assert item.result.verdict is Verdict.INCONCLUSIVE
                assert item.result.method == "start-deadline"
                assert item.result.details["budget"]["exhausted"] == "start_deadline"
                assert item.worker is None and item.wall_ms == 0.0

        asyncio.run(run())

    def test_constructor_validates_eagerly(self):
        with pytest.raises(ValueError):
            ContainmentExecutor(workers=0)
        with pytest.raises(ValueError):
            ContainmentExecutor(backend="fiber")
        with pytest.raises(TypeError):
            ContainmentExecutor(bogus_option=1)
        with pytest.raises(TypeError):
            ContainmentExecutor(kernel="subset")

    def test_budget_deadline_bounds_submission(self):
        q1, q2 = self.pair("(a|b)*", "(a b|b a)*")

        async def run():
            async with ContainmentExecutor(workers=1) as executor:
                item = await executor.submit(q1, q2, budget=Budget(deadline_ms=1e9))
                assert item.result.verdict in (
                    Verdict.HOLDS,
                    Verdict.REFUTED,
                    Verdict.INCONCLUSIVE,
                )

        asyncio.run(run())


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


def _count_resolutions(monkeypatch) -> collections.Counter:
    """Count every pass through the executor's completion funnel, per
    request id."""
    resolutions: collections.Counter = collections.Counter()
    resolve_item = ContainmentExecutor._resolve_item

    def counted(self, future, item):
        resolutions[item.request_id] += 1
        resolve_item(self, future, item)

    monkeypatch.setattr(ContainmentExecutor, "_resolve_item", counted)
    return resolutions


class _ReversedSelector(selectors.DefaultSelector):
    """Reports the events of one ``select`` call in reverse order."""

    def select(self, timeout=None):
        return super().select(timeout)[::-1]


class _AnswersThenExits:
    """Unpickles, in the worker, into the query ``a a`` and a timer that
    ends the worker 0.5 s later, after it has answered."""

    def __reduce__(self):
        return eval, (
            "(__import__('threading').Timer(0.5, __import__('os')._exit, (0,))"
            ".start(), __import__('repro.rpq.rpq', fromlist=['RPQ'])"
            ".RPQ.parse('a a'))[1]",
            {},
        )


class TestProcessBackend:
    """The process pool as a first-class substrate: start-deadline
    sheds, trace round-trips, crash isolation, telemetry repatriation."""

    def pair(self, left="a a", right="a+"):
        return RPQ(parse_regex(left)), RPQ(parse_regex(right))

    def test_expired_start_deadline_sheds_on_process_backend(self):
        # A queue-expired item on the process backend degrades exactly
        # as on the thread backend.
        import time as _time

        async def run():
            async with ContainmentExecutor(workers=1, backend="process") as executor:
                q1, q2 = self.pair()
                item = await executor.submit(
                    q1, q2, start_deadline=_time.monotonic() - 1.0
                )
                assert item.result.verdict is Verdict.INCONCLUSIVE
                assert item.result.method == "start-deadline"
                assert item.result.details["budget"]["exhausted"] == "start_deadline"
                assert item.worker is None and item.wall_ms == 0.0

        asyncio.run(run())

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

        async def run():
            async with ContainmentExecutor(workers=1, backend="process") as executor:
                crashed = await executor.submit(_PoisonPill(), _PoisonPill(), index=0)
                assert crashed.result.verdict is Verdict.ERROR
                q1, q2 = self.pair()
                after = await executor.submit(q1, q2, index=1)
                assert after.result.verdict is Verdict.HOLDS

        asyncio.run(run())

    def test_an_innocent_check_survives_a_crash_on_its_own_worker(self):
        # A slow innocent check runs beside a poison pill: only the
        # pill's worker dies (twice: the pill is retried once), and the
        # innocent check finishes on its first attempt, on a worker that
        # was there before the crash.
        from repro.obs.experiments import _PoisonPill

        word = " ".join("ab"[i % 2] for i in range(6000))
        slow = (RPQ(parse_regex(word)), RPQ(parse_regex("a")))

        async def run():
            async with ContainmentExecutor(workers=2, backend="process") as executor:
                warm = [executor.submit(*self.pair(), index=i) for i in range(2)]
                pids = {_pid(await future) for future in warm}
                assert len(pids) == 2
                rebuilds = REGISTRY.counter("batch.pool_rebuilds").value
                innocent = executor.submit(*slow, index=2)
                poison = executor.submit(_PoisonPill(), _PoisonPill(), index=3)
                crashed = await poison
                item = await innocent
            return pids, rebuilds, crashed, item

        pids, rebuilds, crashed, item = asyncio.run(run())
        assert crashed.result.verdict is Verdict.ERROR
        assert crashed.result.details["error"]["type"] == "BrokenProcessPool"
        assert item.result.verdict is Verdict.REFUTED
        assert _pid(item) in pids
        assert REGISTRY.counter("batch.pool_rebuilds").value == rebuilds + 2

    def test_a_worker_killed_while_idle_is_replaced(self):
        async def run():
            async with ContainmentExecutor(workers=1, backend="process") as executor:
                pid = _pid(await executor.submit(*self.pair(), index=0))
                os.kill(pid, signal.SIGKILL)
                deadline = time.monotonic() + 60
                while REGISTRY.counter("batch.pool_rebuilds").value < 1:
                    assert time.monotonic() < deadline, "the dead worker was not replaced"
                    await asyncio.sleep(0.01)
                return pid, await executor.submit(*self.pair(), index=1)

        pid, after = asyncio.run(run())
        assert after.result.verdict is Verdict.HOLDS
        assert _pid(after) != pid
        assert REGISTRY.counter("batch.pool_rebuilds").value == 1

    def test_an_argument_that_fails_to_unpickle_is_its_own_error(self):
        # The worker survives: the item is an ERROR at its index, with the
        # unpickler's own exception type, and nothing is respawned.
        async def run():
            async with ContainmentExecutor(workers=1, backend="process") as executor:
                pid = _pid(await executor.submit(*self.pair(), index=0))
                bad = await executor.submit(
                    _UnpicklesToValueError(), RPQ(parse_regex("a")),
                    index=5, request_id="r5",
                )
                after = await executor.submit(*self.pair(), index=6)
            return pid, bad, after

        pid, bad, after = asyncio.run(run())
        error = bad.result.details["error"]
        assert bad.result.verdict is Verdict.ERROR
        assert (bad.index, bad.request_id) == (5, "r5")
        assert (error["type"], error["index"]) == ("ValueError", 5)
        assert "not a number" in error["message"]
        assert after.result.verdict is Verdict.HOLDS and _pid(after) == pid
        assert REGISTRY.counter("batch.pool_rebuilds").value == 0

    def test_workers_that_die_at_start_up_are_not_respawned_forever(self, monkeypatch):
        # A start-up argument that kills the worker when it unpickles:
        # the first worker and its replacement die before their first
        # item, so the pool stops instead of looping, and items are
        # refused as isolated errors.
        from repro.core import batch
        from repro.obs.experiments import _PoisonPill

        context = batch._process_context()

        class PoisonedContext:
            Pipe = staticmethod(context.Pipe)

            @staticmethod
            def Process(*, target, args, daemon):
                return context.Process(
                    target=target, args=(*args, _PoisonPill()), daemon=daemon
                )

        monkeypatch.setattr(batch, "_process_context", PoisonedContext)

        async def run():
            executor = ContainmentExecutor(workers=1, backend="process")
            try:
                deadline = time.monotonic() + 60
                while executor._broken is None:
                    assert time.monotonic() < deadline, "the pool never stopped"
                    await asyncio.sleep(0.01)
                return await executor.submit(*self.pair(), index=1)
            finally:
                await executor.shutdown()

        item = asyncio.run(run())
        error = item.result.details["error"]
        assert (error["type"], error["index"]) == ("BrokenProcessPool", 1)
        assert "died" in error["message"]
        assert REGISTRY.counter("batch.pool_rebuilds").value == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_coroutines_submitting_in_bursts_get_each_answer_exactly_once(
        self, backend, monkeypatch
    ):
        # More workers than cores and eight coroutines submitting awaited
        # bursts of three, so the pool keeps passing between all-busy and
        # all-idle (a job left queued beside an idle worker would never
        # finish): every future resolves once, through the one funnel, to
        # its own index and the sequential verdict, and the pool ends idle.
        pairs = e1_workload()[:12]
        expected = [result.verdict for result in sequential_baseline(pairs)]
        resolutions = _count_resolutions(monkeypatch)
        submitted: dict[int, asyncio.Future] = {}

        async def submitter(executor, offset, stop):
            for burst in range(40):
                if time.monotonic() > stop:
                    return
                futures = []
                for index in range(burst * 24 + offset, burst * 24 + 24, 8):
                    submitted[index] = executor.submit(
                        *pairs[index % len(pairs)], index=index,
                        request_id=f"r{index}",
                    )
                    futures.append(submitted[index])
                await asyncio.wait(futures, timeout=30)

        async def run():
            async with ContainmentExecutor(workers=3, backend=backend) as executor:
                stop = time.monotonic() + 5.0
                submitters = [submitter(executor, offset, stop) for offset in range(8)]
                await asyncio.wait_for(asyncio.gather(*submitters), 60)
                for index, future in submitted.items():
                    item = future.result()
                    assert (item.index, item.request_id) == (index, f"r{index}")
                    assert item.result.verdict is expected[index % len(pairs)]
                assert not executor._queue
                assert all(worker.job is None for worker in executor._workers)
                assert len(executor._idle) == 3

        asyncio.run(run())
        assert len(submitted) >= 24
        assert resolutions == collections.Counter(f"r{index}" for index in submitted)

    @pytest.mark.parametrize(
        "selector", [selectors.DefaultSelector, _ReversedSelector],
        ids=["in-order", "reversed"],
    )
    def test_an_answer_ready_with_its_workers_death_is_delivered_once(
        self, selector, monkeypatch
    ):
        # The worker answers, then its query's timer ends it 0.5 s later;
        # the loop is blocked for 2 s meanwhile, so the worker's pipe and
        # its sentinel are ready in the same loop iteration, reported in
        # either order.  The answer is delivered once, from that worker,
        # and the item is not retried: the respawned worker runs only the
        # next item.
        resolutions = _count_resolutions(monkeypatch)

        async def run():
            async with ContainmentExecutor(workers=1, backend="process") as executor:
                pid = _pid(await executor.submit(*self.pair(), request_id="warm"))
                future = executor.submit(
                    _AnswersThenExits(), RPQ(parse_regex("a+")), request_id="r1"
                )
                time.sleep(2.0)  # blocks the loop: the answer, then the death
                item = await future
                after = await executor.submit(*self.pair(), request_id="after")
            return pid, item, after

        loop = asyncio.SelectorEventLoop(selector())
        try:
            pid, item, after = loop.run_until_complete(run())
        finally:
            loop.close()
        assert item.result.verdict is Verdict.HOLDS
        assert _pid(item) == pid
        assert after.result.verdict is Verdict.HOLDS and _pid(after) != pid
        assert resolutions == collections.Counter(["warm", "r1", "after"])
        assert REGISTRY.counter("batch.pool_rebuilds").value == 1

    def test_the_process_backend_starts_no_thread_in_the_parent(self):
        # Answers and deaths are read by the event loop itself: neither
        # serving items nor respawning a crashed worker starts a thread.
        from repro.obs.experiments import _PoisonPill

        before = set(threading.enumerate())

        async def run():
            async with ContainmentExecutor(workers=2, backend="process") as executor:
                futures = [executor.submit(*self.pair(), index=i) for i in range(6)]
                crashed = await executor.submit(_PoisonPill(), _PoisonPill())
                items = [await future for future in futures]
                assert set(threading.enumerate()) == before
            return crashed, items

        crashed, items = asyncio.run(run())
        assert crashed.result.verdict is Verdict.ERROR
        assert all(item.result.verdict is Verdict.HOLDS for item in items)
        assert REGISTRY.counter("batch.pool_rebuilds").value == 2
        assert set(threading.enumerate()) == before

    def test_pool_deadline_degrades_only_unsent_items(self):
        # The first item is written to the idle worker at submit, so it
        # runs; the rest wait in the queue, and only those degrade.
        batch = check_containment_many(
            e1_workload(), workers=1, backend="process", pool_deadline_ms=0.01
        )
        degraded = [
            item.result.method == "batch-pool-deadline" for item in batch.items
        ]
        assert not degraded[0] and any(degraded)
        assert degraded == sorted(degraded)  # the queue is first in, first out
        for item, starved in zip(batch.items, degraded):
            assert (item.worker is None) == starved

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

        async def run():
            async with ContainmentExecutor(workers=1, backend="process") as executor:
                await executor.submit(*slow)
                reset_metrics()
                await executor.submit(*self.pair("a", "a|b"))

        asyncio.run(run())
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


def _pid(item: BatchItem) -> int:
    """The pid in a process item's ``pid:<n>/<thread>`` worker label."""
    return int(item.worker.split("/")[0].removeprefix("pid:"))


class _UnpicklesToValueError:
    """An argument whose unpickling raises ``ValueError`` (and nothing
    worse) in the worker."""

    def __reduce__(self):
        return int, ("not a number",)
