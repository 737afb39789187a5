"""Tests for the canonical-form-keyed cache layer (repro.cache).

Covers the LRU mechanics, the counters each cache keeps on the metrics
registry (and :func:`cache_stats`, the view over them), the engine's
containment cache (repeat calls served from cache with identical
results, hit/miss surfaced in ``details["cache"]``), and the bypass
rule for unhashable queries.
"""

from __future__ import annotations

import subprocess
import sys
import threading

import pytest

from repro.budget import BudgetExhausted
from repro.cache import (
    LRUCache,
    cache_stats,
    clear_caches,
    containment_cache,
    query_cache_key,
)
from repro.core.engine import check_containment
from repro.obs.metrics import metrics_snapshot, reset_metrics
from repro.report import Verdict
from repro.rpq.rpq import RPQ, TwoRPQ


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches(reset_stats=True)
    yield
    clear_caches(reset_stats=True)


class TestLRUCache:
    def test_get_put_and_counters(self):
        cache = LRUCache("test-basic", maxsize=4)
        assert cache.get("k") is None
        cache.put("k", 1)
        assert cache.get("k") == 1
        assert cache.misses.value == 1
        assert cache.hits.value == 1
        assert cache_stats()["test-basic"]["hit_rate"] == 0.5

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache("test-lru", maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now LRU
        cache.put("c", 3)
        assert cache.evictions.value == 1
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_get_or_compute_computes_once(self):
        cache = LRUCache("test-compute", maxsize=4)
        calls = []
        compute = lambda: calls.append(1) or "value"  # noqa: E731
        assert cache.get_or_compute("k", compute) == "value"
        assert cache.get_or_compute("k", compute) == "value"
        assert len(calls) == 1

    def test_follower_computes_when_the_leader_runs_out_of_budget(self):
        """A leader stopped by its own deadline says nothing about the
        key: its follower computes the value instead of re-raising."""
        cache = LRUCache("test-single-flight-budget", maxsize=4)
        entered, follower_waiting = threading.Event(), threading.Event()
        leader_errors = []

        def leader_compute():
            entered.set()
            follower_waiting.wait(timeout=30)
            raise BudgetExhausted(resource="deadline", spent=151.0, limit=150.0)

        def leader():
            try:
                cache.get_or_compute("key", leader_compute)
            except BudgetExhausted as exc:
                leader_errors.append(exc.resource)

        class SignallingEvent(threading.Event):
            def wait(self, timeout=None):
                follower_waiting.set()
                return super().wait(timeout)

        thread = threading.Thread(target=leader)
        thread.start()
        assert entered.wait(timeout=30)
        # Release the leader only once this caller waits on its flight.
        cache._inflight["key"].event = SignallingEvent()
        assert cache.get_or_compute("key", lambda: "value") == "value"
        thread.join(timeout=30)
        assert leader_errors == ["deadline"]
        assert cache.get("key") == "value"

    def test_clear_empties_and_optionally_resets_stats(self):
        cache = LRUCache("test-clear", maxsize=4)
        cache.put("k", 1)
        cache.get("k")
        cache.clear()
        assert len(cache) == 0 and cache.hits.value == 1
        cache.clear(reset_stats=True)
        assert cache.hits.value == 0

    def test_held_stats_handle_survives_clear(self):
        # clear(reset_stats=True) zeroes the counters in place, so a
        # handle a metrics exporter (or batch worker) grabbed earlier
        # keeps reporting live counts.
        cache = LRUCache("test-stats-handle", maxsize=4)
        handle = cache.hits
        cache.put("k", 1)
        cache.get("k")
        cache.clear(reset_stats=True)
        assert cache.hits is handle
        assert handle.value == 0
        cache.put("k", 2)
        cache.get("k")
        assert handle.value == 1  # live counters, not a stale snapshot

    def test_held_stats_handle_survives_global_clear_caches(self):
        hits, misses = containment_cache.hits, containment_cache.misses
        check_containment(RPQ.parse("a"), RPQ.parse("a|b"))
        assert misses.value >= 1
        clear_caches(reset_stats=True)
        assert containment_cache.misses is misses
        assert misses.value == 0 and hits.value == 0
        check_containment(RPQ.parse("a"), RPQ.parse("a|b"))
        assert misses.value == 1

    def test_counters_live_in_the_metrics_registry(self):
        check_containment(RPQ.parse("a a"), RPQ.parse("a+"))
        check_containment(RPQ.parse("a a"), RPQ.parse("a+"))
        snapshot, stats = metrics_snapshot(), cache_stats()
        for name in stats:
            for what in ("hits", "misses", "evictions"):
                assert snapshot[f"cache.{name}.{what}"]["value"] == stats[name][what]
        assert stats["containment"]["hits"] == 1
        assert stats["containment"]["misses"] == 1
        reset_metrics()
        assert cache_stats()["containment"]["hits"] == 0

    def test_importing_the_cache_first_closes_no_cycle(self):
        # repro.cache imports repro.obs.metrics, whose package imports
        # repro.obs.telemetry: that module must not import repro.cache.
        subprocess.run([sys.executable, "-c", "import repro.cache"], check=True)


class TestQueryCacheKey:
    def test_hashable_queries_key_by_type_and_value(self):
        q = RPQ.parse("a b*")
        assert query_cache_key(q) == query_cache_key(RPQ.parse("a b*"))
        assert query_cache_key(q) != query_cache_key(TwoRPQ.parse("a b*"))

    def test_unhashable_objects_opt_out(self):
        assert query_cache_key({"not": "hashable"}) is None


class TestEngineContainmentCache:
    def test_repeat_check_is_served_from_cache(self):
        q1, q2 = RPQ.parse("a a"), RPQ.parse("a+")
        first = check_containment(q1, q2)
        second = check_containment(q1, q2)
        assert first.details["cache"] == "miss"
        assert second.details["cache"] == "hit"
        assert first.verdict == second.verdict == Verdict.HOLDS
        stats = cache_stats()["containment"]
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_structurally_equal_queries_share_an_entry(self):
        check_containment(RPQ.parse("a"), RPQ.parse("a|b"))
        repeat = check_containment(RPQ.parse("a"), RPQ.parse("a|b"))
        assert repeat.details["cache"] == "hit"

    def test_cached_and_uncached_results_are_identical(self):
        pairs = [
            (RPQ.parse("a a"), RPQ.parse("a+")),
            (RPQ.parse("a+"), RPQ.parse("a a")),
            (TwoRPQ.parse("p"), TwoRPQ.parse("p p- p")),
            (TwoRPQ.parse("p p- p"), TwoRPQ.parse("p")),
        ]
        for q1, q2 in pairs:
            warm = check_containment(q1, q2)
            cached = check_containment(q1, q2)
            clear_caches()
            cold = check_containment(q1, q2)
            assert cached.details["cache"] == "hit"
            assert cold.details["cache"] == "miss"
            for result in (cached, cold):
                assert result.verdict == warm.verdict
                assert result.method == warm.method
                assert result.counterexample == warm.counterexample

    def test_regex_nfa_is_the_only_compile_cache(self):
        check_containment(RPQ.parse("(a|b)* a"), RPQ.parse("(a|b)*"))
        stats = cache_stats()
        assert stats["regex-nfa"]["size"] > 0
        # Compilation has one cache: reduce_nfa's determinize runs once
        # per regex-nfa miss, so it is not cached again.
        assert "determinize" not in stats
