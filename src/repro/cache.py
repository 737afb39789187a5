"""Canonical-form-keyed LRU caches for the compilation pipeline.

The containment engine recompiles the same artifacts constantly: a
workload of ``check(Q1, Q2)`` calls re-derives regex→NFA compilations
and — for repeated query pairs — entire containment verdicts.  This
module provides the shared memoization layer: two small, bounded LRU
caches, ``regex-nfa`` and ``containment``.  Each counts its hits,
misses and evictions on the metrics registry as
``cache.<name>.hits|misses|evictions`` (:mod:`repro.obs.metrics`), and
:func:`cache_stats` is a view over those counters plus each cache's
size.

Nothing derived from a graph database lives here.  Evaluation state
(compiled contexts, answer sets, C2RPQ instantiations) belongs to the
database's :class:`~repro.graphdb.snapshot.GraphSnapshot`, in its
``memo``, and dies with the snapshot.

Canonical-key rules (see DESIGN.md "Performance architecture"):

- **Keys bind full structural identity.**  A regex key is the frozen
  AST itself; a query key is ``(type, value)`` of a frozen query
  object, so two queries share an entry only when they are equal
  component-for-component, never merely isomorphic.
- **Values are immutable** (frozen dataclasses over frozensets), so
  sharing needs no copying and no invalidation: a key can never go
  stale because nothing it points to can change.  The only eviction is
  LRU pressure.
- **Unhashable inputs opt out.**  The engine skips the cache whenever a
  query or an option does not hash.

:func:`clear_caches` resets contents (benchmarks call it between
ablation arms so both arms compile from cold), and by default zeroes
the counters in place; :func:`repro.obs.metrics.reset_metrics` zeroes
them too.

Concurrency (DESIGN.md "Concurrency architecture"): every cache is
thread-safe.  A per-cache re-entrant lock guards the entry table (the
registry counters carry their own locks), and
:meth:`LRUCache.get_or_compute` is **single-flight**:
concurrent misses on the same key run ``compute()`` exactly once — the
first caller computes while the rest wait on the in-flight entry and
are then served (and counted) as hits.  Stats therefore stay exact
under the batch layer's worker pools: one cold key costs one miss and
one compute no matter how many workers race on it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable

from .budget import BudgetExhausted
from .obs.metrics import counter

# --- the cache type -------------------------------------------------------------


class _InFlight:
    """One in-progress ``get_or_compute`` computation (single-flight)."""

    __slots__ = ("event", "owner", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.owner = threading.get_ident()
        self.value: Any = None
        self.error: BaseException | None = None


class LRUCache:
    """A bounded least-recently-used cache with instrumentation.

    ``None`` is not a legal cached value (:meth:`get` uses it as the
    miss sentinel); every value in this package is a result object, so
    the restriction costs nothing.

    ``hits``, ``misses`` and ``evictions`` are the registry counters
    ``cache.<name>.hits|misses|evictions``; two caches of one name
    share them.

    Thread-safe: a re-entrant lock guards the entry table, and
    :meth:`get_or_compute` is single-flight (see module docstring).
    ``compute()`` itself always runs outside the lock, so a computation
    may recurse into the same cache freely.
    """

    def __init__(self, name: str, maxsize: int = 1024) -> None:
        self.name = name
        self.maxsize = maxsize
        self.hits = counter(f"cache.{name}.hits")
        self.misses = counter(f"cache.{name}.misses")
        self.evictions = counter(f"cache.{name}.evictions")
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.RLock()
        self._inflight: dict[Hashable, _InFlight] = {}
        _REGISTRY[name] = self

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up *key*, counting a hit or miss."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.misses.inc()
                return default
            self._entries.move_to_end(key)
            self.hits.inc()
            return value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Look up *key* without touching counters or LRU order.

        For callers probing several candidate keys per logical request
        (the engine's exact-vs-budgeted containment keys): only the
        authoritative lookup should count toward hit/miss stats.
        """
        with self._lock:
            return self._entries.get(key, default)

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) an entry, evicting LRU past ``maxsize``."""
        if value is None:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions.inc()

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """``get`` falling back to ``compute()`` — run exactly once per key.

        Single-flight: when several threads miss the same cold key
        concurrently, one (the *leader*) runs ``compute()`` while the
        rest block on the in-flight entry and receive the leader's
        value.  Exactly one miss is counted (the leader's); followers
        count as hits, because they were served without computing —
        so the counters match what a sequential interleaving of the
        same requests would have recorded.  If the leader's compute
        raises, followers re-raise the same exception and nothing is
        cached — except :class:`~repro.budget.BudgetExhausted`, which
        says the leader's own request ran out (its deadline, typically)
        and nothing about the key: a follower then computes the value
        itself, under its own budget.  A re-entrant call from the
        leader's own ``compute()`` on the same key (pathological but
        possible) computes directly instead of deadlocking.
        """
        while True:
            with self._lock:
                value = self._entries.get(key)
                if value is not None:
                    self._entries.move_to_end(key)
                    self.hits.inc()
                    return value
                flight = self._inflight.get(key)
                if flight is None:
                    flight = _InFlight()
                    self._inflight[key] = flight
                    self.misses.inc()
                    break  # this thread is the leader
                if flight.owner == threading.get_ident():
                    # Re-entrant same-key compute: fall back to direct
                    # computation rather than waiting on ourselves.
                    self.misses.inc()
                    value = compute()
                    self.put(key, value)
                    return value
            flight.event.wait()
            if isinstance(flight.error, BudgetExhausted):
                continue  # the leader's budget, not ours: compute afresh
            if flight.error is not None:
                raise flight.error
            if flight.value is not None:
                self.hits.inc()
                return flight.value
            # Leader computed None (uncacheable): loop and retry fresh.
        try:
            value = compute()
        except BaseException as exc:
            flight.error = exc
            with self._lock:
                self._inflight.pop(key, None)
            flight.event.set()
            raise
        self.put(key, value)
        flight.value = value
        with self._lock:
            self._inflight.pop(key, None)
        flight.event.set()
        return value

    def clear(self, reset_stats: bool = False) -> None:
        """Empty the cache; optionally zero the counters **in place**.

        The counters are never rebound: hoisted ``cache.hits`` handles
        keep observing the live counts after a clear (the contract
        :mod:`repro.obs.metrics` documents for its registry).
        """
        with self._lock:
            self._entries.clear()
            if reset_stats:
                for count in (self.hits, self.misses, self.evictions):
                    count.reset()


# --- registry -------------------------------------------------------------------

_REGISTRY: dict[str, LRUCache] = {}


def cache_stats() -> dict[str, dict[str, Any]]:
    """Every cache's counters (read off the metrics registry) and size."""
    stats = {}
    for name, cache in _REGISTRY.items():
        hits, misses = cache.hits.value, cache.misses.value
        stats[name] = {
            "hits": hits,
            "misses": misses,
            "evictions": cache.evictions.value,
            "hit_rate": round(hits / (hits + misses), 4) if hits + misses else 0.0,
            "size": len(cache),
            "maxsize": cache.maxsize,
        }
    return stats


def clear_caches(reset_stats: bool = True) -> None:
    """Empty every registered cache (benchmarks: cold-start both arms).

    Snapshot memos are not registered caches: ``db.snapshot().memo.clear()``
    forgets one database's evaluation state.
    """
    for cache in _REGISTRY.values():
        cache.clear(reset_stats=reset_stats)


# --- the package's shared caches --------------------------------------------------

#: regex AST -> reduced NFA (the Thompson construction + reduce_nfa).
regex_nfa_cache = LRUCache("regex-nfa", maxsize=1024)

#: (Q1 key, Q2 key, options) -> ContainmentResult (the engine front door).
containment_cache = LRUCache("containment", maxsize=2048)


# --- canonical keys ----------------------------------------------------------------


def query_cache_key(query: Any) -> Hashable | None:
    """A cache key for a query object, or None when it does not hash.

    Query syntax objects across the towers (regexes, TwoRPQ/RPQ, CQ/UCQ,
    Datalog programs, RQ terms) are frozen dataclasses, so they hash;
    anything else opts out of caching rather than risking staleness.
    """
    try:
        hash(query)
    except TypeError:
        return None
    return (type(query).__module__, type(query).__qualname__, query)
