"""Process-local metrics: counters, gauges, fixed-bucket histograms.

The aggregate side of observability — where traces answer "what did
*this* check do", metrics answer "what has the process been doing":
how many checks per query class, the verdict mix, the latency
distribution, the cache hit/miss/eviction counts.  It is the process's
one counter vocabulary: the LRU caches count here too, under
``cache.<name>.hits|misses|evictions``, and :func:`repro.cache.cache_stats`
is a view over those counters.  :func:`metrics_snapshot` is the
machine-readable dump.

Design:

- instruments live in a :class:`MetricsRegistry`; the module-level
  :data:`REGISTRY` is the process default, with :func:`counter` /
  :func:`gauge` / :func:`histogram` as get-or-create accessors;
- accessors return *stable objects*, so hot call sites hoist them to
  module level once and pay a bare attribute increment per event
  (``_CHECKS.inc()``), never a registry lookup;
- :func:`reset_metrics` zeroes values **in place** — hoisted handles
  stay valid across resets (tests and benchmarks rely on this);
- histogram buckets are fixed at creation (cumulative upper bounds,
  Prometheus-style, with a ``+Inf`` catch-all), so snapshots from
  different processes aggregate by simple addition;
- instruments are **thread-safe**: each carries a lock taken around
  every mutation (and around multi-field histogram reads), so counter
  sums stay exact under the batch layer's worker pools.  Registry
  get-or-create is likewise locked, so two threads asking for the same
  name always receive the same instrument;
- :meth:`MetricsRegistry.drain` hands over what moved since the last
  drain and zeroes it in place: a process-pool worker drains once per
  item and the parent folds the payload in with
  :func:`merge_snapshot_delta` (DESIGN.md "Concurrency architecture").
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "DEFAULT_BUCKETS_MS",
    "counter",
    "gauge",
    "histogram",
    "metrics_snapshot",
    "reset_metrics",
    "merge_snapshot_delta",
]

#: Default histogram boundaries, tuned for check latencies in ms
#: (sub-ms cache hits up to multi-second escalation runs).
DEFAULT_BUCKETS_MS = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)


class Counter:
    """A monotonically increasing count (thread-safe)."""

    __slots__ = ("name", "value", "_lock")

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for deltas")
        with self._lock:
            self.value += amount

    def reset(self) -> None:
        with self._lock:
            self.value = 0

    def snapshot(self) -> dict[str, Any]:
        return {"type": self.kind, "value": self.value}

    def drain(self) -> dict[str, Any] | None:
        """Snapshot and zero in one locked step (None when nothing moved)."""
        with self._lock:
            value, self.value = self.value, 0
        return {"type": self.kind, "value": value} if value else None


class Gauge:
    """A value that can go up and down (sizes, in-flight work); thread-safe."""

    __slots__ = ("name", "value", "_lock")

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self.value -= amount

    def reset(self) -> None:
        with self._lock:
            self.value = 0

    def snapshot(self) -> dict[str, Any]:
        return {"type": self.kind, "value": self.value}


class Histogram:
    """Fixed-boundary cumulative histogram (plus sum/count/min/max).

    ``bucket_counts[i]`` counts observations ``<= boundaries[i]``; the
    final slot is the ``+Inf`` catch-all.  Boundaries are fixed at
    creation so snapshots are mergeable across processes.
    """

    __slots__ = (
        "name", "boundaries", "bucket_counts", "count", "total", "min", "max",
        "_lock",
    )

    kind = "histogram"

    def __init__(self, name: str, buckets: Iterable[float] = DEFAULT_BUCKETS_MS) -> None:
        self.name = name
        self.boundaries = tuple(sorted(set(buckets)))
        if not self.boundaries:
            raise ValueError("histogram needs at least one bucket boundary")
        self._lock = threading.Lock()
        self.reset()

    def observe(self, value: float) -> None:
        with self._lock:
            self.bucket_counts[bisect.bisect_left(self.boundaries, value)] += 1
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    def reset(self) -> None:
        with self._lock:
            self._zero()

    def _zero(self) -> None:
        self.bucket_counts = [0] * (len(self.boundaries) + 1)
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float | None:
        """Upper bucket boundary covering quantile *q* (None when empty).

        The usual histogram-quantile estimate: the smallest boundary
        whose cumulative count reaches ``q * count``.  Observations in
        the ``+Inf`` bucket report the largest finite boundary.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        with self._lock:
            if not self.count:
                return None
            target = q * self.count
            cumulative = 0
            for boundary, bucket in zip(self.boundaries, self.bucket_counts):
                cumulative += bucket
                if cumulative >= target:
                    return boundary
            return self.boundaries[-1]

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return self._snapshot()

    def drain(self) -> dict[str, Any] | None:
        """Snapshot and zero in one locked step (None when nothing moved).

        The window's ``min``/``max`` are its own observations' bounds,
        because the previous drain zeroed them.
        """
        with self._lock:
            if not self.count:
                return None
            window = self._snapshot()
            self._zero()
        return window

    def _snapshot(self) -> dict[str, Any]:
        cumulative: dict[str, int] = {}
        running = 0
        for boundary, bucket in zip(self.boundaries, self.bucket_counts):
            running += bucket
            cumulative[repr(boundary)] = running
        cumulative["+Inf"] = self.count
        return {
            "type": self.kind,
            "count": self.count,
            "sum": round(self.total, 6),
            "min": self.min,
            "max": self.max,
            "mean": round(self.mean, 6),
            "buckets": cumulative,
        }

    def merge_delta(
        self,
        count: int,
        total: float,
        minimum: float | None = None,
        maximum: float | None = None,
        buckets: dict[str, int] | None = None,
    ) -> None:
        """Fold another process's observation window into this histogram.

        ``buckets`` uses the snapshot wire shape — *cumulative* counts
        keyed by ``repr(boundary)`` plus a ``"+Inf"`` catch-all — which
        is what :meth:`drain` returns.  A boundary this histogram does
        not have lands in the covering bucket, so merging never loses
        observations even across boundary drift.  ``minimum``/``maximum``
        are the window's own bounds, folded with min/max.
        """
        if count <= 0:
            return
        with self._lock:
            self.count += count
            self.total += total
            if minimum is not None and (self.min is None or minimum < self.min):
                self.min = minimum
            if maximum is not None and (self.max is None or maximum > self.max):
                self.max = maximum
            if not buckets:
                # No bucket detail: everything lands in the catch-all.
                self.bucket_counts[-1] += count
                return
            running = 0
            for key in sorted(
                buckets, key=lambda k: float("inf") if k == "+Inf" else float(k)
            ):
                increment = buckets[key] - running
                running = buckets[key]
                if increment <= 0:
                    continue
                if key == "+Inf":
                    index = len(self.boundaries)
                else:
                    index = bisect.bisect_left(self.boundaries, float(key))
                self.bucket_counts[index] += increment


class MetricsRegistry:
    """A named collection of instruments (one per process by default)."""

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, factory, kind: str):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory()
                self._instruments[name] = instrument
            elif instrument.kind != kind:
                raise TypeError(
                    f"metric {name!r} already registered as a {instrument.kind}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, lambda: Counter(name), "counter")

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name), "gauge")

    def histogram(
        self, name: str, buckets: Iterable[float] = DEFAULT_BUCKETS_MS
    ) -> Histogram:
        return self._get_or_create(name, lambda: Histogram(name, buckets), "histogram")

    def snapshot(self, prefix: str | None = None) -> dict[str, dict[str, Any]]:
        """Machine-readable dump of every instrument, name-sorted.

        ``prefix`` restricts the dump to instruments whose name starts
        with it (e.g. ``"serve."`` for the serving layer's ``metrics``
        control verb) — filtering happens here, under the registry
        lock, so callers never iterate a mutating table.
        """
        with self._lock:
            instruments = dict(self._instruments)
        return {
            name: instruments[name].snapshot()
            for name in sorted(instruments)
            if prefix is None or name.startswith(prefix)
        }

    def reset(self) -> None:
        """Zero every instrument in place (hoisted handles stay valid)."""
        with self._lock:
            instruments = list(self._instruments.values())
        for instrument in instruments:
            instrument.reset()

    def drain(self) -> dict[str, dict[str, Any]]:
        """Hand over every counter and histogram that moved, zeroed in place.

        Each instrument is read and zeroed under its own lock, so an
        increment racing the drain lands in this window or the next,
        never in neither; hoisted handles keep counting.  Gauges are
        point-in-time values of this process and are not drained.
        Returns ``{}`` when nothing moved.  The payload is what
        :func:`merge_snapshot_delta` folds into another registry.
        """
        with self._lock:
            instruments = list(self._instruments.items())
        moved: dict[str, dict[str, Any]] = {}
        for name, instrument in instruments:
            if instrument.kind != "gauge":
                window = instrument.drain()
                if window is not None:
                    moved[name] = window
        return moved


#: The process-default registry (what the engine and CLI report from).
REGISTRY = MetricsRegistry()


def counter(name: str) -> Counter:
    """Get-or-create a counter on the default registry."""
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    """Get-or-create a gauge on the default registry."""
    return REGISTRY.gauge(name)


def histogram(name: str, buckets: Iterable[float] = DEFAULT_BUCKETS_MS) -> Histogram:
    """Get-or-create a histogram on the default registry."""
    return REGISTRY.histogram(name, buckets)


def metrics_snapshot(prefix: str | None = None) -> dict[str, dict[str, Any]]:
    """Snapshot of the default registry."""
    return REGISTRY.snapshot(prefix)


def reset_metrics() -> None:
    """Zero the default registry in place, cache counters included
    (tests/benchmarks)."""
    REGISTRY.reset()


def merge_snapshot_delta(
    delta: dict[str, dict[str, Any]], registry: MetricsRegistry | None = None
) -> None:
    """Fold a :meth:`MetricsRegistry.drain` payload into a registry
    (default: the process registry).

    Instruments are get-or-created, so a worker-only metric still shows
    up in the parent; a name that exists with a mismatched kind raises
    (the registry's usual contract) rather than silently misfiling.
    """
    target = REGISTRY if registry is None else registry
    for name, data in delta.items():
        kind = data.get("type")
        if kind == "counter":
            increment = data.get("value", 0)
            if increment > 0:
                target.counter(name).inc(increment)
        elif kind == "histogram":
            target.histogram(name).merge_delta(
                int(data.get("count", 0)),
                float(data.get("sum", 0.0)),
                data.get("min"),
                data.get("max"),
                data.get("buckets"),
            )
