"""Concurrent batch containment: the engine's thread-safe front door.

Containment workloads are embarrassingly parallel across query pairs —
each ``check(Q1, Q2)`` is an independent run of the per-pair automata
products of the Lemma 1 / Theorem 5 pipelines — so the batch layer is a
worker pool in front of :func:`repro.core.engine.check_containment`:

    >>> from repro.core.batch import check_containment_many
    >>> batch = check_containment_many(pairs, workers=4)
    >>> [item.result.verdict.value for item in batch.items]

Semantics (DESIGN.md "Concurrency architecture"):

- **Order.** Results come back in input order regardless of completion
  order; ``batch.items[i]`` always answers ``pairs[i]``.
- **Determinism.** Verdicts are identical to the sequential loop
  ``[check_containment(q1, q2, ...) for q1, q2 in pairs]`` at any
  worker count and on either backend — the engine's procedures are
  deterministic and all shared substrate (caches, metrics) is
  thread-safe with single-flight computation, so concurrency changes
  wall-clock, never answers.
- **Failure isolation.** One item's exception becomes a
  ``Verdict.ERROR`` result for that item, with the exception type,
  message, and traceback in ``details["error"]`` — never a batch
  abort.  Budget exhaustion is *not* an error: it degrades inside the
  engine exactly as in sequential use.
- **Pool deadline.** ``pool_deadline_ms`` bounds the whole batch:
  when it expires, items that have not started are degraded to
  ``Verdict.INCONCLUSIVE`` with ``details["budget"]`` recording the
  pool deadline as the exhausted resource.  Items already running
  finish (their own per-item ``budget`` bounds them cooperatively —
  pass one if individual checks may be long).
- **Tracing.** ``trace=True`` gives every *item* its own
  :class:`repro.obs.trace.Tracer` (tracers are single-check objects by
  contract), so concurrent span trees never interleave; each item's
  tree is in its result's ``details["trace"]``.

Backends:

- ``"thread"`` — :class:`~concurrent.futures.ThreadPoolExecutor`.
  Workers share the process-wide caches (a pair computed by one worker
  is a hit for every other) and the metrics registry.  Under a GIL
  build the speedup on pure-Python checks is bounded; it is the right
  backend when checks hit caches, block on I/O, or run on free-threaded
  builds.
- ``"process"`` — :class:`~concurrent.futures.ProcessPoolExecutor`.
  True parallelism on multi-core machines; queries and results cross
  the process boundary by pickling.  The process backend is
  first-class (DESIGN.md "Concurrency architecture"):

  - **Warm start.** Every worker runs a pool initializer that imports
    the tower dispatch path and seeds the regex→NFA / determinize /
    containment caches with tiny checks, so the first real item never
    pays cold-compile latency.
  - **Crash isolation.** A worker that dies mid-item (segfault,
    ``os._exit``) breaks the pool for *every* in-flight future; the
    executor quarantines the casualties — each is retried exactly once,
    serially, against a rebuilt pool, so innocent items recompute and
    only the poison item resolves to an ``ERROR`` verdict with the
    crash under ``details["error"]``.  The pool is rebuilt
    (``batch.pool_rebuilds`` counts it) and subsequent submits
    succeed: a crashing check never aborts a batch or takes down
    ``repro serve``.
  - **Telemetry repatriation.** Each item carries a delta snapshot of
    the worker's metrics registry and cache counters
    (:attr:`BatchItem.telemetry`); the parent merges it exactly once
    at completion, so ``repro top``, the ``metrics`` verb, and
    post-batch snapshots report true figures instead of zeros.
  - **Picklable hooks.** The ``expired_result`` admission hook crosses
    the boundary when it pickles — the serving layer uses a frozen
    dataclass spec (:class:`repro.serve.admission.DeadlineShedSpec`),
    so ``start_deadline`` sheds identically on both backends.  Plain
    callables (closures, lambdas) remain fine on the thread backend.

Batch metrics (parent process): ``batch.items`` (counter),
``batch.wall_ms`` (histogram), ``batch.workers`` and
``batch.worker_utilization`` (gauges; utilization is the mean fraction
of the pool's worker-seconds spent inside checks), and
``batch.pool_rebuilds`` (counter; broken process pools replaced).
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import multiprocessing
import os
import queue as _queue
import threading
import time
import traceback
from typing import Any, Iterable, Iterator, Sequence

from ..automata.antichain import resolve_kernel
from ..budget import Budget
from ..obs.metrics import counter as _metric_counter, gauge as _metric_gauge, \
    histogram as _metric_histogram
from ..obs.telemetry import (
    merge_worker_telemetry,
    worker_telemetry_baseline,
    worker_telemetry_delta,
)
from ..obs.trace import Tracer
from ..report import ContainmentResult, Verdict
from .engine import _OPTION_UNIVERSE, check_containment

__all__ = [
    "BatchItem",
    "BatchResult",
    "ContainmentExecutor",
    "check_containment_many",
    "error_result",
    "DEFAULT_WORKERS",
    "BACKENDS",
]

#: Supported worker-pool backends.
BACKENDS = ("thread", "process")

#: Default pool width: the machine's cores, capped — containment checks
#: are CPU-bound, so oversubscribing past the core count only adds
#: scheduling noise (floor of 1 worker keeps 1-core boxes working).
DEFAULT_WORKERS = max(1, min(8, os.cpu_count() or 1))

_BATCH_ITEMS = _metric_counter("batch.items")
_BATCH_ERRORS = _metric_counter("batch.errors")
_BATCH_DEGRADED = _metric_counter("batch.degraded")
_BATCH_WALL_MS = _metric_histogram("batch.wall_ms")
_BATCH_WORKERS = _metric_gauge("batch.workers")
_BATCH_UTILIZATION = _metric_gauge("batch.worker_utilization")
_BATCH_POOL_REBUILDS = _metric_counter("batch.pool_rebuilds")

#: Attempts per item on the process backend: the original submission
#: plus one quarantined retry after a pool break.  An item that breaks
#: the pool twice is the poison and resolves to ``ERROR``.
_MAX_ATTEMPTS = 2


@dataclasses.dataclass(frozen=True)
class BatchItem:
    """One pair's outcome within a batch.

    Attributes:
        index: position of the pair in the input sequence.
        result: the :class:`ContainmentResult` — from the engine, or a
            synthesized ``ERROR`` / pool-degraded ``INCONCLUSIVE``.
        wall_ms: wall-clock the item spent inside its worker
            (0.0 for items the pool deadline degraded before starting).
        worker: label of the worker that ran the item (thread name or
            ``pid:<n>``), or ``None`` for degraded items.
        request_id: request-scoped telemetry identity (the serving
            layer assigns or propagates one; plain batches leave None).
        telemetry: repatriated worker-side accounting — the delta of
            the worker process's metrics registry and cache counters
            over exactly this item (process backend only; the thread
            backend mutates the parent registry directly and leaves
            None).  The executor merges it into the parent exactly
            once at completion; it stays on the item afterwards for
            inspection but is *not* part of the NDJSON wire payload.
    """

    index: int
    result: ContainmentResult
    wall_ms: float
    worker: str | None
    request_id: str | None = None
    telemetry: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready summary — the NDJSON result-line payload."""
        out: dict[str, Any] = {
            "index": self.index,
            "verdict": self.result.verdict.value,
            "method": self.result.method,
            "holds": self.result.holds,
            "bound": self.result.bound,
            "wall_ms": round(self.wall_ms, 3),
            "worker": self.worker,
        }
        if self.request_id is not None:
            out["request_id"] = self.request_id
        details = dict(self.result.details)
        if "error" in details:
            out["error"] = details["error"]
        if "budget" in details:
            out["budget"] = details["budget"]
        if "kernel" in details:
            out["kernel"] = details["kernel"]
        if "admission" in details:
            out["admission"] = details["admission"]
        return out


@dataclasses.dataclass(frozen=True)
class BatchResult:
    """The whole batch: per-item outcomes (input order) plus pool facts."""

    items: tuple[BatchItem, ...]
    wall_ms: float
    workers: int
    backend: str

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[BatchItem]:
        return iter(self.items)

    @property
    def results(self) -> tuple[ContainmentResult, ...]:
        """Just the :class:`ContainmentResult` objects, input order."""
        return tuple(item.result for item in self.items)

    @property
    def errors(self) -> tuple[BatchItem, ...]:
        """Items whose check raised (isolated as ``ERROR`` verdicts)."""
        return tuple(
            item for item in self.items if item.result.verdict is Verdict.ERROR
        )

    @property
    def worker_utilization(self) -> float:
        """Fraction of the pool's worker-time spent inside checks.

        Always a finite value in ``[0, 1]``: zero-item and instant
        batches (``wall_ms`` can be 0.0 on coarse clocks even when work
        ran) report 0.0 rather than dividing by zero, and measurement
        jitter that puts the summed per-item time above the pool's
        worker-seconds is clamped to 1.0.
        """
        if not self.items or self.wall_ms <= 0 or self.workers <= 0:
            return 0.0
        busy = sum(max(0.0, item.wall_ms) for item in self.items)
        return min(1.0, max(0.0, busy / (self.workers * self.wall_ms)))

    def counts(self) -> dict[str, int]:
        """Verdict histogram, e.g. ``{"holds": 12, "refuted": 8}``."""
        out: dict[str, int] = {}
        for item in self.items:
            name = item.result.verdict.value
            out[name] = out.get(name, 0) + 1
        return out

    def describe(self) -> str:
        """One-line human summary (the CLI's stderr report)."""
        counts = ", ".join(
            f"{name}={count}" for name, count in sorted(self.counts().items())
        )
        return (
            f"{len(self.items)} items in {self.wall_ms:.1f} ms "
            f"({self.backend} x{self.workers}, "
            f"utilization {self.worker_utilization:.0%}): {counts}"
        )


def error_result(
    index: int, exc: BaseException, kernel: str = "auto"
) -> ContainmentResult:
    """Failure isolation: the structured ERROR verdict for one item."""
    return ContainmentResult(
        Verdict.ERROR,
        "batch-isolated",
        details={
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": "".join(
                    traceback.format_exception(type(exc), exc, exc.__traceback__)
                ),
                "index": index,
            },
            "budget": {"spend": {}},
            "cache": "bypass",
            "kernel": {"requested": kernel, "selected": None},
        },
    )


def _degraded_result(
    pool_deadline_ms: float, elapsed_ms: float, kernel: str = "auto"
) -> ContainmentResult:
    """The INCONCLUSIVE verdict for an item the pool deadline starved."""
    return ContainmentResult(
        Verdict.INCONCLUSIVE,
        "batch-pool-deadline",
        details={
            "budget": {
                "exhausted": "pool_deadline",
                "spent": round(elapsed_ms, 3),
                "limit": pool_deadline_ms,
                "spend": {},
            },
            "cache": "bypass",
            "kernel": {"requested": kernel, "selected": None},
        },
    )


def _expired_start_result(
    late_ms: float, start_deadline_ms: float, kernel: str = "auto"
) -> ContainmentResult:
    """Default degraded verdict for an item whose start deadline passed.

    Same honest-accounting shape as the pool-deadline degradation; the
    serving layer substitutes its own factory to add admission details.
    """
    return ContainmentResult(
        Verdict.INCONCLUSIVE,
        "start-deadline",
        details={
            "budget": {
                "exhausted": "start_deadline",
                "spent": round(late_ms, 3),
                "limit": round(start_deadline_ms, 3),
                "spend": {},
            },
            "cache": "bypass",
            "kernel": {"requested": kernel, "selected": None},
        },
    )


def _warm_start(options: dict[str, Any]) -> None:
    """Process-pool initializer: pay the cold-start cost at spin-up.

    Runs once in every worker process before it accepts items.  Two
    jobs, both best-effort: importing :func:`check_containment`'s
    dispatch path pulls every tower module into the worker (the
    fork-server preloads this module, so under ``forkserver`` the
    import is inherited and under ``spawn`` front-loaded here), and a
    pair of tiny checks seeds the regex→NFA,
    determinize, and containment caches so the first real item starts
    against warm compilation machinery.  The warm pair is deliberately
    obscure (``a b a b`` vs ``(a b)*``) so it cannot collide with a
    real workload's cache keys and skew repatriated stats.  Failures
    are swallowed: warm start is an optimization, and a worker that
    cannot warm still isolates real item failures normally.
    """
    from ..automata.regex import parse_regex
    from ..rpq.rpq import RPQ

    try:
        q1 = RPQ(parse_regex("a b a b"))
        q2 = RPQ(parse_regex("(a b)*"))
        check_containment(q1, q2, **options)
        check_containment(q2, q1, **options)
    except Exception:
        pass


def _run_one_item(
    index: int,
    q1: Any,
    q2: Any,
    budget: Budget | str | None,
    trace: bool,
    options: dict[str, Any],
    start_deadline: float | None = None,
    expired_result: Any = None,
    request_id: str | None = None,
    collect_telemetry: bool = False,
) -> BatchItem:
    """One worker-side check: isolate failures, label the worker.

    Module-level (not a closure) so the process backend can pickle it.
    Each traced item gets its *own* Tracer — the tracer contract is one
    tracer per check, which is what keeps concurrent span trees from
    interleaving.

    ``start_deadline`` is an absolute ``time.monotonic`` instant: if the
    pool dequeues the item after it, the check never starts and the item
    degrades via ``expired_result(late_ms)`` (default: an
    ``INCONCLUSIVE`` with method ``"start-deadline"``).  This is the
    admission-control hook of the serving layer — queue wait counts
    against a request's deadline even though the engine's own
    ``BudgetMeter`` clock only starts when the check does.

    ``expired_result`` may be any ``(late_ms) -> ContainmentResult``
    callable on the thread backend; on the process backend it must
    pickle (the serving layer's spec is a frozen dataclass —
    :class:`repro.serve.admission.DeadlineShedSpec`).

    ``collect_telemetry`` (process backend) brackets the check with a
    metrics/cache baseline-and-delta pair so the parent can repatriate
    this worker's accounting; the thread backend shares the parent
    registry and skips it.
    """
    start = time.monotonic()
    if start_deadline is not None and start > start_deadline:
        late_ms = (start - start_deadline) * 1000.0
        if expired_result is not None:
            result = expired_result(late_ms)
        else:
            result = _expired_start_result(
                late_ms, start_deadline, kernel=options.get("kernel", "auto")
            )
        return BatchItem(index, result, 0.0, None, request_id)
    worker = f"pid:{os.getpid()}/{threading.current_thread().name}"
    baseline = worker_telemetry_baseline() if collect_telemetry else None
    try:
        if trace:
            result = check_containment(
                q1, q2, budget=budget, trace=Tracer(), **options
            )
        else:
            result = check_containment(q1, q2, budget=budget, **options)
    except Exception as exc:
        result = error_result(index, exc, kernel=options.get("kernel", "auto"))
    wall_ms = (time.monotonic() - start) * 1000.0
    telemetry = (
        worker_telemetry_delta(baseline) if baseline is not None else None
    )
    return BatchItem(index, result, wall_ms, worker, request_id, telemetry)


def _validate_pool_args(
    workers: int, backend: str, options: dict[str, Any]
) -> None:
    """Eager caller-error checks shared by the executor and the batch."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; use one of {BACKENDS}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, not {workers}")
    unknown = sorted(set(options) - _OPTION_UNIVERSE)
    if unknown:
        # Fail fast in the caller's frame, exactly as the sequential
        # loop would on its first item — a typo is not an item failure.
        raise TypeError(
            f"unknown option(s) {', '.join(map(repr, unknown))}; "
            f"valid options are {', '.join(sorted(_OPTION_UNIVERSE))}"
        )
    if "kernel" in options:
        # Same fail-fast contract: a bad kernel value is a caller typo,
        # not a per-item failure to isolate as an ERROR verdict.
        resolve_kernel(options["kernel"])


class _ItemFuture(concurrent.futures.Future):
    """The future :meth:`ContainmentExecutor.submit` hands back.

    A thin outer future decoupled from any one pool future, so the
    executor can replace the pool (crash recovery) without invalidating
    what callers hold.  ``cancel()`` delegates to the live inner
    future: it succeeds only when the underlying item never started,
    preserving the pool-deadline contract ("only unstarted items
    degrade") across rebuilds.  An item queued for a quarantined retry
    counts as started (its original pool future is already done), so it
    is not cancellable.
    """

    def __init__(self) -> None:
        super().__init__()
        self.inner: concurrent.futures.Future | None = None

    def cancel(self) -> bool:  # noqa: D102 — contract in class docstring
        inner = self.inner
        if inner is not None and not inner.cancel():
            return False
        return super().cancel()


class ContainmentExecutor:
    """A persistent worker pool with the batch layer's per-item semantics.

    The reusable single-pair submission path: where
    :func:`check_containment_many` spins a pool up and down around one
    batch, a ``ContainmentExecutor`` stays alive across many
    independent submissions — the serving layer (:mod:`repro.serve`)
    keeps one for the whole process and feeds it one wire request at a
    time.  Every :meth:`submit` returns a
    :class:`concurrent.futures.Future` resolving to a
    :class:`BatchItem` with exactly the batch contract: failures are
    isolated as ``ERROR`` verdicts (including submit-time failures,
    e.g. an unpicklable query on the process backend), each traced item
    owns its tracer, and budgets bound items cooperatively.

    On the process backend the executor is additionally the
    crash-isolation and telemetry boundary (module docstring): worker
    processes warm-start via a pool initializer, a broken pool is
    rebuilt and its casualties retried in quarantine (serially, one at
    a time, so a repeat offender is unambiguously the poison and only
    *it* resolves to ``ERROR``), and each completed item's repatriated
    worker telemetry is merged into the parent registry exactly once,
    here.

    Caller errors (bad backend/workers, unknown options, bad kernel)
    still raise eagerly from the constructor, never per item.
    """

    def __init__(
        self,
        *,
        workers: int = DEFAULT_WORKERS,
        backend: str = "thread",
        **options: Any,
    ) -> None:
        _validate_pool_args(workers, backend, options)
        self.workers = workers
        self.backend = backend
        self._options = dict(options)
        self._lock = threading.Lock()
        self._generation = 0
        self._closed = False
        self._retry_queue: _queue.SimpleQueue | None = None
        self._retry_thread: threading.Thread | None = None
        self._pool = self._make_pool()

    @staticmethod
    def _process_context() -> Any:
        """The multiprocessing context for worker pools: never ``fork``.

        A forked worker inherits every open file descriptor — including
        a live server's accepted connection sockets, so the peer never
        sees EOF while a worker holds the duplicate — and forking a
        multi-threaded parent (the asyncio server, the retry thread) can
        deadlock the child.  ``forkserver`` forks from a clean helper
        process instead (preloaded with this module so worker start-up
        does not pay the full import), falling back to ``spawn`` where
        the fork server is unavailable.
        """
        if "forkserver" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("forkserver")
            try:
                context.set_forkserver_preload(["repro.core.batch"])
            except Exception:  # pragma: no cover - preload is best-effort
                pass
            return context
        return multiprocessing.get_context("spawn")

    def _make_pool(self) -> concurrent.futures.Executor:
        if self.backend == "process":
            # Mutable instrumentation objects (``stats=``) bypass the
            # caches anyway and may not pickle; keep them out of the
            # initializer arguments.
            warm_options = {
                k: v for k, v in self._options.items() if k != "stats"
            }
            return concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=self._process_context(),
                initializer=_warm_start,
                initargs=(warm_options,),
            )
        return concurrent.futures.ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="batch-worker"
        )

    def submit(
        self,
        q1: Any,
        q2: Any,
        *,
        index: int = 0,
        budget: Budget | str | None = None,
        trace: bool = False,
        start_deadline: float | None = None,
        expired_result: Any = None,
        request_id: str | None = None,
        options: dict[str, Any] | None = None,
    ) -> "concurrent.futures.Future[BatchItem]":
        """Submit one pair; the future resolves to its :class:`BatchItem`.

        ``start_deadline`` / ``expired_result`` are the admission hook
        of :func:`_run_one_item`; on the process backend
        ``expired_result`` must pickle (a frozen-dataclass spec like
        :class:`repro.serve.admission.DeadlineShedSpec` — plain
        callables remain fine on the thread backend).  ``request_id``
        is carried through verbatim onto the resulting
        :class:`BatchItem` (including submit-time error items) so the
        serving layer's telemetry can correlate it.  ``options``
        overrides the executor's defaults for this submission only
        (same option universe, validated eagerly — wire-level
        validation is the caller's job, so a raise here is a caller
        bug, not an item failure).  A submit-time exception comes back
        as an already-resolved future holding the item's ``ERROR``
        verdict, so callers never need a second error path; a worker
        crash mid-item likewise resolves (after one quarantined retry)
        instead of raising.
        """
        merged = dict(self._options)
        if options:
            _validate_pool_args(self.workers, self.backend, dict(options))
            merged.update(options)
        args = (
            index,
            q1,
            q2,
            budget,
            trace,
            merged,
            start_deadline,
            expired_result,
            request_id,
            self.backend == "process",
        )
        outer = _ItemFuture()
        self._dispatch(args, outer, attempt=1)
        return outer

    # --- dispatch / recovery internals -----------------------------------

    def _dispatch(self, args: tuple, outer: _ItemFuture, attempt: int) -> None:
        """Submit *args* to the current pool, wiring completion to *outer*."""
        with self._lock:
            pool = self._pool
            generation = self._generation
        try:
            inner = pool.submit(_run_one_item, *args)
        except concurrent.futures.BrokenExecutor as exc:
            # The pool broke between submissions (a previous item's
            # worker died).  Rebuild once and resubmit; a second break
            # resolves to an isolated ERROR rather than looping.
            if attempt >= _MAX_ATTEMPTS or self._closed:
                self._resolve_error(outer, args, exc)
                return
            self._rebuild(generation)
            self._dispatch(args, outer, attempt + 1)
            return
        except Exception as exc:  # e.g. pool shut down
            self._resolve_error(outer, args, exc)
            return
        outer.inner = inner
        inner.add_done_callback(
            lambda f: self._on_done(f, args, outer, attempt, generation)
        )

    def _on_done(
        self,
        inner: concurrent.futures.Future,
        args: tuple,
        outer: _ItemFuture,
        attempt: int,
        generation: int,
    ) -> None:
        """Completion fan-in (runs on the pool's management/worker thread).

        Must never block: a broken-pool casualty is handed to the retry
        thread instead of being retried here.
        """
        if inner.cancelled():
            if not outer.cancelled():
                outer.cancel()
            return
        exc = inner.exception()
        if exc is None:
            self._resolve_item(outer, inner.result())
            return
        if (
            isinstance(exc, concurrent.futures.BrokenExecutor)
            and attempt < _MAX_ATTEMPTS
            and not self._closed
        ):
            # This future is a casualty of *some* worker crash — maybe
            # its own item, maybe an innocent bystander's.  Rebuild the
            # pool and quarantine-retry to find out.
            self._rebuild(generation)
            self._enqueue_retry(args, outer, attempt + 1)
            return
        self._resolve_error(outer, args, exc)

    def _rebuild(self, broken_generation: int) -> None:
        """Replace the broken pool (once per break, however many see it)."""
        with self._lock:
            if self._closed or self._generation != broken_generation:
                return
            broken = self._pool
            self._generation += 1
            self._pool = self._make_pool()
        _BATCH_POOL_REBUILDS.inc()
        broken.shutdown(wait=False)

    def _enqueue_retry(self, args: tuple, outer: _ItemFuture, attempt: int) -> None:
        with self._lock:
            if self._retry_thread is None:
                self._retry_queue = _queue.SimpleQueue()
                self._retry_thread = threading.Thread(
                    target=self._retry_loop,
                    name="batch-quarantine-retry",
                    daemon=True,
                )
                self._retry_thread.start()
            retry_queue = self._retry_queue
        assert retry_queue is not None
        retry_queue.put((args, outer, attempt))

    def _retry_loop(self) -> None:
        assert self._retry_queue is not None
        while True:
            entry = self._retry_queue.get()
            if entry is None:
                return
            self._retry_one(*entry)

    def _retry_one(self, args: tuple, outer: _ItemFuture, attempt: int) -> None:
        """Quarantined re-run: one retry in flight at a time.

        Serialization is the blame mechanism — if the pool breaks again
        while a quarantined item runs alone, that item *is* the poison
        and resolves to ``ERROR``; innocent casualties of someone
        else's crash recompute successfully.
        """
        with self._lock:
            pool = self._pool
            generation = self._generation
        try:
            inner = pool.submit(_run_one_item, *args)
        except Exception as exc:
            self._resolve_error(outer, args, exc)
            return
        outer.inner = inner
        try:
            item = inner.result()
        except concurrent.futures.BrokenExecutor as exc:
            # Crashed again, alone in the pool: this item is the poison.
            self._rebuild(generation)
            self._resolve_error(outer, args, exc)
        except concurrent.futures.CancelledError as exc:
            # Shutdown cancelled the retry under us; still answer.
            self._resolve_error(outer, args, exc)
        except Exception as exc:
            self._resolve_error(outer, args, exc)
        else:
            self._resolve_item(outer, item)

    def _resolve_item(self, outer: _ItemFuture, item: BatchItem) -> None:
        if item.telemetry is not None:
            # The single merge point for repatriated worker telemetry:
            # every completion path funnels through here exactly once.
            merge_worker_telemetry(item.telemetry)
        if not outer.cancelled():
            try:
                outer.set_result(item)
            except concurrent.futures.InvalidStateError:
                pass

    def _resolve_error(
        self, outer: _ItemFuture, args: tuple, exc: BaseException
    ) -> None:
        index, request_id = args[0], args[8]
        kernel = args[5].get("kernel", "auto")
        item = BatchItem(
            index, error_result(index, exc, kernel=kernel), 0.0, None, request_id
        )
        if not outer.cancelled():
            try:
                outer.set_result(item)
            except concurrent.futures.InvalidStateError:
                pass

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        with self._lock:
            self._closed = True
            retry_queue = self._retry_queue
            retry_thread = self._retry_thread
            pool = self._pool
        if retry_queue is not None:
            retry_queue.put(None)
        pool.shutdown(wait=wait, cancel_futures=cancel_futures)
        if retry_thread is not None and wait:
            # Bounded: by now the pool has drained, so any in-flight
            # quarantined retry has already resolved its item.
            retry_thread.join(timeout=10.0)

    def __enter__(self) -> "ContainmentExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown(wait=True, cancel_futures=True)


def check_containment_many(
    pairs: Iterable[tuple],
    *,
    workers: int = DEFAULT_WORKERS,
    backend: str = "thread",
    budget: Budget | str | None = None,
    trace: bool = False,
    pool_deadline_ms: float | None = None,
    **options: Any,
) -> BatchResult:
    """Check ``Q1 ⊆ Q2`` for every pair concurrently; see module docstring.

    Args:
        pairs: an iterable of ``(q1, q2)`` query pairs, or of
            ``(q1, q2, budget, options)`` items carrying their own
            budget (replacing *budget*) and options (overriding
            *options*); materialized up front, results preserve this
            order.
        workers: pool width (default: core count, capped at 8).
        backend: ``"thread"`` or ``"process"`` (see module docstring
            for the sharing/parallelism trade-off).
        budget: per-item :class:`Budget` (or ``"auto"``), forwarded to
            every check — the cooperative bound on *individual* items.
        trace: record a span tree per item into its
            ``details["trace"]`` (one tracer per item, never shared).
        pool_deadline_ms: wall-clock bound on the whole batch; items
            not started when it expires come back ``INCONCLUSIVE``
            (method ``"batch-pool-deadline"``).
        **options: forwarded to every check (same surface as
            :func:`~repro.core.engine.check_containment`; unknown names
            raise TypeError from the first item that runs).

    Returns:
        A :class:`BatchResult` with one :class:`BatchItem` per input
        pair, in input order.
    """
    _validate_pool_args(workers, backend, options)
    if pool_deadline_ms is not None and pool_deadline_ms < 0:
        raise ValueError("pool_deadline_ms must be >= 0")
    items = [pair if len(pair) == 4 else (*pair, budget, None) for pair in pairs]
    kernels = [
        {**options, **(item_options or {})}.get("kernel", "auto")
        for _, _, _, item_options in items
    ]
    start = time.monotonic()
    slots: list[BatchItem | None] = [None] * len(items)
    if items:
        with ContainmentExecutor(
            workers=workers, backend=backend, **options
        ) as executor:
            futures: dict["concurrent.futures.Future[BatchItem]", int] = {
                executor.submit(
                    q1,
                    q2,
                    index=index,
                    budget=item_budget,
                    trace=trace,
                    options=item_options,
                ): index
                for index, (q1, q2, item_budget, item_options) in enumerate(items)
            }
            if pool_deadline_ms is not None:
                remaining = pool_deadline_ms / 1000.0 - (time.monotonic() - start)
                concurrent.futures.wait(futures, timeout=max(0.0, remaining))
                for future, index in futures.items():
                    if future.cancel():
                        # Never started: degrade, with honest accounting.
                        elapsed_ms = (time.monotonic() - start) * 1000.0
                        slots[index] = BatchItem(
                            index,
                            _degraded_result(
                                pool_deadline_ms, elapsed_ms, kernel=kernels[index]
                            ),
                            0.0,
                            None,
                        )
            for future, index in futures.items():
                if slots[index] is not None:
                    continue  # degraded above
                try:
                    slots[index] = future.result()
                except Exception as exc:
                    # Worker-side infrastructure failure the in-worker
                    # isolation could not catch (e.g. a result that fails
                    # to pickle back, or a crashed worker process).
                    slots[index] = BatchItem(
                        index,
                        error_result(index, exc, kernel=kernels[index]),
                        0.0,
                        None,
                    )

    # One exit path for loaded, degraded, and zero-item batches alike:
    # wall_ms is always the measured elapsed time (a zero-item batch is
    # an *instant* batch, not an unmeasured one) and the batch metrics
    # are recorded uniformly, so utilization gauges never go stale.
    wall_ms = (time.monotonic() - start) * 1000.0
    batch = BatchResult(
        items=tuple(slot for slot in slots if slot is not None),
        wall_ms=wall_ms,
        workers=workers,
        backend=backend,
    )
    _BATCH_ITEMS.inc(len(batch.items))
    _BATCH_ERRORS.inc(len(batch.errors))
    _BATCH_DEGRADED.inc(
        sum(1 for item in batch.items if item.result.method == "batch-pool-deadline")
    )
    _BATCH_WALL_MS.observe(wall_ms)
    _BATCH_WORKERS.set(workers)
    _BATCH_UTILIZATION.set(round(batch.worker_utilization, 4))
    return batch


def sequential_baseline(
    pairs: Sequence[tuple[Any, Any]],
    budget: Budget | str | None = None,
    **options: Any,
) -> list[ContainmentResult]:
    """The plain sequential loop the batch must agree with, verbatim.

    Exists so differential tests and the scaling benchmark compare
    against one canonical implementation instead of re-spelling it.
    """
    return [
        check_containment(q1, q2, budget=budget, **options) for q1, q2 in pairs
    ]
