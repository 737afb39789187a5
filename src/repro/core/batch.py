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
  abort.  The wire payload (:meth:`BatchItem.to_dict`) carries only the
  type and a message truncated to :data:`ERROR_MESSAGE_CHARS`
  characters; the traceback stays in process (the serving layer's
  flight recorder keeps it).  Budget exhaustion is *not* an error: it
  degrades inside the engine exactly as in sequential use.
- **Pool deadline.** ``pool_deadline_ms`` bounds the whole batch:
  when it expires, items that have not started are degraded to
  ``Verdict.INCONCLUSIVE`` with ``details["budget"]`` recording the
  pool deadline as the exhausted resource.  Items already running
  finish (their own per-item ``budget`` bounds them cooperatively —
  pass one if individual checks may be long).
- **Start deadline.** An item submitted with a ``start_deadline`` that
  a worker dequeues too late is not run: it comes back as the
  ``"start-deadline"`` ``INCONCLUSIVE``, on either backend.  The
  serving layer turns that verdict into its shed response on its own
  event loop, so nothing but queries and budgets crosses into a
  worker, and process workers import nothing from :mod:`repro.serve`.
  Every degraded verdict here is built by
  :func:`repro.budget.bounded_result`.
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
- ``"process"`` — ``workers`` processes that the executor starts itself
  when it is built, each with one duplex pipe.  True parallelism on
  multi-core machines; queries and results cross the process boundary by
  pickling.  :meth:`ContainmentExecutor.submit` writes an item straight
  to an idle worker's pipe from the caller's thread, items beyond the
  idle workers wait in one queue in the parent, and one collector thread
  reads every answer, hands that worker the next queued item and
  resolves the finished one.  The process backend is first-class
  (DESIGN.md "Concurrency architecture"):

  - **Warm start.** Every worker imports the tower dispatch path and
    seeds the regex→NFA and containment caches with tiny checks before
    it reads its first item, so the first real item never pays
    cold-compile latency.
  - **Crash isolation.** A worker that dies mid-item (segfault,
    ``os._exit``, SIGKILL) costs only the item it held: the collector
    respawns the worker (``batch.pool_rebuilds`` counts respawns) and
    retries that one item once on the new worker; if the retry dies
    too, the item resolves to an ``ERROR`` verdict with the crash under
    ``details["error"]``.  No other item is touched: a crashing check
    never aborts a batch or takes down ``repro serve``.  An argument or
    result that fails to pickle or unpickle without killing the worker
    is that item's ``ERROR``, with its own exception type.  Two workers
    in a row that die idle before their first item stop the pool:
    workers cannot start here, so every outstanding and later item is
    a ``BrokenProcessPool`` ``ERROR`` instead of a respawn loop.
  - **Telemetry repatriation.** After each check the worker drains its
    metrics registry (cache counters included) and the item carries
    what moved (:attr:`BatchItem.telemetry`); the parent folds it in
    exactly once at completion, so ``repro top``, the ``metrics`` verb,
    and post-batch snapshots report true figures instead of zeros.

Batch metrics (parent process): ``batch.pool_rebuilds`` (counter;
process workers respawned after a death).  A batch's item count,
errors, wall time and worker utilization are fields of the
:class:`BatchResult` it returns, not instruments.
"""

from __future__ import annotations

import collections
import concurrent.futures
import dataclasses
import multiprocessing
import os
import pickle
import selectors
import threading
import time
import traceback
from typing import Any, Iterable, Iterator, Sequence

from ..budget import Budget, BudgetExhausted, bounded_result, not_run_details
from ..obs.metrics import REGISTRY, counter as _metric_counter, merge_snapshot_delta
from ..obs.trace import Tracer
from ..report import ContainmentResult, Verdict
from .engine import check_containment

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

_BATCH_POOL_REBUILDS = _metric_counter("batch.pool_rebuilds")

#: Attempts per item on the process backend: the original submission
#: plus one retry on a respawned worker.  An item whose worker dies on
#: both attempts is the poison and resolves to ``ERROR``.
_MAX_ATTEMPTS = 2

#: Seconds a stopping worker gets to exit on its own (it flushes its
#: finalizers) before it is killed.
_WORKER_EXIT_S = 30.0

_PICKLE = pickle.HIGHEST_PROTOCOL

#: Longest error message a wire payload carries: a response stays
#: bounded whatever the exception says (a parser may quote its input).
ERROR_MESSAGE_CHARS = 512


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
        telemetry: repatriated worker-side accounting — the
            :meth:`~repro.obs.metrics.MetricsRegistry.drain` of the
            worker process's registry (cache counters included) after
            this item (process backend only; the thread backend
            mutates the parent registry directly and leaves None).
            The executor merges it into the parent exactly once at
            completion; it stays on the item afterwards for inspection
            but is *not* part of the NDJSON wire payload.
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
            error = details["error"]
            out["error"] = {
                "type": error["type"],
                "message": error["message"][:ERROR_MESSAGE_CHARS],
                "index": error["index"],
            }
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


def error_result(index: int, exc: BaseException) -> ContainmentResult:
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
            **not_run_details(),
        },
    )


def _warm_start() -> None:
    """A process worker's first act: pay the cold-start cost at spin-up.

    Runs once in every worker process before it reads its first item.
    Two jobs, both best-effort: importing :func:`check_containment`'s
    dispatch path pulls every tower module into the worker (the
    fork-server preloads this module, so under ``forkserver`` the
    import is inherited and under ``spawn`` front-loaded here), and a
    pair of tiny checks seeds the regex→NFA and containment caches so
    the first real item starts against warm compilation machinery.
    The warm pair is deliberately obscure (``a b a b`` vs ``(a b)*``)
    so it cannot collide with a real workload's cache keys.  The
    registry is drained and the window discarded at the end, so the
    warm-up checks never reach the parent's metrics.  Failures are
    swallowed: warm start is an optimization, and a worker that cannot
    warm still isolates real item failures normally.
    """
    from ..automata.regex import parse_regex
    from ..rpq.rpq import RPQ

    try:
        q1 = RPQ(parse_regex("a b a b"))
        q2 = RPQ(parse_regex("(a b)*"))
        check_containment(q1, q2)
        check_containment(q2, q1)
    except Exception:
        pass
    REGISTRY.drain()


def _run_one_item(
    *,
    index: int,
    q1: Any,
    q2: Any,
    budget: Budget | str | None,
    trace: bool,
    start_deadline: float | None = None,
    request_id: str | None = None,
    collect_telemetry: bool = False,
) -> BatchItem:
    """One worker-side check: isolate failures, label the worker.

    Module-level (not a closure): a thread worker gets it from the
    executor and a process worker calls it by name, in both cases with
    every argument by keyword.  Each traced item
    gets its *own* Tracer — the tracer contract is one tracer per
    check, which is what keeps concurrent span trees from interleaving.

    ``start_deadline`` is an absolute ``time.monotonic`` instant: if the
    pool dequeues the item after it, the check never starts and the item
    is the ``"start-deadline"`` ``INCONCLUSIVE``, whose budget block
    records how late the dequeue was (``spent``, ms) against the
    lateness allowed (``limit``, 0 ms).  This is the admission-control
    hook of the serving layer — queue wait counts against a request's
    deadline even though the engine's own ``BudgetMeter`` clock only
    starts when the check does.

    ``collect_telemetry`` (process backend) drains the worker's metrics
    registry once after the check and ships what moved as
    :attr:`BatchItem.telemetry`, so the parent can repatriate this
    worker's accounting; the thread backend shares the parent registry
    and skips it.
    """
    start = time.monotonic()
    if start_deadline is not None and start > start_deadline:
        late = BudgetExhausted(
            resource="start_deadline",
            spent=round((start - start_deadline) * 1000.0, 3),
            limit=0,
        )
        result = bounded_result("start-deadline", late, details=not_run_details())
        return BatchItem(index, result, 0.0, None, request_id)
    worker = f"pid:{os.getpid()}/{threading.current_thread().name}"
    try:
        if trace:
            result = check_containment(q1, q2, budget=budget, trace=Tracer())
        else:
            result = check_containment(q1, q2, budget=budget)
    except Exception as exc:
        result = error_result(index, exc)
    wall_ms = (time.monotonic() - start) * 1000.0
    telemetry = (REGISTRY.drain() or None) if collect_telemetry else None
    return BatchItem(index, result, wall_ms, worker, request_id, telemetry)


def _validate_pool_args(workers: int, backend: str) -> None:
    """Eager caller-error checks shared by the executor and the batch."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; use one of {BACKENDS}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, not {workers}")


class _RemoteTraceback(Exception):
    """A worker-side traceback, attached as the cause of the exception
    a process worker sent back, so the parent's ``ERROR`` keeps it."""

    def __str__(self) -> str:
        return self.args[0]


def _failure(exc: Exception) -> bytes:
    """The pickled answer for an item whose arguments or result did not
    (un)pickle in the worker: the exception and its traceback text."""
    text = "".join(traceback.format_exception(exc))
    try:
        return pickle.dumps((exc, text), _PICKLE)
    except Exception:  # an exception that cannot travel: keep its words
        return pickle.dumps((RuntimeError(f"{type(exc).__name__}: {exc}"), text), _PICKLE)


def _worker_main(conn: Any) -> None:
    """A process worker: warm up, then answer one item at a time.

    Each item is the pickled keyword arguments of :func:`_run_one_item`;
    the answer is the pickled :class:`BatchItem`, or :func:`_failure`.
    ``_run_one_item`` is looked up in this module's globals on every
    call, so a wrapper installed over that name reaches the worker.  The
    loop ends when the parent closes its end of the pipe.
    """
    _warm_start()
    while True:
        try:
            payload = conn.recv_bytes()
        except EOFError:
            return
        try:
            answer = pickle.dumps(_run_one_item(**pickle.loads(payload)), _PICKLE)
        except Exception as exc:
            answer = _failure(exc)
        conn.send_bytes(answer)


def _process_context() -> Any:
    """The multiprocessing context for process workers: never ``fork``.

    A forked worker inherits every open file descriptor — including a
    live server's accepted connection sockets, so the peer never sees
    EOF while a worker holds the duplicate — and forking a
    multi-threaded parent (the asyncio server, the collector thread) can
    deadlock the child.  ``forkserver`` forks from a clean helper
    process instead (preloaded with this module so worker start-up does
    not pay the full import), falling back to ``spawn`` where the fork
    server is unavailable.
    """
    if "forkserver" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("forkserver")
        try:
            context.set_forkserver_preload(["repro.core.batch"])
        except Exception:  # pragma: no cover - preload is best-effort
            pass
        return context
    return multiprocessing.get_context("spawn")


class _Job:
    """One item on the process backend: its future, its keyword
    arguments, their pickle, and how many workers it was sent to."""

    __slots__ = ("future", "kwargs", "payload", "attempts")

    def __init__(self, kwargs: dict[str, Any], payload: bytes) -> None:
        self.future: concurrent.futures.Future = concurrent.futures.Future()
        self.kwargs = kwargs
        self.payload = payload
        self.attempts = 1


class _Worker:
    """One worker process, the parent's end of its pipe, its job, and
    whether it has answered yet."""

    __slots__ = ("process", "conn", "job", "answered")

    def __init__(self, process: Any, conn: Any) -> None:
        self.process = process
        self.conn = conn
        self.job: _Job | None = None
        self.answered = False


def _reap(process: Any) -> None:
    """Wait for a worker to exit, killing it if it will not."""
    process.join(_WORKER_EXIT_S)
    if process.exitcode is None:
        process.kill()
        process.join()


class _ProcessPool:
    """The process backend: ``workers`` processes, one pipe each, and one
    collector thread (module docstring).

    Locking: ``_lock`` guards the queue, the idle list, each worker's
    ``job`` and every write to or close of a worker's pipe, so a pipe is
    never closed under a writer.  Only the collector thread reads pipes,
    touches the selector and replaces workers.  A job's future is marked
    running when the job is first written to a worker, so ``cancel()``
    succeeds for exactly the items still queued.
    """

    def __init__(self, workers: int, resolve_item: Any, resolve_error: Any) -> None:
        self._context = _process_context()
        self._resolve_item = resolve_item
        self._resolve_error = resolve_error
        self._lock = threading.Lock()
        self._queue: collections.deque[_Job] = collections.deque()
        self._closed = False
        self._broken: BaseException | None = None
        self._failed_starts = 0
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = os.pipe()
        self._selector.register(self._wake_r, selectors.EVENT_READ, None)
        self._workers = [self._spawn() for _ in range(workers)]
        self._idle = list(self._workers)
        self._collector = threading.Thread(
            target=self._collect, name="batch-collector", daemon=True
        )
        self._collector.start()

    def _spawn(self) -> _Worker:
        conn, child = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main, args=(child,), daemon=True
        )
        process.start()
        child.close()
        worker = _Worker(process, conn)
        self._selector.register(conn, selectors.EVENT_READ, (worker, False))
        self._selector.register(process.sentinel, selectors.EVENT_READ, (worker, True))
        return worker

    def submit(self, kwargs: dict[str, Any]) -> concurrent.futures.Future:
        """Queue one :func:`_run_one_item` call; raises if *kwargs* does
        not pickle or the pool is shut down."""
        job = _Job(kwargs, pickle.dumps(kwargs, _PICKLE))
        with self._lock:
            if self._broken is not None:
                from concurrent.futures.process import BrokenProcessPool

                raise BrokenProcessPool(f"the process pool stopped: {self._broken}")
            if self._closed:
                raise RuntimeError("cannot submit to a process pool after shutdown")
            if self._idle:
                job.future.set_running_or_notify_cancel()
                self._send(self._idle.pop(), job)
            else:
                self._queue.append(job)
        return job.future

    def _send(self, worker: _Worker, job: _Job) -> None:
        """Write *job* to *worker* (caller holds the lock)."""
        worker.job = job
        try:
            worker.conn.send_bytes(job.payload)
        except OSError:
            pass  # the worker died: _replace retries the job it holds

    def _feed(self, worker: _Worker) -> None:
        """Give *worker* the next queued item, or mark it idle (caller
        holds the lock)."""
        while self._queue:
            job = self._queue.popleft()
            if job.future.set_running_or_notify_cancel():
                self._send(worker, job)
                return
        self._idle.append(worker)

    def _collect(self) -> None:
        """The collector thread: answers and deaths until shut down."""
        try:
            while True:
                with self._lock:
                    if self._closed and not self._queue and not any(
                        worker.job for worker in self._workers
                    ):
                        break
                # Answers first: a worker that answered and then died
                # has its answer read before its death is handled.
                events = sorted(
                    self._selector.select(),
                    key=lambda event: bool(event[0].data and event[0].data[1]),
                )
                for key, _ in events:
                    if key.data is None:
                        os.read(self._wake_r, 64)
                        continue
                    worker, died = key.data
                    if worker not in self._workers:
                        continue  # already replaced in this round
                    if died:
                        self._replace(worker)
                    else:
                        self._on_answer(worker)
        except BaseException as exc:
            self._abandon(exc)
            raise
        finally:
            self._stop()

    def _on_answer(self, worker: _Worker) -> None:
        try:
            data = worker.conn.recv_bytes()
        except (EOFError, OSError):
            self._replace(worker)
            return
        worker.answered = True
        self._failed_starts = 0
        with self._lock:
            job, worker.job = worker.job, None
            self._feed(worker)
        try:
            answer = pickle.loads(data)
            if isinstance(answer, BatchItem):
                self._resolve_item(job.future, answer)
                return
            exc, text = answer
            exc.__cause__ = _RemoteTraceback(text)
        except Exception as error:  # the answer does not unpickle here
            exc = error
        self._resolve_error(job.future, job.kwargs, exc)

    def _replace(self, dead: _Worker) -> None:
        """Respawn a dead worker and retry the one item it held, once."""
        self._selector.unregister(dead.conn)
        self._selector.unregister(dead.process.sentinel)
        _reap(dead.process)
        with self._lock:
            self._workers.remove(dead)
            if dead in self._idle:
                self._idle.remove(dead)
            dead.conn.close()
            job, dead.job = dead.job, None
        from concurrent.futures.process import BrokenProcessPool

        crash = BrokenProcessPool(
            f"worker pid:{dead.process.pid} died (exit code {dead.process.exitcode})"
        )
        dead.process.close()
        if job is None and not dead.answered:
            # Two workers in a row that die before their first item mean
            # workers cannot start here: respawning would only loop.
            self._failed_starts += 1
            if self._failed_starts >= _MAX_ATTEMPTS:
                self._abandon(crash)
                return
        elif job is not None and job.attempts >= _MAX_ATTEMPTS:
            self._resolve_error(job.future, job.kwargs, crash)
            job = None
        try:
            worker = self._spawn()
        except BaseException as exc:
            if job is not None:
                self._resolve_error(job.future, job.kwargs, exc)
            raise
        _BATCH_POOL_REBUILDS.inc()
        with self._lock:
            self._workers.append(worker)
            if job is not None:
                job.attempts += 1
                self._send(worker, job)
            else:
                self._feed(worker)

    def _abandon(self, exc: BaseException) -> None:
        """Stop for good (workers cannot start, or the collector failed):
        refuse new items and answer every outstanding one with *exc*."""
        with self._lock:
            self._closed = True
            self._broken = exc
            jobs = list(self._queue) + [w.job for w in self._workers if w.job]
            self._queue.clear()
            for worker in self._workers:
                worker.job = None
        for job in jobs:
            self._resolve_error(job.future, job.kwargs, exc)

    def _stop(self) -> None:
        """Close every pipe, so each worker exits its loop; join them."""
        with self._lock:
            workers = list(self._workers)
            for worker in workers:
                worker.conn.close()
        for worker in workers:
            _reap(worker.process)
            worker.process.close()
        self._selector.close()
        os.close(self._wake_r)
        os.close(self._wake_w)

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        """Stop taking items; the collector finishes what was sent (and,
        unless *cancel_futures*, what is queued), then stops the workers."""
        with self._lock:
            if not self._closed:
                self._closed = True
                os.write(self._wake_w, b"\0")
            cancelled = list(self._queue) if cancel_futures else []
            if cancel_futures:
                self._queue.clear()
        for job in cancelled:
            job.future.cancel()
        if wait and threading.current_thread() is not self._collector:
            self._collector.join()


class _ItemFuture(concurrent.futures.Future):
    """The future a thread-backend :meth:`ContainmentExecutor.submit`
    hands back: resolved through :meth:`ContainmentExecutor._resolve_item`
    when the pool's own future completes.  ``cancel()`` delegates to that
    inner future, so it succeeds only when the item never started
    (the pool-deadline contract: "only unstarted items degrade").
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
    crash-isolation and telemetry boundary (module docstring): its
    workers warm-start as they are spawned, a dead worker is respawned
    and the one item it held retried once (a repeat death makes that
    item, and only it, the ``ERROR``), and each completed item's
    repatriated worker telemetry is merged into the parent registry
    exactly once, in :meth:`_resolve_item`.

    Caller errors (bad backend or workers) still raise eagerly from the
    constructor, never per item.
    """

    def __init__(
        self, *, workers: int = DEFAULT_WORKERS, backend: str = "thread"
    ) -> None:
        _validate_pool_args(workers, backend)
        self.workers = workers
        self.backend = backend
        self._pool: Any
        if backend == "process":
            self._pool = _ProcessPool(workers, self._resolve_item, self._resolve_error)
        else:
            self._pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="batch-worker"
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
        request_id: str | None = None,
    ) -> "concurrent.futures.Future[BatchItem]":
        """Submit one pair; the future resolves to its :class:`BatchItem`.

        ``start_deadline`` is the admission hook of
        :func:`_run_one_item` (an item dequeued after it comes back as
        the ``"start-deadline"`` ``INCONCLUSIVE``).  ``request_id``
        is carried through verbatim onto the resulting
        :class:`BatchItem` (including submit-time error items) so the
        serving layer's telemetry can correlate it.  A submit-time
        exception comes back as an already-resolved future holding the
        item's ``ERROR`` verdict, so callers never need a second error
        path; a worker crash mid-item likewise resolves (after one retry
        on a respawned worker) instead of raising.
        """
        kwargs = {
            "index": index,
            "q1": q1,
            "q2": q2,
            "budget": budget,
            "trace": trace,
            "start_deadline": start_deadline,
            "request_id": request_id,
            "collect_telemetry": self.backend == "process",
        }
        if self.backend == "process":
            try:
                return self._pool.submit(kwargs)
            except Exception as exc:  # an unpicklable argument, or shut down
                future: concurrent.futures.Future = concurrent.futures.Future()
                self._resolve_error(future, kwargs, exc)
                return future
        outer = _ItemFuture()
        try:
            inner = self._pool.submit(_run_one_item, **kwargs)
        except RuntimeError as exc:  # shut down
            self._resolve_error(outer, kwargs, exc)
            return outer
        outer.inner = inner
        inner.add_done_callback(lambda f: self._on_done(f, kwargs, outer))
        return outer

    def _on_done(
        self, inner: concurrent.futures.Future, kwargs: dict, outer: _ItemFuture
    ) -> None:
        """Thread-backend completion (runs on the finishing worker thread)."""
        if inner.cancelled():
            outer.cancel()
            return
        exc = inner.exception()
        if exc is None:
            self._resolve_item(outer, inner.result())
        else:
            self._resolve_error(outer, kwargs, exc)

    def _resolve_item(self, outer: concurrent.futures.Future, item: BatchItem) -> None:
        if item.telemetry is not None:
            # The single merge point for repatriated worker telemetry:
            # every completion path funnels through here exactly once.
            merge_snapshot_delta(item.telemetry)
        if not outer.cancelled():
            try:
                outer.set_result(item)
            except concurrent.futures.InvalidStateError:
                pass

    def _resolve_error(
        self, outer: concurrent.futures.Future, kwargs: dict, exc: BaseException
    ) -> None:
        index, request_id = kwargs["index"], kwargs["request_id"]
        item = BatchItem(index, error_result(index, exc), 0.0, None, request_id)
        if not outer.cancelled():
            try:
                outer.set_result(item)
            except concurrent.futures.InvalidStateError:
                pass

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        self._pool.shutdown(wait=wait, cancel_futures=cancel_futures)

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
) -> BatchResult:
    """Check ``Q1 ⊆ Q2`` for every pair concurrently; see module docstring.

    Args:
        pairs: an iterable of ``(q1, q2)`` query pairs, or of
            ``(q1, q2, budget)`` items carrying their own budget
            (replacing *budget*); materialized up front, results
            preserve this order.
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

    Returns:
        A :class:`BatchResult` with one :class:`BatchItem` per input
        pair, in input order.
    """
    _validate_pool_args(workers, backend)
    if pool_deadline_ms is not None and pool_deadline_ms < 0:
        raise ValueError("pool_deadline_ms must be >= 0")
    items = [pair if len(pair) == 3 else (*pair, budget) for pair in pairs]
    start = time.monotonic()
    slots: list[BatchItem | None] = [None] * len(items)
    if items:
        with ContainmentExecutor(workers=workers, backend=backend) as executor:
            futures: dict["concurrent.futures.Future[BatchItem]", int] = {
                executor.submit(
                    q1, q2, index=index, budget=item_budget, trace=trace
                ): index
                for index, (q1, q2, item_budget) in enumerate(items)
            }
            if pool_deadline_ms is not None:
                remaining = pool_deadline_ms / 1000.0 - (time.monotonic() - start)
                concurrent.futures.wait(futures, timeout=max(0.0, remaining))
                for future, index in futures.items():
                    if future.cancel():
                        # Never started: degrade, with honest accounting.
                        starved = BudgetExhausted(
                            resource="pool_deadline",
                            spent=round((time.monotonic() - start) * 1000.0, 3),
                            limit=pool_deadline_ms,
                        )
                        result = bounded_result(
                            "batch-pool-deadline", starved, details=not_run_details()
                        )
                        slots[index] = BatchItem(index, result, 0.0, None)
            for future, index in futures.items():
                if slots[index] is not None:
                    continue  # degraded above
                try:
                    slots[index] = future.result()
                except Exception as exc:
                    # Worker-side infrastructure failure the in-worker
                    # isolation could not catch (e.g. a result that fails
                    # to pickle back, or a crashed worker process).
                    slots[index] = BatchItem(index, error_result(index, exc), 0.0, None)

    # One exit path for loaded, degraded, and zero-item batches alike:
    # wall_ms is always the measured elapsed time (a zero-item batch is
    # an *instant* batch, not an unmeasured one).
    return BatchResult(
        items=tuple(slot for slot in slots if slot is not None),
        wall_ms=(time.monotonic() - start) * 1000.0,
        workers=workers,
        backend=backend,
    )


def sequential_baseline(
    pairs: Sequence[tuple[Any, Any]], budget: Budget | str | None = None
) -> list[ContainmentResult]:
    """The plain sequential loop the batch must agree with, verbatim.

    Exists so differential tests and the scaling benchmark compare
    against one canonical implementation instead of re-spelling it.
    """
    return [check_containment(q1, q2, budget=budget) for q1, q2 in pairs]
