"""Concurrent batch containment: the engine's front door for many pairs.

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
  when it expires, items never sent to a worker are degraded to
  ``Verdict.INCONCLUSIVE`` with ``details["budget"]`` recording the
  pool deadline as the exhausted resource.  Items already sent
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

The pool (:class:`ContainmentExecutor`) is an object of the running
event loop, the same on both backends: :meth:`ContainmentExecutor.submit`
hands an item to an idle worker or appends it to one queue, and every
answer reaches the loop, which gives that worker the next queued item
and resolves the finished one through one funnel,
:meth:`ContainmentExecutor._resolve_item`.  Only the loop touches the
queue, the idle list and the futures, so the pool holds no lock.
:func:`check_containment_many` runs a pool under :func:`asyncio.run`.

Backends:

- ``"thread"`` — up to ``workers`` threads, each started with the first
  item sent to its place, taking items oldest first from one shared
  inbox.  A thread runs its item and posts the :class:`BatchItem` to
  the loop with ``call_soon_threadsafe``.  Workers share the process-wide caches (a
  pair computed by one worker is a hit for every other) and the metrics
  registry.  Under a GIL build the speedup on pure-Python checks is
  bounded; it is the right backend when checks hit caches, block on
  I/O, or run on free-threaded builds.
- ``"process"`` — ``workers`` processes that the executor starts when
  it is built, each with one duplex pipe.  True parallelism on
  multi-core machines; queries and results cross the process boundary
  by pickling.  Each worker's pipe and process sentinel are registered
  with ``loop.add_reader`` (so the loop must be a selector event loop,
  the default on POSIX), and the parent starts no thread.  The process
  backend is first-class (DESIGN.md "Concurrency architecture"):

  - **Warm start.** Every worker imports the tower dispatch path and
    seeds the regex→NFA and containment caches with tiny checks before
    it reads its first item, so the first real item never pays
    cold-compile latency.
  - **Crash isolation.** A worker that dies mid-item (segfault,
    ``os._exit``, SIGKILL) costs only the item it held: the loop
    respawns the worker (``batch.pool_rebuilds`` counts respawns) and
    retries that one item once on the new worker; if the retry dies
    too, the item resolves to an ``ERROR`` verdict with the crash under
    ``details["error"]``.  An answer the worker wrote before it died is
    read before its death is handled.  No other item is touched: a
    crashing check never aborts a batch or takes down ``repro serve``.
    An argument or result that fails to pickle or unpickle without
    killing the worker is that item's ``ERROR``, with its own exception
    type.  Two workers in a row that die idle before their first item
    stop the pool: workers cannot start here, so every outstanding and
    later item is a ``BrokenProcessPool`` ``ERROR`` instead of a
    respawn loop.
  - **Telemetry repatriation.** After each item the worker drains its
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
import dataclasses
import multiprocessing
import os
import pickle
import queue
import threading
import time
import traceback
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from ..budget import Budget, BudgetExhausted, bounded_result, not_run_details
from ..obs.metrics import REGISTRY, counter as _metric_counter, merge_snapshot_delta
from ..obs.trace import Tracer
from ..report import ContainmentResult, Verdict
from .engine import check_containment

if TYPE_CHECKING:
    import asyncio

__all__ = [
    "BatchItem",
    "BatchResult",
    "ContainmentExecutor",
    "check_containment_many",
    "error_result",
    "validate_pool_args",
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
) -> BatchItem:
    """One worker-side check: isolate failures, label the worker.

    Module-level (not a closure): both kinds of worker look it up in
    this module's globals on every call and pass every argument by
    keyword.  Each traced item
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
    return BatchItem(index, result, wall_ms, worker, request_id)


def validate_pool_args(workers: int, backend: str) -> None:
    """Caller-error checks of a pool's settings, made before it is built."""
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
    the answer is the pickled :class:`BatchItem`, carrying the drain of
    this process's metrics registry as its telemetry, or
    :func:`_failure`.  ``_run_one_item`` is looked up in this module's
    globals on every call, so a wrapper installed over that name
    reaches the worker.  The loop ends when the parent closes its end
    of the pipe.
    """
    _warm_start()
    while True:
        try:
            payload = conn.recv_bytes()
        except EOFError:
            return
        try:
            item = _run_one_item(**pickle.loads(payload))
            item = dataclasses.replace(item, telemetry=REGISTRY.drain() or None)
            answer = pickle.dumps(item, _PICKLE)
        except Exception as exc:
            answer = _failure(exc)
        try:
            conn.send_bytes(answer)
        except OSError:  # the parent stopped the pool under this item
            return


def _process_context() -> Any:
    """The multiprocessing context for process workers: never ``fork``.

    A forked worker inherits every open file descriptor — including a
    live server's accepted connection sockets, so the peer never sees
    EOF while a worker holds the duplicate — and forking a
    multi-threaded parent can deadlock the child.
    ``forkserver`` forks from a clean helper
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
    """One submitted item: its future, its keyword arguments, their
    pickle (process backend), and how many workers it was sent to."""

    __slots__ = ("future", "kwargs", "payload", "attempts")

    def __init__(
        self, future: asyncio.Future, kwargs: dict[str, Any], payload: bytes | None
    ) -> None:
        self.future = future
        self.kwargs = kwargs
        self.payload = payload
        self.attempts = 0


def _thread_main(
    inbox: queue.SimpleQueue, loop: asyncio.AbstractEventLoop, answer: Callable
) -> None:
    """A worker thread: run each item it takes from the shared inbox and
    post the :class:`BatchItem` (or the exception) to the loop, under
    the worker it was sent to; it never touches a future."""
    while (entry := inbox.get()) is not None:
        worker, kwargs = entry
        try:
            result: Any = _run_one_item(**kwargs)
        except Exception as exc:
            result = exc
        try:
            loop.call_soon_threadsafe(answer, worker, result)
        except RuntimeError:  # the loop closed while this item ran
            return


class _ThreadWorker:
    """One thread's place in the pool.  The threads take items from one
    shared inbox, oldest first, so an item sent earlier never starts
    after one sent later.  A thread starts with the first item sent to
    its place, as in :class:`~concurrent.futures.ThreadPoolExecutor`: a
    pool never busier than one item runs them all, in order, on one
    thread."""

    def __init__(self, inbox: queue.SimpleQueue, thread: threading.Thread) -> None:
        self.job: _Job | None = None
        self._inbox = inbox
        self._thread = thread

    def send(self, job: _Job) -> None:
        self._inbox.put((self, job.kwargs))
        if self._thread.ident is None:
            self._thread.start()

    def stop(self) -> None:
        """Ask one thread to leave once the items before this are done."""
        if self._thread.ident is not None:
            self._inbox.put(None)

    def join(self) -> None:
        if self._thread.ident is not None:
            self._thread.join()


class _ProcessWorker:
    """A worker process and the parent's end of its pipe, both watched
    by the loop: the pipe for answers, the sentinel for the death."""

    def __init__(
        self,
        process: Any,
        conn: Any,
        loop: asyncio.AbstractEventLoop,
        on_readable: Callable[[Any], None],
        on_sentinel: Callable[[Any], None],
    ) -> None:
        self.process = process
        self.pid = process.pid
        self.conn = conn
        self.job: _Job | None = None
        self.answered = False
        self._loop = loop
        self._loop.add_reader(conn.fileno(), on_readable, self)
        self._loop.add_reader(process.sentinel, on_sentinel, self)

    def send(self, job: _Job) -> None:
        try:
            self.conn.send_bytes(job.payload)
        except OSError:
            pass  # the worker died: its death handler retries the job

    def stop(self) -> None:
        """Stop watching and close the pipe: the worker leaves its loop."""
        self._loop.remove_reader(self.conn.fileno())
        self._loop.remove_reader(self.process.sentinel)
        self.conn.close()

    def join(self) -> int | None:
        """Wait for the process, killing it if it will not exit; its
        exit code."""
        self.process.join(_WORKER_EXIT_S)
        if self.process.exitcode is None:
            self.process.kill()
            self.process.join()
        exitcode = self.process.exitcode
        self.process.close()
        return exitcode


class ContainmentExecutor:
    """A persistent worker pool with the batch layer's per-item semantics.

    The reusable single-pair submission path: where
    :func:`check_containment_many` spins a pool up and down around one
    batch, a ``ContainmentExecutor`` stays alive across many
    independent submissions — the serving layer (:mod:`repro.serve`)
    keeps one for the whole process and feeds it one wire request at a
    time.  It belongs to the event loop running when it is built, and
    is used only from that loop.  Every :meth:`submit` returns an
    :class:`asyncio.Future` resolving to a :class:`BatchItem` with
    exactly the batch contract: failures are isolated as ``ERROR``
    verdicts (including submit-time failures, e.g. an unpicklable query
    on the process backend), each traced item owns its tracer, and
    budgets bound items cooperatively.

    On the process backend the executor is additionally the
    crash-isolation and telemetry boundary (module docstring): its
    workers warm-start as they are spawned, a dead worker is respawned
    and the one item it held retried once (a repeat death makes that
    item, and only it, the ``ERROR``), and each completed item's
    repatriated worker telemetry is merged into the parent registry
    exactly once, in :meth:`_resolve_item`.

    Caller errors (bad backend or workers) still raise eagerly from the
    constructor, never per item.  ``async with`` shuts the pool down on
    exit.
    """

    def __init__(
        self, *, workers: int = DEFAULT_WORKERS, backend: str = "thread"
    ) -> None:
        # asyncio is imported where a pool runs, never at module import:
        # every process worker imports this module, and asyncio (with
        # ssl) would cost each one about 5 MB resident.
        import asyncio

        validate_pool_args(workers, backend)
        self.workers = workers
        self.backend = backend
        self._loop = asyncio.get_running_loop()
        self._context = _process_context() if backend == "process" else None
        self._inbox: queue.SimpleQueue = queue.SimpleQueue()
        self._queue: collections.deque[_Job] = collections.deque()
        self._closed = False
        self._broken: BaseException | None = None
        self._failed_starts = 0
        self._workers: list[Any] = [self._start_worker(n) for n in range(workers)]
        self._idle = list(self._workers)

    def _start_worker(self, n: int = 0) -> Any:
        if self._context is None:
            thread = threading.Thread(
                target=_thread_main,
                args=(self._inbox, self._loop, self._on_answer),
                name=f"batch-worker-{n}",
                daemon=True,
            )
            return _ThreadWorker(self._inbox, thread)
        conn, child = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main, args=(child,), daemon=True
        )
        process.start()
        child.close()
        return _ProcessWorker(
            process, conn, self._loop, self._on_readable, self._on_sentinel
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
    ) -> "asyncio.Future[BatchItem]":
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
        }
        future = self._loop.create_future()
        try:
            if self._broken is not None:
                raise BrokenProcessPool(f"the process pool stopped: {self._broken}")
            if self._closed:
                raise RuntimeError("cannot submit to a worker pool after shutdown")
            payload = None if self._context is None else pickle.dumps(kwargs, _PICKLE)
        except Exception as exc:  # an unpicklable argument, or no pool
            self._resolve_item(future, _error_item(kwargs, exc))
            return future
        job = _Job(future, kwargs, payload)
        if self._idle:
            self._send(self._idle.pop(), job)
        else:
            self._queue.append(job)
        return future

    def _send(self, worker: Any, job: _Job) -> None:
        job.attempts += 1
        worker.job = job
        worker.send(job)

    def _feed(self, worker: Any) -> None:
        """Give *worker* the next queued item, or mark it idle."""
        while self._queue:
            job = self._queue.popleft()
            if not job.future.done():  # its caller cancelled it while queued
                self._send(worker, job)
                return
        self._idle.append(worker)

    def _on_answer(self, worker: Any, answer: BatchItem | BaseException) -> None:
        """A worker's answer, on the loop: the worker gets its next item
        first, then the finished one is resolved."""
        job, worker.job = worker.job, None
        self._feed(worker)
        if not isinstance(answer, BatchItem):
            answer = _error_item(job.kwargs, answer)
        self._resolve_item(job.future, answer)

    def _on_readable(self, worker: _ProcessWorker) -> None:
        """A process worker's pipe is readable: its answer, or its EOF."""
        try:
            data = worker.conn.recv_bytes()
        except (EOFError, OSError):
            self._replace(worker)
            return
        worker.answered = True
        self._failed_starts = 0
        try:
            answer = pickle.loads(data)
            if not isinstance(answer, BatchItem):
                exc, text = answer
                exc.__cause__ = _RemoteTraceback(text)
                answer = exc
        except Exception as error:  # the answer does not unpickle here
            answer = error
        self._on_answer(worker, answer)

    def _on_sentinel(self, worker: _ProcessWorker) -> None:
        """A worker process ended.  Its pipe and sentinel can be ready in
        the same loop iteration, in either order: an answer it wrote
        before dying is read first, so it is delivered, not retried."""
        if worker.conn.poll():
            self._on_readable(worker)  # replaces the worker at EOF
        if not worker.conn.closed:
            self._replace(worker)

    def _replace(self, dead: _ProcessWorker) -> None:
        """Respawn a dead process worker and retry the one item it held, once."""
        dead.stop()
        exitcode = dead.join()
        crash = BrokenProcessPool(f"worker pid:{dead.pid} died (exit code {exitcode})")
        self._workers.remove(dead)
        if dead in self._idle:
            self._idle.remove(dead)
        job, dead.job = dead.job, None
        if job is None and not dead.answered:
            # Two workers in a row that die before their first item mean
            # workers cannot start here: respawning would only loop.
            self._failed_starts += 1
            if self._failed_starts >= _MAX_ATTEMPTS:
                self._abandon(crash)
                return
        elif job is not None and job.attempts >= _MAX_ATTEMPTS:
            self._resolve_item(job.future, _error_item(job.kwargs, crash))
            job = None
        try:
            worker = self._start_worker()
        except Exception as exc:  # no worker starts here any more
            if job is not None:
                self._queue.appendleft(job)
            self._abandon(exc)
            return
        _BATCH_POOL_REBUILDS.inc()
        self._workers.append(worker)
        if job is not None:
            self._send(worker, job)
        else:
            self._feed(worker)

    def _abandon(self, exc: BaseException) -> None:
        """Stop for good (workers cannot start): kill the workers left,
        answer every outstanding item with *exc*, refuse new ones."""
        self._broken = exc
        jobs = [*self._queue, *(w.job for w in self._workers if w.job is not None)]
        self._queue.clear()
        for worker in self._workers:
            worker.process.kill()
        self._stop_workers()
        for job in jobs:
            self._resolve_item(job.future, _error_item(job.kwargs, exc))

    def _resolve_item(self, future: asyncio.Future, item: BatchItem) -> None:
        """The one completion funnel, on the loop, for every item."""
        if item.telemetry is not None:
            # Repatriated worker telemetry is merged here, exactly once
            # per item, whether or not its caller still waits for it.
            merge_snapshot_delta(item.telemetry)
        if not future.done():
            future.set_result(item)

    def _stop_workers(self) -> None:
        for worker in self._workers:
            worker.stop()
        for worker in self._workers:
            worker.join()
        self._workers.clear()
        self._idle.clear()

    async def shutdown(self) -> None:
        """Stop taking items, drop the ones never sent to a worker (their
        futures are cancelled), wait for the ones that were, then stop
        every worker.  Calling it again does nothing."""
        import asyncio

        self._closed = True
        while self._queue:
            self._queue.popleft().future.cancel()
        sent = [w.job.future for w in self._workers if w.job is not None]
        if sent:
            await asyncio.wait(sent)
        self._stop_workers()

    async def __aenter__(self) -> "ContainmentExecutor":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.shutdown()


def _error_item(kwargs: dict[str, Any], exc: BaseException) -> BatchItem:
    index = kwargs["index"]
    return BatchItem(index, error_result(index, exc), 0.0, None, kwargs["request_id"])


def _starved(index: int, spent_ms: float, limit_ms: float | None) -> BatchItem:
    """An item the pool deadline dropped before it reached a worker."""
    starved = BudgetExhausted(resource="pool_deadline", spent=spent_ms, limit=limit_ms)
    result = bounded_result("batch-pool-deadline", starved, details=not_run_details())
    return BatchItem(index, result, 0.0, None)


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

    Runs its own event loop (:func:`asyncio.run`), so it is called from
    synchronous code; a coroutine uses a :class:`ContainmentExecutor`.

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
        pool_deadline_ms: wall-clock bound on the whole batch (>= 0);
            items not sent to a worker when it expires come back
            ``INCONCLUSIVE`` (method ``"batch-pool-deadline"``).

    Returns:
        A :class:`BatchResult` with one :class:`BatchItem` per input
        pair, in input order.
    """
    import asyncio

    validate_pool_args(workers, backend)
    if pool_deadline_ms is not None and not pool_deadline_ms >= 0:
        raise ValueError(f"pool_deadline_ms must be >= 0, not {pool_deadline_ms}")
    items = [pair if len(pair) == 3 else (*pair, budget) for pair in pairs]
    start = time.monotonic()

    async def run() -> list[BatchItem]:
        async with ContainmentExecutor(workers=workers, backend=backend) as executor:
            futures = [
                executor.submit(q1, q2, index=index, budget=item_budget, trace=trace)
                for index, (q1, q2, item_budget) in enumerate(items)
            ]
            timeout = None
            if pool_deadline_ms is not None:
                elapsed = time.monotonic() - start
                timeout = max(0.0, pool_deadline_ms / 1000.0 - elapsed)
            await asyncio.wait(futures, timeout=timeout)
            spent_ms = round((time.monotonic() - start) * 1000.0, 3)
        # Leaving the pool cancelled every item never sent to a worker
        # and waited for the rest: degrade the cancelled ones.
        return [
            _starved(index, spent_ms, pool_deadline_ms)
            if future.cancelled()
            else future.result()
            for index, future in enumerate(futures)
        ]

    slots = asyncio.run(run()) if items else []
    # One exit path for loaded, degraded, and zero-item batches alike:
    # wall_ms is always the measured elapsed time (a zero-item batch is
    # an *instant* batch, not an unmeasured one).
    return BatchResult(
        items=tuple(slots),
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
