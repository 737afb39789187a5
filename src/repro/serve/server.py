"""The asyncio containment service behind ``repro serve``.

A long-lived front door for the containment engine: NDJSON request
frames arrive over TCP connections (or stdin in ``--pipe`` mode), pass
admission control (:mod:`repro.serve.admission`), run on a persistent
:class:`repro.core.batch.ContainmentExecutor` worker pool with
per-request :class:`repro.budget.Budget` deadlines, and come back as
NDJSON response frames **in input order per connection**.

The serving contract (DESIGN.md "Serving architecture"):

- **Every accepted frame is answered.**  Malformed frames become error
  responses; overload and deadlines shed with degraded responses
  carrying ``details["admission"]``; a connection is never reset with
  work outstanding.
- **One deadline, two stages.**  A request's budget
  (:meth:`~repro.serve.protocol.ContainRequest.budget`: the server's,
  with the frame's ``deadline_ms`` only tightening it) holds its one
  deadline, and that deadline bounds *both* stages independently: the
  request must start within it (else the worker returns it unrun and
  :meth:`ContainmentServer._finish` sheds it, on the event loop, with
  the queue depth taken at dispatch) and, once started, the engine
  enforces the same budget cooperatively.  End-to-end latency is
  therefore bounded by roughly twice the deadline; an ``--auto-budget``
  server without ``--deadline-ms`` bounds both by ``Budget.auto``'s.
- **Graceful drain.**  SIGTERM/SIGINT stops the listener, sheds every
  frame that arrives afterwards (reason ``draining``), finishes work
  already admitted (bounded by the per-request budgets), flushes all
  responses, and exits 0.  When the drain grace period expires, one
  timer ends reading on every connection still open; each is closed
  after a final flush.

Backend: ``--backend`` selects the pool substrate.  The default
``thread`` backend shares the process-wide result/NFA caches, so a hot
pair answered for one client is a cache hit for every other; the
``process`` backend trades per-request cache sharing for true
multi-core parallelism and crash isolation — workers warm-start
(caches pre-seeded at spin-up), each admitted frame is written from the
event loop straight to an idle worker's pipe and resolved by the
executor's one collector thread, a worker that dies is respawned
underneath the running server and the one frame it held is retried
once (only a frame whose retry dies too becomes an isolated ``ERROR``
response), nothing from this package crosses into a worker (a late
dequeue comes back as the batch layer's ``start-deadline`` verdict and
is shed here, exactly as on the thread backend), and each worker's
metrics registry (cache counters included) is drained per item and
folded into the server's, so the ``metrics`` verb and ``repro top``
report true figures.  The health verb names the active
backend; drain semantics are identical (shutdown waits on process
workers).  See DESIGN.md for the tradeoff.

Telemetry (DESIGN.md "Operational telemetry"): every served frame —
answered, shed, or malformed — carries a ``request_id`` (client-supplied
or server-assigned) and produces one access record routed through
:class:`repro.obs.telemetry.Telemetry` to the optional NDJSON access
log, the flight recorder behind the ``debug`` verb (dumped to
``--flight-dump`` on drain), and — for the ``--trace-sample-rate``
sampled fraction — the hotspot profile the ``metrics`` verb exposes.
``--prom-port`` adds a minimal HTTP endpoint serving the Prometheus
text exposition of the metrics registry.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import io
import os
import signal
import stat
import sys
import time
from typing import Any

from ..budget import configured_budget
from ..cache import cache_stats
from ..core.batch import DEFAULT_WORKERS, BatchItem, ContainmentExecutor
from ..obs.env import environment_fingerprint
from ..obs.metrics import counter as _metric_counter, gauge as _metric_gauge, \
    histogram as _metric_histogram, metrics_snapshot
from ..obs.promtext import http_exposition
from ..obs.telemetry import Telemetry, access_record
from ..report import ContainmentResult
from . import protocol
from .admission import SHED_REASONS, AdmissionController, shed_result

__all__ = ["ServeConfig", "ContainmentServer"]

_REQUESTS = _metric_counter("serve.requests")
_RESPONSES = _metric_counter("serve.responses")
_CONNECTIONS = _metric_counter("serve.connections")
_PROTOCOL_ERRORS = _metric_counter("serve.protocol_errors")
_SHED = _metric_counter("serve.shed")
_SHED_BY = {
    reason: _metric_counter(f"serve.shed.{reason}")
    for reason in SHED_REASONS
}
_QUEUE_DEPTH = _metric_gauge("serve.queue_depth")
_LATENCY_MS = _metric_histogram("serve.latency_ms")
_QUEUED_MS = _metric_histogram("serve.queued_ms")
_UTILIZATION = _metric_gauge("serve.worker_utilization")


@dataclasses.dataclass(frozen=True)
class ServeConfig:
    """Operator configuration for one server process.

    Attributes:
        host / port: TCP listen address (port 0 picks a free port,
            announced on stderr).
        workers: worker-pool width.
        backend: pool substrate, ``"thread"`` (default; shared caches)
            or ``"process"`` (multi-core, crash-isolated; see module
            docstring).
        queue_limit: admission capacity — max requests admitted but not
            yet finished; the ``queue_full`` shed threshold.
        deadline_ms: default per-request wall-clock deadline (frames
            may only tighten it); it bounds both the wait for a worker
            and the check.  None = no default deadline, except under
            ``auto_budget``, whose default is ``Budget.auto``'s.
        auto_budget: run checks under staged escalation
            (``Budget.auto``) instead of a plain deadline budget.
        drain_grace_ms: after drain starts, how long connections may
            keep sending frames (each shed immediately) before the
            server stops reading and closes them (>= 0).
        max_expansions: default expansion limit of every check's
            budget (frames may override it per request; it stays
            pinned across ``auto_budget`` escalation rounds).
        access_log: NDJSON access-log path (None = no access log);
            one record per served frame, written off the event loop.
        slow_ms: flight-recorder slow threshold — requests at or above
            it retain their span trees for the ``debug`` verb.
        trace_sample_rate: fraction of containment requests traced
            live ([0, 1]; 0 = tracing off), feeding the hotspot
            profile the ``metrics`` verb exposes.
        flight_recorder_size: ring-buffer capacity of the flight
            recorder.
        flight_dump: file path the flight recorder dumps to on
            drain/SIGTERM (None = no dump).
        prom_port: TCP port answering every HTTP request with the
            Prometheus text exposition (None = no endpoint; 0 picks a
            free port, announced on stderr).
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = DEFAULT_WORKERS
    backend: str = "thread"
    queue_limit: int = 64
    deadline_ms: float | None = None
    auto_budget: bool = False
    drain_grace_ms: float = 5000.0
    max_expansions: int | None = None
    access_log: str | None = None
    slow_ms: float = 250.0
    trace_sample_rate: float = 0.0
    flight_recorder_size: int = 256
    flight_dump: str | None = None
    prom_port: int | None = None


def _pipe_watchable(stream: Any) -> bool:
    """Whether the event loop can watch *stream* (pipe/socket/tty).

    Selector loops cannot register regular files (or file-less buffers
    like BytesIO) — those take the thread-reader path instead.
    """
    try:
        mode = os.fstat(stream.fileno()).st_mode
    except (AttributeError, OSError, ValueError, io.UnsupportedOperation):
        return False
    return stat.S_ISFIFO(mode) or stat.S_ISSOCK(mode) or stat.S_ISCHR(mode)


class _ReadsEnded(Exception):
    """Set on every open connection's reader when the drain grace ends."""


class _ThreadLineReader:
    """Readline adapter for pipe-mode stdin that epoll cannot watch.

    ``connect_read_pipe`` fails when stdin is a regular file (selector
    event loops cannot register them); regular files never block
    indefinitely, so reading them on the default thread executor is
    safe — a pipe or tty keeps the StreamReader path.  Like a
    StreamReader, it raises the exception given to
    :meth:`set_exception` from every read after it.
    """

    def __init__(self, stream: Any) -> None:
        self._stream = stream
        self._exception: BaseException | None = None

    def set_exception(self, exc: BaseException) -> None:
        self._exception = exc

    async def readline(self) -> bytes:
        if self._exception is not None:
            raise self._exception
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self._stream.readline)


class _PipeWriter:
    """The StreamWriter-shaped adapter for ``--pipe`` mode stdout."""

    def __init__(self, stream: Any = None) -> None:
        self._stream = stream if stream is not None else sys.stdout.buffer

    def write(self, data: bytes) -> None:
        self._stream.write(data)

    async def drain(self) -> None:
        self._stream.flush()

    def close(self) -> None:
        with contextlib.suppress(ValueError):
            self._stream.flush()

    async def wait_closed(self) -> None:
        return None


async def _read_line(reader: Any) -> bytes:
    """The next line from *reader*, as ``readline()`` returns it.

    A line over an :class:`asyncio.StreamReader`'s limit (64 KiB by
    default) is discarded through its newline, read on for if it has
    not arrived yet so the tail never becomes a frame of its own, and
    raises :class:`~repro.serve.protocol.ProtocolError`.  (``readline``
    would raise a bare ValueError and could leave that tail behind.)
    """
    if not isinstance(reader, asyncio.StreamReader):
        return await reader.readline()
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial  # EOF: the unterminated last line, as readline
    except asyncio.LimitOverrunError as exc:
        overrun = exc
    while True:
        await reader.readexactly(overrun.consumed)
        try:
            await reader.readuntil(b"\n")
            break
        except asyncio.IncompleteReadError:
            break
        except asyncio.LimitOverrunError as exc:
            overrun = exc
    raise protocol.ProtocolError("frame exceeds the server's line length limit")


class ContainmentServer:
    """One serving process; see the module docstring for the contract."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        # Each component checks the values it consumes, so a bad server
        # config raises ValueError here, at startup, never per request.
        # The pool comes last: nothing is left running when a check fails.
        if not config.drain_grace_ms >= 0:
            raise ValueError(
                f"drain_grace_ms must be >= 0, not {config.drain_grace_ms}"
            )
        self._admission = AdmissionController(config.queue_limit)
        self._base_budget = configured_budget(
            config.deadline_ms,
            escalate=config.auto_budget,
            max_expansions=config.max_expansions,
        )
        self._telemetry = Telemetry(
            access_log=config.access_log,
            slow_ms=config.slow_ms,
            sample_rate=config.trace_sample_rate,
            flight_capacity=config.flight_recorder_size,
        )
        try:
            self._executor = ContainmentExecutor(
                workers=config.workers, backend=config.backend
            )
        except ValueError:
            self._telemetry.close()
            raise
        self._draining = asyncio.Event()
        # The drain grace timer; once it has run, every reader raises.
        self._grace_timer: asyncio.TimerHandle | None = None
        self._reads_ended = False
        self._readers: set[Any] = set()
        self._started = time.monotonic()
        self._busy_ms = 0.0
        self._server: asyncio.AbstractServer | None = None
        self._prom_server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._connections: set[asyncio.Task] = set()
        self._frames_answered = 0
        # Cached at startup: the fingerprint shells out to git once,
        # which must never happen per health probe.
        self._environment = environment_fingerprint()
        self._request_seq = 0
        self._rid_prefix = f"r{os.getpid():x}"

    # ----------------------------------------------------------------- drain

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def initiate_drain(self) -> None:
        """Begin graceful drain (idempotent; the SIGTERM/SIGINT handler).

        Stops the listener so no new connection is accepted; frames on
        existing connections are shed from now on; one timer ends every
        connection's reading when the grace period runs out.  Call it on
        the server's event loop.
        """
        if self._draining.is_set():
            return
        self._draining.set()
        self._grace_timer = asyncio.get_running_loop().call_later(
            self.config.drain_grace_ms / 1000.0, self._end_reads
        )
        if self._server is not None:
            self._server.close()

    def _end_reads(self) -> None:
        """The grace is over: every open connection's next read raises.

        A StreamReader that was fed EOF fails its transport on the next
        bytes a peer sends, responses still queued; one holding an
        exception buffers them and stops reading once full.
        """
        self._reads_ended = True
        for reader in self._readers:
            reader.set_exception(_ReadsEnded())

    def _grace_remaining(self) -> float:
        if self._grace_timer is None:
            return self.config.drain_grace_ms / 1000.0
        loop_now = asyncio.get_running_loop().time()
        return max(0.0, self._grace_timer.when() - loop_now)

    # ------------------------------------------------------------- dispatch

    def _next_request_id(self, supplied: str | None = None) -> str:
        """Propagate the client's request_id or assign a fresh one.

        Server-assigned ids are ``r<pid>-<seq>``: unique within the
        process, and the pid prefix keeps them unique across the
        restarts an access log typically spans.
        """
        if supplied is not None:
            return supplied
        self._request_seq += 1
        return f"{self._rid_prefix}-{self._request_seq:06d}"

    def _shed(
        self,
        reason: str,
        *,
        queue_depth: int,
        deadline_ms: float | None,
        waited_ms: float = 0.0,
    ) -> ContainmentResult:
        """Count a door or dequeue shed on ``serve.shed(.reason)``; its verdict."""
        _SHED.inc()
        _SHED_BY[reason].inc()
        return shed_result(
            reason,
            queue_depth=queue_depth,
            queue_limit=self.config.queue_limit,
            waited_ms=waited_ms,
            deadline_ms=deadline_ms,
        )

    def _shed_payload(
        self,
        frame_index: int,
        identifier: Any,
        reason: str,
        *,
        request_id: str,
        deadline_ms: float | None,
    ) -> dict[str, Any]:
        """Build (and count, and log) one door-shed response payload."""
        result = self._shed(
            reason, queue_depth=self._admission.pending, deadline_ms=deadline_ms
        )
        item = BatchItem(frame_index, result, 0.0, None, request_id)
        self._telemetry.observe(
            access_record(
                request_id=request_id,
                op="contain",
                index=frame_index,
                client_id=identifier,
                item=item,
                shed=reason,
            )
        )
        return protocol.response_payload(identifier, item, index=frame_index)

    def _dispatch(self, line: str, index: int) -> Any:
        """Turn one input frame into a payload dict, coroutine, or task.

        Synchronous outcomes (protocol errors, control verbs, admission
        sheds) return the payload immediately; admitted containment
        requests return the :meth:`_finish` *task* resolving to the
        payload once the worker pool answers — a task, not a bare
        coroutine, so the admission slot is released (and latency
        observed) the moment the check completes, independent of when
        the in-order writer gets to it or whether the peer is still
        reading.  Either way the frame is *answered* — this function
        never raises.
        """
        _REQUESTS.inc()
        try:
            # allow_files stays False: '@' file specs are CLI/workload
            # conveniences, never readable by a remote peer.
            frame = protocol.parse_frame(line, index, allow_files=False)
        except Exception as exc:
            return self._invalid_payload(exc, index)
        request_id = self._next_request_id(frame.request_id)
        if isinstance(frame, protocol.ControlRequest):
            control_frame = frame

            async def control() -> dict[str, Any]:
                # Built when its turn in the response queue comes, so a
                # health/metrics frame sent after a batch of requests
                # observes the state *after* those responses — in-order
                # writing makes control verbs read-your-writes barriers.
                _RESPONSES.inc()
                started = time.monotonic()
                payload = self._control_payload(control_frame, request_id)
                exec_ms = (time.monotonic() - started) * 1000.0
                self._telemetry.observe(
                    access_record(
                        request_id=request_id,
                        op=control_frame.verb,
                        index=control_frame.index,
                        client_id=control_frame.id,
                        exec_ms=exec_ms,
                        total_ms=exec_ms,
                    )
                )
                return payload

            return control()
        # The request's one deadline: its budget's, which bounds both the
        # wait for a worker (the start deadline) and the check itself.
        budget = frame.budget(self._base_budget)
        deadline_ms = budget.deadline_ms if budget is not None else None
        reason = self._admission.try_admit(draining=self.draining)
        if reason is not None:
            _RESPONSES.inc()
            _QUEUE_DEPTH.set(self._admission.pending)
            return self._shed_payload(
                frame.index,
                frame.id,
                reason,
                request_id=request_id,
                deadline_ms=deadline_ms,
            )
        _QUEUE_DEPTH.set(self._admission.pending)
        admitted_at = time.monotonic()
        start_deadline = (
            admitted_at + deadline_ms / 1000.0 if deadline_ms is not None else None
        )
        # The queue depth that admitted the request, taken now: a
        # dequeue-deadline shed reports it, and _finish builds that
        # shed after the controller's numbers have moved on.
        queue_depth = self._admission.pending
        sampled = self._telemetry.sample()
        future = self._executor.submit(
            frame.left,
            frame.right,
            index=frame.index,
            budget=budget,
            trace=sampled,
            start_deadline=start_deadline,
            request_id=request_id,
        )
        return asyncio.ensure_future(
            self._finish(
                frame, future, admitted_at, queue_depth, deadline_ms, sampled=sampled
            )
        )

    def _invalid_payload(self, exc: BaseException, index: int) -> dict[str, Any]:
        """The isolated error response for a frame that failed to parse."""
        _PROTOCOL_ERRORS.inc()
        _RESPONSES.inc()
        # id is null for unparseable frames, as in `repro batch`; the
        # request_id is server-assigned — nothing in a frame that failed
        # to parse is trusted, its own request_id included.
        request_id = self._next_request_id()
        item = protocol.error_item(index, exc, request_id)
        self._telemetry.observe(
            access_record(request_id=request_id, op="invalid", index=index, item=item),
            error=item.result.details["error"],
        )
        return protocol.response_payload(None, item, index=index)

    async def _finish(
        self,
        frame: protocol.ContainRequest,
        future: Any,
        admitted_at: float,
        queue_depth: int,
        deadline_ms: float | None,
        *,
        sampled: bool = False,
    ) -> dict[str, Any]:
        """Await one admitted request's worker future; account for it.

        Runs as its own task from the moment of dispatch (not when the
        in-order writer reaches it), so the admission slot is always
        released at completion — even if the peer disconnects and the
        writer dies with responses still queued.  A worker that
        dequeued the request past its start deadline returns the
        ``start-deadline`` verdict unrun, which becomes the ``deadline``
        shed here, reporting the *queue_depth* taken at dispatch.
        """
        try:
            item: BatchItem = await asyncio.wrap_future(future)
        finally:
            self._admission.release()
            _QUEUE_DEPTH.set(self._admission.pending)
        latency_ms = (time.monotonic() - admitted_at) * 1000.0
        _LATENCY_MS.observe(latency_ms)
        _QUEUED_MS.observe(max(0.0, latency_ms - item.wall_ms))
        _RESPONSES.inc()
        self._frames_answered += 1
        shed: str | None = None
        if item.result.method == "start-deadline":
            # A dequeue-deadline shed: built and counted here, on the
            # event loop, both on the serve.* instruments and on the
            # controller so health/drain totals agree with the metrics
            # registry.  The request waited its whole deadline plus
            # however late the worker dequeued it.
            result = self._shed(
                "deadline",
                queue_depth=queue_depth,
                waited_ms=deadline_ms + item.result.details["budget"]["spent"],
                deadline_ms=deadline_ms,
            )
            item = dataclasses.replace(item, result=result)
            self._admission.record_shed()
            shed = "deadline"
        self._busy_ms += item.wall_ms
        uptime_ms = (time.monotonic() - self._started) * 1000.0
        if uptime_ms > 0:
            _UTILIZATION.set(
                round(
                    min(1.0, self._busy_ms / (self.config.workers * uptime_ms)), 4
                )
            )
        trace = item.result.details.get("trace") if sampled else None
        self._telemetry.observe(
            access_record(
                request_id=item.request_id or "unassigned",
                op="contain",
                index=frame.index,
                client_id=frame.id,
                item=item,
                shed=shed,
                queued_ms=max(0.0, latency_ms - item.wall_ms),
                exec_ms=item.wall_ms,
                total_ms=latency_ms,
                sampled=sampled,
            ),
            trace if isinstance(trace, dict) else None,
            error=item.result.details.get("error"),
        )
        return protocol.response_payload(frame.id, item, index=frame.index)

    def _control_payload(
        self, frame: protocol.ControlRequest, request_id: str
    ) -> dict[str, Any]:
        uptime_ms = round((time.monotonic() - self._started) * 1000.0, 3)
        if frame.verb == "health":
            return {
                "op": "health",
                "id": frame.id,
                "index": frame.index,
                "request_id": request_id,
                "status": "draining" if self.draining else "ok",
                "schema": protocol.SERVE_SCHEMA,
                "queue_depth": self._admission.pending,
                "queue_limit": self.config.queue_limit,
                "workers": self.config.workers,
                "backend": self.config.backend,
                "shed_total": self._admission.shed_total,
                "admitted_total": self._admission.admitted_total,
                "uptime_ms": uptime_ms,
                "environment": self._environment,
            }
        if frame.verb == "debug":
            return {
                "op": "debug",
                "id": frame.id,
                "index": frame.index,
                "request_id": request_id,
                "uptime_ms": uptime_ms,
                "flight": self._telemetry.recorder.dump(frame.last),
            }
        return {
            "op": "metrics",
            "id": frame.id,
            "index": frame.index,
            "request_id": request_id,
            "uptime_ms": uptime_ms,
            "backend": self.config.backend,
            "metrics": metrics_snapshot(),
            "cache": cache_stats(),
            "telemetry": self._telemetry.stats(),
            "profile": self._telemetry.profile_snapshot(),
        }

    # ---------------------------------------------------------- connections

    async def _write_responses(
        self, queue: "asyncio.Queue[Any]", writer: Any
    ) -> None:
        """Flush response payloads in input order (one writer per peer).

        Entries are payload dicts (synchronous outcomes), control-verb
        coroutines (evaluated here so they observe the state after every
        prior response), or :meth:`_finish` tasks (already running; the
        await only collects the payload — completion accounting does not
        wait for this writer).
        """
        while True:
            entry = await queue.get()
            if entry is None:
                return
            try:
                payload = (
                    await entry
                    if asyncio.iscoroutine(entry) or asyncio.isfuture(entry)
                    else entry
                )
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                # A response coroutine failing is a server bug, but the
                # frame still gets an answer rather than a silent gap.
                payload = protocol.response_payload(
                    None, protocol.error_item(-1, exc)
                )
            writer.write(protocol.encode_frame(payload).encode("utf-8"))
            await writer.drain()

    async def _handle_stream(self, reader: Any, writer: Any) -> None:
        """One connection: read frames, answer each, in input order.

        Reads until EOF, or until the drain grace runs out: then
        :meth:`_end_reads` makes the pending read raise, and a partial
        line still buffered is dropped.
        """
        _CONNECTIONS.inc()
        responses: asyncio.Queue[Any] = asyncio.Queue()
        writer_task = asyncio.ensure_future(
            self._write_responses(responses, writer)
        )
        self._readers.add(reader)
        if self._reads_ended:
            reader.set_exception(_ReadsEnded())
        index = 0
        try:
            while True:
                try:
                    line = await _read_line(reader)
                except protocol.ProtocolError as exc:
                    # An oversized frame, discarded through its newline:
                    # answered in place, and the connection lives on.
                    _REQUESTS.inc()
                    await responses.put(self._invalid_payload(exc, index))
                    index += 1
                    continue
                if not line:  # EOF
                    break
                text = line.decode("utf-8", errors="replace")
                if not text.strip():
                    continue
                await responses.put(self._dispatch(text, index))
                index += 1
                # A line already buffered comes back without yielding, so
                # without this a burst would run ahead of completions,
                # other peers and the SIGTERM handler.
                await asyncio.sleep(0)
        except (OSError, _ReadsEnded):
            # The peer vanished (connection reset/aborted mid-read), or
            # the drain grace ran out.  Either is a normal way for a
            # connection to end, not a server error to propagate — the
            # finally still runs every accepted frame's accounting.
            pass
        finally:
            self._readers.discard(reader)
            # Always flush what was accepted, even on a reader error:
            # the sentinel lands after every queued response.
            await responses.put(None)
            with contextlib.suppress(Exception):
                await writer_task
            # If the writer died early (peer disconnected mid-write),
            # entries are still queued.  Await each leftover so every
            # _finish task completes its accounting (slot release,
            # metrics) and no control coroutine is left un-awaited —
            # the payloads themselves have nowhere to go and are
            # discarded.
            while True:
                try:
                    entry = responses.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if asyncio.iscoroutine(entry) or asyncio.isfuture(entry):
                    with contextlib.suppress(Exception):
                        await entry
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Synchronous accept callback: the handler task is registered
        # *before* control returns to the loop, so a drain beginning in
        # the same tick still waits for this connection.
        task = asyncio.ensure_future(self._handle_stream(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    # ------------------------------------------------------------ telemetry

    async def _serve_prom(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Answer one Prometheus scrape: any HTTP request, one exposition.

        Minimal by design — read whatever request line arrives (bounded,
        ignored), write the full HTTP/1.0 response, close.  A scraper
        needs nothing more, and the endpoint shares the process's
        metrics registry with the ``metrics`` verb.
        """
        try:
            with contextlib.suppress(Exception):
                await asyncio.wait_for(reader.readline(), 5.0)
            writer.write(http_exposition())
            await writer.drain()
        except (OSError, asyncio.CancelledError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    def _finalize_telemetry(self) -> None:
        """Drain-time telemetry teardown: flight dump, then log flush."""
        if self.config.flight_dump is not None:
            with contextlib.suppress(OSError):
                path = self._telemetry.recorder.dump_to_file(
                    self.config.flight_dump
                )
                print(f"# flight recorder dumped to {path}",
                      file=sys.stderr, flush=True)
        self._telemetry.close()

    # --------------------------------------------------------------- modes

    def _install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, self.initiate_drain)

    async def _shutdown(self) -> None:
        """Wait for open connections (bounded by grace), stop the pool."""
        if self._connections:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    asyncio.gather(*self._connections, return_exceptions=True),
                    self._grace_remaining() + 1.0,
                )
        for task in list(self._connections):
            task.cancel()
        self._executor.shutdown(wait=True, cancel_futures=True)

    async def serve_tcp(self) -> None:
        """Listen on the configured address until drained."""
        self._loop = asyncio.get_running_loop()
        self._install_signal_handlers()
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        if self.config.prom_port is not None:
            self._prom_server = await asyncio.start_server(
                self._serve_prom, self.config.host, self.config.prom_port
            )
            prom_port = self._prom_server.sockets[0].getsockname()[1]
            print(
                f"# metrics on http://{self.config.host}:{prom_port}/metrics",
                file=sys.stderr,
                flush=True,
            )
        port = self._server.sockets[0].getsockname()[1]
        print(
            f"# serving on {self.config.host}:{port} "
            f"({self.config.workers} {self.config.backend} workers, "
            f"queue limit {self.config.queue_limit})",
            file=sys.stderr,
            flush=True,
        )
        if self.draining:  # drained before the listener was up
            self._server.close()
        try:
            await self._draining.wait()
        finally:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
            if self._prom_server is not None:
                self._prom_server.close()
                with contextlib.suppress(Exception):
                    await self._prom_server.wait_closed()
            await self._shutdown()
            self._finalize_telemetry()
            print(
                f"# drained: {self._frames_answered} containment frames "
                f"answered, {self._admission.shed_total} shed",
                file=sys.stderr,
                flush=True,
            )

    async def serve_pipe(self, stdin: Any = None, stdout: Any = None) -> None:
        """One-shot pipe mode: stdin frames in, stdout frames out."""
        self._loop = asyncio.get_running_loop()
        self._install_signal_handlers()
        loop = self._loop
        stream = stdin if stdin is not None else sys.stdin
        reader: Any
        if _pipe_watchable(stream):
            reader = asyncio.StreamReader()
            await loop.connect_read_pipe(
                lambda: asyncio.StreamReaderProtocol(reader), stream
            )
        else:
            reader = _ThreadLineReader(getattr(stream, "buffer", stream))
        writer = _PipeWriter(stdout)
        try:
            await self._handle_stream(reader, writer)
        finally:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._finalize_telemetry()
