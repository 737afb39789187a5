"""Operational telemetry for the serving layer: access log, flight
recorder, sampled tracing.

The serving layer (:mod:`repro.serve`) answers frames; this module
answers the operator's questions about them after the fact:

- **Which request was that?**  Every served frame becomes one
  JSON-ready *access record* (:func:`access_record`) with a unique
  ``request_id``, op, verdict, shed reason, and the
  queue-wait/exec/total millisecond split, written as one NDJSON line
  by :class:`AccessLogWriter` — a *bounded, non-blocking* writer: the
  event loop enqueues a dict and moves on; serialization and file I/O
  happen on a background thread, and when the queue is full the record
  is dropped and counted (``telemetry.access_log.dropped``), never
  allowed to stall the server.
- **What just happened?**  :class:`FlightRecorder` keeps the last N
  records in a thread-safe ring buffer for post-mortems — dumpable
  live via the ``debug`` control verb and to a file on drain/SIGTERM.
  Retention policy: every record enters the ring, but full span
  *trees* are retained only for the interesting ones — slow
  (``slow_ms`` threshold), shed, or errored requests — so memory
  stays bounded by ``capacity`` small dicts plus a handful of trees.
  An errored request's entry also keeps the exception's traceback,
  which neither the response nor the access log carries.
- **Where does production time go?**  :class:`Sampler` deterministically
  samples a configurable fraction of requests for live tracing; the
  sampled span trees feed a :class:`repro.obs.profile.SpanProfile`
  hotspot aggregate that the ``metrics`` verb exposes, so the answer
  does not require a bench run.

:class:`Telemetry` is the facade the server holds: one ``observe()``
per served frame fans the record out to the log, the ring, and the
profile.  Everything here is zero-dependency and pay-for-what-you-use:
with no access log configured and a sample rate of 0, ``observe`` is a
dict build plus a deque append.

This module must not import :mod:`repro.cache`: that imports
:mod:`repro.obs.metrics`, and so this package, closing an import cycle.
"""

from __future__ import annotations

import json
import pathlib
import queue
import threading
import time
from collections import deque
from typing import Any

from .metrics import counter as _metric_counter
from .profile import SpanProfile

__all__ = [
    "ACCESS_LOG_SCHEMA",
    "FLIGHT_SCHEMA",
    "ACCESS_OPS",
    "AccessLogWriter",
    "FlightRecorder",
    "Sampler",
    "Telemetry",
    "access_record",
    "validate_access_record",
]

#: Schema tag stamped into every access-log record.
ACCESS_LOG_SCHEMA = "repro-access/1"

#: Schema tag stamped into flight-recorder dumps.
FLIGHT_SCHEMA = "repro-flight/1"

#: Every ``op`` an access record may carry: the containment verb, the
#: control verbs, and ``invalid`` for frames that failed to parse.
ACCESS_OPS = ("contain", "health", "metrics", "debug", "invalid")

#: Bound on the access-log writer's queue.
LOG_QUEUE_SIZE = 1024

#: Hotspot rows the ``metrics`` verb exposes.
PROFILE_TOP = 15

_LOG_WRITTEN = _metric_counter("telemetry.access_log.written")
_LOG_DROPPED = _metric_counter("telemetry.access_log.dropped")
_SAMPLED = _metric_counter("telemetry.sampled")


def access_record(
    *,
    request_id: str,
    op: str,
    index: int,
    client_id: Any = None,
    item: Any = None,
    shed: str | None = None,
    queued_ms: float = 0.0,
    exec_ms: float = 0.0,
    total_ms: float = 0.0,
    sampled: bool = False,
) -> dict[str, Any]:
    """Build the one NDJSON record describing one served frame.

    *item* is the frame's :class:`repro.core.batch.BatchItem` when one
    exists (containment requests, sheds, protocol errors); control
    verbs pass None and report no verdict.  The record never contains
    the span tree — traces are flight-recorder material, the access log
    stays one bounded line per frame.
    """
    record: dict[str, Any] = {
        "schema": ACCESS_LOG_SCHEMA,
        "ts": round(time.time(), 6),
        "request_id": request_id,
        "op": op,
        "id": client_id,
        "index": index,
        "verdict": None,
        "method": None,
        "holds": None,
        "shed": shed,
        "queued_ms": round(max(0.0, queued_ms), 3),
        "exec_ms": round(max(0.0, exec_ms), 3),
        "total_ms": round(max(0.0, total_ms), 3),
        "worker": None,
        "sampled": bool(sampled),
    }
    if item is not None:
        result = item.result
        record["verdict"] = result.verdict.value
        record["method"] = result.method
        record["holds"] = result.holds
        record["worker"] = item.worker
        details = dict(result.details)
        admission = details.get("admission")
        if shed is None and isinstance(admission, dict):
            record["shed"] = admission.get("shed")
        for key in ("cache", "budget", "kernel", "admission"):
            if key in details:
                record[key] = details[key]
        error = details.get("error")
        if isinstance(error, dict):
            # Type and message only: the traceback belongs to the flight
            # recorder (Telemetry.observe's *error*), not every log line.
            record["error"] = {
                "type": error.get("type"),
                "message": error.get("message"),
            }
    return record


def validate_access_record(record: Any) -> list[str]:
    """Schema-check one access record; returns the problems ([] = valid).

    The contract CI enforces over every line ``serve_smoke`` produces:
    identity and timing fields always present and typed, a known op,
    and a verdict exactly when the frame was a containment request.
    """
    problems: list[str] = []
    if not isinstance(record, dict):
        return ["record is not a JSON object"]
    if record.get("schema") != ACCESS_LOG_SCHEMA:
        problems.append(f"schema is {record.get('schema')!r}, "
                        f"not {ACCESS_LOG_SCHEMA!r}")
    request_id = record.get("request_id")
    if not isinstance(request_id, str) or not request_id:
        problems.append("request_id must be a non-empty string")
    op = record.get("op")
    if op not in ACCESS_OPS:
        problems.append(f"op {op!r} is not one of {ACCESS_OPS}")
    if not isinstance(record.get("index"), int):
        problems.append("index must be an integer")
    if not isinstance(record.get("ts"), (int, float)):
        problems.append("ts must be a number")
    for key in ("queued_ms", "exec_ms", "total_ms"):
        value = record.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or value < 0:
            problems.append(f"{key} must be a non-negative number")
    if not isinstance(record.get("sampled"), bool):
        problems.append("sampled must be a boolean")
    if op == "contain":
        if not isinstance(record.get("verdict"), str):
            problems.append("contain record must carry a verdict")
        if not isinstance(record.get("method"), str):
            problems.append("contain record must carry a method")
    shed = record.get("shed")
    if shed is not None and not isinstance(shed, str):
        problems.append("shed must be null or a reason string")
    return problems


class AccessLogWriter:
    """Bounded, non-blocking NDJSON writer for the request access log.

    ``write(record)`` enqueues a dict and returns immediately; a
    daemon thread serializes and appends, flushing per line so a crash
    loses at most the in-queue tail.  When the queue is full the
    record is **dropped and counted** — the access log is telemetry,
    and telemetry must never become the bottleneck it is measuring.
    """

    def __init__(self, path: str, *, queue_size: int = LOG_QUEUE_SIZE) -> None:
        if queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, not {queue_size}")
        self.path = str(path)
        self.written = 0
        self.dropped = 0
        self._queue: "queue.Queue[dict[str, Any] | None]" = queue.Queue(
            maxsize=queue_size
        )
        self._closed = False
        self._thread = threading.Thread(
            target=self._drain, name="access-log-writer", daemon=True
        )
        self._thread.start()

    def write(self, record: dict[str, Any]) -> bool:
        """Enqueue one record; True if accepted, False if dropped."""
        if self._closed:
            self.dropped += 1
            _LOG_DROPPED.inc()
            return False
        try:
            self._queue.put_nowait(record)
        except queue.Full:
            self.dropped += 1
            _LOG_DROPPED.inc()
            return False
        return True

    def _drain(self) -> None:
        with open(self.path, "a", encoding="utf-8") as stream:
            while True:
                record = self._queue.get()
                if record is None:
                    return
                stream.write(
                    json.dumps(record, sort_keys=True, default=str) + "\n"
                )
                stream.flush()
                self.written += 1
                _LOG_WRITTEN.inc()

    def close(self, timeout: float = 5.0) -> None:
        """Flush queued records and stop the writer thread (idempotent)."""
        if self._closed:
            return
        self._closed = True
        # The writer is always draining, so a blocking put terminates;
        # the timeout bounds a wedged filesystem.
        try:
            self._queue.put(None, timeout=timeout)
        except queue.Full:
            pass
        self._thread.join(timeout=timeout)

    def stats(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "written": self.written,
            "dropped": self.dropped,
            "queued": self._queue.qsize(),
        }


class FlightRecorder:
    """Thread-safe ring buffer of the last N request records.

    Every observed record lands in the ring (old entries fall off at
    ``capacity``); the full span tree is attached only when the
    request was *interesting* — shed, errored, or slower than
    ``slow_ms`` — which is the retention policy that keeps a crashed
    server's post-mortem dump both small and useful.  Writers may be
    any thread (the lock makes appends atomic — no torn or lost
    records at capacity); snapshots copy under the same lock.
    """

    def __init__(self, capacity: int = 256, *, slow_ms: float = 250.0) -> None:
        if capacity < 1:
            raise ValueError(f"flight recorder capacity must be >= 1, not {capacity}")
        if not slow_ms >= 0:
            raise ValueError(f"slow_ms must be >= 0, not {slow_ms}")
        self.capacity = capacity
        self.slow_ms = slow_ms
        self.recorded_total = 0
        self.retained_traces = 0
        self._entries: "deque[dict[str, Any]]" = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def retains_trace(self, record: dict[str, Any]) -> bool:
        """Whether this record's span tree survives into the ring."""
        if record.get("shed") is not None:
            return True
        if record.get("verdict") == "error" or record.get("op") == "invalid":
            return True
        total_ms = record.get("total_ms")
        return isinstance(total_ms, (int, float)) and total_ms >= self.slow_ms

    def record(
        self,
        record: dict[str, Any],
        trace: dict[str, Any] | None = None,
        error: dict[str, Any] | None = None,
    ) -> None:
        """Append one record (plus its trace, if the policy retains it);
        a full *error* block, traceback included, replaces the record's
        type-and-message summary."""
        entry = dict(record)
        if error is not None:
            entry["error"] = dict(error)
        retained = trace is not None and self.retains_trace(record)
        if retained:
            entry["trace"] = trace
        with self._lock:
            self._entries.append(entry)
            self.recorded_total += 1
            if retained:
                self.retained_traces += 1

    def entries(self, last: int | None = None) -> list[dict[str, Any]]:
        """The newest *last* entries (all of them by default), oldest first."""
        with self._lock:
            snapshot = list(self._entries)
        if last is not None:
            snapshot = snapshot[-last:]
        return snapshot

    def dump(self, last: int | None = None) -> dict[str, Any]:
        """JSON-ready dump: the ``debug`` verb's (and drain dump's) body."""
        return {
            "schema": FLIGHT_SCHEMA,
            "capacity": self.capacity,
            "slow_ms": self.slow_ms,
            "recorded_total": self.recorded_total,
            "retained_traces": self.retained_traces,
            "entries": self.entries(last),
        }

    def dump_to_file(self, path: str) -> str:
        """Write the dump as JSON; returns the path (the drain hook)."""
        pathlib.Path(path).write_text(
            json.dumps(self.dump(), indent=2, sort_keys=True, default=str)
            + "\n"
        )
        return str(path)


class Sampler:
    """Deterministic 1-in-N request sampling for live tracing.

    ``rate`` is the sampled fraction in [0, 1].  The implementation is
    stride-based rather than random — every ``round(1/rate)``-th
    request is sampled, starting with the first — so tests and smoke
    scripts can predict exactly which requests carry span trees, and a
    replayed workload samples the same positions every time.  Not
    thread-safe by design: the server samples on the event loop.
    """

    def __init__(self, rate: float) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sample rate must be within [0, 1], not {rate}")
        self.rate = rate
        self._stride = 0 if rate <= 0.0 else max(1, round(1.0 / rate))
        self._seen = 0

    def sample(self) -> bool:
        """Whether *this* request is sampled (advances the stride)."""
        if self._stride == 0:
            return False
        position = self._seen
        self._seen += 1
        return position % self._stride == 0


class Telemetry:
    """The serving layer's telemetry fan-out: log + ring + profile.

    One ``observe(record, trace)`` per served frame; the facade routes
    the record to the access log (if configured), the flight recorder
    (always), and — when the frame carried a sampled span tree — the
    hotspot :class:`SpanProfile` surfaced by the ``metrics`` verb.

    Keywords: ``access_log`` (NDJSON path; None = no log), ``slow_ms``
    (the flight recorder's slow threshold: requests at or above it keep
    their span trees), ``sample_rate`` (fraction of requests traced
    live, in [0, 1]; 0 = off) and ``flight_capacity`` (the recorder's
    ring size).
    """

    def __init__(
        self,
        *,
        access_log: str | None = None,
        slow_ms: float = 250.0,
        sample_rate: float = 0.0,
        flight_capacity: int = 256,
    ) -> None:
        # The recorder and the sampler check their own values; they come
        # first so a bad value raises before the log's thread starts.
        self.recorder = FlightRecorder(flight_capacity, slow_ms=slow_ms)
        self.sampler = Sampler(sample_rate)
        self.log: AccessLogWriter | None = (
            AccessLogWriter(access_log) if access_log is not None else None
        )
        self.profile = SpanProfile()

    def sample(self) -> bool:
        """Sampling decision for the next request (counted when taken)."""
        sampled = self.sampler.sample()
        if sampled:
            _SAMPLED.inc()
        return sampled

    def observe(
        self,
        record: dict[str, Any],
        trace: dict[str, Any] | None = None,
        error: dict[str, Any] | None = None,
    ) -> None:
        """Account for one served frame (never raises into the server);
        only the flight recorder keeps *error*, the full error block."""
        if trace is not None:
            self.profile.add(trace)
        self.recorder.record(record, trace, error)
        if self.log is not None:
            self.log.write(record)

    def profile_snapshot(self) -> dict[str, Any]:
        """The hotspot aggregate of sampled traces (``metrics`` verb)."""
        return self.profile.to_dict(top=PROFILE_TOP)

    def stats(self) -> dict[str, Any]:
        """Accounting block for the ``metrics`` verb / health surfaces."""
        out: dict[str, Any] = {
            "sample_rate": self.sampler.rate,
            "sampled": self.profile.traces,
            "slow_ms": self.recorder.slow_ms,
            "flight_recorder": {
                "capacity": self.recorder.capacity,
                "recorded_total": self.recorder.recorded_total,
                "retained_traces": self.recorder.retained_traces,
                "size": len(self.recorder.entries()),
            },
            "access_log": self.log.stats() if self.log is not None else None,
        }
        return out

    def close(self) -> None:
        """Flush and stop the access-log writer (idempotent)."""
        if self.log is not None:
            self.log.close()
