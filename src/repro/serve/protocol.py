"""Wire protocol for the serving layer: NDJSON frames in, NDJSON out.

One JSON object per line, in both directions.  The same frame grammar
is the ``repro batch`` workload format, so a workload file can be
replayed against a live server byte-for-byte — this module is the one
place the grammar is parsed (the CLI's ``parse_query`` delegates here).

Request frames::

    {"id": "p1", "left": "rpq:a a", "right": "rpq:a+"}
    {"id": "p2", "left": "rpq:a+", "right": "rpq:a a",
     "deadline_ms": 500, "max_expansions": 64}
    {"id": "p3", "left": "rpq:a", "right": "rpq:a+",
     "request_id": "trace-me-0007"}
    {"op": "health"}
    {"op": "metrics"}
    {"op": "debug", "last": 20}

- ``left`` / ``right`` use the ``kind:spec`` query syntax (kinds
  ``rpq``, ``rq``, ``datalog``).  A spec starting with ``@`` reads the
  named file, but **only** where the spec is operator-supplied — CLI
  arguments and workload files (``allow_files=True``).  Frames the
  server parses off a connection always reject ``@`` specs with a
  :class:`ProtocolError`: a remote peer must never be able to make the
  server read its own filesystem.  ``id`` is optional and echoed back
  verbatim (the frame index is the fallback identity).
- ``deadline_ms`` is the per-request wall-clock deadline inherited into
  the check's :class:`repro.budget.Budget` (it can only *tighten* the
  operator's default, never extend it; it must be a finite positive
  number, so JSON's ``NaN`` and ``Infinity`` are rejected);
  ``max_expansions`` sets that budget's expansion limit.  Both are
  validated here, so a bad value is an error *response*, not a dropped
  connection, and :meth:`ContainRequest.budget` applies them
  identically on the server and in ``repro batch``.  A frame carries
  limits only: the engine picks the search, and any other key (an old
  client's ``kernel``, say) is ignored.
- ``request_id`` is the request-scoped telemetry identity: if a client
  supplies one it is propagated verbatim into the access log, flight
  recorder, and response payload; otherwise the server assigns a unique
  one.  It is distinct from ``id`` (the caller's correlation key, which
  need not be unique).
- ``op`` selects a control verb (``health`` / ``metrics`` /
  ``debug``); absent or ``"contain"`` means a containment request.
  ``debug`` returns the flight recorder's entries (optionally only the
  newest ``last``).

Response frames mirror ``repro batch`` result lines: ``id``, ``index``
(input position), ``verdict``, ``method``, ``holds``, ``bound``,
``wall_ms``, ``worker``, plus ``error`` / ``budget`` / ``kernel`` /
``admission`` details when present, and ``request_id`` (server-assigned
or propagated) when the frame was served by a telemetry-aware server.

Malformed frames are *isolated*: parsing surfaces a
:class:`ProtocolError` (or the underlying parse exception), and callers
convert it into an error response re-interleaved at the frame's input
position — mirroring ``repro batch`` semantics, where a bad workload
line yields an ERROR result line, never an abort.  Input order is
always preserved.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
from typing import Any, Mapping

from ..budget import Budget
from ..core.batch import BatchItem, error_result
from ..datalog.parser import parse_program
from ..rpq.rpq import RPQ, TwoRPQ
from ..rq.parser import parse_rq

__all__ = [
    "CONTROL_VERBS",
    "SERVE_SCHEMA",
    "ContainRequest",
    "ControlRequest",
    "ProtocolError",
    "WorkloadParse",
    "encode_frame",
    "error_item",
    "parse_frame",
    "parse_query_spec",
    "parse_workload",
    "response_payload",
]

#: Control verbs a server answers without touching the worker pool.
CONTROL_VERBS = ("health", "metrics", "debug")

#: Wire/workload grammar version, reported by the ``health`` verb so
#: operators can correlate dumps with the protocol a server speaks.
SERVE_SCHEMA = "repro-serve/1"


class ProtocolError(ValueError):
    """A malformed wire frame or workload line (isolated, never fatal)."""


def parse_query_spec(argument: str, *, allow_files: bool = False) -> Any:
    """Parse a ``kind:spec`` query argument (kinds: rpq, rq, datalog).

    A spec starting with ``@`` reads the named file — but only when
    *allow_files* is set, i.e. when the spec is operator-supplied (a
    CLI argument or a workload-file line).  The secure-by-default
    ``False`` is what the server uses for frames off a connection, so
    no remote peer can direct the process at its own filesystem.

    Structural problems (missing/unknown kind, a rejected ``@`` spec)
    raise :class:`ProtocolError`; query-syntax errors propagate as the
    underlying parser's exception so error responses report the real
    type.
    """
    kind, _, spec = argument.partition(":")
    if not spec:
        raise ProtocolError(
            f"query {argument!r} must look like kind:spec "
            "(kinds: rpq, rq, datalog)"
        )
    if spec.startswith("@") and not allow_files:
        raise ProtocolError(
            "file specs (@path) are only accepted from the CLI and "
            "workload files, not over the wire"
        )
    text = pathlib.Path(spec[1:]).read_text() if spec.startswith("@") else spec
    if kind == "rpq":
        query = TwoRPQ.parse(text)
        return RPQ(query.regex) if query.is_one_way() else query
    if kind == "rq":
        return parse_rq(text)
    if kind == "datalog":
        return parse_program(text)
    raise ProtocolError(f"unknown query kind {kind!r} (use rpq, rq, or datalog)")


@dataclasses.dataclass(frozen=True)
class ContainRequest:
    """One parsed containment frame.

    Attributes:
        index: position of the frame in its input stream.
        id: the caller's identifier (frame index when absent).
        left / right: the parsed query objects.
        deadline_ms: per-request wall-clock deadline, or None.
        max_expansions: per-request expansion limit, or None.
        request_id: client-supplied telemetry identity (None = the
            server assigns one).
    """

    index: int
    id: Any
    left: Any
    right: Any
    deadline_ms: float | None = None
    request_id: str | None = None
    max_expansions: int | None = None

    def budget(self, base: Budget | None) -> Budget | None:
        """This request's check budget, inherited from the operator's *base*.

        ``deadline_ms`` may only tighten *base*'s deadline
        (:meth:`Budget.tightened`); ``max_expansions`` replaces its
        expansion limit.  Every other field of *base* — counters and
        the escalation policy — carries over unchanged.
        """
        budget = base
        if self.deadline_ms is not None:
            budget = (budget or Budget()).tightened(self.deadline_ms)
        if self.max_expansions is not None:
            budget = dataclasses.replace(
                budget or Budget(), max_expansions=self.max_expansions
            )
        return budget


@dataclasses.dataclass(frozen=True)
class ControlRequest:
    """A ``health`` / ``metrics`` / ``debug`` control frame.

    ``last`` bounds how many flight-recorder entries a ``debug`` frame
    asks for (None = all retained); other verbs ignore it.
    """

    index: int
    id: Any
    verb: str
    last: int | None = None
    request_id: str | None = None


def parse_frame(
    line: str, index: int = 0, *, allow_files: bool = False
) -> ContainRequest | ControlRequest:
    """Parse one NDJSON frame into a request object.

    *allow_files* gates ``@`` file specs exactly as in
    :func:`parse_query_spec`: leave it ``False`` (the default) for
    frames read off a connection.

    Raises :class:`ProtocolError` for structural problems and lets
    query-parser exceptions propagate; callers isolate both as error
    responses at this frame's input position.
    """
    try:
        record = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from None
    if not isinstance(record, dict):
        raise ProtocolError("frame must be a JSON object")
    identifier = record.get("id", index)
    request_id = record.get("request_id")
    if request_id is not None:
        if not isinstance(request_id, str) or not request_id:
            raise ProtocolError("request_id must be a non-empty string")
        if len(request_id) > 128:
            raise ProtocolError("request_id must be at most 128 characters")
    verb = record.get("op", "contain")
    if verb in CONTROL_VERBS:
        last = record.get("last")
        if last is not None:
            if not isinstance(last, int) or isinstance(last, bool) or last < 1:
                raise ProtocolError("last must be a positive integer")
        return ControlRequest(
            index=index,
            id=identifier,
            verb=verb,
            last=last,
            request_id=request_id,
        )
    if verb != "contain":
        raise ProtocolError(
            f"unknown op {verb!r} (use contain, {', or '.join(CONTROL_VERBS)})"
        )
    for key in ("left", "right"):
        if key not in record:
            raise ProtocolError(f"contain frame is missing {key!r}")
        if not isinstance(record[key], str):
            raise ProtocolError(f"{key!r} must be a kind:spec string")
    deadline_ms = record.get("deadline_ms")
    if deadline_ms is not None:
        if not isinstance(deadline_ms, (int, float)) or isinstance(
            deadline_ms, bool
        ) or not 0 < deadline_ms < math.inf:
            raise ProtocolError("deadline_ms must be a finite positive number")
        deadline_ms = float(deadline_ms)
    max_expansions = record.get("max_expansions")
    if max_expansions is not None:
        if not isinstance(max_expansions, int) or isinstance(
            max_expansions, bool
        ) or max_expansions < 1:
            raise ProtocolError("max_expansions must be a positive integer")
    return ContainRequest(
        index=index,
        id=identifier,
        left=parse_query_spec(record["left"], allow_files=allow_files),
        right=parse_query_spec(record["right"], allow_files=allow_files),
        deadline_ms=deadline_ms,
        request_id=request_id,
        max_expansions=max_expansions,
    )


def error_item(
    index: int, exc: BaseException, request_id: str | None = None
) -> BatchItem:
    """The isolated ERROR item for a frame that failed to parse."""
    return BatchItem(index, error_result(index, exc), 0.0, None, request_id)


@dataclasses.dataclass(frozen=True)
class WorkloadParse:
    """A parsed NDJSON workload: requests plus isolated parse failures.

    ``requests[k].index`` and the keys of ``failures`` partition
    ``range(count)`` — every non-blank input line is accounted for at
    its original position, in order.
    """

    requests: tuple[ContainRequest, ...]
    failures: dict[int, BatchItem]
    count: int


def parse_workload(text: str, *, allow_files: bool = True) -> WorkloadParse:
    """Parse a whole NDJSON workload, isolating malformed lines.

    The shared parsing path of ``repro batch`` and the soak clients: a
    bad line becomes an ERROR :class:`BatchItem` keyed by its line
    position (blank lines skipped), never an abort; control verbs are
    rejected per line (a workload is containment requests only).
    Workload files are operator-supplied, so ``@`` file specs default
    to allowed here (unlike wire frames; see :func:`parse_query_spec`).
    """
    requests: list[ContainRequest] = []
    failures: dict[int, BatchItem] = {}
    lines = [line for line in text.splitlines() if line.strip()]
    for line_no, line in enumerate(lines):
        try:
            frame = parse_frame(line, line_no, allow_files=allow_files)
            if isinstance(frame, ControlRequest):
                raise ProtocolError(
                    f"control verb {frame.verb!r} is not a workload line"
                )
        except Exception as exc:
            failures[line_no] = error_item(line_no, exc)
            continue
        requests.append(frame)
    return WorkloadParse(
        requests=tuple(requests), failures=failures, count=len(lines)
    )


def response_payload(
    identifier: Any, item: BatchItem, *, index: int | None = None
) -> dict[str, Any]:
    """The NDJSON response object for one item (``repro batch`` shape)."""
    payload: dict[str, Any] = {"id": identifier, **item.to_dict()}
    if index is not None:
        payload["index"] = index
    return payload


def encode_frame(payload: Mapping[str, Any]) -> str:
    """Serialize one response frame (sorted keys, trailing newline)."""
    return json.dumps(dict(payload), sort_keys=True, default=str) + "\n"
