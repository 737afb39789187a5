"""Timing wrappers around each layer's public functions, and their summary.

The traced run installs these wrappers from the benchmark's own files;
nothing in ``src/`` changes.  In the server they are installed by
``perfbench/site/sitecustomize.py``, which only the traced run puts on
the server's ``PYTHONPATH``; pool workers forked from the forkserver
inherit them.  eval-mutate installs them in its own process.

Each span records its name, start, end, parent span and, where the call
carries one, the frame's ``request_id``.  Spans stay in memory and each
process writes its own ``spans-<pid>.ndjson`` when it exits.  Times are
``time.monotonic()``, one clock for every process on the host, so
spans of one request line up across the server and its workers.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable

#: Layer of each span name (the prefix up to the layer's module).
LAYERS = {
    "serve.dispatch": "serve.server",
    "serve.protocol.parse": "serve.protocol",
    "serve.protocol.encode": "serve.protocol",
    "serve.admission.admit": "serve.admission",
    "obs.telemetry.observe": "obs.telemetry",
    "core.batch.submit": "core.batch",
    "core.batch.item": "core.batch",
    "core.batch.resolve": "core.batch",
    "core.engine.check": "core.engine",
    "automata.compile.to_nfa": "automata.compile",
    "automata.compile.reduce": "automata.compile",
    "automata.search": "automata.search",
    "automata.fold": "automata.fold",
    "rq.containment": "rq",
    "graphdb.database.write": "graphdb",
    "graphdb.snapshot.build": "graphdb",
    "rpq.eval.bfs": "rpq.eval",
}


class SpanSink:
    """The spans of one process, kept in memory until it exits."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self._local = threading.local()
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.records: list[tuple] = []
        self.maxima: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._flushed = False
        atexit.register(self.flush)
        try:  # pool workers leave through multiprocessing, not atexit
            from multiprocessing import util

            util.Finalize(None, self.flush, exitpriority=100)
        except ImportError:  # pragma: no cover
            pass

    def stack(self) -> list:
        if os.getpid() != self.pid:  # a forked worker starts its own log
            self._local = threading.local()
            self._reset()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def next_id(self) -> str:
        return f"{self.pid}:{next(self._ids)}"

    def note_max(self, name: str, value: float) -> None:
        if value > self.maxima.get(name, float("-inf")):
            self.maxima[name] = value

    def flush(self) -> None:
        if self._flushed or os.getpid() != self.pid:
            return
        self._flushed = True
        path = os.path.join(self.directory, f"spans-{self.pid}.ndjson")
        with open(path, "w") as out:
            for name, sid, parent, rid, start, end, attrs in self.records:
                out.write(json.dumps({
                    "name": name, "id": sid, "parent": parent, "rid": rid,
                    "start": start, "end": end, **(attrs or {}),
                }) + "\n")
            if self.maxima:
                out.write(json.dumps({"maxima": self.maxima}) + "\n")


SINK: SpanSink | None = None


def span_wrapper(
    func: Callable,
    name: str,
    rid: Callable[[tuple, dict], Any] | None = None,
    after: Callable[[Any, tuple, dict, list, list | None], dict | None] | None = None,
) -> Callable:
    """Wrap *func* so that every call records one span named *name*.

    *rid* extracts the request id from the call's arguments; otherwise
    the span inherits its parent's.  *after* sees the result and may
    return attributes for the span or set the id on the open parent.
    """

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        sink = SINK
        stack = sink.stack()
        parent = stack[-1] if stack else None
        request_id = rid(args, kwargs) if rid is not None else None
        if request_id is None and parent is not None:
            request_id = parent[1]
        entry = [sink.next_id(), request_id]
        stack.append(entry)
        attrs = None
        start = time.monotonic()
        try:
            result = func(*args, **kwargs)
            if after is not None:
                attrs = after(result, args, kwargs, entry, parent)
            return result
        finally:
            end = time.monotonic()
            stack.pop()
            sink.records.append((
                name, entry[0], parent[0] if parent is not None else None,
                entry[1], start, end, attrs,
            ))

    return wrapper


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module's reference to *original* at *replacement*.

    Modules import these functions by name, so patching only the
    defining module would miss most callers.
    """
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_function(module_name: str, attr: str, name: str, **hooks) -> None:
    module = sys.modules[module_name]
    original = getattr(module, attr)
    _replace_everywhere(original, span_wrapper(original, name, **hooks))


def _wrap_method(cls: type, attr: str, name: str, **hooks) -> None:
    setattr(cls, attr, span_wrapper(vars(cls)[attr], name, **hooks))


def _parse_after(result, args, kwargs, entry, parent):
    request_id = getattr(result, "request_id", None)
    if request_id is not None:
        entry[1] = request_id
        if parent is not None and parent[1] is None:
            parent[1] = request_id
    return None


def _reduce_after(result, args, kwargs, entry, parent):
    return {"states_in": args[0].num_states, "states_out": result.num_states}


def _admit_after(result, args, kwargs, entry, parent):
    SINK.note_max("queue_depth", args[0].pending)
    return None


def install(directory: str, *, server: bool) -> None:
    """Create this process's sink and wrap every traced layer."""
    global SINK
    if SINK is not None:
        return
    SINK = SpanSink(directory)
    import repro.automata.dfa
    import repro.automata.fold
    import repro.automata.onthefly
    import repro.automata.regex
    import repro.core.batch
    import repro.graphdb.database
    import repro.graphdb.snapshot
    import repro.rpq.containment
    import repro.rpq.rpq
    import repro.rq.containment

    _wrap_method(repro.automata.regex.Regex, "to_nfa", "automata.compile.to_nfa")
    _wrap_function("repro.automata.dfa", "reduce_nfa", "automata.compile.reduce",
                   after=_reduce_after)
    _wrap_function("repro.automata.dfa", "containment_counterexample", "automata.search")
    _wrap_function("repro.automata.onthefly", "find_accepted_word", "automata.search")
    _wrap_function("repro.automata.fold", "fold_two_nfa", "automata.fold")
    _wrap_function("repro.rq.containment", "rq_contained", "rq.containment")
    _wrap_function("repro.core.engine", "check_containment", "core.engine.check")
    _wrap_function("repro.rpq.rpq", "reach_from_source", "rpq.eval.bfs")
    _wrap_method(repro.graphdb.database.GraphDatabase, "add_edge", "graphdb.database.write")
    snapshot_cls = repro.graphdb.snapshot.GraphSnapshot
    snapshot_cls.from_database = classmethod(span_wrapper(
        vars(snapshot_cls)["from_database"].__func__, "graphdb.snapshot.build"))
    if not server:
        return
    import repro.obs.telemetry
    import repro.serve.admission
    import repro.serve.protocol
    import repro.serve.server

    batch = repro.core.batch
    _wrap_function("repro.core.batch", "_run_one_item", "core.batch.item",
                   rid=lambda a, k: k.get("request_id", a[8] if len(a) > 8 else None))
    _wrap_method(batch.ContainmentExecutor, "submit", "core.batch.submit",
                 rid=lambda a, k: k.get("request_id"))
    _wrap_method(batch.ContainmentExecutor, "_resolve_item", "core.batch.resolve",
                 rid=lambda a, k: a[2].request_id)
    _wrap_method(repro.serve.server.ContainmentServer, "_dispatch", "serve.dispatch")
    _wrap_function("repro.serve.protocol", "parse_frame", "serve.protocol.parse",
                   after=_parse_after)
    _wrap_function("repro.serve.protocol", "response_payload", "serve.protocol.encode",
                   rid=lambda a, k: a[1].request_id)
    _wrap_function("repro.serve.protocol", "encode_frame", "serve.protocol.encode",
                   rid=lambda a, k: a[0].get("request_id"))
    _wrap_method(repro.serve.admission.AdmissionController, "try_admit",
                 "serve.admission.admit", after=_admit_after)
    _wrap_method(repro.obs.telemetry.Telemetry, "observe", "obs.telemetry.observe",
                 rid=lambda a, k: a[1].get("request_id"))


# --- summary ---------------------------------------------------------------------------


def load_spans(directory: str) -> tuple[list[dict], dict[str, float]]:
    """Every span written under *directory*, and the maxima noted."""
    spans: list[dict] = []
    maxima: dict[str, float] = {}
    for entry in sorted(os.listdir(directory)):
        if not (entry.startswith("spans-") and entry.endswith(".ndjson")):
            continue
        with open(os.path.join(directory, entry)) as handle:
            for line in handle:
                record = json.loads(line)
                if "maxima" in record:
                    for key, value in record["maxima"].items():
                        maxima[key] = max(value, maxima.get(key, value))
                else:
                    spans.append(record)
    return spans, maxima


def layer_table(spans: list[dict], self_s: dict[str, float], wait_ms: dict[str, float],
                ops: int) -> dict[str, dict]:
    """Count, busy, self and wait per layer (times in ms, over *ops*).

    *self_s* is each layer's self time in seconds, as ``layers.attribute``
    splits the operations' intervals.
    """
    table: dict[str, dict] = {}

    def row(layer: str) -> dict:
        return table.setdefault(layer, {"count": 0, "busy_ms": 0.0, "self_ms": 0.0,
                                        "wait_ms": 0.0})

    for span in spans:
        entry = row(LAYERS[span["name"]])
        entry["count"] += 1
        entry["busy_ms"] += (span["end"] - span["start"]) * 1000.0
    for layer, seconds in self_s.items():
        row(layer)["self_ms"] += seconds * 1000.0
    for layer, waited in wait_ms.items():
        row(layer)["wait_ms"] += waited
    for entry in table.values():
        entry["self_us_per_op"] = entry["self_ms"] * 1000.0 / max(1, ops)
    return table

