"""Per-layer metrics of a traced run, from its spans and the server's logs.

Every workload reports every metric; a layer that the workload does not
reach reports 0.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict

from . import tracing

CACHES = ("containment", "regex-nfa", "determinize", "eval-context")
SELF_LAYERS = ("serve.server", "serve.protocol", "serve.admission", "obs.telemetry",
               "core.batch", "core.engine", "automata.compile", "automata.search",
               "automata.fold", "rq", "graphdb", "rpq.eval")

#: (name, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = [
    ("serve.protocol.parse_us", "us"),
    ("serve.protocol.encode_us", "us"),
    ("serve.admission.wait_ms.p50", "ms"),
    ("serve.admission.wait_ms.tail", "ms"),
    ("serve.admission.shed_ratio.queue_full", "ratio"),
    ("serve.admission.shed_ratio.deadline", "ratio"),
    ("serve.admission.queue_depth_max", "count"),
    ("obs.telemetry.observe_us", "us"),
    ("core.batch.dispatch_us", "us"),
    ("core.batch.return_us", "us"),
    ("core.batch.busy_ratio", "ratio"),
    ("core.batch.pool_rebuilds", "count"),
    ("core.engine.check_ms.p50", "ms"),
    ("core.engine.check_ms.tail", "ms"),
    ("core.engine.check_ms.total", "ms"),
    *[(f"cache.{cache}.{what}", unit) for cache in CACHES
      for what, unit in (("hit_ratio", "ratio"), ("lookups", "count"), ("evictions", "count"))],
    ("automata.compile.ms.p50", "ms"),
    ("automata.compile.ms.tail", "ms"),
    ("automata.compile.ms.total", "ms"),
    ("automata.compile.share", "ratio"),
    ("automata.compile.states_in", "states"),
    ("automata.compile.states_out", "states"),
    ("automata.search.ms.p50", "ms"),
    ("automata.search.ms.total", "ms"),
    ("automata.search.configs", "count"),
    ("automata.search.subsumption_ratio", "ratio"),
    ("automata.fold.ms", "ms"),
    ("rq.containment.ms", "ms"),
    ("graphdb.snapshot.builds", "1/write"),
    ("graphdb.snapshot.build_ms", "ms"),
    ("graphdb.database.write_us", "us"),
    ("rpq.eval.bfs_ms", "ms"),
    ("rpq.eval.bfs_runs", "1/read"),
    *[(f"layer.{layer}.self_us", "us") for layer in SELF_LAYERS],
    ("unattributed_ms", "ms"),
    ("trace.op_ms", "ms"),
    ("traced.throughput_ops_s", "ops/s"),
    ("traced.latency_p50_ms", "ms"),
    ("traced.cpu_ms_per_op", "ms"),
    ("host.calibration_before_ms", "ms"),
    ("host.calibration_after_ms", "ms"),
]


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-pct * len(ordered) // 100))))
    return ordered[rank - 1]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _cache_metrics(before: dict, after: dict) -> dict:
    out = {}
    for cache in CACHES:
        old, new = before.get(cache, {}), after.get(cache, {})
        hits = new.get("hits", 0) - old.get("hits", 0)
        misses = new.get("misses", 0) - old.get("misses", 0)
        out[f"cache.{cache}.hit_ratio"] = _ratio(hits, hits + misses)
        out[f"cache.{cache}.lookups"] = hits + misses
        out[f"cache.{cache}.evictions"] = new.get("evictions", 0) - old.get("evictions", 0)
    return out


def _compile_search(spans_by_op: list[list[dict]], all_spans: list[dict], tail: float) -> dict:
    compile_ms, search_ms = [], []
    for spans in spans_by_op:
        compiled = [s for s in spans if s["name"].startswith("automata.compile")]
        searched = [s for s in spans if s["name"] == "automata.search"]
        if compiled:
            compile_ms.append(sum(s["end"] - s["start"] for s in compiled) * 1000.0)
        if searched:
            search_ms.append(sum(s["end"] - s["start"] for s in searched) * 1000.0)
    checks = [s for s in all_spans if s["name"] == "core.engine.check"]
    check_total = sum(s["end"] - s["start"] for s in checks) * 1000.0
    reduces = [s for s in all_spans if s["name"] == "automata.compile.reduce"]
    return {
        "automata.compile.ms.p50": percentile(compile_ms, 50),
        "automata.compile.ms.tail": percentile(compile_ms, tail),
        "automata.compile.ms.total": sum(compile_ms),
        "automata.compile.share": _ratio(sum(compile_ms), check_total),
        "automata.compile.states_in": _mean(s["states_in"] for s in reduces),
        "automata.compile.states_out": _mean(s["states_out"] for s in reduces),
        "automata.search.ms.p50": percentile(search_ms, 50),
        "automata.search.ms.total": sum(search_ms),
        "automata.fold.ms": sum(s["end"] - s["start"] for s in all_spans
                                if s["name"] == "automata.fold") * 1000.0,
        "rq.containment.ms": sum(s["end"] - s["start"] for s in all_spans
                                 if s["name"] == "rq.containment") * 1000.0,
    }


def attribute(start: float, end: float, spans: list[dict]) -> tuple[dict, float]:
    """Split one operation's interval [start, end] among its layers.

    This is the only self time the benchmark computes.  Each instant goes
    to the innermost span running then: the one that started last.
    Within one thread that is the usual self time (a span's duration
    minus the part its children cover).  When spans of one request
    overlap across threads (a worker thread still returning while the
    event loop already handles the answer), the instant is counted
    once, not twice.  Instants no span covers are unattributed, so the
    parts add up to end - start by construction.
    """
    points = sorted({start, end} | {min(end, max(start, t)) for s in spans
                                    for t in (s["start"], s["end"])})
    by_layer: dict[str, float] = defaultdict(float)
    gap = 0.0
    for low, high in zip(points, points[1:]):
        active = [s for s in spans if s["start"] <= low and s["end"] >= high]
        if active:
            owner = max(active, key=lambda s: s["start"])
            by_layer[tracing.LAYERS[owner["name"]]] += high - low
        else:
            gap += high - low
    return by_layer, gap


def _whole_path(groups: list[tuple[float, float, list[dict]]]) -> tuple[dict, dict]:
    """Per-op layer self times and unattributed time, and each layer's total (s)."""
    unattributed, op_ms, self_by_layer = [], [], defaultdict(float)
    for start, end, spans in groups:
        by_layer, gap = attribute(start, end, spans)
        for layer, seconds in by_layer.items():
            self_by_layer[layer] += seconds
        unattributed.append(gap * 1000.0)
        op_ms.append((end - start) * 1000.0)
    count = max(1, len(groups))
    out = {f"layer.{layer}.self_us": self_by_layer[layer] * 1e6 / count
           for layer in SELF_LAYERS}
    out["unattributed_ms"] = _mean(unattributed)
    out["trace.op_ms"] = _mean(op_ms)
    return out, self_by_layer


def serve_layers(trace_dir: str, raw: dict, tail: float) -> tuple[dict, dict]:
    """Per-layer metrics and the layer table of a traced serve run."""
    spans, maxima = tracing.load_spans(trace_dir)
    by_rid: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        if (span["rid"] or "").startswith("m-"):
            by_rid[span["rid"]].append(span)
    measured = [s for group in by_rid.values() for s in group]

    def named(group, name):
        return [s for s in group if s["name"] == name]

    dispatch_us, return_us, encode_us, groups = [], [], [], []
    pool_wait_ms = 0.0  # between the spans: in the pool's queue, and coming back
    for rid, group in by_rid.items():
        items, submits, resolves = (named(group, n) for n in
                                    ("core.batch.item", "core.batch.submit", "core.batch.resolve"))
        if items and submits:
            dispatch_us.append((items[0]["start"] - submits[0]["start"]) * 1e6)
            pool_wait_ms += max(0.0, items[0]["start"] - submits[0]["end"]) * 1000.0
        if items and resolves:
            return_us.append((resolves[0]["end"] - items[0]["end"]) * 1e6)
            pool_wait_ms += max(0.0, resolves[0]["start"] - items[0]["end"]) * 1000.0
        encodes = named(group, "serve.protocol.encode")
        if encodes:
            encode_us.append(sum(s["end"] - s["start"] for s in encodes) * 1e6)
        dispatches = named(group, "serve.dispatch")
        frames = [s for s in encodes if s["parent"] is None]
        if dispatches and frames:
            groups.append((dispatches[0]["start"], max(s["end"] for s in frames), group))

    access = []
    access_path = os.path.join(trace_dir, "access.ndjson")
    if os.path.exists(access_path):
        with open(access_path) as handle:
            access = [r for r in map(json.loads, handle)
                      if str(r.get("request_id", "")).startswith("m-")]
    waits = [r["queued_ms"] for r in access]
    sheds = defaultdict(int)
    for record in access:
        if record.get("shed"):
            sheds[record["shed"]] += 1

    phases = raw["phases"]
    wall = sum(p.end - p.start for p in phases)
    checks = [(s["end"] - s["start"]) * 1000.0 for s in named(measured, "core.engine.check")]
    items_busy = sum(s["end"] - s["start"] for s in named(measured, "core.batch.item"))
    kernels = [r.get("kernel") or {} for r in access if r.get("cache") == "miss"]
    configs = [k["configs"] for k in kernels if isinstance(k.get("configs"), int)]
    hits = sum(k.get("subsumption_hits") or 0 for k in kernels)
    before, after = raw["metrics_before"], raw["metrics_after"]
    rebuilds = (after["metrics"].get("batch.pool_rebuilds", {}).get("value", 0)
                - before["metrics"].get("batch.pool_rebuilds", {}).get("value", 0))
    spans_by_op = [g[2] for g in groups]
    whole_path, self_by_layer = _whole_path(groups)
    metrics = {
        "serve.protocol.parse_us": _mean((s["end"] - s["start"]) * 1e6
                                         for s in named(measured, "serve.protocol.parse")),
        "serve.protocol.encode_us": _mean(encode_us),
        "serve.admission.wait_ms.p50": percentile(waits, 50),
        "serve.admission.wait_ms.tail": percentile(waits, tail),
        "serve.admission.shed_ratio.queue_full": _ratio(sheds["queue_full"], len(access)),
        "serve.admission.shed_ratio.deadline": _ratio(sheds["deadline"], len(access)),
        "serve.admission.queue_depth_max": maxima.get("queue_depth", 0),
        "obs.telemetry.observe_us": _mean((s["end"] - s["start"]) * 1e6
                                          for s in named(measured, "obs.telemetry.observe")),
        "core.batch.dispatch_us": _mean(dispatch_us),
        "core.batch.return_us": _mean(return_us),
        "core.batch.busy_ratio": _ratio(items_busy, raw["workers"] * wall),
        "core.batch.pool_rebuilds": rebuilds,
        "core.engine.check_ms.p50": percentile(checks, 50),
        "core.engine.check_ms.tail": percentile(checks, tail),
        "core.engine.check_ms.total": sum(checks),
        **_cache_metrics(before["cache"], after["cache"]),
        **_compile_search(spans_by_op, measured, tail),
        "automata.search.configs": _mean(configs),
        "automata.search.subsumption_ratio": _ratio(hits, sum(configs)),
        **whole_path,
    }
    waits_by_layer = {"serve.admission": sum(waits), "core.batch": pool_wait_ms}
    table = tracing.layer_table(measured, self_by_layer, waits_by_layer, len(groups))
    return metrics, table


def eval_layers(trace_dir: str, raw: dict, tail: float) -> tuple[dict, dict]:
    """Per-layer metrics and the layer table of a traced eval-mutate run."""
    from .eval_mutate import op_of

    spans, _ = tracing.load_spans(trace_dir)
    intervals = raw["intervals"]
    groups = [(a, b, []) for a, b in intervals]
    for span in spans:
        position = op_of(intervals, span["start"])
        if position is not None:
            groups[position][2].append(span)
    measured = [s for g in groups for s in g[2]]
    writes, reads = raw["writes"], raw["reads"]
    # From each part's warm pass to the end of its timed phase; a part's
    # spans are contiguous in load_spans' order.
    compiled = [s for s in spans
                if any(low <= s["start"] <= high for low, high in raw["compile_windows"])]
    compiles, current = [], []  # one Regex.to_nfa plus its reduce_nfa each
    for span in compiled:
        if span["name"].startswith("automata.compile"):
            current.append(span)
            if span["name"] == "automata.compile.reduce":
                compiles.append(current)
                current = []

    def durations(name):
        return [(s["end"] - s["start"]) for s in measured if s["name"] == name]

    bfs = durations("rpq.eval.bfs")
    builds = durations("graphdb.snapshot.build")
    whole_path, self_by_layer = _whole_path(groups)
    metrics = {
        **_cache_metrics(raw["cache_before"], raw["cache_after"]),
        **_compile_search(compiles, compiled, tail),
        "graphdb.snapshot.builds": _ratio(len(builds), writes),
        "graphdb.snapshot.build_ms": _mean(builds) * 1000.0,
        "graphdb.database.write_us": _mean(durations("graphdb.database.write")) * 1e6,
        "rpq.eval.bfs_ms": _ratio(sum(bfs) * 1000.0, reads),
        "rpq.eval.bfs_runs": _ratio(len(bfs), reads),
        **whole_path,
    }
    table = tracing.layer_table(measured, self_by_layer, {}, len(groups))
    return metrics, table
