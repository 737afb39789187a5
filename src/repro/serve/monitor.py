"""Live-server monitoring: the client side of ``repro top`` / ``repro
metrics --addr``.

A running :mod:`repro.serve` server exposes its whole metrics registry
through the ``metrics`` control verb; this module polls that verb over
a short-lived TCP connection and turns *pairs* of snapshots into the
operator's dashboard numbers — request/shed **rates** from counter
deltas, latency **quantiles** from histogram-bucket deltas, and the
instantaneous queue-depth/utilization gauges.

Everything below the socket helpers is a pure function of two snapshot
payloads, so the delta/quantile/rendering logic is unit-testable
without a live server.  Elapsed time between snapshots comes from the
*server's* ``uptime_ms`` (monotonic, one clock), never from client
wall-clock arithmetic.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Mapping

from .admission import SHED_REASONS

__all__ = [
    "parse_addr",
    "fetch_control",
    "fetch_metrics",
    "counter_value",
    "histogram_state",
    "delta_quantile_ms",
    "top_deltas",
    "render_top",
]

def parse_addr(addr: str, *, default_port: int = 7407) -> tuple[str, int]:
    """``HOST:PORT`` / ``HOST`` / ``:PORT`` into a connectable pair."""
    host, sep, port_text = addr.rpartition(":")
    if not sep:
        return addr or "127.0.0.1", default_port
    if not port_text.isdigit():
        raise ValueError(f"address {addr!r} must look like HOST:PORT")
    return host or "127.0.0.1", int(port_text)


def fetch_control(
    host: str,
    port: int,
    verb: str = "metrics",
    *,
    last: int | None = None,
    timeout: float = 5.0,
) -> dict[str, Any]:
    """One control round-trip: connect, send the verb frame, read one line."""
    frame: dict[str, Any] = {"op": verb}
    if last is not None:
        frame["last"] = last
    with socket.create_connection((host, port), timeout=timeout) as conn:
        conn.sendall((json.dumps(frame) + "\n").encode("utf-8"))
        with conn.makefile("r", encoding="utf-8") as stream:
            line = stream.readline()
    if not line.strip():
        raise ConnectionError(f"{host}:{port} closed without answering {verb!r}")
    return json.loads(line)


def fetch_metrics(
    host: str, port: int, *, timeout: float = 5.0
) -> dict[str, Any]:
    """The ``metrics`` verb's payload from a live server."""
    return fetch_control(host, port, "metrics", timeout=timeout)


def counter_value(snapshot: Mapping[str, Any], name: str) -> float:
    """A counter/gauge value out of a metrics snapshot (0 when absent)."""
    data = snapshot.get(name)
    if not isinstance(data, Mapping):
        return 0.0
    value = data.get("value", 0)
    return float(value) if isinstance(value, (int, float)) else 0.0


def histogram_state(
    snapshot: Mapping[str, Any], name: str
) -> tuple[int, dict[str, int]]:
    """A histogram's ``(count, cumulative buckets)`` (empty when absent)."""
    data = snapshot.get(name)
    if not isinstance(data, Mapping) or data.get("type") != "histogram":
        return 0, {}
    buckets = data.get("buckets")
    count = data.get("count", 0)
    return (
        int(count) if isinstance(count, (int, float)) else 0,
        dict(buckets) if isinstance(buckets, Mapping) else {},
    )


def _bucket_bound(key: str) -> float:
    return float("inf") if key == "+Inf" else float(key)


def delta_quantile_ms(
    prev: Mapping[str, Any],
    cur: Mapping[str, Any],
    name: str,
    q: float,
) -> float | None:
    """Estimate a quantile of *this window's* observations of a histogram.

    Subtracting the cumulative bucket counts of two snapshots yields the
    histogram of the observations that happened *between* them; the
    quantile is the upper bound of the first bucket covering rank
    ``q * window_count`` (the standard bucketed upper-bound estimate —
    an overestimate by at most one bucket width).  Returns None when
    the window saw no observations, and the largest finite boundary
    when the rank lands in the ``+Inf`` catch-all.
    """
    prev_count, prev_buckets = histogram_state(prev, name)
    cur_count, cur_buckets = histogram_state(cur, name)
    window = cur_count - prev_count
    if window <= 0:
        return None
    target = q * window
    finite_bound: float | None = None
    for key in sorted(cur_buckets, key=_bucket_bound):
        delta = cur_buckets.get(key, 0) - prev_buckets.get(key, 0)
        bound = _bucket_bound(key)
        if bound != float("inf"):
            finite_bound = bound
        if delta >= target and bound != float("inf"):
            return bound
    return finite_bound


def top_deltas(
    prev_payload: Mapping[str, Any], cur_payload: Mapping[str, Any]
) -> dict[str, Any]:
    """The dashboard numbers between two ``metrics``-verb payloads.

    Rates are per second of *server* uptime between the snapshots; a
    non-positive uptime delta (restarted server, same-tick poll) yields
    zero rates rather than nonsense.
    """
    prev = prev_payload.get("metrics", {})
    cur = cur_payload.get("metrics", {})
    uptime_delta_ms = float(cur_payload.get("uptime_ms", 0.0)) - float(
        prev_payload.get("uptime_ms", 0.0)
    )
    dt_s = uptime_delta_ms / 1000.0

    def rate(name: str) -> float:
        if dt_s <= 0:
            return 0.0
        return max(0.0, counter_value(cur, name) - counter_value(prev, name)) / dt_s

    return {
        "dt_s": round(max(0.0, dt_s), 3),
        # Which pool substrate the server runs (None on pre-backend
        # servers, whose metrics payloads lack the key).
        "backend": cur_payload.get("backend"),
        "requests_per_s": round(rate("serve.requests"), 2),
        "responses_per_s": round(rate("serve.responses"), 2),
        "shed_per_s": round(rate("serve.shed"), 2),
        "shed_by": {
            reason: round(rate(f"serve.shed.{reason}"), 2)
            for reason in SHED_REASONS
        },
        "protocol_errors_per_s": round(rate("serve.protocol_errors"), 2),
        "latency_p50_ms": delta_quantile_ms(prev, cur, "serve.latency_ms", 0.5),
        "latency_p95_ms": delta_quantile_ms(prev, cur, "serve.latency_ms", 0.95),
        "queued_p95_ms": delta_quantile_ms(prev, cur, "serve.queued_ms", 0.95),
        "queue_depth": int(counter_value(cur, "serve.queue_depth")),
        "worker_utilization": counter_value(cur, "serve.worker_utilization"),
    }


def _ms(value: float | None) -> str:
    return "-" if value is None else f"{value:g}ms"


def render_top(
    prev_payload: Mapping[str, Any],
    cur_payload: Mapping[str, Any],
    *,
    addr: str = "",
) -> str:
    """One refresh of the ``repro top`` display (two lines, no screen
    control — friendly to pipes and test assertions)."""
    deltas = top_deltas(prev_payload, cur_payload)
    shed_cols = " ".join(
        f"{reason}={deltas['shed_by'][reason]:g}" for reason in SHED_REASONS
    )
    backend = f"[{deltas['backend']}] " if deltas.get("backend") else ""
    header = (
        f"{addr + ' ' if addr else ''}{backend}dt={deltas['dt_s']:g}s "
        f"req/s={deltas['requests_per_s']:g} "
        f"resp/s={deltas['responses_per_s']:g} "
        f"shed/s={deltas['shed_per_s']:g} ({shed_cols}) "
        f"err/s={deltas['protocol_errors_per_s']:g}"
    )
    detail = (
        f"  latency p50~{_ms(deltas['latency_p50_ms'])} "
        f"p95~{_ms(deltas['latency_p95_ms'])} "
        f"queued p95~{_ms(deltas['queued_p95_ms'])} "
        f"depth={deltas['queue_depth']} "
        f"util={deltas['worker_utilization']:.0%}"
    )
    return header + "\n" + detail
