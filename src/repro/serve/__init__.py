"""The serving layer: a long-lived front door for containment checks.

Composes the worker-pool batch substrate (:mod:`repro.core.batch`), the
resource governor (:mod:`repro.budget`), and the metrics registry
(:mod:`repro.obs.metrics`) into an asyncio NDJSON service
(``repro serve``) with bounded-queue admission control, load shedding,
and graceful drain.  See DESIGN.md "Serving architecture".

Telemetry companions: :mod:`repro.serve.monitor` is the client side of
``repro top`` / ``repro metrics --addr`` (snapshot deltas into rates
and quantiles); the server side's access log / flight recorder live in
:mod:`repro.obs.telemetry`.  See DESIGN.md "Operational telemetry".
"""

from .admission import AdmissionController, shed_result
from .monitor import fetch_control, fetch_metrics, parse_addr, render_top, top_deltas
from .protocol import (
    ContainRequest,
    ControlRequest,
    ProtocolError,
    encode_frame,
    parse_frame,
    parse_query_spec,
    parse_workload,
    response_payload,
)
from .server import ContainmentServer, ServeConfig

__all__ = [
    "AdmissionController",
    "ContainRequest",
    "ContainmentServer",
    "ControlRequest",
    "ProtocolError",
    "ServeConfig",
    "encode_frame",
    "fetch_control",
    "fetch_metrics",
    "parse_addr",
    "parse_frame",
    "parse_query_spec",
    "parse_workload",
    "render_top",
    "response_payload",
    "shed_result",
    "top_deltas",
]
