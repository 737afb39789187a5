"""In-process tests for the asyncio containment server.

Each test runs a real :class:`ContainmentServer` on a loopback socket
inside ``asyncio.run`` (no subprocess — the soak suite covers that) and
drives it with an in-process client, so the admission/shed paths can be
forced deterministically by blocking the worker pool on an event.
"""

from __future__ import annotations

import asyncio
import contextlib
import io
import json
import os
import signal
import threading

import pytest

from repro.obs.metrics import metrics_snapshot
from repro.obs.telemetry import validate_access_record
from repro.report import ContainmentResult, Verdict
from repro.serve.server import ContainmentServer, ServeConfig

HOLDS_FRAME = '{"id": "p1", "left": "rpq:a a", "right": "rpq:a+"}'
REFUTED_FRAME = '{"id": "p2", "left": "rpq:a+", "right": "rpq:a a"}'


@contextlib.asynccontextmanager
async def running_server(**overrides):
    config = ServeConfig(port=0, workers=overrides.pop("workers", 2), **overrides)
    server = ContainmentServer(config)
    task = asyncio.create_task(server.serve_tcp())
    try:
        for _ in range(500):
            if server._server is not None and server._server.sockets:
                break
            await asyncio.sleep(0.01)
        else:
            raise RuntimeError("server never started listening")
        port = server._server.sockets[0].getsockname()[1]
        yield server, port
    finally:
        server.initiate_drain()
        await asyncio.wait_for(task, 15)


async def roundtrip(port: int, lines: list[str]) -> list[dict]:
    """Send frames, half-close, and collect every response in order."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(("".join(line + "\n" for line in lines)).encode())
    await writer.drain()
    writer.write_eof()
    responses = []
    while True:
        line = await reader.readline()
        if not line:
            break
        responses.append(json.loads(line))
    writer.close()
    with contextlib.suppress(Exception):
        await writer.wait_closed()
    return responses


def blocking_check(gate: threading.Event):
    """A check_containment stand-in that parks workers on *gate*."""

    def check(q1, q2, **kwargs):
        gate.wait(timeout=30)
        return ContainmentResult(Verdict.HOLDS, "stub")

    return check


class TestControlVerbs:
    def test_health_reports_queue_state(self):
        async def run():
            async with running_server(queue_limit=5, workers=2) as (server, port):
                [resp] = await roundtrip(port, ['{"op": "health", "id": "h"}'])
                assert resp["op"] == "health"
                assert resp["id"] == "h"
                assert resp["status"] == "ok"
                assert resp["queue_depth"] == 0
                assert resp["queue_limit"] == 5
                assert resp["workers"] == 2
                assert resp["uptime_ms"] >= 0

        asyncio.run(run())

    def test_metrics_exposes_serve_instruments_and_cache(self):
        async def run():
            async with running_server() as (server, port):
                first, second = await roundtrip(
                    port, [HOLDS_FRAME, '{"op": "metrics"}']
                )
                assert first["verdict"] == "holds"
                metrics = second["metrics"]
                for name in (
                    "serve.requests",
                    "serve.responses",
                    "serve.connections",
                    "serve.shed",
                    "serve.queue_depth",
                    "serve.latency_ms",
                    "serve.worker_utilization",
                ):
                    assert name in metrics, name
                assert metrics["serve.requests"]["value"] >= 2
                assert "containment" in second["cache"]

        asyncio.run(run())


class TestOrderingAndIsolation:
    def test_mixed_frames_answered_in_input_order(self):
        async def run():
            async with running_server() as (server, port):
                responses = await roundtrip(
                    port,
                    [
                        HOLDS_FRAME,
                        "definitely not json",
                        REFUTED_FRAME,
                        '{"left": "rpq:((", "right": "rpq:a"}',
                    ],
                )
                assert [r["index"] for r in responses] == [0, 1, 2, 3]
                assert responses[0]["id"] == "p1"
                assert responses[0]["verdict"] == "holds"
                assert responses[0]["holds"] is True
                # Malformed frames: isolated error, id null (batch rule).
                assert responses[1]["id"] is None
                assert responses[1]["verdict"] == "error"
                assert responses[1]["error"]["type"]
                assert responses[2]["id"] == "p2"
                assert responses[2]["verdict"] == "refuted"
                assert responses[3]["verdict"] == "error"

        asyncio.run(run())

    def test_file_specs_rejected_on_the_wire(self, tmp_path):
        secret = tmp_path / "secret.txt"
        secret.write_text("top secret contents")

        async def run():
            async with running_server() as (server, port):
                frame = json.dumps(
                    {"id": "f", "left": f"rpq:@{secret}", "right": "rpq:a+"}
                )
                [resp] = await roundtrip(port, [frame])
                # An isolated error response — and nothing of the file
                # leaks back over the connection.
                assert resp["verdict"] == "error"
                assert resp["error"]["type"] == "ProtocolError"
                assert "top secret contents" not in json.dumps(resp)

        asyncio.run(run())

    def test_concurrent_connections_each_keep_their_order(self):
        async def run():
            async with running_server(workers=4) as (server, port):
                batches = await asyncio.gather(
                    *(
                        roundtrip(port, [HOLDS_FRAME, REFUTED_FRAME])
                        for _ in range(4)
                    )
                )
                for responses in batches:
                    assert [r["verdict"] for r in responses] == [
                        "holds",
                        "refuted",
                    ]

        asyncio.run(run())


TC_SPEC = "datalog:t(x,y) :- e(x,y). t(x,z) :- t(x,y), e(y,z)."


class TestBudgetFields:
    def test_auto_budget_server_keeps_its_max_expansions(self):
        """Regression: escalation rounds used to override the server's
        max_expansions with their own schedule."""
        frame = json.dumps({"id": "tc", "left": TC_SPEC, "right": TC_SPEC})

        async def run():
            async with running_server(auto_budget=True, max_expansions=5) as (
                server,
                port,
            ):
                [resp] = await roundtrip(port, [frame])
                assert resp["verdict"] == "holds_up_to_bound"
                assert resp["bound"] == 5

        asyncio.run(run())

    def test_frame_max_expansions_on_an_auto_budget_server(self):
        frame = json.dumps(
            {"id": "tc", "left": TC_SPEC, "right": TC_SPEC, "max_expansions": 5}
        )

        async def run():
            async with running_server(auto_budget=True, max_expansions=50) as (
                server,
                port,
            ):
                [resp] = await roundtrip(port, [frame])
                assert resp["verdict"] == "holds_up_to_bound"
                assert resp["bound"] == 5

        asyncio.run(run())


class TestOversizedFrames:
    """A frame over the reader's line limit is answered in place."""

    @pytest.mark.parametrize("size", [80_000, 1_000_000], ids=["80KB", "1MB"])
    def test_oversized_middle_frame_gets_one_error_response(self, size):
        oversized = json.dumps(
            {"id": 2, "left": "rpq:" + "a " * (size // 2), "right": "rpq:a"}
        )
        frames = [
            '{"id": 1, "left": "rpq:a a", "right": "rpq:a+"}',
            oversized,
            '{"id": 3, "left": "rpq:a+", "right": "rpq:a a"}',
            '{"op": "health"}',
        ]

        async def run():
            async with running_server() as (server, port):
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                for _ in range(500):
                    if server._connections:
                        break
                    await asyncio.sleep(0.01)
                [conn_task] = server._connections
                writer.write("".join(f + "\n" for f in frames).encode())
                await writer.drain()
                writer.write_eof()
                responses = []
                while line := await reader.readline():
                    responses.append(json.loads(line))
                writer.close()
                await asyncio.wait_for(asyncio.wait({conn_task}), timeout=10)
                assert [r["id"] for r in responses[:3]] == [1, None, 3]
                assert [r["index"] for r in responses] == [0, 1, 2, 3]
                assert responses[0]["verdict"] == "holds"
                assert responses[1]["verdict"] == "error"
                assert responses[1]["error"]["type"] == "ProtocolError"
                assert responses[2]["verdict"] == "refuted"
                assert responses[3]["op"] == "health"
                assert responses[3]["queue_depth"] == 0
                assert conn_task.exception() is None

        asyncio.run(run())


class TestLoadShedding:
    def test_queue_full_sheds_with_admission_details(self, monkeypatch):
        gate = threading.Event()
        monkeypatch.setattr(
            "repro.core.batch.check_containment", blocking_check(gate)
        )

        async def run():
            async with running_server(workers=1, queue_limit=1) as (server, port):
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(
                    ("".join([HOLDS_FRAME + "\n"] * 3)).encode()
                )
                await writer.drain()
                writer.write_eof()
                # The first frame holds the only admission slot on a
                # blocked worker; the next two must shed at the door.
                for _ in range(500):
                    if server._admission.shed_total >= 2:
                        break
                    await asyncio.sleep(0.01)
                gate.set()
                responses = []
                while True:
                    line = await reader.readline()
                    if not line:
                        break
                    responses.append(json.loads(line))
                writer.close()
                assert len(responses) == 3
                assert responses[0]["verdict"] == "holds"
                for shed in responses[1:]:
                    assert shed["verdict"] == "inconclusive"
                    assert shed["method"] == "serve-admission"
                    assert shed["admission"]["shed"] == "queue_full"
                    assert shed["admission"]["queue_limit"] == 1
                    assert "queued_ms" in shed["admission"]["spend"]
                    assert shed["budget"]["exhausted"] == "admission:queue_full"

        asyncio.run(run())

    def test_start_deadline_sheds_queued_request(self, monkeypatch):
        gate = threading.Event()
        monkeypatch.setattr(
            "repro.core.batch.check_containment", blocking_check(gate)
        )

        async def run():
            async with running_server(workers=1, queue_limit=8) as (server, port):
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                deadline_frame = json.dumps(
                    {
                        "id": "late",
                        "left": "rpq:a a",
                        "right": "rpq:a+",
                        "deadline_ms": 50,
                    }
                )
                writer.write((HOLDS_FRAME + "\n" + deadline_frame + "\n").encode())
                await writer.drain()
                writer.write_eof()
                # Both admitted; the second sits queued past its 50 ms
                # start deadline while the only worker is parked.
                for _ in range(500):
                    if server._admission.pending >= 2:
                        break
                    await asyncio.sleep(0.01)
                await asyncio.sleep(0.1)
                gate.set()
                responses = []
                while True:
                    line = await reader.readline()
                    if not line:
                        break
                    responses.append(json.loads(line))
                writer.close()
                assert [r["id"] for r in responses] == ["p1", "late"]
                assert responses[0]["verdict"] == "holds"
                late = responses[1]
                assert late["verdict"] == "inconclusive"
                assert late["method"] == "serve-admission"
                assert late["admission"]["shed"] == "deadline"
                assert late["admission"]["deadline_ms"] == 50
                assert late["admission"]["spend"]["queued_ms"] >= 50
                # Deadline sheds count on the controller too, so the
                # health verb agrees with the serve.shed metrics.
                assert server._admission.shed_total == 1

        asyncio.run(run())


class TestWriterFailure:
    """A peer that stops reading must never wedge admission."""

    def test_dead_writer_releases_every_admission_slot(self):
        class FailingStdout:
            """A peer that vanished: every write is a reset."""

            def write(self, data):
                raise ConnectionResetError("peer went away")

            def flush(self):
                pass

        frames = (HOLDS_FRAME + "\n") * 3 + REFUTED_FRAME + "\n"
        stdin = io.BytesIO(frames.encode())
        server = ContainmentServer(ServeConfig(workers=2, queue_limit=8))

        async def run():
            await server.serve_pipe(stdin=stdin, stdout=FailingStdout())

        asyncio.run(run())
        # All four frames were admitted; although no response could be
        # written, every _finish task still ran: slots released, frames
        # accounted.  A leak here would wedge a shared server once
        # pending hit queue_limit.
        assert server._admission.admitted_total == 4
        assert server._admission.pending == 0
        assert server._frames_answered == 4

    def test_peer_reset_ends_connection_cleanly(self):
        import socket as socket_module
        import struct

        async def run():
            async with running_server(workers=2) as (server, port):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write((HOLDS_FRAME + "\n").encode())
                await writer.drain()
                for _ in range(500):
                    if server._connections:
                        break
                    await asyncio.sleep(0.01)
                [conn_task] = server._connections
                # SO_LINGER(1, 0) turns close() into a hard RST: the
                # server's next read raises ConnectionResetError.
                sock = writer.get_extra_info("socket")
                sock.setsockopt(
                    socket_module.SOL_SOCKET,
                    socket_module.SO_LINGER,
                    struct.pack("ii", 1, 0),
                )
                writer.close()
                await asyncio.wait_for(
                    asyncio.wait({conn_task}), timeout=10
                )
                # A vanished peer is a normal connection end: no
                # exception escapes the handler task, and the admitted
                # frame's slot was still released.
                assert conn_task.exception() is None
                assert server._admission.pending == 0

        asyncio.run(run())


class TestDrain:
    def test_drain_sheds_new_frames_but_answers_them(self):
        async def run():
            async with running_server() as (server, port):
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write((HOLDS_FRAME + "\n").encode())
                await writer.drain()
                first = json.loads(await reader.readline())
                assert first["verdict"] == "holds"
                server.initiate_drain()
                writer.write((REFUTED_FRAME + "\n").encode())
                writer.write(('{"op": "health"}' + "\n").encode())
                await writer.drain()
                writer.write_eof()
                shed = json.loads(await reader.readline())
                assert shed["verdict"] == "inconclusive"
                assert shed["admission"]["shed"] == "draining"
                health = json.loads(await reader.readline())
                assert health["status"] == "draining"
                assert await reader.readline() == b""
                writer.close()
                # New connections are refused once the listener closed.
                with pytest.raises(OSError):
                    await asyncio.open_connection("127.0.0.1", port)

        asyncio.run(run())


class TestRequestIds:
    def test_server_assigns_unique_ids_and_echoes_client_ones(self):
        async def run():
            async with running_server() as (server, port):
                client_frame = json.dumps(
                    {
                        "id": "p9",
                        "left": "rpq:a a",
                        "right": "rpq:a+",
                        "request_id": "trace-me-0007",
                    }
                )
                responses = await roundtrip(
                    port,
                    [HOLDS_FRAME, REFUTED_FRAME, "garbage", client_frame],
                )
                ids = [r["request_id"] for r in responses]
                assert len(set(ids)) == 4
                # Server-assigned ids are r<pid-hex>-<seq>; the
                # client-supplied one comes back verbatim.
                for rid in ids[:3]:
                    assert rid.startswith("r")
                    assert "-" in rid
                assert ids[3] == "trace-me-0007"

        asyncio.run(run())

    def test_control_payloads_carry_request_ids(self):
        async def run():
            async with running_server() as (server, port):
                health, metrics, debug = await roundtrip(
                    port,
                    [
                        '{"op": "health"}',
                        '{"op": "metrics", "request_id": "probe-2"}',
                        '{"op": "debug"}',
                    ],
                )
                assert health["request_id"]
                assert metrics["request_id"] == "probe-2"
                assert debug["request_id"]

        asyncio.run(run())


class TestTelemetry:
    def test_access_log_covers_every_frame_exactly_once(self, tmp_path):
        log_path = tmp_path / "access.ndjson"

        async def run():
            async with running_server(access_log=str(log_path)) as (
                server,
                port,
            ):
                await roundtrip(
                    port,
                    [
                        HOLDS_FRAME,
                        "garbage",
                        REFUTED_FRAME,
                        '{"op": "health"}',
                        '{"op": "metrics"}',
                        '{"op": "debug"}',
                    ],
                )

        asyncio.run(run())
        # Drain closed the writer, so the log is complete on disk.
        records = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
        ]
        assert len(records) == 6
        for record in records:
            assert validate_access_record(record) == [], record
        ids = [r["request_id"] for r in records]
        assert len(set(ids)) == 6
        by_op: dict[str, int] = {}
        for record in records:
            by_op[record["op"]] = by_op.get(record["op"], 0) + 1
        assert by_op == {
            "contain": 2,
            "invalid": 1,
            "health": 1,
            "metrics": 1,
            "debug": 1,
        }
        contain = [r for r in records if r["op"] == "contain"]
        assert {r["verdict"] for r in contain} == {"holds", "refuted"}
        for record in contain:
            assert record["shed"] is None
            assert record["total_ms"] >= record["exec_ms"] >= 0

    def test_sheds_land_in_the_access_log_with_reasons(
        self, tmp_path, monkeypatch
    ):
        gate = threading.Event()
        monkeypatch.setattr(
            "repro.core.batch.check_containment", blocking_check(gate)
        )
        log_path = tmp_path / "access.ndjson"

        async def run():
            async with running_server(
                workers=1, queue_limit=1, access_log=str(log_path)
            ) as (server, port):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(("".join([HOLDS_FRAME + "\n"] * 3)).encode())
                await writer.drain()
                writer.write_eof()
                for _ in range(500):
                    if server._admission.shed_total >= 2:
                        break
                    await asyncio.sleep(0.01)
                gate.set()
                while await reader.readline():
                    pass
                writer.close()

        asyncio.run(run())
        records = [
            json.loads(line) for line in log_path.read_text().splitlines()
        ]
        assert len(records) == 3
        sheds = [r for r in records if r["shed"] is not None]
        assert len(sheds) == 2
        for record in sheds:
            assert record["shed"] == "queue_full"
            assert record["verdict"] == "inconclusive"

    def test_debug_verb_returns_flight_entries_for_slow_and_shed(self):
        async def run():
            # slow_ms=0: every request counts as slow, so sampled
            # traces are retained and the debug verb must show them.
            async with running_server(
                slow_ms=0.0, trace_sample_rate=1.0
            ) as (server, port):
                responses = await roundtrip(
                    port,
                    [HOLDS_FRAME, REFUTED_FRAME, '{"op": "debug", "last": 10}'],
                )
                contain, debug = responses[:2], responses[2]
                flight = debug["flight"]
                assert flight["schema"] == "repro-flight/1"
                assert flight["recorded_total"] == 2
                entries = flight["entries"]
                assert [e["request_id"] for e in entries] == [
                    r["request_id"] for r in contain
                ]
                for entry in entries:
                    assert entry["trace"]["name"]

        asyncio.run(run())

    def test_debug_last_bounds_the_entries(self):
        async def run():
            async with running_server() as (server, port):
                responses = await roundtrip(
                    port,
                    [HOLDS_FRAME] * 4 + ['{"op": "debug", "last": 2}'],
                )
                entries = responses[-1]["flight"]["entries"]
                assert len(entries) == 2
                assert [e["request_id"] for e in entries] == [
                    r["request_id"] for r in responses[2:4]
                ]

        asyncio.run(run())

    def test_sampling_feeds_the_metrics_verb_profile(self):
        async def run():
            async with running_server(trace_sample_rate=1.0) as (
                server,
                port,
            ):
                responses = await roundtrip(
                    port, [HOLDS_FRAME, REFUTED_FRAME, '{"op": "metrics"}']
                )
                payload = responses[-1]
                assert payload["telemetry"]["sample_rate"] == 1.0
                assert payload["telemetry"]["sampled"] == 2
                recorder = payload["telemetry"]["flight_recorder"]
                assert recorder["recorded_total"] == 2
                profile = payload["profile"]
                assert profile["traces"] == 2
                assert any(
                    entry["path"].startswith("check-containment")
                    for entry in profile["entries"]
                )

        asyncio.run(run())

    def test_unsampled_requests_carry_no_trace(self):
        async def run():
            async with running_server(trace_sample_rate=0.0) as (
                server,
                port,
            ):
                await roundtrip(port, [HOLDS_FRAME])
                [entry] = server._telemetry.recorder.entries()
                assert "trace" not in entry
                assert server._telemetry.profile_snapshot()["traces"] == 0

        asyncio.run(run())

    def test_health_reports_schema_and_environment(self):
        async def run():
            async with running_server() as (server, port):
                [resp] = await roundtrip(port, ['{"op": "health"}'])
                assert resp["schema"] == "repro-serve/1"
                environment = resp["environment"]
                assert environment["python"]
                assert environment["platform"]
                assert "commit" in environment

        asyncio.run(run())

    def test_dequeue_shed_records_queued_ms_and_deadline_counter(
        self, monkeypatch
    ):
        gate = threading.Event()
        monkeypatch.setattr(
            "repro.core.batch.check_containment", blocking_check(gate)
        )

        async def run():
            before = metrics_snapshot()
            async with running_server(workers=1, queue_limit=8) as (
                server,
                port,
            ):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                deadline_frame = json.dumps(
                    {
                        "id": "late",
                        "left": "rpq:a a",
                        "right": "rpq:a+",
                        "deadline_ms": 50,
                    }
                )
                writer.write(
                    (HOLDS_FRAME + "\n" + deadline_frame + "\n").encode()
                )
                await writer.drain()
                writer.write_eof()
                for _ in range(500):
                    if server._admission.pending >= 2:
                        break
                    await asyncio.sleep(0.01)
                await asyncio.sleep(0.1)
                gate.set()
                while await reader.readline():
                    pass
                writer.close()
                after = metrics_snapshot()
                # The dequeue-shed request still contributes its full
                # queue wait to serve.queued_ms (its wall_ms is 0), and
                # the shed reason lands on the suffixed counter.
                queued_before = before.get("serve.queued_ms", {})
                queued_after = after["serve.queued_ms"]
                assert (
                    queued_after["count"] - queued_before.get("count", 0) == 2
                )
                assert (
                    queued_after["sum"] - queued_before.get("sum", 0.0) >= 50
                )
                shed_deadline = after["serve.shed.deadline"]["value"] - (
                    before.get("serve.shed.deadline", {}).get("value", 0)
                )
                assert shed_deadline == 1
                # The access record for the shed request mirrors it.
                shed_records = [
                    entry
                    for entry in server._telemetry.recorder.entries()
                    if entry["shed"] == "deadline"
                ]
                assert len(shed_records) == 1
                assert shed_records[0]["queued_ms"] >= 50
                assert shed_records[0]["exec_ms"] == 0

        asyncio.run(run())

    def test_sigterm_drains_and_dumps_the_flight_recorder(self, tmp_path):
        dump_path = tmp_path / "flight.json"

        async def run():
            config = ServeConfig(
                port=0, workers=2, flight_dump=str(dump_path)
            )
            server = ContainmentServer(config)
            task = asyncio.create_task(server.serve_tcp())
            for _ in range(500):
                if server._server is not None and server._server.sockets:
                    break
                await asyncio.sleep(0.01)
            port = server._server.sockets[0].getsockname()[1]
            responses = await roundtrip(port, [HOLDS_FRAME, REFUTED_FRAME])
            assert [r["verdict"] for r in responses] == ["holds", "refuted"]
            # A real SIGTERM: the loop's signal handler initiates the
            # drain, and the drain path writes the dump.
            os.kill(os.getpid(), signal.SIGTERM)
            await asyncio.wait_for(task, 15)

        asyncio.run(run())
        dump = json.loads(dump_path.read_text())
        assert dump["schema"] == "repro-flight/1"
        assert dump["recorded_total"] == 2
        assert len(dump["entries"]) == 2
        verdicts = {entry["verdict"] for entry in dump["entries"]}
        assert verdicts == {"holds", "refuted"}


class TestPrometheusEndpoint:
    def test_scrape_returns_exposition_with_serve_metrics(self):
        async def run():
            async with running_server(prom_port=0) as (server, port):
                await roundtrip(port, [HOLDS_FRAME])
                prom_port = (
                    server._prom_server.sockets[0].getsockname()[1]
                )
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", prom_port
                )
                writer.write(b"GET /metrics HTTP/1.0\r\n\r\n")
                await writer.drain()
                payload = await reader.read()
                writer.close()
                with contextlib.suppress(Exception):
                    await writer.wait_closed()
                head, _, body = payload.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.0 200 OK")
                assert b"text/plain; version=0.0.4" in head
                text = body.decode("utf-8")
                assert "# TYPE serve_requests counter" in text
                assert "# TYPE serve_latency_ms histogram" in text
                assert 'serve_latency_ms_bucket{le="+Inf"}' in text
                assert "serve_latency_ms_count" in text

        asyncio.run(run())


class TestPipeMode:
    def test_pipe_mode_answers_workload_on_stdout(self):
        stdin = io.BytesIO(
            (HOLDS_FRAME + "\n" + "garbage\n" + REFUTED_FRAME + "\n").encode()
        )
        stdout = io.BytesIO()

        async def run():
            server = ContainmentServer(ServeConfig(workers=2))
            await server.serve_pipe(stdin=stdin, stdout=stdout)

        asyncio.run(run())
        lines = stdout.getvalue().decode().splitlines()
        responses = [json.loads(line) for line in lines]
        assert [r["index"] for r in responses] == [0, 1, 2]
        assert responses[0]["verdict"] == "holds"
        assert responses[1]["verdict"] == "error"
        assert responses[2]["verdict"] == "refuted"
