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
import time

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

    def test_chained_rq_frame_is_one_bounded_error_in_order(self):
        """An RQ spec of 400 chained rules is refused at parse time:
        one isolated RQSyntaxError between its neighbours' answers."""
        rules = ["r0(x, y) :- [a](x, y)."] + [
            f"r{i}(x, y) :- r{i - 1}(x, z), [a](z, y)." for i in range(1, 400)
        ]
        chained = json.dumps(
            {"id": 2, "left": "rq:" + "\n".join(rules), "right": "rpq:a"}
        )

        async def run():
            async with running_server() as (server, port):
                responses = await roundtrip(
                    port,
                    [
                        '{"id": 1, "left": "rpq:a a", "right": "rpq:a+"}',
                        chained,
                        '{"id": 3, "left": "rpq:a+", "right": "rpq:a a"}',
                    ],
                )
                assert [r["id"] for r in responses] == [1, None, 3]
                assert [r["index"] for r in responses] == [0, 1, 2]
                verdicts = [r["verdict"] for r in responses]
                assert verdicts == ["holds", "error", "refuted"]
                assert responses[1]["error"]["type"] == "RQSyntaxError"
                assert len(json.dumps(responses[1])) < 4096

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

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_a_kernel_key_is_ignored(self, backend):
        # The engine picks the search: a frame that still names a kernel
        # gets the same answer as one that does not.
        pair = {"left": "rpq:(a|b)* a (a|b) (a|b)", "right": "rpq:(a|b)* a (a|b)"}
        frames = [
            json.dumps({"id": "legacy", **pair, "kernel": "subset"}),
            json.dumps({"id": "plain", **pair}),
        ]

        async def run():
            async with running_server(workers=1, backend=backend) as (server, port):
                return await roundtrip(port, frames)

        legacy, plain = asyncio.run(run())
        assert "error" not in legacy
        assert legacy["verdict"] == plain["verdict"] == "refuted"
        assert legacy["kernel"] == plain["kernel"]
        assert legacy["kernel"]["selected"] == "antichain"


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

    def test_start_deadline_sheds_on_the_process_backend(self):
        # One process worker, held by a 6,000-letter word (a few hundred
        # ms of bitset work); the 20 ms frame behind it is dequeued late,
        # and the shed is built on the event loop exactly as on threads.
        word = " ".join("ab"[i % 2] for i in range(6000))
        slow = json.dumps({"id": "slow", "left": f"rpq:{word}", "right": "rpq:a"})
        late = json.dumps(
            {"id": "late", "left": "rpq:a a", "right": "rpq:a+", "deadline_ms": 20}
        )

        async def run():
            async with running_server(
                workers=1, backend="process", queue_limit=8
            ) as (server, port):
                # Warm the pool first, so pool start-up delays neither frame.
                assert (await roundtrip(port, [HOLDS_FRAME]))[0]["verdict"] == "holds"
                responses = await roundtrip(port, [slow, late])
                assert [r["id"] for r in responses] == ["slow", "late"]
                assert responses[0]["verdict"] == "refuted"
                shed = responses[1]
                assert shed["verdict"] == "inconclusive"
                assert shed["method"] == "serve-admission"
                assert shed["admission"]["shed"] == "deadline"
                assert shed["admission"]["queue_depth"] == 2
                assert shed["admission"]["spend"]["queued_ms"] >= 20
                assert shed["budget"]["exhausted"] == "admission:deadline"
                assert server._admission.shed_total == 1
                # Only queries and budgets crossed into the worker: it
                # never imported the serving layer.  The probe is an
                # argument whose unpickling in the worker raises with
                # the worker's repro.serve* modules as its message.
                probe = await server._executor.submit(
                    _ServeModulesProbe(), _ServeModulesProbe(), index=3
                )
                error = probe.result.details["error"]
                assert (error["type"], error["index"]) == ("LookupError", 3)
                assert error["message"] == "[]"

        asyncio.run(run())

    def test_a_worker_killed_mid_frame_is_retried_and_answered_once(self):
        # One process worker, SIGKILLed while it holds a slow frame: the
        # frame is retried on the respawned worker and answered exactly
        # once, admission slots come back, and the next frame is served.
        word = " ".join("ab"[i % 2] for i in range(6000))
        slow = json.dumps({"id": "slow", "left": f"rpq:{word}", "right": "rpq:a"})

        async def run():
            async with running_server(
                workers=1, backend="process", queue_limit=8
            ) as (server, port):
                [warm] = await roundtrip(port, [HOLDS_FRAME])
                pid = int(warm["worker"].split("/")[0].removeprefix("pid:"))
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write((slow + "\n").encode())
                await writer.drain()
                for _ in range(500):
                    if server._admission.pending == 1:
                        break
                    await asyncio.sleep(0.01)
                await asyncio.sleep(0.05)
                os.kill(pid, signal.SIGKILL)
                response = json.loads(await asyncio.wait_for(reader.readline(), 60))
                assert (response["id"], response["verdict"]) == ("slow", "refuted")
                assert not response["worker"].startswith(f"pid:{pid}/")
                metrics = '{"op": "metrics", "id": "m"}'
                writer.write((HOLDS_FRAME + "\n" + metrics + "\n").encode())
                writer.write_eof()
                rest = [json.loads(line) async for line in reader]
                writer.close()
                with contextlib.suppress(Exception):
                    await writer.wait_closed()
                assert [(r["id"], r.get("verdict")) for r in rest] == [
                    ("p1", "holds"), ("m", None)
                ]
                assert rest[1]["metrics"]["batch.pool_rebuilds"]["value"] >= 1
                assert server._admission.pending == 0

        asyncio.run(run())


class _ServeModulesProbe:
    """Unpickles into a ``LookupError`` listing the ``repro.serve*``
    modules loaded in the unpickling process."""

    def __reduce__(self):
        return exec, (
            "raise LookupError(sorted(m for m in __import__('sys').modules"
            " if m.startswith('repro.serve')))",
            {},
        )


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


    def test_idle_connection_reads_eof_when_the_grace_ends(self):
        async def run():
            server = ContainmentServer(
                ServeConfig(port=0, workers=1, drain_grace_ms=200)
            )
            task = asyncio.create_task(server.serve_tcp())
            for _ in range(500):
                if server._server is not None and server._server.sockets:
                    break
                await asyncio.sleep(0.01)
            port = server._server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            await asyncio.sleep(0.05)  # the connection is being read
            loop = asyncio.get_running_loop()
            started = loop.time()
            server.initiate_drain()
            assert await asyncio.wait_for(reader.readline(), 5) == b""
            waited = loop.time() - started
            await asyncio.wait_for(task, 5)  # serve_tcp returns
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
            assert 0.19 <= waited < 2.0

        asyncio.run(run())

    def test_peer_still_sending_after_the_grace_gets_its_answers(
        self, monkeypatch
    ):
        # Reading ends at the grace, but bytes that keep arriving must
        # not break the connection: the admitted frame is still answered.
        gate = threading.Event()
        monkeypatch.setattr(
            "repro.core.batch.check_containment", blocking_check(gate)
        )

        async def run():
            async with running_server(workers=1, drain_grace_ms=50) as (
                server,
                port,
            ):
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write((HOLDS_FRAME + "\n").encode())
                await writer.drain()
                for _ in range(500):
                    if server._admission.pending == 1:
                        break
                    await asyncio.sleep(0.01)
                server.initiate_drain()
                await asyncio.sleep(0.2)  # the grace is over
                for _ in range(20):
                    writer.write((REFUTED_FRAME + "\n").encode() * 50)
                    await writer.drain()
                    await asyncio.sleep(0.005)
                gate.set()
                responses = []
                while True:
                    line = await asyncio.wait_for(reader.readline(), 10)
                    if not line:
                        break
                    responses.append(json.loads(line))
                writer.close()
                assert [(r["id"], r["verdict"]) for r in responses] == [
                    ("p1", "holds")
                ]

        asyncio.run(run())


class TestOneDeadline:
    """The request's budget holds its one deadline, and the same deadline
    bounds the wait for a worker (the start deadline)."""

    @pytest.mark.parametrize(
        "config, frame_deadline, expected_ms",
        [
            ({"auto_budget": True}, None, 2000.0),
            ({"auto_budget": True}, 300, 300.0),
            ({"deadline_ms": 500.0}, 200, 200.0),
            ({"deadline_ms": 500.0}, 900, 500.0),
            ({}, 250, 250.0),
            ({}, None, None),
        ],
        ids=["auto", "auto-frame", "tightened", "never-extended", "frame", "none"],
    )
    def test_start_deadline_is_the_budget_deadline(
        self, config, frame_deadline, expected_ms
    ):
        calls = []

        async def run():
            async with running_server(**config) as (server, port):
                submit = server._executor.submit

                def recording_submit(*args, **kwargs):
                    calls.append((time.monotonic(), kwargs))
                    return submit(*args, **kwargs)

                server._executor.submit = recording_submit
                frame = {"id": "d", "left": "rpq:a a", "right": "rpq:a+"}
                if frame_deadline is not None:
                    frame["deadline_ms"] = frame_deadline
                [response] = await roundtrip(port, [json.dumps(frame)])
                assert response["verdict"] == "holds"

        asyncio.run(run())
        [(called_at, kwargs)] = calls
        budget = kwargs["budget"]
        if expected_ms is None:
            assert budget is None
            assert kwargs["start_deadline"] is None
            return
        assert budget.deadline_ms == expected_ms
        assert kwargs["start_deadline"] == pytest.approx(
            called_at + expected_ms / 1000.0, abs=0.05
        )


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

    def test_error_tracebacks_reach_only_the_flight_recorder(self, tmp_path):
        """Responses and access-log lines carry type and message; the
        flight-recorder entry of an errored request keeps the traceback."""
        log_path = tmp_path / "access.ndjson"
        frames = [
            '{"id": "bad", "left": "rpq:((", "right": "rpq:a"}',  # parse-time
            '{"id": "w", "left": "datalog:ans(X) :- e(X,Y).", "right": "rpq:a"}',
        ]

        async def run():
            async with running_server(access_log=str(log_path)) as (server, port):
                return await roundtrip(port, frames + ['{"op": "debug"}'])

        *errors, debug = asyncio.run(run())
        assert [r["verdict"] for r in errors] == ["error", "error"]
        for response in errors:
            assert set(response["error"]) == {"type", "message", "index"}
        entries = debug["flight"]["entries"]
        assert len(entries) == 2
        for entry in entries:
            assert "Traceback" in entry["error"]["traceback"]
        records = [json.loads(line) for line in log_path.read_text().splitlines()]
        errored = [r for r in records if r["verdict"] == "error"]
        assert len(errored) == 2
        for record in errored:
            assert set(record["error"]) == {"type", "message"}

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
