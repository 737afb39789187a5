#!/usr/bin/env python
"""End-to-end serving smoke: launch, replay, observe, drain.

The CI serving job runs this against a real ``repro serve`` subprocess
with the full telemetry surface enabled:

1. start the server on a free port with ``--access-log``,
   ``--trace-sample-rate``, ``--flight-dump`` and ``--prom-port 0``,
   and parse both announce lines;
2. replay the checked-in batch workload over TCP, followed by two
   frames that must fail (an ``rq:`` spec of 400 chained rules, refused
   while parsing, and a pair that raises inside a worker), and require
   every frame answered in order with no shed responses and a unique
   server-assigned ``request_id`` on each, each failing frame as one
   isolated error under 4 KiB that carries no traceback;
3. fetch the ``metrics`` and ``debug`` control verbs and write the
   metrics snapshot to ``serve_metrics.json`` (a CI artifact);
4. scrape the Prometheus endpoint and lint every exposition line;
   then send, on a fresh connection, an ``rpq:`` frame holding a word of
   30,000 letters (near the 64 KiB line limit) with ``deadline_ms`` 150,
   and require one bounded answer within 1 s: the deadline bounds
   compiling the query, not only searching it;
5. SIGTERM the server and require a clean drain: exit code 0, the
   ``# drained`` summary on stderr, and the flight-recorder dump file,
   whose entries for the two failing frames hold their tracebacks;
6. schema-validate every access-log record and require each accepted
   frame to appear exactly once (answered or shed).

``--backend process`` runs the same checks against process workers,
whose metrics reach the ``metrics`` verb only through per-item
repatriation.

Exits non-zero on any violation.  Usage::

    PYTHONPATH=src python scripts/serve_smoke.py [--backend {thread,process}] [--workload PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import re
import signal
import socket
import subprocess
import sys
import time

REPO = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.obs.telemetry import validate_access_record  # noqa: E402

DEFAULT_WORKLOAD = REPO / "benchmarks" / "workloads" / "batch_smoke.ndjson"

_RQ_CHAIN = "\n".join(
    ["r0(x, y) :- [a](x, y)."]
    + [f"r{i}(x, y) :- r{i - 1}(x, z), [a](z, y)." for i in range(1, 400)]
)
#: Sent after the workload; each must come back as one isolated error.
ERROR_FRAMES = [
    json.dumps({"id": "rq-chain", "left": "rq:" + _RQ_CHAIN, "right": "rpq:a"}),
    json.dumps(
        {"id": "worker-error", "left": "datalog:ans(X) :- e(X,Y).", "right": "rpq:a"}
    ),
]

#: A word this long fills most of one 64 KiB frame; compiling it to the
#: end takes seconds, so only a deadline that bounds compilation answers
#: it in time.
LONG_WORD_LETTERS = 30_000
LONG_WORD_DEADLINE_MS = 150
LONG_WORD_ANSWER_S = 1.0

# One Prometheus exposition line: comment, or `name[{le="..."}] value`.
_EXPOSITION_LINE = re.compile(
    r"^(#.*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{le=\"[^\"]+\"\})? -?[0-9.e+-]+(inf)?)$"
)


def fail(message: str) -> "NoReturn":  # noqa: F821 - py3.10 floor
    print(f"serve_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def read_announces(stream) -> tuple[int, int]:
    """Return (serve_port, prom_port) from the stderr announce lines."""
    prom_port = None
    for _ in range(10):
        line = stream.readline()
        if line.startswith("# metrics on "):
            prom_port = int(line.split("/metrics")[0].rsplit(":", 1)[1])
        elif line.startswith("# serving on "):
            port = int(line.split()[3].rsplit(":", 1)[1])
            if prom_port is None:
                fail("no prometheus announce line before the serving line")
            return port, prom_port
        else:
            fail(f"unexpected announce line: {line!r}")
    fail("server never announced its ports")


def scrape_prometheus(port: int) -> str:
    with socket.create_connection(("127.0.0.1", port), 10) as sock:
        sock.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    response = b"".join(chunks)
    head, _, body = response.partition(b"\r\n\r\n")
    status = head.decode("ascii", "replace").split("\r\n")[0]
    if "200" not in status:
        fail(f"prometheus scrape returned {status!r}")
    return body.decode("utf-8")


def check_access_log(path: pathlib.Path, request_ids: set[str]) -> None:
    """Every record schema-valid; every accepted frame logged once."""
    records = [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]
    for record in records:
        problems = validate_access_record(record)
        if problems:
            fail(f"invalid access record {record!r}: {problems}")
    logged = [r["request_id"] for r in records]
    if len(logged) != len(set(logged)):
        fail("duplicate request_id in access log")
    missing = request_ids - set(logged)
    if missing:
        fail(f"{len(missing)} responses missing from access log: "
             f"{sorted(missing)[:3]}")
    by_op: dict[str, int] = {}
    for record in records:
        by_op[record["op"]] = by_op.get(record["op"], 0) + 1
    print(f"serve_smoke: {len(records)} access records, ops={by_op}")


def check_long_word(port: int) -> None:
    """One long-word frame comes back as a bounded answer in time."""
    word = " ".join("ab"[i % 2] for i in range(LONG_WORD_LETTERS))
    frame = json.dumps({
        "id": "long-word", "left": f"rpq:{word}", "right": "rpq:a",
        "deadline_ms": LONG_WORD_DEADLINE_MS,
    })
    with socket.create_connection(("127.0.0.1", port), 10) as sock:
        sock.settimeout(60)
        start = time.monotonic()
        sock.sendall(frame.encode() + b"\n")
        sock.shutdown(socket.SHUT_WR)
        with sock.makefile("r", encoding="utf-8") as stream:
            replies = [json.loads(line) for line in stream]
        elapsed = time.monotonic() - start
    if len(replies) != 1 or replies[0].get("verdict") not in ("inconclusive", "refuted"):
        fail(f"long-word frame answered {json.dumps(replies)[:300]}")
    if elapsed > LONG_WORD_ANSWER_S:
        fail(f"long-word frame answered after {elapsed:.2f}s "
             f"(deadline_ms {LONG_WORD_DEADLINE_MS})")
    print(
        f"serve_smoke: {LONG_WORD_LETTERS}-letter word answered "
        f"{replies[0]['verdict']} by {replies[0].get('method')} in "
        f"{elapsed * 1000:.0f} ms ({len(frame)} bytes, deadline_ms "
        f"{LONG_WORD_DEADLINE_MS})"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workload", default=str(DEFAULT_WORKLOAD), help="NDJSON workload"
    )
    parser.add_argument(
        "--backend", choices=("thread", "process"), default="thread",
        help="the server's worker-pool backend",
    )
    parser.add_argument(
        "--out", default="serve_metrics.json", help="metrics snapshot path"
    )
    parser.add_argument(
        "--access-log", default="serve_access.ndjson",
        help="access log path (uploaded as a CI artifact)",
    )
    parser.add_argument(
        "--flight-dump", default="serve_flight.json",
        help="flight-recorder dump path (uploaded as a CI artifact)",
    )
    args = parser.parse_args()

    lines = [
        line
        for line in pathlib.Path(args.workload).read_text().splitlines()
        if line.strip()
    ]
    access_log = pathlib.Path(args.access_log)
    flight_dump = pathlib.Path(args.flight_dump)
    for stale in (access_log, flight_dump):
        stale.unlink(missing_ok=True)

    env = dict(os.environ)
    env.setdefault("PYTHONPATH", str(REPO / "src"))
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--workers", "4", "--queue-limit", "256",
            "--backend", args.backend,
            "--access-log", str(access_log),
            "--trace-sample-rate", "0.25",
            "--slow-ms", "0",
            "--flight-dump", str(flight_dump),
            "--prom-port", "0",
        ],
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    assert process.stderr is not None
    try:
        port, prom_port = read_announces(process.stderr)
        print(
            f"serve_smoke: {args.backend} server on port {port}, "
            f"metrics on {prom_port}"
        )

        responses: list[dict] = []
        with socket.create_connection(("127.0.0.1", port), 10) as sock:
            sock.settimeout(120)
            payload = "".join(line + "\n" for line in lines + ERROR_FRAMES)
            payload += '{"op": "debug", "id": "recorder", "last": 5}\n'
            payload += '{"op": "metrics", "id": "snapshot"}\n'
            sock.sendall(payload.encode())
            sock.shutdown(socket.SHUT_WR)
            with sock.makefile("r", encoding="utf-8") as stream:
                for line in stream:
                    responses.append(json.loads(line))

        frames = len(lines) + len(ERROR_FRAMES)
        if len(responses) != frames + 2:
            fail(f"{len(responses)} responses for {frames + 2} frames")
        if [r["index"] for r in responses] != list(range(len(responses))):
            fail("responses out of input order")
        answered = responses[: len(lines)]
        shed = [r for r in answered if r.get("method") == "serve-admission"]
        if shed:
            fail(f"{len(shed)} frames shed on an idle server")
        errored = [r for r in answered if r["verdict"] == "error"]
        if errored:
            fail(f"workload frames errored: {errored[:2]}")
        request_ids = {r.get("request_id") for r in responses}
        if None in request_ids or len(request_ids) != len(responses):
            fail("responses without unique server-assigned request ids")
        print(
            f"serve_smoke: {len(answered)} frames answered in order, "
            f"0 shed, {len(request_ids)} unique request ids"
        )
        for response in responses[len(lines):frames]:
            size = len(json.dumps(response).encode())
            if response["verdict"] != "error" or size >= 4096:
                fail(f"failing frame not a bounded error ({size} bytes): "
                     f"{json.dumps(response)[:300]}")
            if set(response["error"]) != {"type", "message", "index"}:
                fail(f"error payload carries {sorted(response['error'])}")
        print(
            f"serve_smoke: {len(ERROR_FRAMES)} failing frames answered as "
            f"bounded errors "
            f"({[r['error']['type'] for r in responses[len(lines):frames]]})"
        )

        flight = responses[frames]
        if flight.get("op") != "debug":
            fail(f"debug verb returned {flight!r}")
        if flight["flight"]["schema"] != "repro-flight/1":
            fail(f"debug flight schema {flight['flight']['schema']!r}")
        if not flight["flight"]["entries"]:
            fail("flight recorder empty with --slow-ms 0")
        print(
            f"serve_smoke: debug verb returned "
            f"{len(flight['flight']['entries'])} flight entries"
        )

        snapshot = responses[-1]
        if snapshot.get("op") != "metrics" or "metrics" not in snapshot:
            fail(f"metrics verb returned {snapshot!r}")
        served = snapshot["metrics"].get("serve.responses", {}).get("value", 0)
        if served < len(lines):
            fail(f"serve.responses={served} < {len(lines)} frames")
        if "telemetry" not in snapshot:
            fail("metrics verb payload has no telemetry stats")
        pathlib.Path(args.out).write_text(
            json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
        )
        print(f"serve_smoke: metrics snapshot written to {args.out}")

        exposition = scrape_prometheus(prom_port)
        for line in exposition.splitlines():
            if not _EXPOSITION_LINE.match(line):
                fail(f"bad prometheus exposition line: {line!r}")
        if "serve_requests" not in exposition:
            fail("prometheus exposition missing serve_requests")
        print(
            f"serve_smoke: prometheus exposition clean "
            f"({len(exposition.splitlines())} lines)"
        )

        check_long_word(port)

        process.send_signal(signal.SIGTERM)
        try:
            code = process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            fail("server did not drain within 30s of SIGTERM")
        stderr_rest = process.stderr.read()
        if code != 0:
            fail(f"drain exit code {code}; stderr: {stderr_rest!r}")
        if "# drained:" not in stderr_rest:
            fail(f"no drain summary on stderr: {stderr_rest!r}")
        print(f"serve_smoke: clean drain ({stderr_rest.strip().splitlines()[-1]})")

        if not flight_dump.exists():
            fail("no flight-recorder dump after SIGTERM drain")
        dump = json.loads(flight_dump.read_text())
        if dump.get("schema") != "repro-flight/1":
            fail(f"flight dump schema {dump.get('schema')!r}")
        tracebacks = [
            entry for entry in dump["entries"]
            if entry.get("verdict") == "error"
            and "Traceback" in entry["error"].get("traceback", "")
        ]
        if len(tracebacks) != len(ERROR_FRAMES):
            fail(f"flight dump holds {len(tracebacks)} error tracebacks, "
                 f"not {len(ERROR_FRAMES)}")
        print(
            f"serve_smoke: flight dump has {len(dump['entries'])} entries "
            f"({dump['recorded_total']} recorded, "
            f"{len(tracebacks)} error tracebacks)"
        )

        if not access_log.exists():
            fail("server wrote no access log")
        check_access_log(access_log, request_ids)
        return 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()


if __name__ == "__main__":
    sys.exit(main())
