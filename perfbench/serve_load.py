"""serve-hot and serve-cold: load ``repro serve`` over TCP from one process.

The server runs as a subprocess (``python -m repro serve``) built from
the checkout's ``src/``.  The client speaks the NDJSON wire protocol
over one connection per core and checks every answer against the
verdict its generator justified (``inputs.py``).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from . import inputs, proctree

#: Per-connection open-loop schedule (about half of what the closed loop
#: sustains), the share of each round it takes, and the closed loop's
#: frames in flight per connection.  A busy server answers faster than an
#: idle one on a VM, whose idle vCPUs wake slowly, so a window of 1
#: measured the host's wake-up latency more than the server.
HOT_RATE_PER_CONNECTION = 300.0
HOT_OPEN_SHARE = 0.6
HOT_WINDOW = 8
#: serve-hot alternates its open and closed phases over HOT_ROUNDS
#: rounds, so that both sample the whole run.
HOT_ROUNDS = 5
HOT_PAIRS = 300
#: The open loop is invalid when the generator's median lateness exceeds
#: this share of its inter-arrival gap.
MAX_LATENESS_SHARE = 0.5
#: Server launches timed before and after the timed phase (the last one
#: before it serves the run): spread over the whole run, their median
#: follows the host's speed over the run, not at one instant.
SETUP_LAUNCHES_BEFORE = 3
SETUP_LAUNCHES_AFTER = 2
SETUP_PAIR = inputs.Pair("setup", "rpq:setup_a setup_b*",
                         "rpq:setup_a (setup_b|setup_c)*", "holds", "widening")


def workers() -> int:
    """One worker and one connection per core (at most 4)."""
    return max(1, min(4, len(os.sched_getaffinity(0))))


class Server:
    """One ``repro serve`` subprocess and its process tree."""

    def __init__(self, root: str, backend: str, env: dict, extra: list[str]) -> None:
        command = [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
                   "--port", "0", "--backend", backend, "--workers", str(workers()),
                   "--queue-limit", "64", *extra]
        self.proc = subprocess.Popen(command, cwd=root, env=env, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                     text=True)
        self.stderr: list[str] = []
        self.port = None
        for line in self.proc.stderr:
            self.stderr.append(line)
            if line.startswith("# serving on "):
                self.port = int(line.split()[3].rsplit(":", 1)[1])
                break
        if self.port is None:
            self.proc.wait(timeout=30)
            raise RuntimeError("repro serve did not start:\n" + "".join(self.stderr))
        self._stderr_reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._stderr_reader.start()

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self.stderr.append(line)

    def tree(self) -> list[int]:
        return proctree.descendants(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait for the whole tree."""
        pids = self.tree()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10)
        proctree.wait_gone(pids, timeout=30)
        self._stderr_reader.join(timeout=5)


class Connection:
    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 22)
        return cls(reader, writer)

    async def request(self, frame: dict) -> dict:
        self.writer.write((json.dumps(frame) + "\n").encode())
        await self.writer.drain()
        return json.loads(await asyncio.wait_for(self.reader.readline(), 120))

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass


@dataclass
class Op:
    """One measured request: what was sent, and how it came back."""

    pair: inputs.Pair
    rid: str
    due: float  # when the frame was due (open loop) or sent (closed loop)
    received: float | None = None
    response: dict | None = None

    @property
    def latency_ms(self) -> float:
        return (self.received - self.due) * 1000.0

    def outcome(self) -> str:
        """ok, miss (inexact or shed by deadline), failed or wrong."""
        response = self.response
        if response is None or response.get("verdict") in (None, "error"):
            return "failed"
        if (response.get("admission") or {}).get("shed") == "queue_full":
            return "failed"
        verdict = response["verdict"]
        if verdict in ("holds", "refuted"):
            return "ok" if verdict == self.pair.expected else "wrong"
        return "miss"


@dataclass
class Phase:
    kind: str
    ops: list[Op] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0
    lateness_ms: list[float] = field(default_factory=list)


async def _open_loop(conns, frames, seconds: float, deadline_ms) -> Phase:
    """Send on a fixed schedule, whatever the server does; time from due."""
    phase = Phase("open")
    gap = 1.0 / HOT_RATE_PER_CONNECTION
    start = time.monotonic() + 0.05
    end = start + seconds
    phase.start = start

    async def sender(conn, offset, queue):
        for k in itertools.count():
            due = start + offset + k * gap
            if due >= end:
                break
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            pair, rid = next(frames)
            sent = time.monotonic()
            phase.lateness_ms.append((sent - due) * 1000.0)
            op = Op(pair, rid, due)
            conn.writer.write((json.dumps(pair.frame(rid, deadline_ms)) + "\n").encode())
            queue.put_nowait(op)
            if k % 8 == 7:
                await conn.writer.drain()
        await conn.writer.drain()
        queue.put_nowait(None)

    async def receiver(conn, queue):
        while True:
            op = await queue.get()
            if op is None:
                return
            phase.ops.append(op)
            try:
                line = await asyncio.wait_for(conn.reader.readline(), 120)
            except asyncio.TimeoutError:
                return
            op.received = time.monotonic()
            op.response = json.loads(line) if line else None

    tasks = []
    for index, conn in enumerate(conns):
        queue: asyncio.Queue = asyncio.Queue()
        offset = index * gap / len(conns)
        tasks += [sender(conn, offset, queue), receiver(conn, queue)]
    await asyncio.gather(*tasks)
    phase.end = max((op.received for op in phase.ops if op.received), default=end)
    return phase


async def _closed_loop(conns, frames, seconds: float, deadline_ms, window: int = 1) -> Phase:
    """Each connection keeps *window* frames in flight: a reply frees a slot."""
    phase = Phase("closed")
    phase.start = time.monotonic()
    end = phase.start + seconds

    async def sender(conn, slots, queue):
        while True:
            await slots.acquire()
            if time.monotonic() >= end:
                break
            pair, rid = next(frames)
            op = Op(pair, rid, time.monotonic())
            conn.writer.write((json.dumps(pair.frame(rid, deadline_ms)) + "\n").encode())
            queue.put_nowait(op)
            await conn.writer.drain()
        queue.put_nowait(None)

    async def receiver(conn, slots, queue):
        while True:
            op = await queue.get()
            if op is None:
                return
            phase.ops.append(op)
            try:
                line = await asyncio.wait_for(conn.reader.readline(), 120)
            except asyncio.TimeoutError:
                return
            op.received = time.monotonic()
            op.response = json.loads(line) if line else None
            slots.release()

    tasks = []
    for conn in conns:
        slots, queue = asyncio.Semaphore(window), asyncio.Queue()
        tasks += [sender(conn, slots, queue), receiver(conn, slots, queue)]
    await asyncio.gather(*tasks)
    phase.end = max((op.received for op in phase.ops if op.received), default=end)
    return phase


async def _launch(root: str, backend: str, env: dict, extra: list[str], tag: str):
    """Start a server; time launch until the first contain frame is answered."""
    started = time.monotonic()
    server = await asyncio.to_thread(Server, root, backend, env, extra)
    try:
        conn = await Connection.open(server.port)
        response = await conn.request(SETUP_PAIR.frame(f"s-{tag}"))
        setup_s = time.monotonic() - started
        await conn.close()
        if response.get("verdict") != SETUP_PAIR.expected:
            raise RuntimeError(f"set-up frame answered {response!r}")
    except BaseException:
        await asyncio.to_thread(server.stop)
        raise
    return server, setup_s


def _frames(pairs, prefix: str):
    counter = itertools.count()
    for pair in pairs:
        yield pair, f"{prefix}-{next(counter)}"


async def run(workload: str, seed: int, seconds: float, root: str, trace_dir: str | None):
    """Run one serve workload; returns the raw observations for run.py."""
    hot = workload == "serve-hot"
    backend = "thread" if hot else "process"
    limit_ms = 50.0 if hot else 150.0
    deadline_ms = None if hot else limit_ms
    env = dict(os.environ)
    # The process backend's forkserver binds a Unix socket under TMPDIR:
    # keep it inside the checkout when the path fits a socket address.
    tmp = os.path.join(root, ".perfbench", "tmp")
    if len(tmp) <= 60:
        os.makedirs(tmp, exist_ok=True)
        env["TMPDIR"] = tmp
    paths = [os.path.join(root, "src")]
    extra: list[str] = []
    if trace_dir is not None:
        paths.insert(0, os.path.join(root, "perfbench", "site"))
        env["PERFBENCH_TRACE_DIR"] = trace_dir
        extra = ["--access-log", os.path.join(trace_dir, "access.ndjson")]
    env["PYTHONPATH"] = os.pathsep.join(paths)

    setups: list[float] = []

    async def launch_and_stop(count: int, tag: str) -> None:
        for launch in range(count):
            server, setup_s = await _launch(root, backend, env, [], f"{tag}{launch}")
            setups.append(setup_s)
            await asyncio.to_thread(server.stop)

    await launch_and_stop(SETUP_LAUNCHES_BEFORE - 1, "b")
    server, setup_s = await _launch(root, backend, env, extra, "final")
    setups.append(setup_s)
    try:
        conns = [await Connection.open(server.port) for _ in range(workers())]
        control = await Connection.open(server.port)
        if hot:
            pairs = inputs.hot_pairs(seed, HOT_PAIRS)
            warm = _frames(pairs, "w")
            await _closed_pass(conns, warm, len(pairs), None)
            order = list(pairs)
            random.Random(f"hot-order:{seed}").shuffle(order)
            measured = _frames(itertools.cycle(order), "m")
        else:
            warm_pairs = [p for p in itertools.islice(
                inputs.cold_pairs(seed + 7919), 40) if p.kind != "blowup-big"]
            await _closed_pass(conns, _frames(warm_pairs, "w"), len(warm_pairs), deadline_ms)
            measured = _frames(inputs.cold_pairs(seed), "m")
        before = await control.request({"op": "metrics", "request_id": "c-0"})
        pids = server.tree()
        cpu_before = proctree.cpu_ms(pids)
        phases = []
        if hot:
            share = seconds / HOT_ROUNDS
            for _ in range(HOT_ROUNDS):
                phases.append(await _open_loop(conns, measured, share * HOT_OPEN_SHARE, None))
                phases.append(await _closed_loop(conns, measured,
                                                 share * (1 - HOT_OPEN_SHARE), None,
                                                 window=HOT_WINDOW))
        else:
            phases.append(await _closed_loop(conns, measured, seconds, deadline_ms))
        pids = server.tree()
        cpu_after = proctree.cpu_ms(pids)
        rss_mb = proctree.peak_rss_mb(pids)
        after = await control.request({"op": "metrics", "request_id": "c-1"})
        for conn in conns + [control]:
            await conn.close()
    finally:
        await asyncio.to_thread(server.stop)
    await launch_and_stop(SETUP_LAUNCHES_AFTER, "a")
    cpu_ms = sum(cpu_after.values()) - sum(cpu_before.get(pid, 0.0) for pid in cpu_after)
    return {
        "phases": phases,
        "setups": setups,
        "cpu_ms": cpu_ms,
        "peak_rss_mb": rss_mb,
        "limit_ms": limit_ms,
        "workers": workers(),
        "metrics_before": before,
        "metrics_after": after,
    }


async def _closed_pass(conns, frames, count: int, deadline_ms) -> None:
    """Untimed warm-up: send *count* frames, one in flight per connection."""
    remaining = iter(range(count))

    async def client(conn):
        for _ in remaining:
            pair, rid = next(frames)
            response = await conn.request(pair.frame(rid, deadline_ms))
            if response.get("verdict") == "error":
                raise RuntimeError(f"warm-up frame failed: {response!r}")

    await asyncio.gather(*(client(conn) for conn in conns))


def lateness_summary(phases: list[Phase]) -> dict:
    late = [value for phase in phases for value in phase.lateness_ms]
    gap_ms = 1000.0 / HOT_RATE_PER_CONNECTION
    return {"p50_ms": statistics.median(late), "max_ms": max(late), "gap_ms": gap_ms,
            "valid": statistics.median(late) <= MAX_LATENESS_SHARE * gap_ms}
