"""eval-mutate: single-source 2RPQ reads mixed with writes, in process.

One caller in a closed loop over a ``social_network`` graph of fixed
shape whose node names the seed permutes (``inputs.eval_inputs``).
Reads are ``TwoRPQ.targets`` from random people over a fixed family of
named queries; every tenth operation is an ``add_edge`` of a new edge,
which drops the graph snapshot and makes the cached evaluation
contexts unreachable.  Reads are checked after the timed phase by
replaying the operation log against ``inputs.ReferenceGraph``.

A run is ``PARTS`` parts of equal length, run one after another, each
in a fresh interpreter with its own ``PYTHONHASHSEED`` and its own
inputs.  String hashing sets the layout of every set and dict of node
names, and on identical inputs one hash seed ran 15-20% faster than
another, so a run made of one process reported its layout's luck.  The
parts' observations are pooled.

    python3 -m perfbench.eval_mutate SEED PART SECONDS [TRACE_DIR]

runs one part in this process and prints its observations as JSON
(``run`` starts it so; ``src/`` must be on ``PYTHONPATH``).
"""

from __future__ import annotations

import bisect
import json
import os
import random
import subprocess
import sys
import time

from . import inputs, proctree, tracing

PEOPLE = 1000
WRITE_EVERY = 10
PARTS = 5
#: Set-ups timed before and after each part's timed phase: spread over
#: the whole run, their median follows the host's speed over the run,
#: not at one instant.
SETUPS_BEFORE = 2
SETUPS_AFTER = 1
LIMIT_MS = 40.0
#: Operations generated per second of run: well above what one caller
#: completes, so the log never runs out.
OPS_PER_SECOND = 1500


def run_part(seed: int, part: int, seconds: float, trace_dir: str | None) -> dict:
    """One part, in this process: its observations, ready for JSON."""
    from repro.cache import cache_stats, clear_caches
    from repro.graphdb.database import GraphDatabase
    from repro.rpq.rpq import TwoRPQ

    data = inputs.eval_inputs(seed, PEOPLE, int(OPS_PER_SECOND * seconds) + 1000,
                              WRITE_EVERY, part=part)
    queries = {name: TwoRPQ.parse(text) for name, text in inputs.NAMED_QUERIES.items()}
    if trace_dir is not None:
        tracing.install(trace_dir, server=False)

    def set_up() -> GraphDatabase:
        clear_caches()
        started = time.monotonic()
        db = GraphDatabase.from_edges(data.edges)
        queries["reachable"].targets(db, data.people[0])
        setups.append(time.monotonic() - started)
        return db

    setups: list[float] = []
    for _ in range(SETUPS_BEFORE):
        db = set_up()
    compile_from = time.monotonic()
    for query in queries.values():  # untimed warm pass on the final graph
        query.targets(db, data.people[0])

    before = cache_stats()
    observed: list[tuple[int, int, int]] = []
    intervals: list[tuple[float, float]] = []
    failed_at: set[int] = set()
    cpu_before = time.process_time()
    start = time.monotonic()
    end = start + seconds
    done = 0
    for index, op in enumerate(data.ops):
        began = time.monotonic()
        if began >= end:
            break
        try:
            if op[0] == "read":
                answer = queries[op[1]].targets(db, op[2])
                finished = time.monotonic()
                observed.append((index, len(answer), hash(answer)))
            else:
                db.add_edge(op[1], op[2], op[3])
                finished = time.monotonic()
        except Exception:
            finished = time.monotonic()
            failed_at.add(index)
        intervals.append((began, finished))
        done = index + 1
    cpu_ms = (time.process_time() - cpu_before) * 1000.0
    elapsed = time.monotonic() - start
    compile_to = time.monotonic()
    rss_mb = proctree.peak_rss_mb([os.getpid()])
    after = cache_stats()

    reference = inputs.ReferenceGraph(data.edges)
    wrong_at: set[int] = set()
    observed_at = {index: (size, digest) for index, size, digest in observed}
    for index, op in enumerate(data.ops[:done]):
        if op[0] == "write":
            reference.add_edge(op[1], op[2], op[3])
        elif index in observed_at:
            expected = frozenset(reference.targets(op[1], op[2]))
            if observed_at[index] != (len(expected), hash(expected)):
                wrong_at.add(index)
    del db, reference
    for _ in range(SETUPS_AFTER):
        set_up()
    writes = sum(1 for op in data.ops[:done] if op[0] == "write")
    return {
        "latencies_ms": [(b - a) * 1000.0 for a, b in intervals],
        "intervals": intervals,
        "bad": sorted(failed_at | wrong_at),
        "wrong": len(wrong_at),
        "writes": writes,
        "reads": done - writes,
        "elapsed_s": elapsed,
        "setups": setups,
        "cpu_ms": cpu_ms,
        "peak_rss_mb": rss_mb,
        "cache_before": before,
        "cache_after": after,
        "compile_window": (compile_from, compile_to),
    }


def run(seed: int, seconds: float, root: str, trace_dir: str | None) -> dict:
    """Every part in a fresh interpreter, and their observations pooled."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([root, os.path.join(root, "src")])
    parts = []
    for part in range(PARTS):
        env["PYTHONHASHSEED"] = str(random.Random(f"hash:{seed}:{part}").randrange(1, 2**32))
        command = [sys.executable, "-m", "perfbench.eval_mutate", str(seed), str(part),
                   repr(seconds / PARTS), *([trace_dir] if trace_dir is not None else [])]
        done = subprocess.run(command, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                              check=True, timeout=120)
        parts.append(json.loads(done.stdout))
    pooled: dict = {"latencies_ms": [], "intervals": [], "bad": set(), "setups": [],
                    "compile_windows": []}
    for part in parts:
        offset = len(pooled["latencies_ms"])
        pooled["bad"].update(offset + index for index in part["bad"])
        pooled["latencies_ms"] += part["latencies_ms"]
        pooled["intervals"] += [tuple(interval) for interval in part["intervals"]]
        pooled["setups"] += part["setups"]
        pooled["compile_windows"].append(tuple(part["compile_window"]))
    for key in ("wrong", "writes", "reads", "elapsed_s", "cpu_ms"):
        pooled[key] = sum(part[key] for part in parts)
    pooled["peak_rss_mb"] = max(part["peak_rss_mb"] for part in parts)
    for key in ("cache_before", "cache_after"):
        pooled[key] = {}
        for part in parts:
            for cache, stats in part[key].items():
                totals = pooled[key].setdefault(cache, {})
                for field in ("hits", "misses", "evictions"):
                    totals[field] = totals.get(field, 0) + stats.get(field, 0)
    return pooled


def op_of(intervals: list[tuple[float, float]], when: float) -> int | None:
    """Index of the operation whose interval holds *when*, if any."""
    position = bisect.bisect_right(intervals, (when, float("inf"))) - 1
    if position >= 0 and intervals[position][0] <= when <= intervals[position][1]:
        return position
    return None


if __name__ == "__main__":
    print(json.dumps(run_part(int(sys.argv[1]), int(sys.argv[2]), float(sys.argv[3]),
                              sys.argv[4] if len(sys.argv) > 4 else None)))
