"""The repository's end-to-end benchmark: one command, three workloads.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 1

Run it from a checkout's root.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` is the separate traced run that prints the
per-layer metrics (its own end-to-end numbers appear as ``traced.*``).
``--workload all`` runs every workload in its own process and, with
``--trace 1``, both kinds of run, so it can print the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import eval_mutate, layers, serve_load  # noqa: E402

WORKLOADS = ("serve-hot", "serve-cold", "eval-mutate")
#: Percentile reported as latency_tail_ms, fixed per workload.  It is
#: lower than the highest percentile with ten samples beyond it (about
#: p99.7 on serve-cold and p99.9 on eval-mutate in a 45-second run),
#: because those move with single host stalls from run to run; p99 sits
#: inside serve-cold's big blow-ups and eval-mutate's snapshot rebuilds.
#: serve-hot's p99 is host noise (7-23 ms over identical runs), so it
#: reports p90.
TAIL_PERCENTILE = {"serve-hot": 90, "serve-cold": 99, "eval-mutate": 99}
END_TO_END = [
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("correct_in_limit_ratio", "ratio"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
]


def calibrate() -> float:
    """A fixed pure-Python loop (best of three, ms): the host-noise probe."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        total, table = 0, {}
        for i in range(200_000):
            total += i * i % 7
            table[i & 1023] = total
        best = min(best, time.perf_counter() - started)
    return best * 1000.0


def _serve_e2e(workload: str, raw: dict) -> tuple[dict, dict]:
    phases = raw["phases"]
    ops = [op for phase in phases for op in phase.ops]
    outcomes = [op.outcome() for op in ops]
    answered = [op for op in ops if op.received is not None]
    # serve-hot times latency in its open phases; serve-cold has only closed ones.
    timed_kind = "open" if workload == "serve-hot" else "closed"
    timed = [op.latency_ms for phase in phases if phase.kind == timed_kind
             for op in phase.ops if op.received is not None]
    closed = [phase for phase in phases if phase.kind == "closed"]
    completed = sum(1 for phase in closed for op in phase.ops if op.received is not None)
    limit = raw["limit_ms"]
    metrics = {
        "setup_s": statistics.median(raw["setups"]),
        "throughput_ops_s": completed / sum(phase.end - phase.start for phase in closed),
        "latency_p50_ms": statistics.median(timed),
        "latency_tail_ms": layers.percentile(timed, TAIL_PERCENTILE[workload]),
        "correct_in_limit_ratio": sum(
            1 for op, outcome in zip(ops, outcomes)
            if outcome == "ok" and op.latency_ms <= limit) / len(ops),
        "cpu_ms_per_op": raw["cpu_ms"] / max(1, len(answered)),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    facts = {
        "attempted": len(ops),
        "failed": sum(1 for outcome in outcomes if outcome in ("failed", "wrong")),
        "wrong": outcomes.count("wrong"),
        "lost": len(ops) - len(answered),
        "limit_ms": limit,
        "setups_s": raw["setups"],
    }
    if workload == "serve-hot":
        facts["lateness"] = serve_load.lateness_summary(
            [phase for phase in phases if phase.kind == "open"])
    return metrics, facts


def _eval_e2e(raw: dict) -> tuple[dict, dict]:
    latencies = raw["latencies_ms"]
    bad = raw["bad"]
    in_limit = sum(1 for index, latency in enumerate(latencies)
                   if index not in bad and latency <= eval_mutate.LIMIT_MS)
    metrics = {
        "setup_s": statistics.median(raw["setups"]),
        "throughput_ops_s": len(latencies) / raw["elapsed_s"],
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": layers.percentile(latencies, TAIL_PERCENTILE["eval-mutate"]),
        "correct_in_limit_ratio": in_limit / len(latencies),
        "cpu_ms_per_op": raw["cpu_ms"] / len(latencies),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    facts = {"attempted": len(latencies), "failed": len(bad), "wrong": raw["wrong"],
             "lost": 0, "limit_ms": eval_mutate.LIMIT_MS, "setups_s": raw["setups"]}
    return metrics, facts


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload once; print its report and the result line."""
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no src/repro under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    trace_dir = None
    if trace:
        trace_dir = os.path.join(ROOT, ".perfbench", workload)
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
    calibration_before = calibrate()
    if workload == "eval-mutate":
        raw = eval_mutate.run(seed, seconds, ROOT, trace_dir)
        metrics, facts = _eval_e2e(raw)
    else:
        raw = asyncio.run(serve_load.run(workload, seed, seconds, ROOT, trace_dir))
        metrics, facts = _serve_e2e(workload, raw)
    calibration_after = calibrate()

    print(f"# {workload} seed={seed} seconds={seconds} trace={int(trace)}")
    for name, unit in END_TO_END:
        print(f"  {name:<24} {metrics[name]:.6g} {unit}")
    print(f"  {'failed_ratio':<24} {facts['failed'] / facts['attempted']:.6g} ratio "
          f"({facts['failed']} of {facts['attempted']}; {facts['wrong']} wrong, "
          f"{facts['lost']} unanswered)")
    print(f"  latency limit {facts['limit_ms']} ms; tail is "
          f"p{TAIL_PERCENTILE[workload]}; set-ups {facts['setups_s']}")
    print(f"  host calibration {calibration_before:.3f} ms before, "
          f"{calibration_after:.3f} ms after")
    lateness = facts.get("lateness")
    if lateness is not None:
        print(f"  open-loop lateness p50 {lateness['p50_ms']:.3f} ms, max "
              f"{lateness['max_ms']:.3f} ms, gap {lateness['gap_ms']:.3f} ms")
        if not lateness["valid"]:
            print("error: the open-loop generator fell behind its schedule; "
                  "run invalid, not reported", file=sys.stderr)
            return 3

    if trace:
        tail = TAIL_PERCENTILE[workload]
        if workload == "eval-mutate":
            per_layer, table = layers.eval_layers(trace_dir, raw, tail)
        else:
            per_layer, table = layers.serve_layers(trace_dir, raw, tail)
        per_layer.update({
            "traced.throughput_ops_s": metrics["throughput_ops_s"],
            "traced.latency_p50_ms": metrics["latency_p50_ms"],
            "traced.cpu_ms_per_op": metrics["cpu_ms_per_op"],
            "host.calibration_before_ms": calibration_before,
            "host.calibration_after_ms": calibration_after,
        })
        print(f"  {'layer':<18}{'count':>8}{'busy ms':>12}{'self ms':>12}"
              f"{'wait ms':>12}{'self us/op':>12}")
        for layer, row in sorted(table.items()):
            print(f"  {layer:<18}{row['count']:>8}{row['busy_ms']:>12.2f}"
                  f"{row['self_ms']:>12.2f}{row['wait_ms']:>12.2f}"
                  f"{row['self_us_per_op']:>12.2f}")
        for name, unit in layers.PER_LAYER:
            print(f"  {name:<40} {per_layer.get(name, 0):.6g} {unit}")
        reported = {name: {"value": per_layer.get(name, 0), "unit": unit}
                    for name, unit in layers.PER_LAYER}
    else:
        reported = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({
        "correct": facts["wrong"] == 0 and facts["lost"] == 0,
        "attempted": facts["attempted"],
        "failed": facts["failed"],
        "metrics": reported,
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; with tracing, also the overhead."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        results = {}
        for traced in ((False, True) if trace else (False,)):
            command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", str(int(traced))]
            done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if done.returncode != 0 or not lines:
                status = done.returncode or 1
                continue
            results[traced] = json.loads(lines[-1])
            combined["correct"] &= results[traced]["correct"]
            combined["attempted"] += results[traced]["attempted"]
            combined["failed"] += results[traced]["failed"]
            for name, value in results[traced]["metrics"].items():
                combined["metrics"][f"{workload}/{name}"] = value
        if False in results and True in results:
            print(f"# {workload} tracing overhead (traced minus untraced)")
            for name in ("throughput_ops_s", "latency_p50_ms", "cpu_ms_per_op"):
                plain = results[False]["metrics"][name]["value"]
                traced_value = results[True]["metrics"][f"traced.{name}"]["value"]
                print(f"  {name:<24} {traced_value - plain:+.6g} "
                      f"({(traced_value - plain) / plain:+.1%})")
    if status == 0:
        print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
