"""A6 — observability overhead ablation.

The tracing/metrics subsystem is pay-for-what-you-use: kernels guard
every span with a ``tracer is not None`` pointer test, towers use the
shared null scope, and the engine only touches two hoisted metric
counters on the hot path.  This experiment measures what that costs:

1. **Kernel path** (``containment_counterexample``): the E1 workload
   (20 random depth-8 RPQ pairs; the kernel reads no cache) with
   tracing disabled vs a live ``Tracer``.  The disabled path is what
   the <3% acceptance bound is judged against; pre-change numbers are
   in EXPERIMENTS.md.
2. **Engine path** (``check_containment``): cold (caches cleared inside
   each timed pass) and warm (cache hit) checks, trace off vs on.
3. **Serving telemetry** (``Telemetry.observe``): the per-frame
   accounting the server adds around every check — record build +
   flight-recorder ring write, sampling disabled, no access log.

Traced and untraced runs must produce identical answers — tracing is
observation, never behavior.
"""

import random
import time

from repro.automata.dfa import containment_counterexample
from repro.cache import clear_caches
from repro.core.engine import check_containment
from repro.automata.regex import random_regex
from repro.obs.telemetry import Telemetry, TelemetryConfig, access_record
from repro.obs.trace import Tracer
from repro.rpq.rpq import RPQ

ALPHABET = ("a", "b")


def _pairs(count=20, depth=8, seed=7):
    rng = random.Random(seed)
    pairs = [
        (RPQ(random_regex(rng, ALPHABET, depth)), RPQ(random_regex(rng, ALPHABET, depth)))
        for _ in range(count)
    ]
    for q1, q2 in pairs:  # compile outside any timed region
        _ = q1.nfa, q2.nfa
    return pairs


def _best_of(rounds, fn):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1000


def test_a6_kernel_trace_overhead(benchmark, report, once_benchmark):
    """containment_counterexample on the E1 workload: tracer off vs on."""
    nfas = [(q1.nfa, q2.nfa) for q1, q2 in _pairs()]

    def run():
        # Warm-up passes so neither arm pays one-time costs; the
        # answers must agree exactly.
        answers_off = [
            containment_counterexample(n1, n2, ALPHABET) for n1, n2 in nfas
        ]
        answers_on = [
            containment_counterexample(n1, n2, ALPHABET, tracer=Tracer())
            for n1, n2 in nfas
        ]
        off = _best_of(
            5,
            lambda: [
                containment_counterexample(n1, n2, ALPHABET) for n1, n2 in nfas
            ],
        )
        on = _best_of(
            5,
            lambda: [
                containment_counterexample(n1, n2, ALPHABET, tracer=Tracer())
                for n1, n2 in nfas
            ],
        )
        assert answers_off == answers_on  # observation, not behavior
        per_off = off / len(nfas)
        per_on = on / len(nfas)
        return [[
            len(nfas),
            f"{per_off:.4f}",
            f"{per_on:.4f}",
            f"{(per_on / per_off - 1) * 100:+.1f}%",
        ]], per_off

    rows, per_off = once_benchmark(benchmark, run)
    report(
        "A6",
        "kernel tracing ablation (containment_counterexample, E1 workload)",
        ["pairs", "ms/check trace-off", "ms/check trace-on", "traced overhead"],
        rows,
        note="trace-off is the default path; pre-change baseline 0.0186 "
        "ms/check (EXPERIMENTS.md A6)",
    )
    # The disabled path must stay in the same regime as the pre-change
    # baseline.  3x (not 3%) here: absolute wall-clock on shared CI is
    # noisy; the tight <3% claim is checked on quiet hardware and
    # recorded in EXPERIMENTS.md.
    assert per_off < 3 * 0.0186


def test_a6_engine_trace_overhead(benchmark, report, once_benchmark):
    """check_containment cold/warm: trace off vs on."""
    pairs = _pairs(count=4, depth=6, seed=13)

    def run():
        rows = []
        cold_off = _best_of(
            3,
            lambda: (
                clear_caches(),
                [check_containment(q1, q2) for q1, q2 in pairs],
            ),
        )
        cold_on = _best_of(
            3,
            lambda: (
                clear_caches(),
                [check_containment(q1, q2, trace=True) for q1, q2 in pairs],
            ),
        )
        rows.append(
            ["cold (caches cleared)", f"{cold_off:.3f}", f"{cold_on:.3f}",
             f"{(cold_on / cold_off - 1) * 100:+.1f}%"]
        )
        clear_caches()
        for q1, q2 in pairs:  # populate the result cache
            check_containment(q1, q2)
        warm_off = _best_of(
            5, lambda: [check_containment(q1, q2) for q1, q2 in pairs]
        )
        warm_on = _best_of(
            5,
            lambda: [check_containment(q1, q2, trace=True) for q1, q2 in pairs],
        )
        rows.append(
            ["warm (cache hits)", f"{warm_off:.3f}", f"{warm_on:.3f}",
             f"{(warm_on / warm_off - 1) * 100:+.1f}%"]
        )
        return rows

    rows = once_benchmark(benchmark, run)
    report(
        "A6",
        "engine tracing ablation (4 RPQ pairs per pass)",
        ["pass", "ms trace-off", "ms trace-on", "traced overhead"],
        rows,
        note="trace-off warm hits add two counter increments over the "
        "pre-change path; traces are never cached",
    )


def test_a6_serving_telemetry_overhead(benchmark, report, once_benchmark):
    """check loop bare vs with per-frame ``Telemetry.observe``."""
    pairs = _pairs(count=4, depth=6, seed=29)
    telemetry = Telemetry(TelemetryConfig(sample_rate=0.0, access_log=None))

    def bare():
        for q1, q2 in pairs:
            check_containment(q1, q2)

    def observed():
        for index, (q1, q2) in enumerate(pairs):
            telemetry.sample()
            start = time.perf_counter()
            item = check_containment(q1, q2)
            exec_ms = (time.perf_counter() - start) * 1000
            telemetry.observe(
                access_record(
                    request_id=f"bench-{index:06d}",
                    op="contain",
                    index=index,
                    exec_ms=exec_ms,
                    total_ms=exec_ms,
                )
            )

    def run():
        clear_caches()
        for q1, q2 in pairs:  # warm the result cache for both arms
            check_containment(q1, q2)
        bare(), observed()  # warm-up passes
        off = _best_of(5, bare)
        on = _best_of(5, observed)
        ratio = on / off
        return [[
            len(pairs),
            f"{off:.3f}",
            f"{on:.3f}",
            f"{(ratio - 1) * 100:+.1f}%",
        ]], ratio

    rows, ratio = once_benchmark(benchmark, run)
    report(
        "A6",
        "serving telemetry ablation (warm checks, sampling off, no "
        "access log)",
        ["pairs", "ms bare", "ms observed", "telemetry overhead"],
        rows,
        note="observed arm pays record build + flight-ring append per "
        "frame; the access log and live tracing stay pay-for-use",
    )
    # Warm cache hits are microseconds, so the relative bar is loose:
    # the accounting must stay the same order of magnitude as the
    # check itself on shared CI hardware.
    assert ratio < 10
