"""Command-line interface: evaluate, classify, and check containment.

Queries are given as ``kind:spec`` where *kind* is one of ``rpq``
(regex text), ``rq`` (rule syntax of :mod:`repro.rq.parser`), or
``datalog`` (program text); a spec starting with ``@`` is read from the
named file.  Databases load via :mod:`repro.graphdb.io` /
:mod:`repro.relational.io` by extension.

Examples::

    python -m repro classify "rpq:knows+ worksAt"
    python -m repro evaluate "rpq:knows+" --database graph.edges
    python -m repro contain "rpq:knows knows" "rpq:knows+"
    python -m repro contain "datalog:@router.dl" "datalog:@policy.dl"
    python -m repro batch workload.ndjson --workers 4 --backend thread
    python -m repro bench run --suite smoke
    python -m repro bench compare --baseline benchmarks/baseline.json

The ``batch`` subcommand reads an NDJSON workload — one JSON object per
line, ``{"id": "p1", "left": "rpq:a a", "right": "rpq:a+"}`` (``id``
optional; ``left``/``right`` use the same ``kind:spec`` syntax as
``contain``, including ``@file``) — runs all pairs on a worker pool,
and emits one NDJSON result line per pair, in input order.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Any

from .core.classify import classify, describe_tower
from .core.engine import check_containment
from .core.witness import holds_on
from .graphdb import io as graph_io
from .graphdb.database import GraphDatabase
from .relational import io as relational_io
from .rpq.rpq import RPQ, TwoRPQ


def _input_error(error: Exception) -> SystemExit:
    """A malformed query or unreadable file: one stderr line, exit 2.

    Exit 2 is argparse's usage-error code, so it never reads as a
    containment verdict (``contain`` exits 1 on a refutation).
    """
    message = " ".join(str(error).split()) or type(error).__name__
    print(f"repro: error: {message}", file=sys.stderr)
    return SystemExit(2)


def parse_query(argument: str) -> Any:
    """Parse a ``kind:spec`` query argument (wire grammar; exits 2 on error).

    CLI arguments are operator-supplied, so ``@`` file specs are
    allowed here — the server rejects them on the wire.
    """
    from .serve.protocol import parse_query_spec

    try:
        return parse_query_spec(argument, allow_files=True)
    except (ValueError, OSError) as error:  # every parser error is a ValueError
        raise _input_error(error) from None


def load_database(path: str):
    """Load a graph or relational database by extension (exits 2 on error).

    ``.facts``/``.dl`` load as relational instances; everything else
    (``.edges``, ``.json``, ...) loads as a graph database, falling back
    to relational when binary-edge parsing fails.
    """
    suffix = pathlib.Path(path).suffix
    try:
        if suffix in (".facts", ".dl"):
            return relational_io.load(path)
        return graph_io.load(path)
    except (ValueError, OSError) as error:
        raise _input_error(error) from None


def _cmd_classify(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    print(f"{classify(query).value}: {describe_tower(query)}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    database = load_database(args.database)
    from .core.witness import as_graph, as_instance
    from .datalog.evaluation import evaluate as datalog_evaluate
    from .datalog.syntax import Program
    from .rq.evaluation import evaluate_rq
    from .rq.syntax import RQ

    want_stats = getattr(args, "stats", False)
    tracer = None
    if want_stats:
        from .cache import clear_caches
        from .obs.metrics import reset_metrics
        from .obs.trace import Tracer

        # Start from a clean slate so the report describes this run only.
        clear_caches(reset_stats=True)
        reset_metrics()
        tracer = Tracer()

    if isinstance(query, TwoRPQ):
        from .obs.trace import maybe_span

        with maybe_span(tracer, "evaluate", query=str(query)):
            answers = query.evaluate(as_graph(database), tracer=tracer)
    elif isinstance(query, RQ):
        answers = evaluate_rq(query, as_graph(database))
    elif isinstance(query, Program):
        answers = datalog_evaluate(query, as_instance(database))
    else:  # pragma: no cover - parse_query only returns the above
        raise SystemExit(f"cannot evaluate {query!r}")
    for row in sorted(answers, key=repr):
        print("\t".join(str(value) for value in row))
    print(f"# {len(answers)} answers", file=sys.stderr)
    if want_stats:
        _print_evaluation_stats(tracer)
    return 0


def _print_evaluation_stats(tracer) -> None:
    """Render the ``evaluate --stats`` report (metrics, caches, spans)."""
    from .cache import cache_stats
    from .obs.metrics import metrics_snapshot

    print("# evaluation stats", file=sys.stderr)
    for name, data in sorted(metrics_snapshot().items()):
        if name.startswith("evaluation."):
            print(f"#   {name} = {data.get('value', 0)}", file=sys.stderr)
    for name in ("eval-context", "evaluation", "instantiate", "regex-nfa"):
        stats = cache_stats().get(name)
        if stats is not None:
            print(
                f"#   cache {name}: hits={stats['hits']} misses={stats['misses']} "
                f"size={stats['size']}",
                file=sys.stderr,
            )
    if tracer is not None and tracer.roots:
        from .obs.export import render_trace

        for root in tracer.roots:
            print(render_trace(root.to_dict()), file=sys.stderr)


def _cmd_contain(args: argparse.Namespace) -> int:
    from .budget import configured_budget

    q1 = parse_query(args.left)
    q2 = parse_query(args.right)
    options: dict[str, Any] = {}
    if args.kernel is not None:
        options["kernel"] = args.kernel
    budget = configured_budget(
        args.deadline_ms, escalate=args.auto_budget, max_expansions=args.max_expansions
    )
    want_trace = args.trace or args.trace_json is not None
    result = check_containment(q1, q2, budget=budget, trace=want_trace, **options)
    print(result.describe())
    if want_trace:
        from .obs.export import render_trace, trace_to_ndjson

        trace = result.details.get("trace")
        if trace is None:
            print("(no trace recorded)", file=sys.stderr)
        else:
            if args.trace:
                print(render_trace(trace))
            if args.trace_json is not None:
                pathlib.Path(args.trace_json).write_text(trace_to_ndjson(trace))
                print(f"# trace written to {args.trace_json}", file=sys.stderr)
    if result.counterexample is not None and args.show_witness:
        print("counterexample database:")
        database = result.counterexample.database
        if isinstance(database, GraphDatabase):
            print(graph_io.to_edge_list(database), end="")
        else:
            print(relational_io.to_fact_text(database), end="")
        print(f"distinguishing output: {result.counterexample.output}")
    return 0 if result.holds else 1


def _cmd_batch(args: argparse.Namespace) -> int:
    import json

    from .budget import configured_budget
    from .core.batch import BatchItem, check_containment_many
    from .serve.protocol import parse_workload, response_payload

    budget = configured_budget(
        args.deadline_ms, escalate=args.auto_budget, max_expansions=args.max_expansions
    )
    options: dict[str, Any] = {}
    if args.kernel is not None:
        options["kernel"] = args.kernel

    # Parse the workload on the shared wire-protocol path: malformed
    # lines are isolated exactly like item failures — a bad line yields
    # an ERROR result line at its input position, not an abort.  Each
    # line's deadline_ms, kernel and max_expansions apply exactly as
    # on the server.
    text = pathlib.Path(args.workload).read_text()
    parsed = parse_workload(text)
    items = [
        (r.left, r.right, r.budget(budget), dict(r.options)) for r in parsed.requests
    ]
    pair_ids = {
        position: request.id
        for position, request in enumerate(parsed.requests)
    }

    batch = check_containment_many(
        items,
        workers=args.workers,
        backend=args.backend,
        trace=args.trace,
        pool_deadline_ms=args.pool_deadline_ms,
        **options,
    )

    # Re-interleave parse failures at their original line positions.
    merged: list[tuple[Any, BatchItem]] = []
    run_iter = iter(batch.items)
    for line_no in range(parsed.count):
        if line_no in parsed.failures:
            merged.append((None, parsed.failures[line_no]))
        else:
            item = next(run_iter)
            merged.append((pair_ids[item.index], item))

    out_lines = []
    for line_no, (identifier, item) in enumerate(merged):
        payload = response_payload(identifier, item, index=line_no)
        if args.trace and "trace" in dict(item.result.details):
            payload["trace"] = dict(item.result.details)["trace"]
        out_lines.append(json.dumps(payload, sort_keys=True))
    # An empty workload is an empty result — no stray blank line.
    output = "\n".join(out_lines) + "\n" if out_lines else ""
    if args.out is not None:
        pathlib.Path(args.out).write_text(output)
        print(f"# results written to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(output)
    summary = batch.describe()
    if parsed.failures:
        summary += f"; {len(parsed.failures)} line(s) failed to parse"
    print(f"# {summary}", file=sys.stderr)
    had_errors = bool(batch.errors) or bool(parsed.failures)
    return 1 if had_errors else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .core.batch import DEFAULT_WORKERS
    from .serve.server import ContainmentServer, ServeConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers if args.workers is not None else DEFAULT_WORKERS,
        backend=args.backend,
        queue_limit=args.queue_limit,
        deadline_ms=args.deadline_ms,
        auto_budget=args.auto_budget,
        drain_grace_ms=args.drain_grace_ms,
        kernel=args.kernel,
        max_expansions=args.max_expansions,
        access_log=args.access_log,
        slow_ms=args.slow_ms,
        trace_sample_rate=args.trace_sample_rate,
        flight_recorder_size=args.flight_recorder_size,
        flight_dump=args.flight_dump,
        prom_port=args.prom_port,
    )
    server = ContainmentServer(config)
    if args.pipe:
        asyncio.run(server.serve_pipe())
    else:
        asyncio.run(server.serve_tcp())
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from .obs.metrics import metrics_snapshot
    from .obs.promtext import render_prometheus
    from .serve.monitor import fetch_metrics, parse_addr

    if args.addr is not None:
        host, port = parse_addr(args.addr)
        try:
            payload = fetch_metrics(host, port, timeout=args.timeout)
        except OSError as error:
            raise SystemExit(f"cannot reach {host}:{port}: {error}") from None
        snapshot = payload.get("metrics", {})
    else:
        snapshot = metrics_snapshot()
    if args.prom:
        sys.stdout.write(render_prometheus(snapshot))
    else:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import time as _time

    from .serve.monitor import fetch_metrics, parse_addr, render_top

    host, port = parse_addr(args.addr)
    try:
        previous = fetch_metrics(host, port, timeout=args.timeout)
    except OSError as error:
        raise SystemExit(f"cannot reach {host}:{port}: {error}") from None
    for _ in range(args.count):
        _time.sleep(args.interval)
        try:
            current = fetch_metrics(host, port, timeout=args.timeout)
        except OSError as error:
            print(f"# lost {host}:{port}: {error}", file=sys.stderr)
            return 1
        print(render_top(previous, current, addr=f"{host}:{port}"), flush=True)
        previous = current
    return 0


def _latest_run(path: str | None) -> pathlib.Path:
    """Resolve a run argument: explicit path, or the newest BENCH_*.json."""
    if path is not None:
        return pathlib.Path(path)
    candidates = sorted(pathlib.Path(".").glob("BENCH_*.json"))
    if not candidates:
        raise SystemExit(
            "no BENCH_*.json run documents here; record one with "
            "`repro bench run` or name one explicitly"
        )
    return candidates[-1]


def _load_run(path: pathlib.Path) -> dict:
    import json

    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise SystemExit(f"run document {path} does not exist") from None
    except ValueError as error:
        raise SystemExit(f"run document {path} is not valid JSON: {error}") from None


def _cmd_bench_run(args: argparse.Namespace) -> int:
    from .obs.perf import CheckFailed, gate_failures, run_suite, write_run
    from .obs.profile import render_profile

    try:
        document = run_suite(
            args.suite, repeats=args.repeats, profile=not args.no_profile
        )
    except CheckFailed as error:
        print(f"bench run: hard check failed: {error}", file=sys.stderr)
        return 1
    path = write_run(document, path=args.out, directory=args.dir)
    print(
        f"bench run {document['run_id']} (suite {document['suite']}, "
        f"{document['timing_repeats']} timing reps)"
    )
    for experiment in document["experiments"]:
        medians = ", ".join(
            f"{name} {timing['median_ms']:.3f}ms"
            for name, timing in experiment["timings"].items()
        )
        print(f"  {experiment['id']}: exact series recorded"
              + (f"; {medians}" if medians else ""))
        for gate in experiment.get("gates", ()):
            shown = gate.get("reason") or (
                f"{gate['value']} {gate['op']} {gate['bound']}"
            )
            print(f"    gate {gate['name']}: {gate['verdict']} ({shown})")
    if "profile" in document:
        print()
        print(render_profile(document["profile"], top=args.top), end="")
    print(f"# run written to {path}", file=sys.stderr)
    failures = gate_failures(document)
    for failure in failures:
        print(f"gate failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from .obs.perf import compare_runs, render_comparison

    baseline = _load_run(pathlib.Path(args.baseline))
    current = _load_run(_latest_run(args.run))
    comparison = compare_runs(
        baseline, current, tolerance_mads=args.tolerance_mads
    )
    print(render_comparison(comparison), end="")
    if not comparison.ok:
        return 1
    if args.fail_on_timing and comparison.timing_regressions:
        return 1
    return 0


def _cmd_bench_profile(args: argparse.Namespace) -> int:
    from .obs.profile import render_profile

    path = _latest_run(args.run)
    document = _load_run(path)
    profile = document.get("profile")
    if not profile:
        print(f"{path} has no profile section (recorded with --no-profile?)",
              file=sys.stderr)
        return 1
    print(render_profile(profile, top=args.top), end="")
    return 0


def _cmd_rewrite(args: argparse.Namespace) -> int:
    from .rpq.views import answer_using_views, rewrite, view_graph

    query = parse_query(args.query)
    if not isinstance(query, RPQ):
        raise SystemExit("rewrite requires a one-way RPQ query (kind rpq:)")
    views: dict[str, RPQ] = {}
    for spec in args.view:
        name, _, regex = spec.partition("=")
        if not regex:
            raise SystemExit(f"view {spec!r} must look like name=regex")
        view = TwoRPQ.parse(regex)
        if not view.is_one_way():
            raise SystemExit(f"view {name!r} must be a one-way RPQ")
        views[name] = RPQ(view.regex)
    rewriting = rewrite(query, views)
    if rewriting.is_empty:
        print("no contained rewriting exists over these views")
        return 1
    kind = "exact" if rewriting.is_exact() else "maximally contained (partial)"
    print(f"rewriting ({kind}): {rewriting.to_regex()}")
    if args.database:
        materialized = view_graph(views, load_database(args.database))
        answers = answer_using_views(rewriting, materialized)
        for row in sorted(answers, key=repr):
            print("\t".join(str(value) for value in row))
        print(f"# {len(answers)} certain answers", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="regular-queries: evaluation and containment for the "
        "query classes of Vardi, PODS 2016",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    classify_p = sub.add_parser("classify", help="place a query in the towers")
    classify_p.add_argument("query", help="kind:spec (rpq / rq / datalog)")
    classify_p.set_defaults(func=_cmd_classify)

    evaluate_p = sub.add_parser("evaluate", help="run a query on a database")
    evaluate_p.add_argument("query", help="kind:spec")
    evaluate_p.add_argument("--database", required=True, help="database file")
    evaluate_p.add_argument(
        "--stats", action="store_true",
        help="report evaluation metrics, cache hit rates, and the span tree "
        "(snapshot-build / eval-bfs) on stderr",
    )
    evaluate_p.set_defaults(func=_cmd_evaluate)

    contain_p = sub.add_parser(
        "contain", help="decide Q1 ⊆ Q2 (exit 0 = not refuted)"
    )
    contain_p.add_argument("left", help="kind:spec for Q1")
    contain_p.add_argument("right", help="kind:spec for Q2")
    contain_p.add_argument(
        "--max-expansions", type=int, default=None,
        help="budget for expansion-based procedures",
    )
    contain_p.add_argument(
        "--kernel", choices=("subset", "antichain", "auto"), default=None,
        help="language-inclusion search kernel for automata-backed "
        "procedures (default auto = antichain; subset is the ablation "
        "baseline)",
    )
    contain_p.add_argument(
        "--deadline-ms", type=float, default=None,
        help="wall-clock deadline; exhaustion reports INCONCLUSIVE "
        "instead of running forever",
    )
    contain_p.add_argument(
        "--auto-budget", action="store_true",
        help="staged escalation: geometrically larger bounds until the "
        "verdict is exact or the deadline is spent",
    )
    contain_p.add_argument(
        "--show-witness", action="store_true",
        help="print the counterexample database on refutation",
    )
    contain_p.add_argument(
        "--trace", action="store_true",
        help="record and render the pipeline-stage span tree",
    )
    contain_p.add_argument(
        "--trace-json", metavar="PATH", default=None,
        help="record the span tree and dump it as ndjson to PATH",
    )
    contain_p.set_defaults(func=_cmd_contain)

    batch_p = sub.add_parser(
        "batch",
        help="check an NDJSON workload of query pairs on a worker pool "
        "(exit 0 = every pair produced a verdict, 1 = some errored)",
    )
    batch_p.add_argument(
        "workload",
        help="NDJSON file: one {\"id\", \"left\": \"kind:spec\", "
        "\"right\": \"kind:spec\"} object per line",
    )
    batch_p.add_argument(
        "--workers", type=int, default=4,
        help="worker-pool width (default 4)",
    )
    batch_p.add_argument(
        "--backend", choices=("thread", "process"), default="thread",
        help="thread pool (shared caches) or process pool "
        "(true parallelism; per-process caches)",
    )
    batch_p.add_argument(
        "--out", default=None, metavar="PATH",
        help="write NDJSON results here instead of stdout",
    )
    batch_p.add_argument(
        "--max-expansions", type=int, default=None,
        help="per-item budget for expansion-based procedures",
    )
    batch_p.add_argument(
        "--kernel", choices=("subset", "antichain", "auto"), default=None,
        help="per-item language-inclusion kernel (see `contain --kernel`)",
    )
    batch_p.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-item wall-clock deadline (INCONCLUSIVE on exhaustion)",
    )
    batch_p.add_argument(
        "--pool-deadline-ms", type=float, default=None,
        help="whole-batch deadline; unstarted items degrade to "
        "INCONCLUSIVE with budget accounting",
    )
    batch_p.add_argument(
        "--auto-budget", action="store_true",
        help="staged escalation per item (see `contain --auto-budget`)",
    )
    batch_p.add_argument(
        "--trace", action="store_true",
        help="attach each item's span tree to its result line",
    )
    batch_p.set_defaults(func=_cmd_batch)

    serve_p = sub.add_parser(
        "serve",
        help="long-lived NDJSON containment service (TCP or stdin/stdout) "
        "with admission control, load shedding, and graceful drain",
    )
    serve_p.add_argument(
        "--host", default="127.0.0.1", help="TCP listen host (default local)"
    )
    serve_p.add_argument(
        "--port", type=int, default=7407,
        help="TCP listen port (0 picks a free port, announced on stderr; "
        "default 7407)",
    )
    serve_p.add_argument(
        "--pipe", action="store_true",
        help="serve one NDJSON stream on stdin/stdout instead of TCP",
    )
    serve_p.add_argument(
        "--workers", type=int, default=None,
        help="worker-pool width (default: core count, capped at 8)",
    )
    serve_p.add_argument(
        "--backend", choices=("thread", "process"), default="thread",
        help="worker-pool substrate: thread (default; shares the hot "
        "caches across requests) or process (multi-core, crash-isolated: "
        "workers warm-start, a crashing check yields an isolated error "
        "response while the pool rebuilds, and worker metrics/cache "
        "stats are repatriated to the metrics verb)",
    )
    serve_p.add_argument(
        "--queue-limit", type=int, default=64,
        help="admission capacity: max requests admitted but unfinished; "
        "beyond it requests shed with reason queue_full (default 64)",
    )
    serve_p.add_argument(
        "--deadline-ms", type=float, default=None,
        help="default per-request wall-clock deadline; frames may only "
        "tighten it (requests shed or degrade INCONCLUSIVE on exhaustion)",
    )
    serve_p.add_argument(
        "--auto-budget", action="store_true",
        help="run checks under staged escalation (see `contain --auto-budget`)",
    )
    serve_p.add_argument(
        "--drain-grace-ms", type=float, default=5000.0,
        help="after SIGTERM/SIGINT, how long connections may keep sending "
        "(each frame shed) before the server closes them (default 5000)",
    )
    serve_p.add_argument(
        "--kernel", choices=("subset", "antichain", "auto"), default=None,
        help="default language-inclusion kernel (see `contain --kernel`)",
    )
    serve_p.add_argument(
        "--max-expansions", type=int, default=None,
        help="default budget for expansion-based procedures",
    )
    serve_p.add_argument(
        "--access-log", default=None, metavar="PATH",
        help="append one NDJSON access record per served frame to PATH "
        "(written off the event loop; full-queue records are dropped "
        "and counted, never block serving)",
    )
    serve_p.add_argument(
        "--slow-ms", type=float, default=250.0,
        help="flight-recorder slow threshold: requests at or above it "
        "retain their span trees for the debug verb (default 250)",
    )
    serve_p.add_argument(
        "--trace-sample-rate", type=float, default=0.0,
        help="fraction of containment requests traced live ([0, 1]; "
        "deterministic 1-in-round(1/rate) stride; default 0 = off); "
        "sampled traces feed the hotspot profile of the metrics verb",
    )
    serve_p.add_argument(
        "--flight-recorder-size", type=int, default=256,
        help="ring-buffer capacity of the flight recorder (default 256)",
    )
    serve_p.add_argument(
        "--flight-dump", default=None, metavar="PATH",
        help="dump the flight recorder as JSON to PATH on drain/SIGTERM",
    )
    serve_p.add_argument(
        "--prom-port", type=int, default=None,
        help="also listen on this TCP port, answering every HTTP request "
        "with the Prometheus text exposition of the metrics registry "
        "(0 picks a free port, announced on stderr)",
    )
    serve_p.set_defaults(func=_cmd_serve)

    metrics_p = sub.add_parser(
        "metrics",
        help="dump the metrics registry (local process, or a live "
        "server's via --addr) as JSON or Prometheus text",
    )
    metrics_p.add_argument(
        "--addr", default=None, metavar="HOST:PORT",
        help="fetch the snapshot from a live server's metrics verb "
        "instead of the local (empty) registry",
    )
    metrics_p.add_argument(
        "--prom", action="store_true",
        help="render the Prometheus text exposition instead of JSON",
    )
    metrics_p.add_argument(
        "--timeout", type=float, default=5.0,
        help="connect/read timeout in seconds (default 5)",
    )
    metrics_p.set_defaults(func=_cmd_metrics)

    top_p = sub.add_parser(
        "top",
        help="poll a live server's metrics verb and print request/shed "
        "rates, latency quantiles, and queue depth per interval",
    )
    top_p.add_argument("addr", help="server address as HOST:PORT")
    top_p.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between polls (default 2)",
    )
    top_p.add_argument(
        "--count", type=int, default=1000000,
        help="number of refreshes before exiting (default: practically "
        "forever; use a small count for scripting)",
    )
    top_p.add_argument(
        "--timeout", type=float, default=5.0,
        help="connect/read timeout in seconds (default 5)",
    )
    top_p.set_defaults(func=_cmd_top)

    bench_p = sub.add_parser(
        "bench",
        help="performance observatory: record, compare, profile bench runs",
    )
    bench_sub = bench_p.add_subparsers(dest="bench_command", required=True)

    bench_run_p = bench_sub.add_parser(
        "run",
        help="execute a bench suite and write BENCH_<runid>.json (exit 1 "
        "on a failed hard check or timing gate)",
    )
    bench_run_p.add_argument(
        "--suite", choices=("smoke", "full"), default="smoke",
        help="experiment tier to run (default: smoke; only full evaluates "
        "timing gates)",
    )
    bench_run_p.add_argument(
        "--repeats", type=int, default=5,
        help="timing samples per workload (best-of-k; default 5)",
    )
    bench_run_p.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the run document here instead of ./BENCH_<runid>.json",
    )
    bench_run_p.add_argument(
        "--dir", default=".", metavar="DIR",
        help="directory for the default BENCH_<runid>.json name",
    )
    bench_run_p.add_argument(
        "--no-profile", action="store_true",
        help="skip the traced hotspot-profile section",
    )
    bench_run_p.add_argument(
        "--top", type=int, default=10,
        help="hotspot rows to print (the file keeps up to 20)",
    )
    bench_run_p.set_defaults(func=_cmd_bench_run)

    bench_compare_p = bench_sub.add_parser(
        "compare",
        help="gate a run against a baseline (exact series must match "
        "bit-for-bit; timings are MAD-gated)",
    )
    bench_compare_p.add_argument(
        "run", nargs="?", default=None,
        help="run document (default: newest ./BENCH_*.json)",
    )
    bench_compare_p.add_argument(
        "--baseline", default="benchmarks/baseline.json",
        help="baseline run document (default: benchmarks/baseline.json)",
    )
    bench_compare_p.add_argument(
        "--tolerance-mads", type=float, default=4.0,
        help="timing tolerance in baseline-MAD units (default 4.0)",
    )
    bench_compare_p.add_argument(
        "--fail-on-timing", action="store_true",
        help="exit non-zero on timing regressions too (default: warn only; "
        "exact-series mismatches always fail)",
    )
    bench_compare_p.set_defaults(func=_cmd_bench_compare)

    bench_profile_p = bench_sub.add_parser(
        "profile", help="render the hotspot profile stored in a run document"
    )
    bench_profile_p.add_argument(
        "run", nargs="?", default=None,
        help="run document (default: newest ./BENCH_*.json)",
    )
    bench_profile_p.add_argument(
        "--top", type=int, default=15, help="rows to show (default 15)"
    )
    bench_profile_p.set_defaults(func=_cmd_bench_profile)

    rewrite_p = sub.add_parser(
        "rewrite", help="rewrite an RPQ over views (maximally contained)"
    )
    rewrite_p.add_argument("query", help="rpq:spec")
    rewrite_p.add_argument(
        "--view", action="append", default=[], metavar="NAME=REGEX",
        help="a view definition (repeatable)",
    )
    rewrite_p.add_argument(
        "--database", default=None,
        help="optionally evaluate the rewriting over this database's views",
    )
    rewrite_p.set_defaults(func=_cmd_rewrite)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
