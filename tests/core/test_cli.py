"""Tests for the command-line interface."""

import contextlib
import json
import threading
import time

import pytest

from repro.cli import load_database, main, parse_query
from repro.datalog.syntax import Program
from repro.rpq.rpq import RPQ, TwoRPQ
from repro.rq.syntax import RQ


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("a knows b\nb knows c\n")
    return str(path)


@pytest.fixture
def facts_file(tmp_path):
    path = tmp_path / "d.facts"
    path.write_text("edge(1, 2). edge(2, 3).")
    return str(path)


class TestParseQuery:
    def test_rpq(self):
        assert isinstance(parse_query("rpq:a+"), RPQ)

    def test_two_way_rpq(self):
        query = parse_query("rpq:a-")
        assert isinstance(query, TwoRPQ) and not isinstance(query, RPQ)

    def test_rq(self):
        assert isinstance(parse_query("rq:ans(x, y) :- [a+](x, y)."), RQ)

    def test_datalog(self):
        query = parse_query("datalog:t(x,y) :- e(x,y). t(x,z) :- t(x,y), e(y,z).")
        assert isinstance(query, Program)

    def test_file_spec(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("a b+")
        assert isinstance(parse_query(f"rpq:@{path}"), RPQ)

    def test_bad_kind(self):
        with pytest.raises(SystemExit):
            parse_query("sql:select")

    def test_missing_colon(self):
        with pytest.raises(SystemExit):
            parse_query("rpq")


class TestMalformedInput:
    """Malformed queries and unreadable files exit 2 with one stderr line,
    never 1 (which `contain` reserves for a refutation) or a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["contain", "rpq:(a", "rpq:a"],
            ["contain", "foo:a", "rpq:a"],
            ["contain", "rpq:@/nonexistent", "rpq:a"],
            ["contain", "rpq:a", "rq:r(x,"],
            ["evaluate", "rpq:a", "--database", "/nonexistent.edges"],
            ["classify", "datalog:p(x) :- "],
        ],
        ids=["bad-regex", "bad-kind", "missing-spec-file", "bad-rq", "missing-database",
             "bad-datalog"],
    )
    def test_exits_2_with_one_line(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro: error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_unparseable_database_exits_2(self, tmp_path, capsys):
        database = tmp_path / "db.facts"
        database.write_text("not a fact\n")
        with pytest.raises(SystemExit) as excinfo:
            load_database(str(database))
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.startswith("repro: error: ")

    def test_refutation_still_exits_1(self):
        assert main(["contain", "rpq:a a", "rpq:a"]) == 1


class TestOperatorLimits:
    """A limit that bounds nothing exits 2 with one stderr line on every
    command that takes it, as a malformed query does: the values
    ``parse_frame`` rejects in a frame are rejected on the command line
    too (a NaN deadline never fires; 0 == False once ran unmetered)."""

    @staticmethod
    def argv(command, tmp_path):
        if command == "contain":
            return ["contain", "rpq:a", "rpq:a"]
        if command == "batch":
            workload = tmp_path / "w.ndjson"
            workload.write_text('{"left": "rpq:a", "right": "rpq:a"}\n')
            return ["batch", str(workload)]
        return ["serve", "--port", "0"]

    def assert_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro: error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-5"])
    @pytest.mark.parametrize("command", ["contain", "batch", "serve"])
    def test_deadline_that_bounds_nothing_exits_2(
        self, command, value, tmp_path, capsys
    ):
        argv = self.argv(command, tmp_path) + ["--deadline-ms", value]
        self.assert_exits_2(argv, capsys)
        self.assert_exits_2(argv + ["--auto-budget"], capsys)

    @pytest.mark.parametrize("command", ["contain", "batch", "serve"])
    def test_zero_max_expansions_exits_2(self, command, tmp_path, capsys):
        argv = self.argv(command, tmp_path) + ["--max-expansions", "0"]
        self.assert_exits_2(argv, capsys)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--queue-limit", "0"],
            ["--drain-grace-ms", "-1"],
            ["--trace-sample-rate", "2"],
            ["--slow-ms", "-1"],
            ["--flight-recorder-size", "0"],
            ["--workers", "0"],
        ],
        ids=lambda flags: flags[0],
    )
    def test_bad_server_value_exits_2(self, flags, tmp_path, capsys):
        self.assert_exits_2(self.argv("serve", tmp_path) + flags, capsys)


class TestCommands:
    def test_classify(self, capsys):
        assert main(["classify", "rpq:a+"]) == 0
        assert "RPQ" in capsys.readouterr().out

    def test_evaluate_graph(self, graph_file, capsys):
        assert main(["evaluate", "rpq:knows+", "--database", graph_file]) == 0
        out = capsys.readouterr().out
        assert "a\tc" in out

    def test_evaluate_datalog(self, facts_file, capsys):
        program = "datalog:t(x,y) :- edge(x,y). t(x,z) :- t(x,y), edge(y,z)."
        assert main(["evaluate", program, "--database", facts_file]) == 0
        assert "1\t3" in capsys.readouterr().out

    def test_evaluate_rq_on_graph(self, graph_file, capsys):
        assert (
            main(
                [
                    "evaluate",
                    "rq:ans(x, y) :- [knows knows](x, y).",
                    "--database",
                    graph_file,
                ]
            )
            == 0
        )
        assert "a\tc" in capsys.readouterr().out

    def test_evaluate_stats_reports_engine_activity(self, graph_file, capsys):
        assert (
            main(["evaluate", "rpq:knows+", "--database", graph_file, "--stats"])
            == 0
        )
        captured = capsys.readouterr()
        assert "a\tc" in captured.out
        assert "# evaluation stats" in captured.err
        assert "evaluation.snapshot_builds" in captured.err
        assert "evaluation.closure_builds = 0" in captured.err
        assert "evaluation.closure_patches = 0" in captured.err
        assert "cache regex-nfa:" in captured.err
        assert "eval-bfs" in captured.err

    def test_evaluate_without_stats_is_quiet(self, graph_file, capsys):
        assert main(["evaluate", "rpq:knows+", "--database", graph_file]) == 0
        assert "evaluation stats" not in capsys.readouterr().err

    def test_contain_holds_exit_zero(self, capsys):
        assert main(["contain", "rpq:a a", "rpq:a+"]) == 0
        assert "HOLDS" in capsys.readouterr().out

    def test_contain_refuted_exit_one(self, capsys):
        assert main(["contain", "rpq:a+", "rpq:a a"]) == 1
        assert "REFUTED" in capsys.readouterr().out

    def test_contain_show_witness(self, capsys):
        main(["contain", "rpq:a+", "rpq:a a", "--show-witness"])
        out = capsys.readouterr().out
        assert "counterexample database" in out
        assert "0 a 1" in out

    def test_contain_budget_flag(self, capsys):
        program = "datalog:t(x,y) :- e(x,y). t(x,z) :- t(x,y), e(y,z)."
        code = main(["contain", program, program, "--max-expansions", "5"])
        assert code == 0
        assert "bound" in capsys.readouterr().out

    def test_auto_budget_keeps_max_expansions(self, capsys):
        """Regression: --auto-budget used to drop --max-expansions, so each
        escalation round ran at its own schedule until the deadline."""
        program = "datalog:t(x,y) :- e(x,y). t(x,z) :- t(x,y), e(y,z)."
        code = main(
            [
                "contain", program, program, "--auto-budget",
                "--deadline-ms", "400", "--max-expansions", "5",
            ]
        )
        assert code == 0
        assert "holds up to bound 5" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command",
        [["contain", "rpq:a", "rpq:a"], ["batch", "w.ndjson"], ["serve", "--pipe"]],
        ids=["contain", "batch", "serve"],
    )
    def test_no_command_takes_a_kernel(self, command, capsys):
        # The engine picks the search: a kernel flag is a usage error.
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--kernel", "subset"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --kernel" in capsys.readouterr().err


class TestRewriteCommand:
    def test_exact_rewriting(self, capsys, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 a 1\n1 b 2\n2 a 3\n3 b 4\n")
        code = main(
            ["rewrite", "rpq:(a b)+", "--view", "v=a b", "--database", str(path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "exact" in out
        assert "0\t4" in out

    def test_no_rewriting_exits_one(self, capsys):
        assert main(["rewrite", "rpq:a", "--view", "v=a a"]) == 1
        assert "no contained rewriting" in capsys.readouterr().out

    def test_rewriting_without_database(self, capsys):
        assert main(["rewrite", "rpq:a+", "--view", "v=a"]) == 0
        assert "rewriting" in capsys.readouterr().out

    def test_bad_view_spec(self):
        with pytest.raises(SystemExit):
            main(["rewrite", "rpq:a", "--view", "nonsense"])

    def test_two_way_query_rejected(self):
        with pytest.raises(SystemExit):
            main(["rewrite", "rpq:a-", "--view", "v=a"])


class TestLoadDatabase:
    def test_facts_extension(self, facts_file):
        from repro.relational.instance import Instance

        assert isinstance(load_database(facts_file), Instance)

    def test_edges_extension(self, graph_file):
        from repro.graphdb.database import GraphDatabase

        assert isinstance(load_database(graph_file), GraphDatabase)


class TestTraceFlags:
    def test_contain_trace_renders_span_tree(self, capsys):
        assert main(["contain", "rpq:a a", "rpq:a+", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "check-containment" in out
        assert "ms" in out

    def test_contain_trace_json_round_trips(self, capsys, tmp_path):
        from repro.obs.export import trace_from_ndjson, trace_to_ndjson

        target = tmp_path / "trace.ndjson"
        assert main(
            ["contain", "rpq:a a", "rpq:a+", "--trace-json", str(target)]
        ) == 0
        err = capsys.readouterr().err
        assert str(target) in err
        text = target.read_text()
        tree = trace_from_ndjson(text)
        assert tree["name"] == "check-containment"
        assert trace_to_ndjson(tree) == text  # exact ndjson round-trip

    def test_trace_json_implies_tracing_without_rendering(self, capsys, tmp_path):
        target = tmp_path / "t.ndjson"
        main(["contain", "rpq:a a", "rpq:a+", "--trace-json", str(target)])
        out = capsys.readouterr().out
        # verdict line yes, rendered tree no
        assert "HOLDS" in out
        assert "└─" not in out
        assert target.exists()

    def test_trace_json_on_refuted_check(self, tmp_path):
        from repro.obs.export import trace_from_ndjson

        target = tmp_path / "refuted.ndjson"
        assert main(
            ["contain", "rpq:a+", "rpq:a a", "--trace-json", str(target)]
        ) == 1
        assert trace_from_ndjson(target.read_text())["name"] == (
            "check-containment"
        )


class TestBenchCommands:
    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        """One recorded smoke run shared by the class (bench runs cost ~1s)."""
        directory = tmp_path_factory.mktemp("bench")
        import contextlib
        import os

        @contextlib.contextmanager
        def chdir(path):
            previous = os.getcwd()
            os.chdir(path)
            try:
                yield
            finally:
                os.chdir(previous)

        with chdir(directory):
            assert main(["bench", "run", "--suite", "smoke", "--repeats", "1"]) == 0
        return directory

    def _run_file(self, run_dir):
        candidates = sorted(run_dir.glob("BENCH_*.json"))
        assert len(candidates) == 1
        return candidates[0]

    def test_run_writes_schema_valid_document(self, run_dir):
        import json

        from repro.obs.perf import validate_run

        document = json.loads(self._run_file(run_dir).read_text())
        assert validate_run(document) == []
        assert document["suite"] == "smoke"
        assert "profile" in document

    def test_compare_identical_exits_zero(self, run_dir, capsys):
        path = str(self._run_file(run_dir))
        assert main(["bench", "compare", path, "--baseline", path]) == 0
        assert "OK" in capsys.readouterr().out

    def test_compare_perturbed_exact_exits_nonzero(self, run_dir, tmp_path, capsys):
        import json

        document = json.loads(self._run_file(run_dir).read_text())
        document["experiments"][0]["exact"]["pairs"] = 99999
        perturbed = tmp_path / "perturbed.json"
        perturbed.write_text(json.dumps(document))
        code = main(
            ["bench", "compare", str(perturbed),
             "--baseline", str(self._run_file(run_dir))]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_compare_fail_on_timing_flag(self, run_dir, tmp_path):
        import json

        document = json.loads(self._run_file(run_dir).read_text())
        for experiment in document["experiments"]:
            for timing in experiment["timings"].values():
                timing["median_ms"] = timing["median_ms"] * 1000 + 100
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps(document))
        base = str(self._run_file(run_dir))
        assert main(["bench", "compare", str(slow), "--baseline", base]) == 0
        assert main(
            ["bench", "compare", str(slow), "--baseline", base,
             "--fail-on-timing"]
        ) == 1

    def test_compare_missing_baseline_errors(self, run_dir):
        with pytest.raises(SystemExit):
            main(
                ["bench", "compare", str(self._run_file(run_dir)),
                 "--baseline", "/nonexistent/baseline.json"]
            )

    def test_profile_renders_hotspots(self, run_dir, capsys):
        assert main(
            ["bench", "profile", str(self._run_file(run_dir)), "--top", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "hotspot profile" in out
        assert "check-containment" in out

    def test_profile_without_section_exits_one(self, tmp_path, capsys):
        import json

        from repro.obs.perf import run_suite

        document = run_suite("smoke", repeats=1, profile=False)
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(document))
        assert main(["bench", "profile", str(bare)]) == 1
        assert "no profile" in capsys.readouterr().err


class TestBatchCommand:
    """`repro batch` on NDJSON workloads (shared serve-protocol path)."""

    def run_batch(self, tmp_path, text, *extra):
        workload = tmp_path / "w.ndjson"
        workload.write_text(text)
        return main(["batch", str(workload), "--workers", "2", *extra])

    def test_workload_round_trip(self, tmp_path, capsys):
        import json

        text = (
            '{"id": "p1", "left": "rpq:a a", "right": "rpq:a+"}\n'
            '{"id": "p2", "left": "rpq:a+", "right": "rpq:a a"}\n'
        )
        assert self.run_batch(tmp_path, text) == 0
        captured = capsys.readouterr()
        lines = [json.loads(l) for l in captured.out.splitlines()]
        assert [l["id"] for l in lines] == ["p1", "p2"]
        assert [l["verdict"] for l in lines] == ["holds", "refuted"]
        assert "2 items" in captured.err

    def test_empty_workload_is_empty_result_exit_zero(self, tmp_path, capsys):
        """Regression: an empty NDJSON file used to crash the batch
        path; it must produce an empty result and exit 0."""
        assert self.run_batch(tmp_path, "") == 0
        captured = capsys.readouterr()
        assert captured.out == ""  # no stray blank line
        assert "0 items" in captured.err

    def test_blank_lines_only_workload_is_empty(self, tmp_path, capsys):
        assert self.run_batch(tmp_path, "\n   \n\t\n") == 0
        assert capsys.readouterr().out == ""

    def test_malformed_line_is_isolated_error_line(self, tmp_path, capsys):
        import json

        text = (
            '{"id": "ok", "left": "rpq:a a", "right": "rpq:a+"}\n'
            "not json\n"
        )
        assert self.run_batch(tmp_path, text) == 1
        captured = capsys.readouterr()
        lines = [json.loads(l) for l in captured.out.splitlines()]
        assert [l["index"] for l in lines] == [0, 1]
        assert lines[0]["verdict"] == "holds"
        assert lines[1]["verdict"] == "error"
        assert lines[1]["id"] is None
        assert "1 line(s) failed to parse" in captured.err

    def test_line_limits_and_kernel_apply(self, tmp_path, capsys):
        """Regression: each line's max_expansions used to be dropped
        (bound 3000); it applies as on the server.  A line that still
        names a kernel has the key ignored: the engine picks the
        search, and the line reports the kernel it selected."""
        tc = "datalog:t(x,y) :- e(x,y). t(x,z) :- t(x,y), e(y,z)."
        text = (
            json.dumps({"left": tc, "right": tc, "max_expansions": 5}) + "\n"
            + json.dumps({"left": tc, "right": tc, "max_expansions": 7}) + "\n"
            + '{"left": "rpq:a a", "right": "rpq:a+", "kernel": "subset"}\n'
        )
        assert self.run_batch(tmp_path, text) == 0
        first, second, third = map(json.loads, capsys.readouterr().out.splitlines())
        assert (first["verdict"], first["bound"]) == ("holds_up_to_bound", 5)
        assert (second["verdict"], second["bound"]) == ("holds_up_to_bound", 7)
        assert third["verdict"] == "holds"
        assert third["kernel"]["selected"] == "antichain"
        assert "requested" not in third["kernel"]

    def test_line_deadline_applies(self, tmp_path, capsys):
        tc = "datalog:t(x,y) :- e(x,y). t(x,z) :- t(x,y), e(y,z)."
        text = json.dumps({"left": tc, "right": tc, "deadline_ms": 5000}) + "\n"
        assert self.run_batch(tmp_path, text) == 0
        [line] = map(json.loads, capsys.readouterr().out.splitlines())
        # The deadline reached the check: its meter reports the spend
        # (an unmetered check reports an empty one).
        assert line["verdict"] == "holds_up_to_bound"
        assert "elapsed_ms" in line["budget"]["spend"]

    def test_empty_workload_to_output_file(self, tmp_path, capsys):
        workload = tmp_path / "w.ndjson"
        workload.write_text("")
        out = tmp_path / "results.ndjson"
        assert main(["batch", str(workload), "--out", str(out)]) == 0
        assert out.read_text() == ""
        capsys.readouterr()


@contextlib.contextmanager
def _live_server():
    """A real TCP server on a background thread for client commands."""
    import asyncio

    from repro.serve.server import ContainmentServer, ServeConfig

    server = ContainmentServer(ServeConfig(port=0, workers=2))
    thread = threading.Thread(
        target=lambda: asyncio.run(server.serve_tcp()), daemon=True
    )
    thread.start()
    try:
        for _ in range(500):
            if server._server is not None and server._server.sockets:
                break
            time.sleep(0.01)
        else:
            raise RuntimeError("server never started listening")
        yield server, server._server.sockets[0].getsockname()[1]
    finally:
        server._loop.call_soon_threadsafe(server.initiate_drain)
        thread.join(timeout=15)


class TestMetricsCommand:
    def test_local_snapshot_is_json(self, capsys):
        assert main(["metrics"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert isinstance(snapshot, dict)

    def test_local_prom_rendering(self, capsys):
        from repro.core.engine import check_containment  # noqa: F401

        assert main(["metrics", "--prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE engine_checks counter" in out

    def test_addr_fetches_a_live_server(self, capsys):
        with _live_server() as (server, port):
            assert main(["metrics", "--addr", f"127.0.0.1:{port}"]) == 0
            snapshot = json.loads(capsys.readouterr().out)
            assert "serve.requests" in snapshot
            assert (
                main(["metrics", "--addr", f"127.0.0.1:{port}", "--prom"])
                == 0
            )
            assert "serve_requests" in capsys.readouterr().out

    def test_unreachable_addr_exits_with_message(self, capsys):
        with pytest.raises(SystemExit, match="cannot reach"):
            main(["metrics", "--addr", "127.0.0.1:1", "--timeout", "0.2"])


class TestTopCommand:
    def test_polls_and_renders_deltas(self, capsys):
        with _live_server() as (server, port):
            assert (
                main(
                    [
                        "top",
                        f"127.0.0.1:{port}",
                        "--interval",
                        "0.05",
                        "--count",
                        "2",
                    ]
                )
                == 0
            )
        out = capsys.readouterr().out
        refreshes = [
            line for line in out.splitlines() if line.startswith("127.0.0.1:")
        ]
        assert len(refreshes) == 2
        for line in refreshes:
            assert "req/s=" in line
            assert "shed/s=" in line

    def test_unreachable_server_exits_with_message(self):
        with pytest.raises(SystemExit, match="cannot reach"):
            main(["top", "127.0.0.1:1", "--timeout", "0.2", "--count", "1"])
