"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main


QUERY = "q(X, Z) :- r(X, Y), s(Y, Z)."
VIEWS = "v_rs(A, B) :- r(A, C), s(C, B).\nv_r(A, B) :- r(A, B).\nv_s(A, B) :- s(A, B)."
DATABASE = "r(1, 2). r(3, 4). s(2, 5). s(4, 6)."
VIEW_INSTANCE = "v_rs(1, 5). v_rs(3, 6)."


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestRewriteCommand:
    def test_finds_and_prints_rewriting(self):
        code, output = run_cli(
            ["rewrite", "--query", QUERY, "--views", VIEWS, "--algorithm", "minicon"]
        )
        assert code == 0
        assert "equivalent" in output
        assert "v_rs" in output

    def test_show_expansion(self):
        code, output = run_cli(
            ["rewrite", "--query", QUERY, "--views", VIEWS, "--show-expansion"]
        )
        assert code == 0
        assert "expansion:" in output

    def test_no_rewriting_returns_nonzero(self):
        code, output = run_cli(
            ["rewrite", "--query", QUERY, "--views", "v_other(A) :- t(A)."]
        )
        assert code == 1
        assert "no rewriting found" in output

    def test_reads_inputs_from_files(self, tmp_path):
        query_file = tmp_path / "query.dl"
        views_file = tmp_path / "views.dl"
        query_file.write_text(QUERY)
        views_file.write_text(VIEWS)
        code, output = run_cli(
            ["rewrite", "--query", str(query_file), "--views", str(views_file)]
        )
        assert code == 0
        assert "rewriting 1" in output

    def test_parse_error_is_reported(self):
        code, _ = run_cli(["rewrite", "--query", "q(X :- r(X).", "--views", VIEWS])
        assert code == 65  # the documented ParseError exit code


class TestAnswerCommand:
    def test_direct_evaluation(self):
        code, output = run_cli(["answer", "--query", QUERY, "--database", DATABASE])
        assert code == 0
        assert "1\t5" in output
        assert "# 2 answers" in output

    def test_evaluation_through_views(self):
        code, output = run_cli(
            ["answer", "--query", QUERY, "--database", DATABASE, "--views", VIEWS]
        )
        assert code == 0
        assert "# using rewriting" in output
        assert "1\t5" in output and "3\t6" in output

    def test_falls_back_to_direct_when_no_rewriting(self):
        code, output = run_cli(
            [
                "answer",
                "--query",
                QUERY,
                "--database",
                DATABASE,
                "--views",
                "v_other(A) :- t(A).",
            ]
        )
        assert code == 0
        assert "evaluating the query directly" in output


class TestCertainCommand:
    def test_certain_answers_from_instance(self):
        code, output = run_cli(
            [
                "certain",
                "--query",
                QUERY,
                "--views",
                "v_rs(A, B) :- r(A, C), s(C, B).",
                "--view-instance",
                VIEW_INSTANCE,
                "--method",
                "inverse-rules",
            ]
        )
        assert code == 0
        assert "1\t5" in output
        assert "# 2 certain answers" in output

    def test_rewriting_method(self):
        code, output = run_cli(
            [
                "certain",
                "--query",
                QUERY,
                "--views",
                "v_rs(A, B) :- r(A, C), s(C, B).",
                "--view-instance",
                VIEW_INSTANCE,
                "--method",
                "rewriting",
            ]
        )
        assert code == 0
        assert "# 2 certain answers" in output


class TestExperimentsCommand:
    def test_lists_all_experiments(self):
        code, output = run_cli(["experiments"])
        assert code == 0
        for identifier in ("E1", "E5", "E10"):
            assert identifier in output
        assert "bench_e4_chain_views" in output


class TestMaterializeCommand:
    def test_prints_extents(self):
        code, output = run_cli(["materialize", "--views", VIEWS, "--database", DATABASE])
        assert code == 0
        assert "-- v_rs/2: 2 rows" in output
        assert "1\t5" in output
        assert "materialized 3 views" in output

    def test_sizes_only_and_view_filter(self):
        code, output = run_cli(
            ["materialize", "--views", VIEWS, "--database", DATABASE,
             "--sizes-only", "--view", "v_rs"]
        )
        assert code == 0
        assert "-- v_rs/2: 2 rows" in output
        assert "v_r/2" not in output
        assert "1\t5" not in output


class TestApplyDeltaCommand:
    def test_applies_and_reports_changes(self, tmp_path):
        delta_file = tmp_path / "delta.txt"
        delta_file.write_text("+ r(7, 2).\n- s(4, 6).\n")
        code, output = run_cli(
            ["apply-delta", "--views", VIEWS, "--database", DATABASE,
             "--delta", str(delta_file), "--show-extents", "--verify"]
        )
        assert code == 0
        assert "2 requested, 2 effective" in output
        assert "base r: +1 -0" in output
        assert "view *v_rs: +1 -1 [incremental]" in output
        assert "verified" in output

    def test_inline_delta_and_noop(self):
        code, output = run_cli(
            ["apply-delta", "--views", VIEWS, "--database", DATABASE,
             "--delta", "+ r(1, 2)."]  # already present
        )
        assert code == 0
        assert "1 requested, 0 effective" in output

    def test_bad_delta_line_is_reported(self):
        code, _output = run_cli(
            ["apply-delta", "--views", VIEWS, "--database", DATABASE,
             "--delta", "r(1, 2)."]
        )
        assert code == 68  # the documented SchemaError exit code


class TestServeCommand:
    def test_serves_queries_from_file(self, tmp_path):
        queries = tmp_path / "queries.txt"
        queries.write_text(
            "# a comment\n"
            "q(X, Z) :- r(X, Y), s(Y, Z).\n"
            "q(A, B) :- s(C, B), r(A, C).\n"
            ":stats\n"
        )
        code, output = run_cli(
            ["serve", "--views", VIEWS, "--input", str(queries)]
        )
        assert code == 0
        assert "[miss]" in output
        assert "[hit ]" in output
        assert "# served 2 queries" in output
        assert "# cache: 1 hits / 1 misses" in output
        assert "# containment memo:" in output

    def test_serve_with_answers(self, tmp_path):
        queries = tmp_path / "queries.txt"
        queries.write_text("q(X, Z) :- r(X, Y), s(Y, Z).\n")
        code, output = run_cli(
            [
                "serve", "--views", VIEWS, "--database", DATABASE,
                "--input", str(queries), "--answers",
            ]
        )
        assert code == 0
        assert "1\t5" in output
        assert "# 2 answers" in output

    def test_serve_survives_per_query_rewriting_errors(self, tmp_path):
        # inverse-rules rejects views with comparisons per query; the server
        # must report the error and keep serving, not exit through main().
        queries = tmp_path / "queries.txt"
        queries.write_text("q(X) :- r(X, Y).\n")
        code, output = run_cli(
            [
                "serve", "--algorithm", "inverse-rules",
                "--views", "v(X) :- r(X, Y), Y > 2.",
                "--input", str(queries),
            ]
        )
        assert code == 0
        assert "error:" in output
        assert "# served 0 queries" in output

    def test_serve_answers_count_each_query_once(self, tmp_path):
        queries = tmp_path / "queries.txt"
        queries.write_text("q(X, Z) :- r(X, Y), s(Y, Z).\np(A, B) :- r(A, B).\n")
        code, output = run_cli(
            [
                "serve", "--views", VIEWS, "--database", DATABASE,
                "--input", str(queries), "--answers",
            ]
        )
        assert code == 0
        # Two distinct queries: two misses, no phantom hits from answer().
        assert "# cache: 0 hits / 2 misses" in output

    def test_serve_reports_parse_errors_and_continues(self, tmp_path):
        queries = tmp_path / "queries.txt"
        queries.write_text("not a query\nq(X, Z) :- r(X, Y), s(Y, Z).\n:quit\nq(X, Z) :- r(X, Y), s(Y, Z).\n")
        code, output = run_cli(["serve", "--views", VIEWS, "--input", str(queries)])
        assert code == 0
        assert "error:" in output
        assert "# served 1 queries" in output  # :quit stopped the stream


class TestExplainCommand:
    def test_prints_the_decision_tree(self):
        code, output = run_cli(
            ["explain", "--query", QUERY, "--views", VIEWS, "--database", DATABASE]
        )
        assert code == 0
        assert "chosen [equivalent]: q(X, Z) :- v_rs(X, Z)." in output
        assert "target=views" in output
        assert "scan v_rs/2" in output

    def test_without_database_skips_evaluation(self):
        code, output = run_cli(["explain", "--query", QUERY, "--views", VIEWS])
        assert code == 0
        assert "target=none" in output

    def test_json_output_matches_schema_shape(self, tmp_path):
        import json

        path = tmp_path / "explanation.json"
        code, _output = run_cli(
            ["explain", "--query", QUERY, "--views", VIEWS,
             "--database", DATABASE, "--json", str(path)]
        )
        assert code == 0
        data = json.loads(path.read_text())
        assert data["rewriting"]["found"] is True
        assert data["evaluation"]["target"] == "views"
        assert data["evaluation"]["plans"][0]["steps"][0]["operator"] == "scan"


class TestErrorReporting:
    def test_parse_error_renders_caret_context(self, capsys):
        code = main(["rewrite", "--query", "q(X) :- r(X", "--views", VIEWS])
        captured = capsys.readouterr()
        assert code == 65
        assert "error:" in captured.err
        assert "^" in captured.err  # caret under the offending column

    def test_parse_error_at_end_of_newline_terminated_input(self, capsys):
        # "unexpected end of input" points one past the final newline; the
        # caret renderer must caret an empty line, not crash.
        code = main(["rewrite", "--query", "q(X) :- r(X\n", "--views", VIEWS])
        captured = capsys.readouterr()
        assert code == 65
        assert "^" in captured.err

    def test_distinct_exit_codes_per_error_class(self):
        from repro import errors
        from repro.cli import EXIT_CODES, exit_code_for

        # Every documented class gets its own code; most derived class wins.
        assert len(set(EXIT_CODES.values())) == len(EXIT_CODES)
        assert exit_code_for(errors.ParseError("x")) == 65
        assert exit_code_for(errors.UnsafeQueryError("x")) == 66
        assert exit_code_for(errors.QueryConstructionError("x")) == 67
        assert exit_code_for(errors.SchemaError("x")) == 68
        assert exit_code_for(errors.EvaluationError("x")) == 69
        assert exit_code_for(errors.RewritingError("x")) == 70
        assert exit_code_for(errors.MaterializationError("x")) == 71
        assert exit_code_for(errors.UnsupportedFeatureError("x")) == 72
        assert exit_code_for(errors.ConstraintViolationError("x")) == 73
        assert exit_code_for(errors.ReproError("x")) == 64

    def test_materialization_error_for_missing_database(self):
        # An empty --database attaches no data, so applying a delta hits the
        # engine's "no base data" MaterializationError and its exit code.
        code, _output = run_cli(
            ["apply-delta", "--views", VIEWS, "--database", "", "--delta", "+ r(1, 2)."]
        )
        assert code == 71


class TestBatchCommand:
    def test_batch_reports_hits_and_throughput(self, tmp_path):
        workload = tmp_path / "workload.dl"
        workload.write_text(
            "q(X, Z) :- r(X, Y), s(Y, Z).\n"
            "q(A, B) :- s(C, B), r(A, C).\n"
        )
        code, output = run_cli(
            ["batch", "--queries", str(workload), "--views", VIEWS]
        )
        assert code == 0
        assert "[miss]" in output
        assert "[hit ]" in output
        assert "2 queries, 1 cache hits, 0 errors" in output

    def test_batch_json_report(self, tmp_path):
        import json

        workload = tmp_path / "workload.dl"
        workload.write_text("q(X, Z) :- r(X, Y), s(Y, Z).\n")
        report_path = tmp_path / "report.json"
        code, output = run_cli(
            [
                "batch", "--queries", str(workload), "--views", VIEWS,
                "--database", DATABASE, "--answers", "--json", str(report_path),
            ]
        )
        assert code == 0
        data = json.loads(report_path.read_text())
        assert data["requests"] == 1
        assert data["items"][0]["answers"] == 2


class TestRemovedFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--views", VIEWS, "--workers", "2"],
            ["batch", "--queries", QUERY, "--views", VIEWS, "--processes", "2"],
            ["materialize", "--views", VIEWS, "--database", DATABASE,
             "--executor", "compiled"],
            ["snapshot", "--storage", "store", "--backend", "sqlite"],
            ["restore", "--storage", "store", "--backend", "sqlite"],
            ["answer", "--query", QUERY, "--database", DATABASE, "--executor", "compiled"],
            ["explain", "--query", QUERY, "--views", VIEWS, "--executor", "interpreted"],
            ["serve", "--views", VIEWS, "--executor", "compiled"],
            ["stats", "--views", VIEWS, "--executor", "compiled"],
            ["batch", "--queries", QUERY, "--views", VIEWS, "--executor", "compiled"],
            ["serve", "--views", VIEWS, "--no-view-index"],
            ["stats", "--views", VIEWS, "--no-view-index"],
            ["batch", "--queries", QUERY, "--views", VIEWS, "--no-view-index"],
        ],
        ids=[
            "serve-workers", "batch-processes", "materialize-executor",
            "snapshot-backend", "restore-backend",
            "answer-executor", "explain-executor", "serve-executor", "stats-executor",
            "batch-executor", "serve-no-view-index", "stats-no-view-index",
            "batch-no-view-index",
        ],
    )
    def test_flag_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestStatsCommand:
    def test_human_readable_stats(self):
        code, output = run_cli(["stats", "--views", VIEWS])
        assert code == 0
        assert "# cache: 0 hits / 0 misses" in output
        assert "# containment memo:" in output

    def test_queries_warm_the_session_first(self, tmp_path):
        queries = tmp_path / "queries.dl"
        queries.write_text(QUERY + "\n" + QUERY + "\n")
        code, output = run_cli(
            ["stats", "--views", VIEWS, "--queries", str(queries)]
        )
        assert code == 0
        assert "# cache: 1 hits / 1 misses" in output

    def test_stats_json_is_machine_readable(self, tmp_path):
        import json

        queries = tmp_path / "queries.dl"
        queries.write_text(QUERY + "\n")
        code, output = run_cli(
            [
                "stats", "--views", VIEWS, "--database", DATABASE,
                "--queries", str(queries), "--answers", "--stats-json",
            ]
        )
        assert code == 0
        data = json.loads(output)
        assert data["session"]["rewrite_cache"]["misses"] == 1
        assert data["session"]["metrics"] is not None
        assert "global.containment_memo" in data["session"]

    def test_serve_stats_json_flag(self, tmp_path):
        import json

        queries = tmp_path / "queries.txt"
        queries.write_text(QUERY + "\n")
        code, output = run_cli(
            [
                "serve", "--views", VIEWS, "--input", str(queries),
                "--stats-json",
            ]
        )
        assert code == 0
        # The stats block is the last line, as one JSON document.
        data = json.loads(output.strip().splitlines()[-1])
        assert data["session"]["requests"] == 1


class TestServeHttpCommand:
    def test_serves_and_drains_on_sigterm(self, tmp_path):
        import http.client
        import json
        import os
        import signal
        import subprocess
        import sys

        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(repo_root, "src")
        env["PYTHONUNBUFFERED"] = "1"
        process = subprocess.Popen(
            [
                sys.executable, "-c",
                "from repro.cli import main; import sys; "
                "sys.exit(main(sys.argv[1:]))",
                "serve", "--views", VIEWS, "--database", DATABASE,
                "--http", "0", "--stats-json",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = process.stdout.readline()
            assert "# serving on http://" in banner, banner
            port = int(banner.split("http://127.0.0.1:")[1].split(" ")[0])
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                conn.request(
                    "POST", "/query", json.dumps({"query": QUERY}),
                    {"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                payload = json.loads(response.read())
            finally:
                conn.close()
            assert response.status == 200
            assert sorted(payload["rows"]) == [[1, 5], [3, 6]]
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=60)
        except BaseException:
            process.kill()
            raise
        assert process.returncode == 0, stderr
        # --stats-json: the post-drain stats block is one JSON document.
        data = json.loads(stdout.strip().splitlines()[-1])
        assert data["session"]["requests"] == 1

    def test_the_command_freezes_the_gc_only_while_it_serves(self, tmp_path, monkeypatch):
        """``gc.freeze()`` is process-wide state: taken after the engine is
        built, given back when the server stops, and never by the library."""
        import gc
        import io

        import repro.server

        frozen_while_serving = []

        class FakeServer:
            address, queue_limit = "http://127.0.0.1:0", 32

            def __init__(self, engine, **options):
                frozen_while_serving.append(gc.get_freeze_count())  # built before the freeze

            def serve_forever(self):
                frozen_while_serving.append(gc.get_freeze_count())

            def shutdown(self):
                pass

        monkeypatch.setattr(repro.server, "ReproServer", FakeServer)
        assert gc.get_freeze_count() == 0
        out = io.StringIO()
        code = main(
            ["serve", "--views", VIEWS, "--database", DATABASE, "--http", "0"], out=out
        )
        assert code == 0 and "# serving on" in out.getvalue()
        assert frozen_while_serving[0] == 0 and frozen_while_serving[1] > 0
        assert gc.get_freeze_count() == 0
