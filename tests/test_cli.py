"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import main


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestDemo:
    def test_demo_prints_augmented_answer(self):
        code, output = run_cli("demo")
        assert code == 0
        assert "transactions.inventory.a32" in output
        assert "[strong 0.90] catalogue.albums.d1" in output

    def test_demo_color(self):
        code, output = run_cli("--color", "demo")
        assert code == 0
        assert "\x1b[" in output


class TestGenerateQueryInspect:
    @pytest.fixture
    def snapshot(self, tmp_path):
        path = str(tmp_path / "snap")
        code, output = run_cli(
            "generate", "--stores", "4", "--albums", "40", "--out", path
        )
        assert code == 0
        assert "4 databases" in output
        return path

    def test_inspect(self, snapshot):
        code, output = run_cli("inspect", "--snapshot", snapshot)
        assert code == 0
        assert "transactions" in output
        assert "relational" in output
        assert "A' index:" in output

    def test_query(self, snapshot):
        code, output = run_cli(
            "query", "--snapshot", snapshot,
            "--database", "transactions",
            "--query", "SELECT * FROM inventory WHERE seq < 2",
        )
        assert code == 0
        assert "2 result(s)" in output
        assert "native queries" in output

    def test_query_with_augmenter(self, snapshot):
        code, output = run_cli(
            "query", "--snapshot", snapshot,
            "--database", "transactions",
            "--query", "SELECT * FROM inventory WHERE seq < 2",
            "--augmenter", "batch", "--batch-size", "16",
        )
        assert code == 0

    def test_stats_prints_per_store_breakdown(self, snapshot):
        code, output = run_cli(
            "stats", "--snapshot", snapshot,
            "--database", "transactions",
            "--query", "SELECT * FROM inventory WHERE seq < 5",
            "--level", "1",
        )
        assert code == 0
        assert "per-store breakdown:" in output
        assert "catalogue" in output
        assert "p50_ms" in output and "p95_ms" in output and "p99_ms" in output
        assert "span kinds:" in output
        assert "store_call" in output
        assert "cache:" in output
        assert (
            "planner: 1 index refreezes, 1 of them compactions, "
            "0 overlay nodes (generation "
        ) in output

    def test_trace_prints_span_tree(self, snapshot):
        code, output = run_cli(
            "trace", "--snapshot", snapshot,
            "--database", "transactions",
            "--query", "SELECT * FROM inventory WHERE seq < 5",
            "--augmenter", "outer_batch",
        )
        assert code == 0
        assert "plan" in output
        assert "  pool" in output  # indented under the augment span
        assert "store_call" in output

    def test_trace_limit_truncates(self, snapshot):
        code, output = run_cli(
            "trace", "--snapshot", snapshot,
            "--database", "transactions",
            "--query", "SELECT * FROM inventory WHERE seq < 20",
            "--limit", "3",
        )
        assert code == 0
        assert len([l for l in output.splitlines() if l]) <= 5
        assert "more spans" in output

    def test_trace_chrome_format_is_pure_json(self, snapshot):
        code, output = run_cli(
            "trace", "--snapshot", snapshot,
            "--database", "transactions",
            "--query", "SELECT * FROM inventory WHERE seq < 5",
            "--format", "chrome",
        )
        assert code == 0
        payload = json.loads(output)  # nothing but the trace on stdout
        events = payload["traceEvents"]
        assert events
        assert all(event["ph"] == "X" for event in events)
        names = {event["name"] for event in events}
        assert "store_call" in names

    def test_trace_id_prints_one_served_request(self, snapshot):
        argv = (
            "trace", "--snapshot", snapshot,
            "--database", "transactions",
            "--query", "SELECT * FROM inventory WHERE seq < 5",
            "--level", "1",
        )
        code, output = run_cli(*argv, "--trace-id", "t-000001")
        assert code == 0
        lines = output.splitlines()
        assert lines[0].startswith("request ")  # the served root span
        assert "  store_call" in output
        assert "trace t-000001:" in lines[-1]
        assert "request=1" in lines[-1]
        # An id the tracer does not hold: a clear message, exit 1.
        code, output = run_cli(*argv, "--trace-id", "t-000999")
        assert code == 1
        assert "no spans retained for trace 't-000999'" in output
        assert "evicted" in output

    def test_explain_reports_plan_and_estimates(self, snapshot):
        code, output = run_cli(
            "explain", "--snapshot", snapshot,
            "--database", "transactions",
            "--query", "SELECT * FROM inventory WHERE seq < 5",
            "--level", "1",
        )
        assert code == 0
        assert "access_path:" in output
        assert "planned_fetches:" in output
        assert "estimated_queries:" in output
        assert "actual" not in output.split("execution:")[0]

    def test_explain_analyze_json(self, snapshot):
        code, output = run_cli(
            "explain", "--snapshot", snapshot,
            "--database", "transactions",
            "--query", "SELECT * FROM inventory WHERE seq < 5",
            "--level", "1", "--analyze", "--json",
        )
        assert code == 0
        report = json.loads(output)
        store = report["query"]["store"]
        assert store["access_path"] == "index_range"
        assert store["index"] == "inventory.seq"
        assert store["estimated_rows"] == store["actual_rows"] == 5
        assert report["actual"]["queries_issued"] >= 1
        # The same window under an OR: no access path serves it.
        code, output = run_cli(
            "explain", "--snapshot", snapshot,
            "--database", "transactions",
            "--query", "SELECT * FROM inventory WHERE seq < 5 OR seq IS NULL",
            "--level", "1", "--analyze", "--json",
        )
        assert code == 0
        store = json.loads(output)["query"]["store"]
        assert store["access_path"] == "full_scan"
        assert store["actual_rows"] == 5
        assert store["estimated_rows"] > store["actual_rows"]

    def test_explain_with_explicit_augmenter(self, snapshot):
        code, output = run_cli(
            "explain", "--snapshot", snapshot,
            "--database", "transactions",
            "--query", "SELECT * FROM inventory WHERE seq < 5",
            "--level", "1", "--augmenter", "outer_batch", "--json",
        )
        assert code == 0
        report = json.loads(output)
        assert report["config"]["source"] == "explicit"
        assert report["execution"]["batching"] is True

    def test_events_shows_journal_and_footer(self, snapshot):
        code, output = run_cli(
            "events", "--snapshot", snapshot,
            "--database", "transactions",
            "--query", "SELECT * FROM inventory WHERE seq < 5",
            "--level", "1",
        )
        assert code == 0
        assert "augmentation_completed" in output
        assert "events emitted" in output

    def test_events_slow_query_log(self, snapshot, tmp_path):
        sink = tmp_path / "slow.jsonl"
        code, output = run_cli(
            "events", "--snapshot", snapshot,
            "--database", "transactions",
            "--query", "SELECT * FROM inventory WHERE seq < 5",
            "--level", "1",
            "--slow-ms", "0", "--jsonl", str(sink),
            "--min-severity", "warning",
        )
        assert code == 0
        assert "slow_query" in output
        assert "augmentation_completed" not in output  # below warning
        lines = sink.read_text().splitlines()
        assert lines
        kinds = {json.loads(line)["kind"] for line in lines}
        assert "slow_query" in kinds

    def test_query_aggregate_fails_cleanly(self, snapshot):
        code, output = run_cli(
            "query", "--snapshot", snapshot,
            "--database", "transactions",
            "--query", "SELECT COUNT(*) FROM inventory",
        )
        assert code == 1
        assert "error:" in output

    def test_explore(self, snapshot):
        code, output = run_cli(
            "explore", "--snapshot", snapshot,
            "--database", "transactions",
            "--query", "SELECT * FROM inventory WHERE seq = 0",
            "--steps", "2",
        )
        assert code == 0
        assert "start: transactions.inventory.a0" in output
        assert "followed strongest link" in output

    def test_explore_no_results(self, snapshot):
        code, output = run_cli(
            "explore", "--snapshot", snapshot,
            "--database", "transactions",
            "--query", "SELECT * FROM inventory WHERE seq > 9999",
        )
        assert code == 1
        assert "no results" in output


class TestErrors:
    def test_missing_snapshot_is_clean_error(self, tmp_path):
        code, output = run_cli(
            "inspect", "--snapshot", str(tmp_path / "nope")
        )
        assert code == 1
        assert "error:" in output

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            run_cli("warp")
