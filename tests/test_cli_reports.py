"""The CLI over the report registry (ISSUE 17).

Three groups: regression tests for what the one query-run path fixed
(JSON document/graph queries from every query command, ``faults
--shards``), first tests for the third of the CLI that had none
(``plan``, ``faults``, ``record``, ``ingest``), and the
CLI half of the parity contract — what a command prints under
``--json`` is the payload ``reports.call`` built (or its one documented
sub-dict).
"""

import functools
import io
import json

import pytest

from repro import cli
from repro.cli import COMMANDS, build_parser, main
from repro.obs import FlightRecorder
from repro.ui import reports

SQL = "SELECT * FROM inventory WHERE seq < 5"
DOCUMENT = (
    '{"collection": "albums", "filter": {"year": {"$gt": 2010}}, "limit": 2}'
)
GRAPH = '{"op": "match", "label": "Item", "limit": 2}'
LOAD = ("--stores", "4", "--albums", "30", "--clients", "2",
        "--requests", "3", "--workers", "2")


@pytest.fixture
def keep_every_completion(monkeypatch):
    """Servers the CLI builds retain every completed request's digest
    (slow at one nanosecond), so ``record`` has completions to print."""
    monkeypatch.setattr(
        "repro.serving.server.FlightRecorder",
        functools.partial(FlightRecorder, slow_threshold=1e-9),
    )


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "snap")
    code, _ = run_cli(
        "generate", "--stores", "4", "--albums", "40", "--out", path
    )
    assert code == 0
    return path


def on(snapshot, database, query, *extra):
    return ("--snapshot", snapshot, "--database", database,
            "--query", query, *extra)


class TestOneQueryRunPath:
    """At the parent only ``explain``/``plan``/``events``/``faults``
    parsed ``--query``: the other four answered ``error: unsupported
    document query`` for the one engine every middleware supports."""

    @pytest.mark.parametrize("command", ["query", "stats", "trace", "explore"])
    def test_document_query_answers(self, snapshot, command):
        code, output = run_cli(
            command, *on(snapshot, "catalogue", DOCUMENT)
        )
        assert code == 0, output
        assert "error:" not in output
        if command == "query":
            assert output.startswith("2 result(s)")
            assert "catalogue.albums.d" in output
        elif command == "stats":
            assert "query on catalogue (level 0" in output
        elif command == "trace":
            assert "store_call" in output and "database=catalogue" in output
        else:
            assert output.startswith("start: catalogue.albums.d")

    @pytest.mark.parametrize("command", ["query", "stats", "trace", "explore"])
    def test_graph_dict_query_answers(self, snapshot, command):
        code, output = run_cli(command, *on(snapshot, "similar", GRAPH))
        assert code == 0, output
        assert "error:" not in output
        if command == "query":
            assert output.startswith("2 result(s)")
            assert "similar.Item.i" in output

    def test_tuple_form_from_a_json_array(self, snapshot):
        code, output = run_cli("query", *on(
            snapshot, "catalogue", '["albums", {"_id": "d3"}]'
        ))
        assert code == 0 and output.startswith("1 result(s)")

    def test_text_that_only_looks_like_json_stays_text(self, snapshot):
        code, output = run_cli(
            "query", *on(snapshot, "catalogue", "{not json")
        )
        assert code == 1
        assert "unsupported document query: '{not json'" in output

    @pytest.mark.parametrize("placement", ["hash", "range"])
    def test_faults_honours_shards(self, snapshot, placement, monkeypatch):
        """``_faults`` bypassed ``_load``: ``--shards`` was accepted and
        ignored, so the fault drill never ran against a sharded system.
        ``--shards`` partitions the stores; the A' index stays one."""
        from repro.core.aindex import AIndex
        from repro.sharding import ShardedStore

        built = []

        class SpyQuepa(cli.Quepa):
            def __init__(self, polystore, aindex, **kwargs):
                built.append((polystore, aindex, kwargs))
                super().__init__(polystore, aindex, **kwargs)

        monkeypatch.setattr(cli, "Quepa", SpyQuepa)
        code, output = run_cli(
            "faults", *on(snapshot, "transactions", SQL, "--level", "1"),
            "--inject", "discount:fail", "--shards", "2",
            "--placement", placement, "--json",
        )
        assert code == 0, output
        (polystore, aindex, kwargs), = built
        assert type(aindex) is AIndex
        for name in polystore:
            store = polystore.database(name)
            assert isinstance(store, ShardedStore)
            assert len(store.shards) == 2
        assert kwargs["faults"] is not None and kwargs["resilience"]
        report = json.loads(output)
        assert report["answer"]["degraded"] is True
        assert report["answer"]["unavailable_databases"] == ["discount"]
        assert report["faults"]["fired_by_database"]["discount"]["fail"] >= 1


class TestUntestedThird:
    def test_plan_text(self, snapshot):
        code, output = run_cli(
            "plan", *on(snapshot, "transactions", SQL, "--level", "1")
        )
        assert code == 0
        assert "chosen: pushdown:" in output
        assert "strategies:" in output and "strategy: collect_join" in output
        assert "executed:" not in output

    def test_plan_json_with_targets_and_execute(self, snapshot):
        code, output = run_cli(
            "plan", *on(snapshot, "transactions", SQL, "--level", "1"),
            "--targets", "catalogue,similar", "--execute", "--json",
        )
        assert code == 0
        report = json.loads(output)
        assert report["targets"] == ["catalogue", "similar"]
        strategies = {c["strategy"] for c in report["strategies"]}
        assert {"collect_join", "etl_cast"} <= strategies
        assert report["executed"]["strategy"] == report["chosen"]
        assert report["executed"]["answer_size"] > 5

    def test_plan_of_a_document_query(self, snapshot):
        code, output = run_cli(
            "plan", *on(snapshot, "catalogue", DOCUMENT), "--json"
        )
        assert code == 0
        assert json.loads(output)["chosen"].startswith("pushdown:")

    def test_faults_text(self, snapshot):
        code, output = run_cli(
            "faults", *on(snapshot, "transactions", SQL, "--level", "1"),
            "--inject", "discount:fail",
        )
        assert code == 0
        assert output.startswith("answer: DEGRADED — 5 originals")
        assert "breakers:" in output and "state: open" in output
        assert "failed_queries_by_database:" in output

    def test_faults_json_without_faults_is_complete(self, snapshot):
        code, output = run_cli(
            "faults", *on(snapshot, "transactions", SQL), "--json",
        )
        assert code == 0
        report = json.loads(output)
        assert report["answer"]["degraded"] is False
        assert report["answer"]["original_count"] == 5
        assert report["faults"]["specs"] == []
        assert set(report) == {
            "answer", "faults", "resilience", "failed_queries_by_database",
        }

    def test_faults_bad_spec_is_a_clean_error(self, snapshot):
        code, output = run_cli(
            "faults", *on(snapshot, "transactions", SQL),
            "--inject", "nonsense",
        )
        assert code == 1 and output.startswith("error:")

    def test_record_text(self, keep_every_completion):
        code, output = run_cli("record", *LOAD)
        assert code == 0
        lines = output.splitlines()
        assert lines[0].startswith("flight recorder: kept 6 of 6 requests")
        assert len(lines) == 7
        assert all(" search completed wait=" in line for line in lines[1:])
        assert all("kept=slow" in line for line in lines[1:])

    def test_record_json_filters(self, keep_every_completion):
        code, output = run_cli(
            "record", *LOAD, "--status", "completed", "--limit", "2", "--json",
        )
        assert code == 0
        payload = json.loads(output)
        assert payload["enabled"] is True
        assert payload["recorder"]["kept"] == 6
        assert len(payload["requests"]) == 2
        assert all(d["status"] == "completed" for d in payload["requests"])
        code, output = run_cli(
            "record", *LOAD, "--session", "nobody", "--json",
        )
        assert code == 0 and json.loads(output)["requests"] == []

    def test_ingest_text(self):
        code, output = run_cli(
            "ingest", "--albums", "20", "--updates", "6", "--batch", "3"
        )
        assert code == 0
        lines = output.splitlines()
        assert lines[0].startswith("bootstrap: ")
        assert lines[1].startswith("ingest: 6 writes in 3 pumps (")
        assert lines[1].endswith("lag=0")
        assert lines[2].startswith("warm restart: replayed ")

    def test_ingest_json_with_workdir(self, tmp_path):
        code, output = run_cli(
            "ingest", "--albums", "20", "--updates", "6", "--batch", "3",
            "--workdir", str(tmp_path), "--json",
        )
        assert code == 0
        payload = json.loads(output)
        assert payload["ingest"]["updates"] == 6
        assert payload["ingest"]["pumps"] == 3
        assert payload["ingest"]["events"] >= 3
        assert payload["bootstrap"]["relations"] > 0
        assert payload["warm_restart"]["replayed_events"] >= 1
        assert payload["status"]["lag"] == payload["ingest"]["lag"] == 0
        assert (tmp_path / "wal.jsonl").exists()
        assert (tmp_path / "snapshot").is_dir()


@pytest.fixture
def built(monkeypatch):
    """Every ``reports.call`` the CLI makes, with what it returned."""
    calls = []
    real = reports.call

    def spy(name, subject, raw=None):
        payload = real(name, subject, raw)
        calls.append((name, payload))
        return payload

    monkeypatch.setattr(reports, "call", spy)
    return calls


def as_json(payload):
    return json.loads(json.dumps(payload, default=str))


class TestCliParity:
    """``--json`` prints the registry's payload, not a second build."""

    def printed(self, *argv):
        code, output = run_cli(*argv)
        assert code == 0, output
        return json.loads(output)

    @pytest.mark.parametrize("command", ["explain", "plan"])
    def test_explain_and_plan_print_the_bare_report(
        self, snapshot, built, command
    ):
        printed = self.printed(
            command, *on(snapshot, "transactions", SQL, "--level", "1"),
            "--json",
        )
        (name, payload), = built
        assert name == command
        assert printed == as_json(payload[command])

    def test_faults_prints_the_answer_plus_the_report(self, snapshot, built):
        printed = self.printed(
            "faults", *on(snapshot, "transactions", SQL, "--level", "1"),
            "--inject", "discount:fail", "--json",
        )
        (name, payload), = built
        assert name == "faults"
        answer = printed.pop("answer")
        assert printed == as_json(payload["faults"])
        assert answer["augmented_count"] > 0

    def test_trace_chrome_prints_the_payload(self, snapshot, built):
        printed = self.printed(
            "trace", *on(snapshot, "transactions", SQL), "--format", "chrome"
        )
        (name, payload), = built
        assert name == "trace" and printed == as_json(payload)

    def test_loadgen_slo_record(self, built):
        """``loadgen`` and ``record`` (the id predates the removal of
        the ``slo`` command)."""
        printed = self.printed("loadgen", *LOAD, "--json")
        assert built[-1][0] == "serving"
        assert printed["serving"] == as_json(built[-1][1]["serving"])
        assert set(printed) == {"load", "serving"}
        assert self.printed("record", *LOAD, "--json") == as_json(built[-1][1])
        assert built[-1][0] == "requests"

    def test_ingest_status_is_the_ingest_report(self, built):
        printed = self.printed(
            "ingest", "--albums", "20", "--updates", "4", "--json"
        )
        (name, payload), = built
        assert name == "ingest" and payload["enabled"] is True
        assert printed["status"] == as_json(payload["ingest"])

    @pytest.mark.parametrize("command", ["stats", "events"])
    def test_text_commands_read_the_same_report(
        self, snapshot, built, command
    ):
        code, output = run_cli(
            command, *on(snapshot, "transactions", SQL, "--level", "1")
        )
        assert code == 0
        (name, payload), = built
        assert name == command
        if command == "stats":
            for store in payload["stores"]:
                assert f"  {store['database']:16s} {store['queries']:8d}" in (
                    output
                )
        else:
            assert f"showing {len(payload['events'])})" in output


class TestSameSurface:
    SUBCOMMANDS = {
        "demo", "generate", "query", "stats", "trace", "explain", "plan",
        "events", "faults", "serve", "loadgen", "record", "ingest",
        "inspect", "explore",
    }

    def test_sixteen_subcommands_one_table(self):
        """Fifteen since ``slo`` went; the id predates that."""
        assert set(COMMANDS) == self.SUBCOMMANDS
        subparsers = next(
            action for action in build_parser()._actions
            if action.dest == "command"
        )
        assert set(subparsers.choices) == self.SUBCOMMANDS
        with pytest.raises(SystemExit):
            build_parser().parse_args(["slo"])

    def test_report_error_is_a_clean_exit(self, snapshot):
        code, output = run_cli(
            "explain", *on(snapshot, "transactions", SQL, "--level", "-1")
        )
        assert (code, output) == (1, "error: level must be >= 0\n")
