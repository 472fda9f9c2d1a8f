"""The report registry: one builder per report, one coercion, two surfaces.

ISSUE 17: ``repro.ui.reports`` is the only place a report is built;
``QuepaApi`` serves each at ``/<name>`` and ``repro.cli`` prints it.
These tests pin the registry's contents, the coercion of raw values
onto a report's own signature, that the HTTP surface returns exactly
what the report function returned, and — structurally — that neither
surface grows a second builder.
"""

import functools
import io
import json
import re
from pathlib import Path

import pytest

from repro.core.augmentation import AugmentationConfig
from repro.obs import FlightRecorder
from repro.serving import QuepaServer, ServingConfig
from repro.ui import reports
from repro.ui.api import ApiError, QuepaApi
from repro.ui.reports import REPORTS, ReportError, Subject

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
QUERY = "SELECT * FROM inventory WHERE name LIKE '%wish%'"

THE_ELEVEN = {
    "databases", "stats", "metrics", "trace", "events", "faults",
    "serving", "requests", "ingest", "explain", "plan",
}


def make_hub(quepa):
    from repro.cdc import ChangeHub, IncrementalCollector
    from repro.collector import JaroWinklerComparator, PairwiseMatcher
    from repro.collector.matching import AttributeRule

    matcher = PairwiseMatcher(
        [AttributeRule("name", "title", JaroWinklerComparator())],
        identity_threshold=0.9, matching_threshold=0.6,
    )
    return ChangeHub(
        quepa.polystore, quepa.aindex, IncrementalCollector(matcher)
    )


class TestRegistry:
    def test_the_twelve_reports(self):
        """Eleven since ``slo`` went; the id predates that."""
        assert set(REPORTS) == THE_ELEVEN
        for name, function in REPORTS.items():
            assert function.__name__ == name
            assert function.__doc__, f"report {name} has no description"

    def test_routes_follow_the_signature(self):
        posted = {name for name in REPORTS if reports.method(name) == "POST"}
        assert posted == {"explain", "plan"}  # the two that take a query
        assert reports.method("teapot") is None

    def test_unknown_report_is_404(self, mini_quepa):
        with pytest.raises(ReportError) as err:
            reports.call("teapot", Subject(mini_quepa))
        assert err.value.status == 404

    def test_stats_is_last_run_plus_the_breakdown(self, mini_quepa):
        subject = Subject(mini_quepa)
        assert reports.call("stats", subject) == {"last_run": None}
        mini_quepa.augmented_search("transactions", QUERY, level=1)
        report = reports.call("stats", subject)
        assert report["last_run"]["features"]["engine"] == "relational"
        stores = {row["database"]: row for row in report["stores"]}
        assert stores["transactions"]["queries"] >= 1
        assert stores["catalogue"]["latency_s"]["p95"] > 0
        assert report["shard_routing"] == []  # nothing is sharded
        assert report["span_kinds"]["store_call"]["count"] >= 1
        assert report["retention"] == {
            "dropped": 0, "evicted": 0, "max_spans": 10_000,
        }
        assert [tier["name"] for tier in report["cache"]][:2] == [
            "object", "plan",
        ]
        assert report["index"] == {
            "refreezes": 1, "compactions": 1, "overlay_nodes": 0,
            "generation": mini_quepa.aindex.generation,
        }
        gauges = {
            entry["name"]: entry["value"]
            for entry in mini_quepa.obs.metrics.snapshot()
            if entry["name"].startswith("aindex_")
        }
        assert gauges == {
            "aindex_refreezes_total": 1, "aindex_compactions_total": 1,
            "aindex_overlay_nodes": 0,
        }
        json.dumps(report)


class TestCoercion:
    def test_query_text_becomes_the_native_form(self):
        assert reports.coerce("query", "SELECT 1") == "SELECT 1"
        assert reports.coerce("query", ' {"collection": "albums"} ') == {
            "collection": "albums"
        }
        assert reports.coerce("query", '["albums", {"year": 1992}]') == (
            "albums", {"year": 1992},
        )
        assert reports.coerce("query", ["albums", {}]) == ("albums", {})
        # A key-value glob that merely looks like JSON stays text.
        assert reports.coerce("query", "[ab]*") == "[ab]*"

    def test_config(self):
        config = reports.coerce(
            "config", {"augmenter": "batch", "batch_size": "16",
                       "timeout_budget": None}
        )
        assert config == AugmentationConfig(augmenter="batch", batch_size=16)
        assert reports.coerce("config", config) is config
        for bad, fragment in (
            ({"warp": 9}, "unknown config fields ['warp']"),
            ({"batch_size": "x"}, "config.batch_size must be an integer"),
            ({"min_probability": 0.5}, "unknown config fields ['min_probability']"),
            ({"timeout_budget": []}, "config.timeout_budget must be a num"),
            ("batch", "config must be an object"),
        ):
            with pytest.raises(ReportError) as err:
                reports.coerce("config", bad)
            assert err.value.status == 400
            assert fragment in err.value.message

    def test_targets(self):
        assert reports.coerce("targets", "catalogue, similar,") == (
            "catalogue", "similar",
        )
        assert reports.coerce("targets", ["catalogue"]) == ("catalogue",)
        for bad in (7, ["catalogue", 7], {"a": 1}):
            with pytest.raises(ReportError) as err:
                reports.coerce("targets", bad)
            assert err.value.status == 400

    def test_level_and_deadline_ranges(self):
        assert reports.coerce("level", "2", "int") == 2
        assert reports.coerce("deadline", "0.5", "float | None") == 0.5
        for name, kind, bad in (
            ("level", "int", -1), ("level", "int", "abc"),
            ("level", "int", float("inf")), ("level", "int", [1]),
            ("deadline", "float | None", 0), ("deadline", "float", "soon"),
        ):
            with pytest.raises(ReportError) as err:
                reports.coerce(name, bad, kind)
            assert err.value.status == 400
            assert name in err.value.message

    def test_bind_reads_the_functions_own_signature(self):
        bound = reports.bind(REPORTS["explain"], {
            "database": "transactions", "query": '{"collection": "c"}',
            "level": "1", "analyze": "true", "limit": "ignored",
            "config": None,
        })
        assert bound == {
            "database": "transactions", "query": {"collection": "c"},
            "level": 1, "analyze": True,
        }
        assert reports.bind(REPORTS["events"], {"limit": "3"}) == {"limit": 3}
        assert reports.bind(REPORTS["plan"], {
            "database": "d", "query": "q", "execute": False, "targets": "",
        }) == {"database": "d", "query": "q", "execute": False}

    def test_bind_rejections(self):
        with pytest.raises(ReportError) as err:
            reports.bind(REPORTS["explain"], {"database": "transactions"})
        assert err.value.status == 400
        assert "missing required field 'query'" in err.value.message
        with pytest.raises(ReportError) as err:
            reports.bind(REPORTS["events"], {"limit": "soon"})
        assert "limit must be an integer, got 'soon'" in err.value.message
        with pytest.raises(ReportError) as err:
            reports.bind(REPORTS["explain"], "a JSON string")
        assert err.value.status == 400


class TestApiCoercion:
    """The hand-written routes validate through the same coercion."""

    @pytest.fixture
    def api(self, mini_quepa):
        return QuepaApi(mini_quepa)

    @pytest.mark.parametrize("field, value", [
        ("level", "abc"), ("level", [1]), ("deadline", "abc"),
        ("deadline", -1), ("config", {"batch_size": "x"}), ("config", 3),
    ])
    def test_bad_query_field_is_400_naming_it(self, api, field, value):
        body = {"database": "transactions", "query": QUERY, field: value}
        with pytest.raises(ApiError) as err:
            api.handle("POST", "/query", body)
        assert err.value.status == 400
        assert field in err.value.message

    def test_body_that_is_not_an_object_is_400(self, api):
        for path in ("/query", "/explain", "/plan", "/explore"):
            with pytest.raises(ApiError) as err:
                api.handle("POST", path, "a JSON string")
            assert err.value.status == 400

    def test_json_query_text_and_arrays_reach_the_document_store(self, api):
        as_text = api.handle("POST", "/query", {
            "database": "catalogue",
            "query": '{"collection": "albums", "filter": {"year": 1992}}',
        })
        as_array = api.handle("POST", "/query", {
            "database": "catalogue", "query": ["albums", {"year": 1992}],
        })
        assert [o["key"] for o in as_text["originals"]] == [
            "catalogue.albums.d1"
        ]
        assert as_array["originals"] == as_text["originals"]

    def test_explore_requires_its_fields(self, api):
        with pytest.raises(ApiError) as err:
            api.handle("POST", "/explore", {"database": "transactions"})
        assert err.value.status == 400
        sid = api.handle(
            "POST", "/explore", {"database": "transactions", "query": QUERY}
        )["session"]
        with pytest.raises(ApiError) as err:
            api.handle("POST", f"/explore/{sid}/select", {})
        assert err.value.status == 400
        assert "'key'" in err.value.message


#: One request per report: (query string or None, JSON body or None).
REQUESTS = {
    "databases": ("whatever=1", None),
    "stats": (None, None),
    "metrics": ("format=json", None),
    "trace": ("format=chrome", None),
    "events": ("kind=augmentation_completed&limit=1", None),
    "faults": (None, None),
    "serving": (None, None),
    "requests": ("status=completed&limit=5", None),
    "ingest": (None, None),
    "explain": (None, {"database": "transactions", "query": QUERY,
                       "level": 1, "config": {"augmenter": "batch"}}),
    "plan": (None, {"database": "transactions", "query": QUERY,
                    "level": 1, "targets": ["catalogue"], "execute": True}),
}


def request_of(name: str):
    """``(path, body, raw parameters)`` of ``REQUESTS[name]``."""
    query_string, body = REQUESTS[name]
    path = f"/{name}" + (f"?{query_string}" if query_string else "")
    raw = body or dict(
        pair.split("=") for pair in (query_string or "").split("&") if pair
    )
    return path, body, raw


class TestApiParity:
    """``QuepaApi.handle`` on a report's route returns exactly what
    ``reports.call`` builds — same function, same subject, same
    coerced parameters — for every name in ``REPORTS``."""

    def test_every_report_has_a_request_here(self):
        assert set(REQUESTS) == set(REPORTS)

    @pytest.mark.parametrize("name", sorted(THE_ELEVEN))
    def test_handle_returns_what_the_report_built(
        self, name, mini_quepa, monkeypatch
    ):
        function = REPORTS[name]
        seen = []

        @functools.wraps(function)
        def spy(subject, **params):
            seen.append((subject, params, function(subject, **params)))
            return seen[-1][2]

        monkeypatch.setitem(REPORTS, name, spy)
        hub = make_hub(mini_quepa)
        with QuepaServer(mini_quepa, ServingConfig(workers=1)) as server:
            server.scheduler.recorder = FlightRecorder(slow_threshold=1e-9)
            api = QuepaApi(mini_quepa, server=server, hub=hub)
            api.handle("POST", "/query", {
                "database": "transactions", "query": QUERY, "level": 1,
            })
            path, body, raw = request_of(name)
            verb = reports.method(name)
            assert verb == ("POST" if body else "GET")
            response = api.handle(verb, path, body)
            (subject, params, built), = seen
            assert response is built
            assert subject == Subject(mini_quepa, server, hub)
            assert params == reports.bind(function, raw)
            # ...and the other verb is no route at all.
            with pytest.raises(ApiError) as err:
                api.handle("GET" if body else "POST", f"/{name}", body)
            assert err.value.status == 404

    @pytest.mark.parametrize("name", sorted(THE_ELEVEN))
    def test_same_payload_without_a_serving_layer(self, name, mini_quepa):
        """Value parity where nothing is wall-clock: a classic system,
        read over the API and then through ``reports.call``."""
        api = QuepaApi(mini_quepa)
        api.handle("POST", "/query", {
            "database": "transactions", "query": QUERY, "level": 1,
        })
        path, body, raw = request_of(name)
        if name == "plan":  # executing calibrates the planner: stateful
            body = raw = {**body, "execute": False}
        via_http = api.handle(reports.method(name), path, body)
        assert via_http == reports.call(name, Subject(mini_quepa), raw)

    def test_report_errors_keep_their_status(self, mini_quepa):
        api = QuepaApi(mini_quepa)
        for path, status in (
            ("/slo", 404), ("/trace?trace_id=t-999999", 404),
            ("/trace?format=svg", 400), ("/metrics?format=xml", 400),
            ("/events?min_severity=loud", 400), ("/requests?limit=x", 400),
        ):
            with pytest.raises(ApiError) as err:
                api.handle("GET", path)
            assert err.value.status == status, path

    def test_ingest_report_with_a_hub(self, mini_quepa):
        hub = make_hub(mini_quepa)
        hub.bootstrap()  # attaches one change feed per store
        report = QuepaApi(mini_quepa, hub=hub).handle("GET", "/ingest")
        assert report == {"ingest": hub.status(), "enabled": True}
        assert set(report["ingest"]["databases"]) == set(mini_quepa.polystore)


def _source(relative: str) -> str:
    return (SRC / relative).read_text()


class TestOneImplementation:
    """Structural guard, in the style of
    ``tests/test_sharding.py::TestOneImplementation``: the builders the
    two surfaces used to copy live in ``ui/reports.py`` only."""

    BUILDERS = (
        "explain_section(", "fault_report(", ".recorder",
        "to_prometheus(", "to_chrome_trace(",
    )

    def test_builders_live_in_reports_only(self):
        home = _source("ui/reports.py")
        cli, api = _source("cli.py"), _source("ui/api.py")
        for marker in self.BUILDERS:
            assert marker in home, marker
            assert marker not in cli, f"cli.py re-derives {marker}"
            assert marker not in api, f"ui/api.py re-derives {marker}"

    def test_cli_has_one_builder_of_each_kind(self):
        cli = _source("cli.py")
        functions = re.split(r"^def ", cli, flags=re.MULTILINE)[1:]

        def holders(marker: str) -> list[str]:
            return [
                body.split("(", 1)[0] for body in functions if marker in body
            ]

        assert holders("AugmentationConfig(") == ["_config"]
        assert holders("load_snapshot(") == ["_load", "_inspect"]
        assert holders(".augmented_search(") == ["_demo", "_run_query"]
        assert holders("server.search(") == ["_run_query"]
        # A dispatch table, not an if chain.
        assert "if args.command ==" not in cli

    def test_api_has_no_per_report_endpoint(self):
        methods = set(re.findall(r"^    def (\w+)\(", _source("ui/api.py"),
                                 flags=re.MULTILINE))
        assert not methods & set(REPORTS)
        assert "_report" in methods

    def test_the_eighteen_routes(self, mini_quepa):
        """The six hand-written routes plus one per ``REPORTS`` entry —
        the report routes *are* the registry — and nothing else:
        seventeen since ``/slo`` went (the id predates that)."""
        hand_written = {
            ("POST", "/query"), ("POST", "/explore"), ("GET", "/explore/s1"),
            ("POST", "/explore/s1/select"), ("POST", "/explore/s1/close"),
            ("GET", "/object/catalogue.albums.d1"),
        }
        paths = {path for _, path in hand_written} | {
            f"/{name}" for name in THE_ELEVEN | {"catalog", "slo", "teapot"}
        }
        api = QuepaApi(mini_quepa)
        routed = set()
        for path in paths:
            for verb in ("GET", "POST"):
                try:
                    api.handle(verb, path, {})
                except ApiError as exc:
                    if exc.message.startswith("no route for"):
                        continue
                routed.add((verb, path))
        report_routes = {
            (reports.method(name), f"/{name}") for name in REPORTS
        }
        assert routed == hand_written | report_routes
        assert len(routed) == 17

    def test_the_surface_did_not_grow(self):
        files = ("cli.py", "ui/api.py", "ui/reports.py")
        total = sum(len(_source(name).splitlines()) for name in files)
        assert total <= 1890, total  # cli.py + ui/api.py at the parent


class TestDocs:
    def test_every_report_is_in_both_surface_tables(self):
        api_md = (ROOT / "docs" / "API.md").read_text()
        obs_md = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
        for name in REPORTS:
            verb = reports.method(name)
            assert f"`{verb} /{name}`" in api_md, name
            assert f"`{verb} /{name}" in obs_md, name

    def test_api_md_quotes_each_description(self):
        api_md = " ".join((ROOT / "docs" / "API.md").read_text().split())
        for name, function in REPORTS.items():
            first = " ".join(function.__doc__.split()).split(". ")[0]
            first = first.replace("``", "`").rstrip(".")
            assert first in api_md, f"docs/API.md does not quote {name}"

    def test_help_quotes_the_report_docstring(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["record", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "Flight-recorder digests of the shed, failed" in text


# -- ISSUE 22: a refused query is refused the same way on both surfaces ------

BAD_QUERIES = [
    ("transactions", "SELECT * FROM inventory WHERE nope = 1"),
    ("transactions", "SELECT * FROM inventory WHERE id = 'zz' AND nope = 1"),
    ("transactions", "SELECT * FROM inventory WHERE seq BETWEEN 'a' AND 'z'"),
    ("transactions", "SELECT * FROM inventory WHERE -name = 1"),
    ("transactions", "SELECT id, ABS(name) FROM inventory"),
    ("catalogue", '{"collection": "albums", "filter": {"seq": {"$in": 5}}}'),
    ("catalogue", '{"collection": "albums", "filter": {"title": {"$regex": "("}}}'),
    ("catalogue", '{"collection": "albums", "filter": {"zz": {"$bogus": 1}}}'),
]


class TestBadQueryParity:
    """``repro query`` exits non-zero with the one-line message the HTTP
    surface puts in its 422 — on a plain and on a sharded polystore, on
    populated stores and on empty ones."""

    @pytest.fixture(scope="class")
    def snapshot(self, tmp_path_factory):
        from repro.cli import main

        path = str(tmp_path_factory.mktemp("bad") / "snap")
        assert main(
            ["generate", "--stores", "4", "--albums", "30", "--out", path],
            out=io.StringIO(),
        ) == 0
        return path

    @pytest.mark.parametrize("shards", ["1", "2"])
    @pytest.mark.parametrize("database, query", BAD_QUERIES)
    def test_cli_exit_and_http_422_carry_the_same_line(
        self, snapshot, database, query, shards
    ):
        from repro import cli

        argv = ["query", "--snapshot", snapshot, "--database", database,
                "--query", query, "--shards", shards]
        out = io.StringIO()
        assert cli.main(argv, out=out) == 1
        line, = out.getvalue().splitlines()
        assert line.startswith("error: ") and "Traceback" not in line
        quepa = cli._load(cli.build_parser().parse_args(argv))
        with pytest.raises(ApiError) as err:
            QuepaApi(quepa).handle(
                "POST", "/query", {"database": database, "query": query}
            )
        assert err.value.status == 422
        assert line == f"error: {err.value.message}"
        assert quepa.obs.events.as_dicts(kind="http_internal_error") == []

    @pytest.mark.parametrize("shards", [1, 2])
    def test_an_empty_store_refuses_what_a_populated_one_refuses(self, shards):
        from repro.core.aindex import AIndex
        from repro.core.system import Quepa
        from repro.model.polystore import Polystore
        from repro.sharding import shard_polystore
        from repro.stores import DocumentStore, RelationalStore

        sales, catalogue = RelationalStore(), DocumentStore()
        sales.sql("CREATE TABLE inventory (id TEXT PRIMARY KEY, seq INTEGER)")
        catalogue.create_collection("albums")
        polystore = Polystore()
        polystore.attach("transactions", sales)
        polystore.attach("catalogue", catalogue)
        if shards > 1:
            polystore = shard_polystore(polystore, shards=shards)
        api = QuepaApi(Quepa(polystore, AIndex()))
        for database, query, fragment in (
            ("transactions", "SELECT * FROM inventory WHERE nope = 1",
             "unknown column 'nope'"),
            ("transactions", "SELECT * FROM inventory x WHERE inventory.id = 'a'",
             "unknown table alias 'inventory'"),
            ("catalogue", ["albums", {"zz": {"$bogus": 1}}],
             "unknown query operator '$bogus'"),
            ("catalogue", ["albums", {"seq": {"$in": 5}}], "$in needs a list"),
        ):
            with pytest.raises(ApiError) as err:
                api.handle("POST", "/query", {"database": database, "query": query})
            assert err.value.status == 422, query
            assert fragment in err.value.message
        # ...while a property of the data cannot be met without data.
        answer = api.handle("POST", "/query", {
            "database": "transactions",
            "query": "SELECT * FROM inventory WHERE seq < 'a'",
        })
        assert answer["originals"] == []
