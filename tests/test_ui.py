"""Tests for the REST-shaped API and the renderers."""

import json

import pytest

from repro.obs import parse_prometheus_text
from repro.ui import AnsiRenderer, ApiError, QuepaApi, TextRenderer, probability_band
from repro.ui.api import SESSION_CAPACITY, TextResponse

QUERY = "SELECT * FROM inventory WHERE name LIKE '%wish%'"


@pytest.fixture
def api(mini_quepa) -> QuepaApi:
    return QuepaApi(mini_quepa)


class TestQueryEndpoint:
    def test_augmented_query(self, api):
        response = api.handle(
            "POST", "/query",
            {"database": "transactions", "query": QUERY, "level": 0},
        )
        assert len(response["originals"]) == 1
        assert len(response["augmented"]) == 3
        assert response["stats"]["augmenter"] == "sequential"
        top = response["augmented"][0]
        assert top["key"] == "catalogue.albums.d1"
        assert top["band"] == "strong"
        assert top["source"] == "transactions.inventory.a32"

    def test_query_without_augmentation(self, api):
        response = api.handle(
            "POST", "/query",
            {"database": "transactions", "query": QUERY, "augment": False},
        )
        assert response["augmented"] == []

    def test_query_with_config(self, api):
        response = api.handle(
            "POST", "/query",
            {
                "database": "transactions",
                "query": QUERY,
                "config": {"augmenter": "batch", "batch_size": 4},
            },
        )
        assert response["stats"]["augmenter"] == "batch"

    def test_missing_field_is_400(self, api):
        with pytest.raises(ApiError) as err:
            api.handle("POST", "/query", {"database": "transactions"})
        assert err.value.status == 400

    def test_unknown_database_is_404(self, api):
        with pytest.raises(ApiError) as err:
            api.handle("POST", "/query", {"database": "zz", "query": QUERY})
        assert err.value.status == 404

    def test_aggregate_query_is_422(self, api):
        with pytest.raises(ApiError) as err:
            api.handle(
                "POST", "/query",
                {"database": "transactions",
                 "query": "SELECT COUNT(*) FROM inventory"},
            )
        assert err.value.status == 422

    def test_bad_config_field_is_400(self, api):
        with pytest.raises(ApiError) as err:
            api.handle(
                "POST", "/query",
                {"database": "transactions", "query": QUERY,
                 "config": {"warp": 9}},
            )
        assert err.value.status == 400

    def test_negative_level_is_400(self, api):
        with pytest.raises(ApiError) as err:
            api.handle(
                "POST", "/query",
                {"database": "transactions", "query": QUERY, "level": -1},
            )
        assert err.value.status == 400

    def test_unknown_augmenter_is_400(self, api):
        with pytest.raises(ApiError) as err:
            api.handle(
                "POST", "/query",
                {"database": "transactions", "query": QUERY,
                 "config": {"augmenter": "teleport"}},
            )
        assert err.value.status == 400


class TestExplorationEndpoints:
    def open(self, api):
        return api.handle(
            "POST", "/explore",
            {"database": "transactions", "query": QUERY},
        )

    def test_open_returns_results(self, api):
        response = self.open(api)
        assert response["session"] == "s1"
        assert response["results"][0]["key"] == "transactions.inventory.a32"

    def test_select_returns_ranked_links(self, api):
        sid = self.open(api)["session"]
        response = api.handle(
            "POST", f"/explore/{sid}/select",
            {"key": "transactions.inventory.a32"},
        )
        probabilities = [l["probability"] for l in response["links"]]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_select_off_path_is_409(self, api):
        sid = self.open(api)["session"]
        with pytest.raises(ApiError) as err:
            api.handle(
                "POST", f"/explore/{sid}/select",
                {"key": "transactions.inventory.a33"},
            )
        assert err.value.status == 409

    def test_state_reflects_walk(self, api):
        sid = self.open(api)["session"]
        api.handle("POST", f"/explore/{sid}/select",
                   {"key": "transactions.inventory.a32"})
        state = api.handle("GET", f"/explore/{sid}")
        assert state["path"] == ["transactions.inventory.a32"]
        assert len(state["steps"]) == 1

    def test_close_records_path(self, api, mini_quepa):
        sid = self.open(api)["session"]
        api.handle("POST", f"/explore/{sid}/select",
                   {"key": "transactions.inventory.a32"})
        api.handle("POST", f"/explore/{sid}/select",
                   {"key": "catalogue.albums.d1"})
        api.handle("POST", f"/explore/{sid}/select",
                   {"key": "similar.Item.i1"})
        response = api.handle("POST", f"/explore/{sid}/close")
        assert response["closed"] is True
        assert len(response["path"]) == 3
        assert mini_quepa.paths.visits(tuple(
            parse_keys_helper(response["path"])
        )) == 1

    def test_closed_session_is_gone(self, api):
        sid = self.open(api)["session"]
        api.handle("POST", f"/explore/{sid}/close")
        with pytest.raises(ApiError) as err:
            api.handle("GET", f"/explore/{sid}")
        assert err.value.status == 404

    def test_sessions_are_independent(self, api):
        first = self.open(api)["session"]
        second = self.open(api)["session"]
        assert first != second
        api.handle("POST", f"/explore/{first}/select",
                   {"key": "transactions.inventory.a32"})
        state = api.handle("GET", f"/explore/{second}")
        assert state["steps"] == []

    def test_the_least_recent_session_is_evicted_at_capacity(self, api):
        """Sessions are bounded: opening one past ``SESSION_CAPACITY``
        evicts the least recently used, whose id then answers the 404
        of an unknown one, and the eviction shows in the LRU's stats."""
        sids = [
            self.open(api)["session"] for __ in range(SESSION_CAPACITY + 1)
        ]
        with pytest.raises(ApiError) as evicted:
            api.handle("GET", f"/explore/{sids[0]}")
        with pytest.raises(ApiError) as unknown:
            api.handle("GET", "/explore/s-unknown")
        assert evicted.value.status == unknown.value.status == 404
        assert evicted.value.message == f"no exploration session {sids[0]!r}"
        for sid in sids[1:]:
            assert api.handle("GET", f"/explore/{sid}")["session"] == sid
        stats = api._sessions.stats()
        assert stats["evictions"] == 1
        assert stats["size"] == stats["capacity"] == SESSION_CAPACITY

    def test_bad_key_is_400(self, api):
        sid = self.open(api)["session"]
        with pytest.raises(ApiError) as err:
            api.handle("POST", f"/explore/{sid}/select", {"key": "junk"})
        assert err.value.status == 400


def parse_keys_helper(texts):
    from repro.model.objects import GlobalKey

    return [GlobalKey.parse(text) for text in texts]


class TestOtherEndpoints:
    def test_get_object(self, api):
        response = api.handle("GET", "/object/catalogue.albums.d1")
        assert response["value"]["title"] == "Wish"
        assert response["collection"] == "albums"

    def test_get_object_missing_is_404(self, api):
        with pytest.raises(ApiError) as err:
            api.handle("GET", "/object/catalogue.albums.nope")
        assert err.value.status == 404

    def test_databases(self, api):
        response = api.handle("GET", "/databases")
        engines = {d["name"]: d["engine"] for d in response["databases"]}
        assert engines["transactions"] == "relational"
        assert engines["discount"] == "keyvalue"

    def test_stats_before_any_run(self, api):
        assert api.handle("GET", "/stats") == {"last_run": None}

    def test_stats_after_run(self, api):
        api.handle("POST", "/query",
                   {"database": "transactions", "query": QUERY})
        response = api.handle("GET", "/stats")
        assert response["last_run"]["features"]["engine"] == "relational"

    def test_stats_carries_observability_fields(self, api):
        api.handle("POST", "/query",
                   {"database": "transactions", "query": QUERY, "level": 1})
        last = api.handle("GET", "/stats")["last_run"]
        assert last["queries_by_database"]["transactions"] >= 1
        assert last["span_summary"]["store_call"]["count"] >= 1
        assert last["skipped_flushes"] == 0

    def test_metrics_endpoint(self, api):
        api.handle("POST", "/query",
                   {"database": "transactions", "query": QUERY, "level": 1})
        metrics = api.handle("GET", "/metrics")["metrics"]
        by_name = {}
        for entry in metrics:
            by_name.setdefault(entry["name"], []).append(entry)
        latencies = by_name["store_call_seconds"]
        databases = {entry["labels"]["database"] for entry in latencies}
        assert "transactions" in databases
        assert len(databases) >= 2  # level 1 touched other stores
        assert all(entry["type"] == "histogram" for entry in latencies)
        assert by_name["cache_probes_total"][0]["value"] > 0

    def test_metrics_accumulate_across_queries(self, api):
        def issued():
            metrics = api.handle("GET", "/metrics")["metrics"]
            return sum(
                entry["value"] for entry in metrics
                if entry["name"] == "store_queries_total"
            )

        api.handle("POST", "/query",
                   {"database": "transactions", "query": QUERY})
        first = issued()
        api.handle("POST", "/query",
                   {"database": "transactions", "query": QUERY})
        assert issued() > first

    def test_trace_endpoint(self, api):
        api.handle("POST", "/query",
                   {"database": "transactions", "query": QUERY, "level": 1})
        trace = api.handle("GET", "/trace")["trace"]
        kinds = set(trace["summary"]["by_kind"])
        assert {"plan", "store_call"} <= kinds
        assert len(kinds) >= 3
        assert trace["summary"]["spans"] == len(trace["spans"])
        names = {span["name"] for span in trace["spans"]}
        assert "store_call" in names

    def test_trace_resets_per_run(self, api):
        api.handle("POST", "/query",
                   {"database": "transactions", "query": QUERY, "level": 1})
        deep = api.handle("GET", "/trace")["trace"]["summary"]["spans"]
        api.handle("POST", "/query",
                   {"database": "transactions", "query": QUERY,
                    "augment": False})
        shallow = api.handle("GET", "/trace")["trace"]["summary"]["spans"]
        assert shallow < deep  # the tracer only holds the last run

    def test_trace_of_one_served_request(self, mini_quepa):
        from repro.obs import FlightRecorder
        from repro.serving import QuepaServer, ServingConfig

        with QuepaServer(mini_quepa, ServingConfig(workers=1)) as server:
            server.scheduler.recorder = FlightRecorder(slow_threshold=1e-9)
            api = QuepaApi(mini_quepa, server=server)
            for level in (1, 0):
                api.handle("POST", "/query", {
                    "database": "transactions", "query": QUERY,
                    "level": level,
                })
            # A flight-recorder digest's trace id resolves to its spans.
            digest = api.handle("GET", "/requests")["requests"][-1]
            trace_id = digest["trace_id"]
            trace = api.handle("GET", f"/trace?trace_id={trace_id}")["trace"]
            assert {span["trace_id"] for span in trace["spans"]} == {trace_id}
            assert trace["summary"]["spans"] == len(trace["spans"])
            assert trace["summary"]["by_kind"]["request"]["count"] == 1
            everything = api.handle("GET", "/trace")["trace"]
            assert len(everything["spans"]) > len(trace["spans"])
            chrome = api.handle(
                "GET", f"/trace?trace_id={trace_id}&format=chrome"
            )
            timed = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
            assert len(timed) == len(trace["spans"])
            # Evicted (or never seen): a clear 404, not an empty trace.
            mini_quepa.obs.tracer.max_spans = 1
            api.handle("POST", "/query",
                       {"database": "transactions", "query": QUERY})
            with pytest.raises(ApiError) as err:
                api.handle("GET", f"/trace?trace_id={trace_id}")
            assert err.value.status == 404
            assert "evicted" in err.value.message

    def test_unknown_route_is_404(self, api):
        with pytest.raises(ApiError) as err:
            api.handle("GET", "/teapot")
        assert err.value.status == 404

    def test_error_payload_shape(self, api):
        try:
            api.handle("GET", "/teapot")
        except ApiError as err:
            assert err.to_response() == {
                "error": err.message, "status": 404,
            }


class TestObservabilityEndpoints:
    def test_metrics_prometheus_format(self, api):
        api.handle("POST", "/query",
                   {"database": "transactions", "query": QUERY, "level": 1})
        response = api.handle("GET", "/metrics?format=prometheus")
        assert isinstance(response, TextResponse)
        assert response.content_type.startswith("text/plain")
        assert "# TYPE" in response.body
        rows = parse_prometheus_text(response.body)
        names = {row["name"] for row in rows}
        assert "store_queries_total" in names
        assert "store_call_seconds_bucket" in names

    def test_metrics_unknown_format_is_400(self, api):
        with pytest.raises(ApiError) as err:
            api.handle("GET", "/metrics?format=xml")
        assert err.value.status == 400

    def test_trace_chrome_format(self, api):
        api.handle("POST", "/query",
                   {"database": "transactions", "query": QUERY, "level": 1})
        payload = api.handle("GET", "/trace?format=chrome")
        events = payload["traceEvents"]
        assert events and all(event["ph"] == "X" for event in events)
        json.dumps(payload)

    def test_events_endpoint_with_filters(self, api):
        api.handle("POST", "/query",
                   {"database": "transactions", "query": QUERY, "level": 1})
        response = api.handle("GET", "/events")
        kinds = {event["kind"] for event in response["events"]}
        assert "augmentation_completed" in kinds
        assert response["stats"]["emitted"] >= 1
        filtered = api.handle(
            "GET", "/events?kind=augmentation_completed&limit=1"
        )
        assert len(filtered["events"]) == 1

    def test_events_bad_params_are_400(self, api):
        with pytest.raises(ApiError) as err:
            api.handle("GET", "/events?limit=soon")
        assert err.value.status == 400
        with pytest.raises(ApiError) as err:
            api.handle("GET", "/events?min_severity=loud")
        assert err.value.status == 400

    def test_explain_endpoint(self, api):
        response = api.handle(
            "POST", "/explain",
            {"database": "transactions", "query": QUERY, "level": 1},
        )
        report = response["explain"]
        assert report["query"]["store"]["access_path"] == "full_scan"
        assert report["plan"]["planned_fetches"] > 0
        assert report["execution"]["estimated_queries"] >= 1
        assert "actual" not in report
        ranged = api.handle(
            "POST", "/explain",
            {"database": "transactions", "level": 1,
             "query": "SELECT * FROM inventory WHERE price >= 12 AND price < 20"},
        )["explain"]["query"]["store"]
        assert ranged["access_path"] == "index_range"
        assert ranged["index"] == "inventory.price"
        assert ranged["estimated_rows"] == 2

    def test_explain_analyze_with_config(self, api):
        response = api.handle(
            "POST", "/explain",
            {"database": "transactions", "query": QUERY, "level": 1,
             "analyze": True, "config": {"augmenter": "batch"}},
        )
        report = response["explain"]
        assert report["config"]["source"] == "explicit"
        assert report["execution"]["batching"] is True
        assert report["actual"]["queries_issued"] >= 1

    def test_explain_missing_field_is_400(self, api):
        with pytest.raises(ApiError) as err:
            api.handle("POST", "/explain", {"database": "transactions"})
        assert err.value.status == 400

    def test_query_string_ignored_on_other_routes(self, api):
        response = api.handle("GET", "/databases?whatever=1")
        assert len(response["databases"]) == 4


class TestRenderers:
    def test_probability_bands(self):
        assert probability_band(0.95) == "strong"
        assert probability_band(0.9) == "strong"
        assert probability_band(0.7) == "likely"
        assert probability_band(0.4) == "weak"
        assert probability_band(0.1) == "tenuous"

    def test_text_renderer_groups_links(self, mini_quepa):
        answer = mini_quepa.augmented_search("transactions", QUERY)
        text = TextRenderer().render_answer(answer)
        assert "transactions.inventory.a32" in text
        assert "[strong 0.90] catalogue.albums.d1" in text

    def test_text_renderer_truncates_values(self, mini_quepa):
        answer = mini_quepa.augmented_search("transactions", QUERY)
        text = TextRenderer(value_width=10).render_answer(answer)
        assert "..." in text

    def test_ranked_links(self, mini_quepa):
        from repro.model.objects import GlobalKey

        links = mini_quepa.augment_object(
            GlobalKey.parse("transactions.inventory.a32")
        )
        text = TextRenderer().render_links(links)
        assert text.startswith("1. =>")

    def test_ansi_renderer_colors(self, mini_quepa):
        answer = mini_quepa.augmented_search("transactions", QUERY)
        text = AnsiRenderer().render_answer(answer)
        assert "\x1b[32m" in text  # a strong (green) link
        assert "\x1b[0m" in text
