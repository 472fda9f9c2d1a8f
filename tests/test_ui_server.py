"""Tests for the HTTP server over the QUEPA API (real sockets)."""

import json
import urllib.error
import urllib.request

import pytest

from repro.ui.server import serve

QUERY = "SELECT * FROM inventory WHERE name LIKE '%wish%'"


@pytest.fixture
def server(mini_quepa):
    running = serve(mini_quepa, port=0)
    yield running
    running.shutdown()


def get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=5) as response:
        return response.status, json.loads(response.read())


def post(server, path, body):
    data = json.dumps(body).encode()
    request = urllib.request.Request(
        server.url + path, data=data,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=5) as response:
        return response.status, json.loads(response.read())


class TestHttpEndpoints:
    def test_query_over_http(self, server):
        status, payload = post(
            server, "/query",
            {"database": "transactions", "query": QUERY},
        )
        assert status == 200
        assert len(payload["augmented"]) == 3
        assert payload["augmented"][0]["band"] == "strong"

    def test_databases_over_http(self, server):
        status, payload = get(server, "/databases")
        assert status == 200
        assert {d["name"] for d in payload["databases"]} == {
            "transactions", "catalogue", "discount", "similar",
        }

    def test_object_over_http(self, server):
        status, payload = get(server, "/object/catalogue.albums.d1")
        assert status == 200
        assert payload["value"]["title"] == "Wish"

    def test_exploration_over_http(self, server):
        __, opened = post(
            server, "/explore",
            {"database": "transactions", "query": QUERY},
        )
        sid = opened["session"]
        __, step = post(
            server, f"/explore/{sid}/select",
            {"key": "transactions.inventory.a32"},
        )
        assert step["links"][0]["key"] == "catalogue.albums.d1"
        status, closed = post(server, f"/explore/{sid}/close", {})
        assert status == 200
        assert closed["closed"] is True

    def test_error_status_codes_propagate(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            post(server, "/query", {"database": "nope", "query": QUERY})
        assert err.value.code == 404
        body = json.loads(err.value.read())
        assert body["status"] == 404

    def test_invalid_json_body_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/query", data=b"{broken",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=5)
        assert err.value.code == 400

    def test_metrics_over_http(self, server):
        post(server, "/query",
             {"database": "transactions", "query": QUERY, "level": 1})
        status, payload = get(server, "/metrics")
        assert status == 200
        names = {entry["name"] for entry in payload["metrics"]}
        assert "store_call_seconds" in names
        assert "cache_probes_total" in names

    def test_trace_over_http(self, server):
        post(server, "/query",
             {"database": "transactions", "query": QUERY, "level": 1})
        status, payload = get(server, "/trace")
        assert status == 200
        summary = payload["trace"]["summary"]
        assert len(summary["by_kind"]) >= 3
        assert summary["spans"] > 0

    def test_prometheus_scrape_over_http(self, server):
        from repro.obs import parse_prometheus_text

        post(server, "/query",
             {"database": "transactions", "query": QUERY, "level": 1})
        with urllib.request.urlopen(
            server.url + "/metrics?format=prometheus", timeout=5
        ) as response:
            assert response.status == 200
            content_type = response.headers["Content-Type"]
            body = response.read().decode("utf-8")
        # Served raw with the Prometheus content type, not as JSON.
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        names = {row["name"] for row in parse_prometheus_text(body)}
        assert "store_queries_total" in names

    def test_chrome_trace_over_http(self, server):
        post(server, "/query",
             {"database": "transactions", "query": QUERY, "level": 1})
        status, payload = get(server, "/trace?format=chrome")
        assert status == 200
        assert payload["traceEvents"]
        assert all(event["ph"] == "X" for event in payload["traceEvents"])

    def test_events_over_http(self, server):
        post(server, "/query",
             {"database": "transactions", "query": QUERY, "level": 1})
        status, payload = get(
            server, "/events?kind=augmentation_completed"
        )
        assert status == 200
        assert payload["events"]
        assert payload["events"][0]["attrs"]["database"] == "transactions"

    def test_explain_over_http(self, server):
        status, payload = post(
            server, "/explain",
            {"database": "transactions", "query": QUERY, "level": 1,
             "analyze": True},
        )
        assert status == 200
        report = payload["explain"]
        assert report["query"]["store"]["access_path"] == "full_scan"
        assert report["actual"]["augmented_objects"] > 0
        status, payload = post(
            server, "/explain",
            {"database": "transactions", "level": 1, "analyze": True,
             "query": "SELECT * FROM inventory WHERE price >= 12 AND price < 20"},
        )
        assert status == 200
        store = payload["explain"]["query"]["store"]
        assert store["access_path"] == "index_range"
        assert store["estimated_rows"] == store["actual_rows"] == 2

    def test_unknown_route_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            get(server, "/teapot")
        assert err.value.code == 404

    def test_concurrent_requests(self, server):
        """The threaded server handles parallel clients."""
        import concurrent.futures

        def one_query(__):
            return post(
                server, "/query",
                {"database": "transactions", "query": QUERY},
            )[0]

        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            statuses = list(pool.map(one_query, range(8)))
        assert statuses == [200] * 8

    def test_context_manager_shuts_down(self, mini_quepa):
        with serve(mini_quepa, port=0) as running:
            url = running.url
            status, __ = get(running, "/databases")
            assert status == 200
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(url + "/databases", timeout=1)
