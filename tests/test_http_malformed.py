"""Malformed HTTP input gets a JSON error reply, never a dead socket.

Every case talks to ``ui.server.serve`` over a real socket with a one
second budget: the reply must be JSON with a 4xx/5xx status, and no
``ThreadingHTTPServer`` handler thread may stay blocked afterwards
(ISSUE 17, satellite 2). At the parent commit each of these either got
an empty reply (the handler thread died with a traceback), hung until
the client gave up, or answered 200.
"""

import json
import socket
import threading
import time

import pytest

from repro.serving import QuepaServer, ServingConfig
from repro.ui import server as ui_server
from repro.ui.server import MAX_BODY_BYTES, serve

QUERY = "SELECT * FROM inventory WHERE name LIKE '%wish%'"


@pytest.fixture
def running(mini_quepa):
    endpoint = serve(mini_quepa, port=0)
    yield endpoint
    endpoint.shutdown()


def exchange(endpoint, request: bytes, timeout: float = 1.0):
    """Send raw bytes, read to EOF; returns ``(status, JSON payload)``."""
    with socket.create_connection(endpoint.address, timeout=timeout) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head, "the server closed the socket without a reply"
    assert b"application/json" in head
    return int(head.split()[1]), json.loads(body)


def post(endpoint, path: str, body: bytes, length: str | None = None):
    length = str(len(body)) if length is None else length
    head = (
        f"POST {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {length}\r\n\r\n"
    )
    return exchange(endpoint, head.encode() + body)


def get(endpoint, path: str):
    return exchange(endpoint, f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())


def assert_no_handler_blocked():
    deadline = time.monotonic() + 1.0
    while time.monotonic() < deadline:
        busy = [
            thread.name
            for thread in threading.enumerate()
            if "process_request_thread" in thread.name
        ]
        if not busy:
            return
        time.sleep(0.01)
    raise AssertionError(f"handler threads still blocked: {busy}")


def as_body(payload) -> bytes:
    return json.dumps(payload).encode()


class TestContentLength:
    @pytest.mark.parametrize(
        "length", ["abc", "-1", "1.5", pytest.param("٣", id="non-ascii-digit")]
    )
    def test_non_integer_or_negative_is_400(self, running, length):
        body = as_body({"database": "transactions", "query": QUERY})
        status, payload = exchange(
            running,
            b"POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: "
            + length.encode() + b"\r\n\r\n" + body,
        )
        assert status == payload["status"] == 400
        assert "Content-Length" in payload["error"]
        assert_no_handler_blocked()

    @pytest.mark.parametrize("length", [
        pytest.param(str(MAX_BODY_BYTES + 1), id="cap-plus-one"),
        pytest.param("9" * 5000, id="5000-digits"),
    ])
    def test_oversized_body_is_413_before_it_is_read(self, running, length):
        # Only the header is sent: a server that tried to read the body
        # first would block until the client hung up.
        status, payload = post(running, "/query", b"", length=length)
        assert status == payload["status"] == 413
        assert str(MAX_BODY_BYTES) in payload["error"]
        assert_no_handler_blocked()

    def test_body_at_the_cap_is_read(self, running):
        body = as_body({"database": "transactions", "query": QUERY})
        body += b" " * (MAX_BODY_BYTES - len(body))  # exactly the cap
        status, payload = post(running, "/query", body)
        assert status == 200 and len(payload["originals"]) == 1

    def test_short_body_frees_its_thread(self, mini_quepa, monkeypatch):
        monkeypatch.setattr(ui_server, "SOCKET_TIMEOUT_S", 0.2)
        with serve(mini_quepa, port=0) as endpoint:
            status, payload = post(
                endpoint, "/query", b'{"database":', length="500"
            )
        assert status == payload["status"] == 408
        assert_no_handler_blocked()


class TestBody:
    @pytest.mark.parametrize("body", [b'"hello"', b"[1, 2]", b"7", b"null"])
    def test_non_object_json_is_400(self, running, body):
        status, payload = post(running, "/query", body)
        assert status == payload["status"] == 400
        assert "JSON object" in payload["error"]

    def test_bytes_that_are_not_utf8_are_400(self, running):
        status, payload = post(running, "/query", b'{"query": "\xff\xfe"}')
        assert status == 400 and payload["error"] == "invalid JSON body"

    @pytest.mark.parametrize("path", ["/query", "/explain", "/plan"])
    def test_level_that_is_not_a_number_is_400(self, running, path):
        status, payload = post(running, path, as_body(
            {"database": "transactions", "query": QUERY, "level": "abc"}
        ))
        assert status == payload["status"] == 400
        assert "level" in payload["error"] and "'abc'" in payload["error"]
        assert_no_handler_blocked()

    @pytest.mark.parametrize("path", ["/query", "/explain"])
    def test_config_field_of_the_wrong_type_is_400(self, running, path):
        status, payload = post(running, path, as_body({
            "database": "transactions", "query": QUERY,
            "config": {"batch_size": "x"},
        }))
        assert status == 400
        assert "config.batch_size" in payload["error"]
        status, payload = post(running, path, as_body({
            "database": "transactions", "query": QUERY, "config": [1],
        }))
        assert status == 400 and "config" in payload["error"]

    @pytest.mark.parametrize("path", ["/query", "/explain"])
    def test_a_config_with_a_probability_floor_is_400(self, running, path):
        """The floor is a planner input (``LogicalQuery.min_probability``),
        not a config field: a per-call one used to be accepted and then
        silently dropped."""
        status, payload = post(running, path, as_body({
            "database": "transactions", "query": QUERY,
            "config": {"min_probability": 0.95},
        }))
        assert status == payload["status"] == 400
        assert "unknown config fields ['min_probability']" in payload["error"]

    def test_deadline_is_validated_without_a_server_too(self, running):
        for deadline, fragment in (("abc", "a number"), (0, "> 0")):
            status, payload = post(running, "/query", as_body({
                "database": "transactions", "query": QUERY,
                "deadline": deadline,
            }))
            assert status == 400
            assert "deadline" in payload["error"]
            assert fragment in payload["error"]


class TestSameAnswerWithAndWithoutAServer:
    def test_requests_limit_is_validated_either_way(self, mini_quepa, running):
        status, payload = get(running, "/requests?limit=x")
        assert status == 400 and "limit" in payload["error"]
        config = ServingConfig(workers=1)
        with QuepaServer(mini_quepa, config) as scheduler:
            with serve(mini_quepa, port=0, server=scheduler) as endpoint:
                served = get(endpoint, "/requests?limit=x")
                assert served == (status, payload)
                status, payload = post(endpoint, "/query", as_body({
                    "database": "transactions", "query": QUERY,
                    "deadline": "abc",
                }))
                assert status == 400 and "deadline" in payload["error"]


class TestInternalError:
    def test_escaped_exception_is_a_json_500_and_one_event(
        self, running, mini_quepa, monkeypatch
    ):
        def boom(method, path, body=None):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(running.api, "handle", boom)
        status, payload = get(running, "/databases")
        assert status == payload["status"] == 500
        assert "RuntimeError: wires crossed" in payload["error"]
        events = mini_quepa.obs.events.as_dicts(kind="http_internal_error")
        assert len(events) == 1
        assert events[0]["severity"] == "error"
        assert events[0]["attrs"]["path"] == "/databases"
        assert_no_handler_blocked()


class TestBadQuery:
    """ISSUE 22: a query the store refuses is the client's error. At the
    parent the ``QueryError``s came back as 500 through the catch-all,
    and ``BETWEEN`` on mismatched types, ``ABS(text)``, ``$in: 5`` or a
    ``$regex`` that does not compile escaped as raw exceptions: the
    "internal error" 500 plus an ``http_internal_error`` event."""

    @pytest.mark.parametrize("database, query, fragment", [
        ("transactions", "SELECT * FROM inventory WHERE nope = 1",
         "unknown column 'nope'"),
        ("transactions",
         "SELECT * FROM inventory WHERE id = 'zz' AND nope = 1",
         "unknown column 'nope'"),
        ("transactions", "SELECT * FROM inventory WHERE price < 'a'",
         "type error in <"),
        ("transactions",
         "SELECT * FROM inventory WHERE price BETWEEN 'a' AND 'z'",
         "type error in BETWEEN"),
        ("transactions", "SELECT * FROM inventory WHERE -name = 1",
         "type error in unary -"),
        ("transactions", "SELECT id, ABS(name) FROM inventory",
         "type error in ABS"),
        ("catalogue", {"collection": "albums", "filter": {"year": {"$in": 5}}},
         "$in needs a list"),
        ("catalogue",
         {"collection": "albums", "filter": {"title": {"$regex": "("}}},
         "invalid $regex"),
        ("catalogue",
         {"collection": "albums", "filter": {"zz": {"$bogus": 1}}},
         "unknown query operator '$bogus'"),
    ])
    def test_refused_query_is_a_422_with_the_message(
        self, running, mini_quepa, database, query, fragment
    ):
        status, payload = post(
            running, "/query", as_body({"database": database, "query": query})
        )
        assert status == payload["status"] == 422
        assert fragment in payload["error"]
        assert "Traceback" not in payload["error"]
        assert mini_quepa.obs.events.as_dicts(kind="http_internal_error") == []
        assert_no_handler_blocked()

    def test_same_status_through_the_serving_layer(self, mini_quepa):
        with QuepaServer(mini_quepa, ServingConfig(workers=1)) as scheduler:
            with serve(mini_quepa, port=0, server=scheduler) as endpoint:
                status, payload = post(endpoint, "/query", as_body({
                    "database": "transactions",
                    "query": "SELECT * FROM inventory WHERE nope = 1",
                }))
        assert status == 422 and "unknown column 'nope'" in payload["error"]
