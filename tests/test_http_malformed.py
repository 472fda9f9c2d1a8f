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
