"""A real HTTP server over :class:`~repro.ui.api.QuepaApi` (stdlib only).

The paper's QUEPA "receives inputs and shows the results using a REST
interface". :func:`serve` binds the transport-agnostic API to an actual
``http.server`` endpoint, threaded so exploration sessions can be
driven interactively:

.. code-block:: python

    server = serve(quepa, port=0)            # 0 = pick a free port
    print(server.url)                        # http://127.0.0.1:PORT
    ...                                      # curl it, browse it
    server.shutdown()

Request bodies and responses are JSON. Errors map to their HTTP status
codes (the same codes :class:`ApiError` carries), and malformed input
never costs a connection or a thread: a ``Content-Length`` that is not a
non-negative integer is a 400, a body over :data:`MAX_BODY_BYTES` a 413
refused before it is read, a body that is not a JSON object a 400, a
body shorter than it declared a 408 after :data:`SOCKET_TIMEOUT_S`, and
an exception that escapes the API a JSON 500 plus one
``http_internal_error`` journal event.

Observability rides along: ``GET /metrics`` returns the cumulative
metrics snapshot (``?format=prometheus`` for text exposition, served
with the Prometheus content type), ``GET /trace`` the spans of the
last completed run (``?format=chrome`` for Chrome trace-event JSON,
``?trace_id=`` for one served request),
``GET /events`` the structured event journal, and ``POST /explain``
an EXPLAIN/ANALYZE report — see :mod:`repro.obs` and
docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import json
import threading
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.core.system import Quepa
from repro.ui.api import ApiError, QuepaApi, TextResponse

#: Largest request body the server reads; a longer one is refused (413)
#: by its Content-Length alone.
MAX_BODY_BYTES = 1 << 20
#: Socket timeout of one connection: a client that stops sending (or
#: declares more body than it sends) frees its handler thread after this.
SOCKET_TIMEOUT_S = 30.0


class QuepaHttpServer:
    """A running HTTP endpoint bound to one QUEPA instance."""

    def __init__(self, api: QuepaApi, host: str, port: int) -> None:
        self.api = api
        handler = _make_handler(api)
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True
        )

    def start(self) -> "QuepaHttpServer":
        self._thread.start()
        return self

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def shutdown(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "QuepaHttpServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


def serve(
    quepa: Quepa,
    host: str = "127.0.0.1",
    port: int = 8080,
    server: Any | None = None,
    hub: Any | None = None,
) -> QuepaHttpServer:
    """Start serving ``quepa`` over HTTP; ``port=0`` picks a free port.

    Pass a started :class:`~repro.serving.QuepaServer` as ``server`` to
    route ``POST /query`` through its scheduler (concurrent admission,
    backpressure, deadlines) and expose ``GET /serving`` status. Pass a
    :class:`~repro.cdc.ChangeHub` as ``hub`` to expose ``GET /ingest``.
    """
    api = QuepaApi(quepa, server=server, hub=hub)
    return QuepaHttpServer(api, host, port).start()


def _make_handler(api: QuepaApi) -> type[BaseHTTPRequestHandler]:
    class Handler(BaseHTTPRequestHandler):
        timeout = SOCKET_TIMEOUT_S

        # Quiet: the server is used programmatically and in tests.
        def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
            pass

        def do_GET(self) -> None:  # noqa: N802 (http.server naming)
            self._dispatch("GET")

        def do_POST(self) -> None:  # noqa: N802
            self._dispatch("POST")

        def _dispatch(self, method: str) -> None:
            try:
                body = self._read_body() if method == "POST" else None
                status, payload = 200, api.handle(method, self.path, body)
            except ApiError as exc:
                status, payload = exc.status, exc.to_response()
            except Exception as exc:  # a bug, not bad input: say so
                api.quepa.obs.events.emit(
                    "http_internal_error", severity="error", method=method,
                    path=self.path, error=repr(exc),
                    traceback=traceback.format_exc(),
                )
                message = f"internal error: {type(exc).__name__}: {exc}"
                status, payload = 500, {"error": message, "status": 500}
            self._reply(status, payload)

        def _read_body(self) -> dict[str, Any] | None:
            """The JSON object a POST carries (``None``: no body); the
            length is checked *before* reading, so a bad header can
            neither block this thread nor buffer an unbounded body."""
            header = self.headers.get("Content-Length") or "0"
            if not header.isascii() or not header.isdigit():
                raise ApiError(
                    400, f"Content-Length must be a non-negative integer, "
                         f"got {header!r}"
                )
            # More digits than the cap has is over it, whatever they are
            # (and int() refuses digit strings past a few thousand).
            oversized = len(header) > len(str(MAX_BODY_BYTES))
            if oversized or int(header) > MAX_BODY_BYTES:
                raise ApiError(
                    413, f"request body over {MAX_BODY_BYTES} bytes"
                )
            try:
                raw = self.rfile.read(int(header))
            except TimeoutError:
                raise ApiError(
                    408, f"request body shorter than Content-Length {header}"
                ) from None
            if not raw:
                return None
            try:
                body = json.loads(raw)
            except ValueError:  # JSONDecodeError, or bytes that are not UTF-8
                raise ApiError(400, "invalid JSON body") from None
            if not isinstance(body, dict):
                raise ApiError(400, "request body must be a JSON object")
            return body

        def _reply(self, status: int, payload: dict[str, Any]) -> None:
            if isinstance(payload, TextResponse):
                data = payload.body.encode("utf-8")
                content_type = payload.content_type
            else:
                data = json.dumps(payload, default=str).encode("utf-8")
                content_type = "application/json"
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

    return Handler
