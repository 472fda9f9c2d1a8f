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
codes (the same codes :class:`ApiError` carries).

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
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.core.system import Quepa
from repro.ui.api import ApiError, QuepaApi, TextResponse


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
        # Quiet: the server is used programmatically and in tests.
        def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
            pass

        def do_GET(self) -> None:  # noqa: N802 (http.server naming)
            self._dispatch("GET")

        def do_POST(self) -> None:  # noqa: N802
            self._dispatch("POST")

        def _dispatch(self, method: str) -> None:
            body = None
            if method == "POST":
                length = int(self.headers.get("Content-Length") or 0)
                raw = self.rfile.read(length) if length else b""
                if raw:
                    try:
                        body = json.loads(raw)
                    except json.JSONDecodeError:
                        self._reply(400, {"error": "invalid JSON body",
                                          "status": 400})
                        return
            try:
                response = api.handle(method, self.path, body)
            except ApiError as exc:
                self._reply(exc.status, exc.to_response())
                return
            self._reply(200, response)

        def _reply(self, status: int, payload: dict[str, Any]) -> None:
            if isinstance(payload, TextResponse):
                data = payload.body.encode("utf-8")
                content_type = payload.content_type
            else:
                data = json.dumps(payload).encode("utf-8")
                content_type = "application/json"
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

    return Handler
