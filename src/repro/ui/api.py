"""A REST-shaped, transport-agnostic API over one QUEPA instance.

Seventeen (method, path) pairs mirror what the paper's demo UI calls.
Six are written here: ``POST /query`` (augmented search; body
``database``, ``query``, ``level``, ``augment``, ``config`` and, with a
serving layer, ``session``, ``deadline``), the exploration
session — ``POST /explore`` (body ``database``, ``query``), ``GET
/explore/{sid}``, ``POST /explore/{sid}/select`` (body ``key``), ``POST
/explore/{sid}/close`` — and ``GET /object/{global_key}``. The other
eleven are the reports of :data:`repro.ui.reports.REPORTS`, each served
at ``/<name>`` with the verb :func:`~repro.ui.reports.method` gives it
and its parameters read from the URL query string (GET) or the JSON
body (POST); the report function's docstring is the endpoint's
description (docs/API.md quotes them).

Requests and responses are plain dicts that serialize to JSON as-is;
every data object is rendered with its global key, payload, probability
and probability *band* (the paper's color coding). Errors surface as
:class:`ApiError` with an HTTP-like status code; malformed input of any
field is a 400 naming the field (one coercion, in
:func:`repro.ui.reports.bind`).
"""

from __future__ import annotations

import itertools
import threading
from contextlib import nullcontext
from urllib.parse import parse_qs
from typing import Any, Mapping

from repro.core.cache import BoundedLru
from repro.core.exploration import ExplorationSession
from repro.core.search import AugmentedAnswer
from repro.core.system import Quepa
from repro.core.augmentation import AugmentationConfig
from repro.errors import (
    InvalidGlobalKeyError,
    KeyNotFoundError,
    NotAugmentableError,
    QueryError,
    ReproError,
    RequestDeadlineExceeded,
    ServerBusy,
    UnknownAugmenterError,
    UnknownDatabaseError,
)
from repro.model.objects import AugmentedObject, DataObject, GlobalKey
from repro.ui import reports
from repro.ui.render import probability_band
from repro.ui.reports import ReportError, Subject, TextResponse  # noqa: F401


#: Exploration sessions kept open at once. Opening one more evicts the
#: least recently used; its id then answers 404, like an unknown one.
SESSION_CAPACITY = 256


class ApiError(Exception):
    """An API-level failure with an HTTP-like status code."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message

    def to_response(self) -> dict[str, Any]:
        return {"error": self.message, "status": self.status}


def _object_payload(obj: DataObject) -> dict[str, Any]:
    return {
        "key": str(obj.key),
        "database": obj.key.database,
        "collection": obj.key.collection,
        "value": obj.value,
        "probability": obj.probability,
        "band": probability_band(obj.probability),
    }


def _augmented_payload(entry: AugmentedObject) -> dict[str, Any]:
    payload = _object_payload(entry.object)
    payload["source"] = str(entry.source) if entry.source else None
    payload["path"] = [str(step) for step in entry.path]
    return payload


def _answer_payload(answer: AugmentedAnswer) -> dict[str, Any]:
    return {
        "originals": [_object_payload(obj) for obj in answer.originals],
        "augmented": [_augmented_payload(e) for e in answer.augmented],
        "stats": reports.answer_stats(answer.stats),
    }


class QuepaApi:
    """Routes REST-shaped requests onto a :class:`Quepa` instance."""

    def __init__(self, quepa: Quepa, server=None, hub=None) -> None:
        self.quepa = quepa
        #: Optional :class:`~repro.serving.QuepaServer`. When attached,
        #: POST /query runs through its scheduler — concurrently, with
        #: admission control — instead of under the global lock, and
        #: the serving/requests reports have something to read.
        self.server = server
        #: Optional :class:`~repro.cdc.hub.ChangeHub`, read by the
        #: ingest report.
        self.hub = hub
        self._sessions: BoundedLru[str, ExplorationSession] = BoundedLru(
            SESSION_CAPACITY
        )
        self._session_ids = itertools.count(1)
        # Without a serving layer, one QUEPA instance serves one query
        # at a time (the classic runtime resets per-run state); the
        # lock serializes those requests. With a server attached,
        # queries bypass it and scheduling happens in repro.serving.
        self._lock = threading.Lock()

    # -- generic dispatch ----------------------------------------------------

    def handle(
        self, method: str, path: str, body: Mapping[str, Any] | None = None
    ) -> dict[str, Any]:
        """Dispatch one request; raises :class:`ApiError` on failure."""
        body = body or {}
        path, _, query_string = path.partition("?")
        parts = [part for part in path.split("/") if part]
        # Last value wins for repeated parameters, like most web stacks.
        params = {
            key: values[-1]
            for key, values in parse_qs(query_string).items()
        }
        # The scheduled path takes no lock: concurrency control lives in
        # the serving layer, not in this process-wide mutex.
        scheduled = self.server is not None and (
            method.upper(), parts
        ) == ("POST", ["query"])
        try:
            with nullcontext() if scheduled else self._lock:
                return self._route(method.upper(), parts, body, params)
        except ApiError:
            raise
        except ReportError as exc:
            raise ApiError(exc.status, exc.message) from exc
        except ServerBusy as exc:
            raise ApiError(503, str(exc)) from exc
        except RequestDeadlineExceeded as exc:
            raise ApiError(504, str(exc)) from exc
        except (NotAugmentableError, QueryError) as exc:
            raise ApiError(422, str(exc)) from exc
        except (UnknownDatabaseError, KeyNotFoundError) as exc:
            raise ApiError(404, str(exc)) from exc
        except (InvalidGlobalKeyError, UnknownAugmenterError) as exc:
            raise ApiError(400, str(exc)) from exc
        except ReproError as exc:
            raise ApiError(500, str(exc)) from exc

    def _route(
        self,
        method: str,
        parts: list[str],
        body: Mapping[str, Any],
        params: Mapping[str, str],
    ) -> dict[str, Any]:
        match (method, parts):
            case ("POST", ["query"]):
                return self.query(**reports.bind(self.query, body))
            case ("POST", ["explore"]):
                return self.open_exploration(
                    **reports.bind(self.open_exploration, body)
                )
            case ("GET", ["explore", sid]):
                return self.exploration_state(sid)
            case ("POST", ["explore", sid, "select"]):
                return self.select(sid, **reports.bind(self.select, body))
            case ("POST", ["explore", sid, "close"]):
                return self.close_exploration(sid)
            case ("GET", ["object", *key_parts]):
                return self.get_object("/".join(key_parts))
            case ("GET", [name]) if reports.method(name) == "GET":
                return self._report(name, params)
            case ("POST", [name]) if reports.method(name) == "POST":
                return self._report(name, body)
        raise ApiError(404, f"no route for {method} /{'/'.join(parts)}")

    def _report(self, name: str, raw: Mapping[str, Any]) -> dict[str, Any]:
        """Every report route: :data:`repro.ui.reports.REPORTS`."""
        subject = Subject(self.quepa, self.server, self.hub)
        return reports.call(name, subject, raw)

    # -- endpoints ---------------------------------------------------------------

    def query(
        self,
        *,
        database: str,
        query: Any,
        level: int = 0,
        config: AugmentationConfig | None = None,
        augment: bool = True,
        session: str = "http",
        deadline: float | None = None,
    ) -> dict[str, Any]:
        """``POST /query``: the body's fields are these parameters (the
        last two only matter to a serving layer)."""
        if self.server is None:
            return _answer_payload(self.quepa.augmented_search(
                database, query, level=level, config=config, augment=augment
            ))
        return _answer_payload(self.server.search(
            session, database, query, level=level, config=config,
            augment=augment, deadline=deadline,
        ))

    def open_exploration(self, *, database: str, query: Any) -> dict[str, Any]:
        session = self.quepa.explore(database, query)
        sid = f"s{next(self._session_ids)}"
        self._sessions.put(sid, session)
        return {
            "session": sid,
            "results": [_object_payload(obj) for obj in session.results],
        }

    def exploration_state(self, sid: str) -> dict[str, Any]:
        session = self._session(sid)
        return {
            "session": sid,
            "results": [_object_payload(obj) for obj in session.results],
            "steps": [
                {
                    "selected": str(step.selected),
                    "links": [_augmented_payload(l) for l in step.links],
                }
                for step in session.steps
            ],
            "path": [str(key) for key in session.path],
        }

    def select(self, sid: str, *, key: str) -> dict[str, Any]:
        session = self._session(sid)
        target = GlobalKey.parse(key)
        try:
            step = session.select(target)
        except ReproError as exc:
            raise ApiError(409, str(exc)) from exc
        return {
            "session": sid,
            "selected": str(step.selected),
            "links": [_augmented_payload(link) for link in step.links],
        }

    def close_exploration(self, sid: str) -> dict[str, Any]:
        session = self._sessions.pop(sid)
        if session is None:
            raise ApiError(404, f"no exploration session {sid!r}")
        session.close()
        return {"session": sid, "closed": True,
                "path": [str(key) for key in session.path]}

    def get_object(self, key_text: str) -> dict[str, Any]:
        key = GlobalKey.parse(key_text)
        obj = self.quepa.get(key)
        return _object_payload(obj)

    # -- internals ------------------------------------------------------------------

    def _session(self, sid: str) -> ExplorationSession:
        session = self._sessions.get(sid)
        if session is None:
            raise ApiError(404, f"no exploration session {sid!r}")
        return session
