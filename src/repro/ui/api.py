"""A REST-shaped, transport-agnostic API over one QUEPA instance.

Endpoints (method, path) mirror what the paper's demo UI calls:

=======  =========================  ===========================================
POST     /query                     augmented search; body: database, query,
                                    level, augment, config
POST     /explore                   open an exploration session; body:
                                    database, query
GET      /explore/{sid}             session state: results, steps, path
POST     /explore/{sid}/select      expand one object; body: key
POST     /explore/{sid}/close       end the session (records the full path)
GET      /object/{global_key}       direct access to one data object
GET      /databases                 the polystore's databases and engines
GET      /stats                     last run record (for dashboards)
GET      /metrics                   cumulative metrics registry snapshot
                                    (per-database latency histograms, cache
                                    and pool counters);
                                    ``?format=prometheus`` returns text
                                    exposition for a Prometheus scrape
GET      /trace                     spans of the last run + per-kind summary;
                                    ``?trace_id=`` narrows both to one
                                    served request (404 once evicted);
                                    ``?format=chrome`` returns Chrome
                                    trace-event JSON (Perfetto-openable)
GET      /events                    the event journal (``?kind=``,
                                    ``?min_severity=``, ``?limit=``)
GET      /faults                    fault/resilience state: injected
                                    schedules and counters, breaker
                                    states, retries, failed calls
GET      /serving                   scheduler status (requires a server)
GET      /ingest                    CDC ingestion status: per-store
                                    cursors, lag, WAL size, materialized
                                    tier (requires a change hub)
GET      /requests                  flight-recorder digests of kept
                                    requests (``?session=``,
                                    ``?status=``, ``?limit=``)
GET      /slo                       availability/latency SLO compliance
                                    and error-budget burn rates
POST     /explain                   EXPLAIN/ANALYZE an augmented query; body:
                                    database, query, level, analyze, config
POST     /plan                      enumerate + cost cross-store physical
                                    plans (see :mod:`repro.planner`); body:
                                    database, query, level, targets, execute
=======  =========================  ===========================================

Requests and responses are plain dicts that serialize to JSON as-is;
every data object is rendered with its global key, payload, probability
and probability *band* (the paper's color coding). Errors surface as
:class:`ApiError` with an HTTP-like status code.
"""

from __future__ import annotations

import itertools
import threading
from urllib.parse import parse_qs
from typing import Any, Mapping

from repro.core.exploration import ExplorationSession
from repro.core.search import AugmentedAnswer
from repro.core.system import Quepa
from repro.core.augmentation import AugmentationConfig
from repro.errors import (
    InvalidGlobalKeyError,
    KeyNotFoundError,
    NotAugmentableError,
    ReproError,
    RequestDeadlineExceeded,
    ServerBusy,
    UnknownAugmenterError,
    UnknownDatabaseError,
)
from repro.model.objects import AugmentedObject, DataObject, GlobalKey
from repro.obs import to_chrome_trace, to_prometheus
from repro.ui.render import probability_band


class TextResponse(dict):
    """A non-JSON payload (e.g. Prometheus text exposition).

    Still a dict, so callers that treat every API response as a JSON
    mapping keep working; the HTTP server special-cases it and writes
    ``body`` raw with ``content_type`` instead of serializing.
    """

    def __init__(
        self, body: str, content_type: str = "text/plain; charset=utf-8"
    ) -> None:
        super().__init__(body=body, content_type=content_type)

    @property
    def body(self) -> str:
        return self["body"]

    @property
    def content_type(self) -> str:
        return self["content_type"]


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
        "stats": {
            "database": answer.stats.database,
            "level": answer.stats.level,
            "original_count": answer.stats.original_count,
            "augmented_count": answer.stats.augmented_count,
            "queries_issued": answer.stats.queries_issued,
            "cache_hits": answer.stats.cache_hits,
            "elapsed_s": answer.stats.elapsed,
            "augmenter": answer.stats.augmenter,
            "rewritten": answer.stats.rewritten,
            "degraded": answer.stats.degraded,
            "errors": dict(answer.stats.errors),
            "unavailable_databases": list(
                answer.stats.unavailable_databases
            ),
        },
    }


class QuepaApi:
    """Routes REST-shaped requests onto a :class:`Quepa` instance."""

    def __init__(self, quepa: Quepa, server=None, hub=None) -> None:
        self.quepa = quepa
        #: Optional :class:`~repro.serving.QuepaServer`. When attached,
        #: POST /query runs through its scheduler — concurrently, with
        #: admission control — instead of under the global lock, and
        #: GET /serving reports scheduler status.
        self.server = server
        #: Optional :class:`~repro.cdc.hub.ChangeHub`. When attached,
        #: GET /ingest reports per-store CDC cursors, lag, WAL size and
        #: materialized-tier statistics.
        self.hub = hub
        self._sessions: dict[str, ExplorationSession] = {}
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
        try:
            if self.server is not None and (method.upper(), parts) == (
                "POST",
                ["query"],
            ):
                # Scheduled path: concurrency control lives in the
                # serving layer, not in this process-wide lock.
                return self.query(body)
            with self._lock:
                return self._route(method.upper(), parts, body, params)
        except ApiError:
            raise
        except ServerBusy as exc:
            raise ApiError(503, str(exc)) from exc
        except RequestDeadlineExceeded as exc:
            raise ApiError(504, str(exc)) from exc
        except NotAugmentableError as exc:
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
                return self.query(body)
            case ("POST", ["explain"]):
                return self.explain(body)
            case ("POST", ["plan"]):
                return self.plan(body)
            case ("POST", ["explore"]):
                return self.open_exploration(body)
            case ("GET", ["explore", sid]):
                return self.exploration_state(sid)
            case ("POST", ["explore", sid, "select"]):
                return self.select(sid, body)
            case ("POST", ["explore", sid, "close"]):
                return self.close_exploration(sid)
            case ("GET", ["object", *key_parts]):
                return self.get_object("/".join(key_parts))
            case ("GET", ["databases"]):
                return self.databases()
            case ("GET", ["stats"]):
                return self.stats()
            case ("GET", ["metrics"]):
                return self.metrics(params)
            case ("GET", ["trace"]):
                return self.trace(params)
            case ("GET", ["events"]):
                return self.events(params)
            case ("GET", ["faults"]):
                return self.faults()
            case ("GET", ["serving"]):
                return self.serving()
            case ("GET", ["requests"]):
                return self.requests(params)
            case ("GET", ["ingest"]):
                return self.ingest()
            case ("GET", ["slo"]):
                return self.slo()
        raise ApiError(404, f"no route for {method} /{'/'.join(parts)}")

    # -- endpoints ---------------------------------------------------------------

    def query(self, body: Mapping[str, Any]) -> dict[str, Any]:
        database = _require(body, "database")
        query = _require(body, "query")
        level = int(body.get("level", 0))
        if level < 0:
            raise ApiError(400, "level must be >= 0")
        config = _parse_config(body.get("config"))
        augment = bool(body.get("augment", True))
        if self.server is not None:
            deadline = body.get("deadline")
            if deadline is not None:
                deadline = float(deadline)
                if deadline <= 0:
                    raise ApiError(400, "deadline must be > 0")
            priority = str(body.get("priority", "interactive"))
            classes = self.server.config.priority_classes
            if priority not in classes:
                raise ApiError(
                    400,
                    f"unknown priority {priority!r} "
                    f"(one of: {', '.join(classes)})",
                )
            answer = self.server.search(
                str(body.get("session", "http")),
                database,
                query,
                level=level,
                config=config,
                augment=augment,
                deadline=deadline,
                priority=priority,
            )
        else:
            answer = self.quepa.augmented_search(
                database, query, level=level,
                config=config, augment=augment,
            )
        return _answer_payload(answer)

    def serving(self) -> dict[str, Any]:
        """Scheduler status, or ``enabled: false`` without a server."""
        if self.server is None:
            return {"serving": None, "enabled": False}
        return {"serving": self.server.status(), "enabled": True}

    def ingest(self) -> dict[str, Any]:
        """CDC ingestion status, or ``enabled: false`` without a hub."""
        if self.hub is None:
            return {"ingest": None, "enabled": False}
        return {"ingest": self.hub.status(), "enabled": True}

    def requests(
        self, params: Mapping[str, str] | None = None
    ) -> dict[str, Any]:
        """Flight-recorder digests (``?session=``, ``?status=``,
        ``?limit=`` keep the newest N)."""
        if self.server is None:
            return {"requests": [], "enabled": False, "recorder": None}
        params = params or {}
        limit_text = params.get("limit")
        try:
            limit = int(limit_text) if limit_text is not None else None
        except ValueError as exc:
            raise ApiError(
                400, f"limit must be an integer, got {limit_text!r}"
            ) from exc
        recorder = self.server.scheduler.recorder
        if recorder is None:
            return {"requests": [], "enabled": False, "recorder": None}
        return {
            "requests": recorder.as_dicts(
                session=params.get("session"),
                status=params.get("status"),
                limit=limit,
            ),
            "enabled": True,
            "recorder": recorder.stats(),
        }

    def slo(self) -> dict[str, Any]:
        """SLO compliance + burn rates; 404 without a serving layer."""
        if self.server is None:
            raise ApiError(
                404, "no serving layer attached (start a QuepaServer)"
            )
        return {"slo": self.server.slo_report()}

    def open_exploration(self, body: Mapping[str, Any]) -> dict[str, Any]:
        database = _require(body, "database")
        query = _require(body, "query")
        session = self.quepa.explore(database, query)
        sid = f"s{next(self._session_ids)}"
        self._sessions[sid] = session
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

    def select(self, sid: str, body: Mapping[str, Any]) -> dict[str, Any]:
        session = self._session(sid)
        key_text = _require(body, "key")
        try:
            key = GlobalKey.parse(key_text)
        except InvalidGlobalKeyError as exc:
            raise ApiError(400, str(exc)) from exc
        try:
            step = session.select(key)
        except ReproError as exc:
            raise ApiError(409, str(exc)) from exc
        return {
            "session": sid,
            "selected": str(step.selected),
            "links": [_augmented_payload(link) for link in step.links],
        }

    def close_exploration(self, sid: str) -> dict[str, Any]:
        session = self._sessions.pop(sid, None)
        if session is None:
            raise ApiError(404, f"no exploration session {sid!r}")
        session.close()
        return {"session": sid, "closed": True,
                "path": [str(key) for key in session.path]}

    def get_object(self, key_text: str) -> dict[str, Any]:
        key = GlobalKey.parse(key_text)
        obj = self.quepa.get(key)
        return _object_payload(obj)

    def databases(self) -> dict[str, Any]:
        return {
            "databases": [
                {"name": name,
                 "engine": self.quepa.polystore.database(name).engine}
                for name in sorted(self.quepa.polystore)
            ]
        }

    def stats(self) -> dict[str, Any]:
        record = self.quepa.last_record
        if record is None:
            return {"last_run": None}
        return {
            "last_run": {
                "augmenter": record.augmenter,
                "batch_size": record.batch_size,
                "threads_size": record.threads_size,
                "cache_size": record.cache_size,
                "elapsed_s": record.elapsed,
                "features": record.features.as_dict(),
                "queries_by_database": dict(record.queries_by_database),
                "objects_by_database": dict(record.objects_by_database),
                "span_summary": dict(record.span_summary),
                "skipped_flushes": record.skipped_flushes,
                "degraded": record.degraded,
                "errors": dict(record.errors),
                "failed_queries_by_database": dict(
                    record.failed_queries_by_database
                ),
            }
        }

    def metrics(
        self, params: Mapping[str, str] | None = None
    ) -> dict[str, Any]:
        """Cumulative instrument snapshot (counters/gauges/histograms)."""
        fmt = (params or {}).get("format", "json")
        snapshot = self.quepa.obs.metrics.snapshot()
        if fmt == "prometheus":
            return TextResponse(
                to_prometheus(snapshot),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        if fmt != "json":
            raise ApiError(400, f"unknown metrics format {fmt!r}")
        return {"metrics": snapshot}

    def trace(
        self, params: Mapping[str, str] | None = None
    ) -> dict[str, Any]:
        """The retained spans plus the per-kind summary — of one served
        request when ``trace_id`` names it (a flight-recorder digest
        carries the id), else of everything the tracer holds."""
        obs = self.quepa.obs
        params = params or {}
        fmt = params.get("format", "json")
        trace_id = params.get("trace_id")
        if trace_id is None:
            spans = obs.tracer.spans()
        else:
            spans = obs.tracer.spans_for(trace_id)
            if not spans:
                raise ApiError(
                    404,
                    f"no spans retained for trace {trace_id!r} (unknown, "
                    f"or evicted: {obs.tracer.evicted} traces evicted)",
                )
        if fmt == "chrome":
            return to_chrome_trace(spans)
        if fmt != "json":
            raise ApiError(400, f"unknown trace format {fmt!r}")
        return {
            "trace": {
                "summary": obs.trace_summary(trace_id),
                "spans": [span.as_dict() for span in spans],
            }
        }

    def events(
        self, params: Mapping[str, str] | None = None
    ) -> dict[str, Any]:
        """The event journal, filtered by kind / severity / limit."""
        params = params or {}
        limit_text = params.get("limit")
        try:
            limit = int(limit_text) if limit_text is not None else None
        except ValueError as exc:
            raise ApiError(400, f"limit must be an integer, got {limit_text!r}") from exc
        journal = self.quepa.obs.events
        try:
            events = journal.as_dicts(
                kind=params.get("kind"),
                min_severity=params.get("min_severity"),
                limit=limit,
            )
        except ValueError as exc:
            raise ApiError(400, str(exc)) from exc
        return {"events": events, "stats": journal.stats()}

    def faults(self) -> dict[str, Any]:
        """Fault/resilience state of the served system (see /faults)."""
        return {"faults": self.quepa.fault_report()}

    def explain(self, body: Mapping[str, Any]) -> dict[str, Any]:
        """EXPLAIN (or ANALYZE) one augmented query without serving it."""
        database = _require(body, "database")
        query = _require(body, "query")
        level = int(body.get("level", 0))
        if level < 0:
            raise ApiError(400, "level must be >= 0")
        config = _parse_config(body.get("config"))
        report = self.quepa.explain(
            database, query, level=level,
            config=config, analyze=bool(body.get("analyze", False)),
        )
        return {"explain": report}

    def plan(self, body: Mapping[str, Any]) -> dict[str, Any]:
        """Enumerate and cost the cross-store physical plans of a query.

        ``targets`` optionally restricts the augmentation target
        databases; ``execute=true`` also runs the chosen plan and
        reports the measured run next to the estimates.
        """
        from repro.planner import LogicalQuery

        database = _require(body, "database")
        query = _require(body, "query")
        level = int(body.get("level", 0))
        if level < 0:
            raise ApiError(400, "level must be >= 0")
        targets = body.get("targets")
        if targets is not None:
            if not isinstance(targets, (list, tuple)) or not all(
                isinstance(name, str) for name in targets
            ):
                raise ApiError(400, "targets must be a list of database names")
            targets = tuple(targets)
        logical = LogicalQuery(
            database=database, query=query, level=level, targets=targets
        )
        engine = self.quepa.planner_engine()
        try:
            report = engine.explain_section(logical)
            if bool(body.get("execute", False)):
                execution = engine.execute(logical)
                result = execution.result
                report["executed"] = {
                    "strategy": execution.chosen,
                    "elapsed_s": result.elapsed,
                    "queries_issued": result.queries_issued,
                    "answer_size": len(result.answer),
                    "out_of_memory": result.out_of_memory,
                    "degraded": result.degraded,
                }
        except UnknownDatabaseError as exc:
            raise ApiError(404, str(exc)) from exc
        return {"plan": report}

    # -- internals ------------------------------------------------------------------

    def _session(self, sid: str) -> ExplorationSession:
        session = self._sessions.get(sid)
        if session is None:
            raise ApiError(404, f"no exploration session {sid!r}")
        return session


def _require(body: Mapping[str, Any], field: str) -> Any:
    if field not in body:
        raise ApiError(400, f"missing required field {field!r}")
    return body[field]


def _parse_config(raw: Any) -> AugmentationConfig | None:
    if raw is None:
        return None
    if not isinstance(raw, Mapping):
        raise ApiError(400, "config must be an object")
    allowed = {"augmenter", "batch_size", "threads_size", "cache_size",
               "min_probability", "skip_unavailable", "timeout_budget"}
    unknown = set(raw) - allowed
    if unknown:
        raise ApiError(400, f"unknown config fields {sorted(unknown)}")
    return AugmentationConfig(**raw)
