"""The one place a report is built (ROADMAP item 6).

A *report* is a plain function ``(subject, *, keyword-only params) ->
dict`` over a :class:`Subject`; :data:`REPORTS` lists them and each
function's docstring is its one description. Both surfaces render the
same payloads: :class:`~repro.ui.api.QuepaApi` serves report ``name`` at
``/name`` (:func:`method` says with which verb) and :mod:`repro.cli`
prints it as text or ``--json``. :func:`call` coerces raw values — a URL
query string, a JSON body, ``vars()`` of an argparse namespace — onto
the function's own signature (:func:`bind`), so a parameter is declared
once, where it is used. Every rejection is a :class:`ReportError`
carrying an HTTP-like status: the API re-raises it as ``ApiError``, the
CLI prints ``error: …`` and exits 1.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, fields
from functools import cache
from typing import Any, Callable, Mapping

from repro.core.augmentation import AugmentationConfig
from repro.errors import ReproError
from repro.obs import to_chrome_trace, to_prometheus
from repro.stores.querycache import parse_cache_stats


class ReportError(ReproError):
    """A report (or its input) was refused; ``status`` is HTTP-like."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class TextResponse(dict):
    """A non-JSON payload (e.g. Prometheus text exposition).

    Still a dict, so callers that treat every response as a JSON mapping
    keep working; the HTTP server special-cases it and writes ``body``
    raw with ``content_type`` instead of serializing.
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


@dataclass(frozen=True)
class Subject:
    """What a report reads: one system, plus the serving layer
    (:class:`~repro.serving.QuepaServer`) and the change hub
    (:class:`~repro.cdc.ChangeHub`) when they are attached."""

    quepa: Any
    server: Any = None
    hub: Any = None


# -- coercion ------------------------------------------------------------------


def _scalar(name: str, value: Any, kind: str) -> Any:
    """``value`` as the annotation ``kind`` (``"int"``, ``"float | None"``
    …); annotations that are not a scalar type pass through."""
    base = kind.removesuffix(" | None")
    if value is None and base != kind:
        return None
    try:
        if base == "int":
            return int(value)
        if base == "float":
            return float(value)
    except (TypeError, ValueError, OverflowError):
        noun = "an integer" if base == "int" else "a number"
        raise ReportError(
            400, f"{name} must be {noun}, got {value!r}"
        ) from None
    if base == "bool":
        if isinstance(value, str):
            return value.lower() in ("1", "true", "yes", "on")
        return bool(value)
    return str(value) if base == "str" else value


def _as_query(value: Any) -> Any:
    """A native query. JSON text (the only form a shell can pass) and
    JSON arrays become the dict and tuple forms of the document, graph
    and key-value stores; any other text is the store's own language."""
    if isinstance(value, str) and value.lstrip().startswith(("{", "[")):
        try:
            value = json.loads(value)
        except ValueError:
            return value
    return tuple(value) if isinstance(value, list) else value


#: ``AugmentationConfig`` field -> its annotation, what ``config`` may hold.
_CONFIG_KINDS = {
    field.name: field.type for field in fields(AugmentationConfig)
}


def _as_config(value: Any) -> AugmentationConfig:
    if isinstance(value, AugmentationConfig):
        return value
    if not isinstance(value, Mapping):
        raise ReportError(400, "config must be an object")
    unknown = set(value) - set(_CONFIG_KINDS)
    if unknown:
        raise ReportError(400, f"unknown config fields {sorted(unknown)}")
    return AugmentationConfig(**{
        key: _scalar(f"config.{key}", item, _CONFIG_KINDS[key])
        for key, item in value.items()
    })


def _as_targets(value: Any) -> tuple[str, ...]:
    if isinstance(value, str):
        value = [part.strip() for part in value.split(",") if part.strip()]
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(name, str) for name in value
    ):
        raise ReportError(400, "targets must be a list of database names")
    return tuple(value)


#: Parameters whose raw form needs more than a scalar cast, by name.
_SHAPES: dict[str, Callable[[Any], Any]] = {
    "query": _as_query, "config": _as_config, "targets": _as_targets,
}
#: Range rules checked after the cast, by name.
_RANGES = {
    "level": (">= 0", lambda level: level >= 0),
    "deadline": ("> 0", lambda deadline: deadline > 0),
}


def coerce(name: str, value: Any, kind: str = "Any") -> Any:
    """One raw value as parameter ``name`` annotated ``kind``."""
    shape = _SHAPES.get(name)
    value = shape(value) if shape else _scalar(name, value, kind)
    rule = _RANGES.get(name)
    if rule is not None and not rule[1](value):
        raise ReportError(400, f"{name} must be {rule[0]}")
    return value


@cache
def _params(function: Callable) -> dict[str, inspect.Parameter]:
    return {
        name: param
        for name, param in inspect.signature(function).parameters.items()
        if param.kind is param.KEYWORD_ONLY
    }


def bind(function: Callable, raw: Any) -> dict[str, Any]:
    """``raw`` coerced onto ``function``'s keyword-only parameters.

    Keys the function does not declare are ignored (a namespace or a
    query string may carry more); ``None`` and ``""`` mean "not given".
    """
    if not isinstance(raw, Mapping):
        raise ReportError(400, "request body must be a JSON object")
    bound = {}
    function = getattr(function, "__func__", function)  # one entry per method
    for name, param in _params(function).items():
        value = raw.get(name)
        if value is None or value == "":
            if param.default is param.empty:
                raise ReportError(400, f"missing required field {name!r}")
        else:
            bound[name] = coerce(name, value, param.annotation)
    return bound


# -- the reports ---------------------------------------------------------------


def databases(subject: Subject) -> dict[str, Any]:
    """The polystore's databases and their engines."""
    polystore = subject.quepa.polystore
    return {"databases": [
        {"name": name, "engine": polystore.database(name).engine}
        for name in sorted(polystore)
    ]}


def answer_stats(stats) -> dict[str, Any]:
    """The JSON form of one answer's :class:`SearchStats`."""
    return {
        "database": stats.database,
        "level": stats.level,
        "original_count": stats.original_count,
        "augmented_count": stats.augmented_count,
        "queries_issued": stats.queries_issued,
        "cache_hits": stats.cache_hits,
        "elapsed_s": stats.elapsed,
        "augmenter": stats.augmenter,
        "rewritten": stats.rewritten,
        "degraded": stats.degraded,
        "errors": dict(stats.errors),
        "unavailable_databases": list(stats.unavailable_databases),
    }


def _retention(tracer) -> dict[str, int]:
    """What the tracer's caps cost: spans dropped (a buffer or a single
    trace over ``max_spans``) and whole older traces evicted."""
    stats = tracer.stats()
    return {"dropped": stats["dropped"], "evicted": tracer.evicted,
            "max_spans": stats["max_spans"]}


_SHARD_METRICS = {
    "augment_fanout_shards": "fanout",
    "shard_partitions_scanned_total": "scanned",
    "shard_partitions_pruned_total": "pruned",
}


def stats(subject: Subject) -> dict[str, Any]:
    """The last augmented run's record (``last_run``, null before any)
    and the breakdown behind it: per-store query/object counts with
    latency histograms, shard routing (sharded runs only), span kinds,
    tracer retention, every cache tier and the A' index's snapshot
    counters (published, compacted, current overlay size)."""
    quepa = subject.quepa
    record = quepa.last_record
    if record is None:
        return {"last_run": None}
    meter, metrics = quepa.runtime.meter, quepa.obs.metrics
    # Scatter fan-out and partition pruning are emitted only by sharded
    # routing, so an unsharded run has no shard_routing rows at all.
    routing: dict[str, dict] = {}
    for entry in metrics.snapshot():
        field = _SHARD_METRICS.get(entry["name"])
        if field is not None:
            database = entry["labels"].get("database", "")
            routing.setdefault(database, {"database": database})[field] = (
                entry if field == "fanout" else entry["value"]
            )
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
        },
        "stores": [
            {
                "database": database,
                "queries": meter.queries_by_database[database],
                "objects": meter.objects_by_database.get(database, 0),
                # Cumulative over the store's life, unlike the two above:
                # against its own objects_returned it is what scans cost.
                "rows_examined": quepa.polystore.databases[
                    database
                ].stats.rows_examined,
                "latency_s": metrics.histogram(
                    "store_call_seconds", database=database
                ).snapshot(),
            }
            for database in sorted(meter.queries_by_database)
        ],
        "shard_routing": [routing[name] for name in sorted(routing)],
        "span_kinds": quepa.obs.tracer.summary(),
        "retention": _retention(quepa.obs.tracer),
        "cache": [
            {"name": "object", **quepa.cache.stats()},
            {"name": "plan", **quepa.augmentation.plan_cache_stats()},
            *parse_cache_stats(),
        ],
        "index": {
            name: getattr(quepa.aindex, name, None)
            for name in (
                "refreezes", "compactions", "overlay_nodes", "generation"
            )
        },
    }


def metrics(subject: Subject, *, format: str = "json") -> dict[str, Any]:
    """The cumulative metrics registry: per-database latency histograms,
    cache, pool and serving counters. ``format=prometheus`` returns the
    text exposition for a scrape."""
    snapshot = subject.quepa.obs.metrics.snapshot()
    if format == "prometheus":
        return TextResponse(
            to_prometheus(snapshot),
            "text/plain; version=0.0.4; charset=utf-8",
        )
    if format != "json":
        raise ReportError(400, f"unknown metrics format {format!r}")
    return {"metrics": snapshot}


def trace(
    subject: Subject, *, trace_id: str | None = None, format: str = "json"
) -> dict[str, Any]:
    """The retained spans, their per-kind summary and what retention
    dropped — of one served request when ``trace_id`` names it (a
    flight-recorder digest carries the id; 404 once evicted), else of
    everything the tracer holds. ``format=chrome`` returns Chrome
    trace-event JSON that opens in Perfetto."""
    obs = subject.quepa.obs
    if trace_id is None:
        spans = obs.tracer.spans()
    else:
        spans = obs.tracer.spans_for(trace_id)
        if not spans:
            raise ReportError(
                404,
                f"no spans retained for trace {trace_id!r} (unknown, "
                f"or evicted: {obs.tracer.evicted} traces evicted)",
            )
    if format == "chrome":
        return to_chrome_trace(spans)
    if format != "json":
        raise ReportError(400, f"unknown trace format {format!r}")
    return {"trace": {
        "summary": obs.trace_summary(trace_id),
        "spans": [span.as_dict() for span in spans],
        "retention": _retention(obs.tracer),
    }}


def events(
    subject: Subject,
    *,
    kind: str | None = None,
    min_severity: str | None = None,
    limit: int | None = None,
) -> dict[str, Any]:
    """The event journal (slow queries, lazy deletions, run completions,
    sheds), oldest first, filtered by ``kind`` and ``min_severity``;
    ``limit`` keeps the newest N."""
    journal = subject.quepa.obs.events
    try:
        entries = journal.as_dicts(
            kind=kind, min_severity=min_severity, limit=limit
        )
    except ValueError as exc:
        raise ReportError(400, str(exc)) from exc
    return {"events": entries, "stats": journal.stats()}


def faults(subject: Subject) -> dict[str, Any]:
    """Fault and resilience state: injected schedules and their
    counters, breaker states, retries, failed calls per database."""
    return {"faults": subject.quepa.fault_report()}


def serving(subject: Subject) -> dict[str, Any]:
    """Scheduler status — queue depth, in-flight, reconciled totals,
    per-session QPS and latency percentiles, single-flight counters — or
    ``enabled: false`` without a serving layer."""
    if subject.server is None:
        return {"serving": None, "enabled": False}
    return {"serving": subject.server.status(), "enabled": True}


def requests(
    subject: Subject,
    *,
    session: str | None = None,
    status: str | None = None,
    limit: int | None = None,
) -> dict[str, Any]:
    """Flight-recorder digests of the shed, failed, degraded and slow
    requests it kept, each with trace id, queue wait, latency and
    critical-path breakdown; ``limit`` keeps the newest N."""
    server = subject.server
    recorder = server.scheduler.recorder if server is not None else None
    if recorder is None:
        return {"requests": [], "enabled": False, "recorder": None}
    return {
        "requests": recorder.as_dicts(
            session=session, status=status, limit=limit
        ),
        "enabled": True,
        "recorder": recorder.stats(),
    }


def ingest(subject: Subject) -> dict[str, Any]:
    """CDC ingestion status: per-store cursors and pending counts, lag,
    WAL size, maintainer and materialized-tier state — or ``enabled:
    false`` without a change hub."""
    if subject.hub is None:
        return {"ingest": None, "enabled": False}
    return {"ingest": subject.hub.status(), "enabled": True}


def explain(
    subject: Subject,
    *,
    database: str,
    query: Any,
    level: int = 0,
    config: AugmentationConfig | None = None,
    analyze: bool = False,
) -> dict[str, Any]:
    """EXPLAIN (``analyze``: EXPLAIN ANALYZE) an augmented query: store
    access path, A' index traversal, pool/batching decisions, optimizer
    rule firings, estimated vs actual rows and queries."""
    return {"explain": subject.quepa.explain(
        database, query, level=level, config=config, analyze=analyze
    )}


def plan(
    subject: Subject,
    *,
    database: str,
    query: Any,
    level: int = 0,
    targets: tuple[str, ...] | None = None,
    execute: bool = False,
) -> dict[str, Any]:
    """Enumerate the cross-store physical plans of one query (A'-index
    push-down, collect-and-join, ETL cast, multi-model import) with each
    plan's estimated cost and the planner's pick; ``targets`` restricts
    the augmentation target databases, ``execute`` also runs the winner
    and reports the measured run next to the estimates."""
    from repro.planner import LogicalQuery

    logical = LogicalQuery(
        database=database, query=query, level=level, targets=targets
    )
    engine = subject.quepa.planner_engine()
    report = engine.explain_section(logical)
    if execute:
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
    return {"plan": report}


#: name -> report function; the name is the HTTP route and the payload's
#: top-level key. Adding a report is adding a function and one entry.
REPORTS: dict[str, Callable[..., dict[str, Any]]] = {
    function.__name__: function
    for function in (
        databases, stats, metrics, trace, events, faults,
        serving, requests, ingest, explain, plan,
    )
}


def method(name: str) -> str | None:
    """The HTTP verb of report ``name``'s route (``None``: no such
    report). A report that takes a native ``query`` reads a JSON body
    (POST); the rest are GETs parameterised by the URL query string."""
    function = REPORTS.get(name)
    if function is None:
        return None
    return "POST" if "query" in _params(function) else "GET"


def call(name: str, subject: Subject, raw: Any = None) -> dict[str, Any]:
    """Build report ``name`` over ``subject`` from raw parameters."""
    function = REPORTS.get(name)
    if function is None:
        raise ReportError(404, f"no report {name!r}")
    return function(subject, **bind(function, raw or {}))
