"""What the spine measures: workloads, end-to-end and per-layer metrics.

This module is the single declaration of every name the benchmark
emits. ``BENCHMARK.json`` at the repository root carries the same
workloads and metrics (``render_benchmark_json`` produces its content
and ``test_spine.py`` checks the two agree), and ``run.py`` refuses to
emit a metric that is not declared here.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seconds one run measures; the driver passes it back as ``--seconds``.
#: 92 driver runs of set-up x 3 + this + the oracle fit the driver's time
#: cap with a quarter to spare (README, "Run protocol").
RUN_SECONDS = 15
#: Full set-ups timed per run; ``setup_s`` is their median.
SETUPS_PER_RUN = 3

COMMAND = ["python3", "benchmarks/spine/run.py"]
PATHS = ["benchmarks/spine"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


WORKLOADS = (
    Workload(
        "search_cold",
        "working set 16x the object cache: connectors, store multi_get, "
        "augmenters and cache puts do the work (the paper's cold curve)",
    ),
    Workload(
        "search_warm",
        "8 hot queries that fit the cache: store fetches are bypassed, "
        "leaving validator, native query, plan cache, cache gets, "
        "assemble and bookkeeping",
    ),
    Workload(
        "serve_closed",
        "2 closed-loop clients through QuepaServer on RealRuntime: the "
        "only workload with threads, locks, queue wait, single-flight "
        "and real store round-trips",
    ),
    Workload(
        "ingest_mixed",
        "writes, pumps and reads on the same live index: refreezes and "
        "materialized-answer invalidation sit between ingest and reads",
    ),
)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    definition: str


END_TO_END = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "imports + median of the run's full set-ups (data build, "
        "bootstrap, server start, warm-up) before the first timed op, "
        "at reference-host speed",
    ),
    EndToEnd(
        "queries_per_s", "1/s", "higher", 0.20,
        "augmented searches completed / measured seconds (ingest_mixed: "
        "reads / seconds of the whole write+pump+read cycle)",
    ),
    EndToEnd(
        "query_p50_ms", "ms", "lower", 0.25,
        "per-search latency, call to answer, median",
    ),
    EndToEnd(
        "query_p95_ms", "ms", "lower", 0.25,
        "per-search latency, 95th percentile",
    ),
    EndToEnd(
        "virtual_ms_per_query", "ms", "lower", 0.10,
        "seconds per search on the program's model clock: mean "
        "answer.stats.elapsed on VirtualRuntime (the paper's y-axis); "
        "on serve_closed's RealRuntime, whose clock is the wall, the CPU "
        "seconds and store round-trips the cost model charged",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.10,
        "ru_maxrss of the run's process at the end of the timed "
        "interval (before the oracle replays anything)",
    ),
)


@dataclass(frozen=True)
class PerLayer:
    """One per-layer metric of the traced run.

    ``spans`` lists the ``(layer, span name)`` pairs whose self time the
    metric sums; ``per`` is the op kind the total is divided by. Metrics
    without ``spans`` are counters or ratios the workloads read from the
    program's own statistics.
    """

    name: str
    unit: str
    better: str
    spans: tuple[tuple[str, str], ...] = ()
    per: str = "query"


def _timing(name: str, *spans: tuple[str, str], per: str = "query") -> PerLayer:
    return PerLayer(name, f"ms/{per}", "lower", spans, per)


def _count(name: str, unit: str = "count/query", better: str = "lower") -> PerLayer:
    return PerLayer(name, unit, better)


def _ratio(name: str, better: str = "higher") -> PerLayer:
    return PerLayer(name, "ratio", better)


STORE_LAYERS = (
    "stores.relational",
    "stores.document",
    "stores.graph",
    "stores.keyvalue",
)


def _store_metrics() -> tuple[PerLayer, ...]:
    metrics: list[PerLayer] = []
    for layer in STORE_LAYERS:
        metrics += [
            _timing(f"{layer}.execute_ms", (layer, "execute")),
            _timing(
                f"{layer}.multi_get_ms", (layer, "multi_get"), (layer, "get")
            ),
            _count(f"{layer}.queries"),
            _count(f"{layer}.objects_returned"),
            _count(f"{layer}.writes", "count/pump"),
        ]
    return tuple(metrics)


PER_LAYER = (
    _timing("core.validator.validate_ms", ("core.validator", "validate")),
    *_store_metrics(),
    _timing("core.augmentation.plan_ms", ("core.augmentation", "plan")),
    _ratio("core.augmentation.plan_cache_hit_ratio"),
    _count("core.augmentation.planned_fetches"),
    _timing("core.aindex.freeze_ms", ("core.aindex", "frozen")),
    _count("core.aindex.refreezes"),
    _timing(
        "core.aindex.add_ms",
        ("core.aindex", "add"), ("core.aindex", "add_all"), per="pump",
    ),
    _timing(
        "core.aindex.excise_ms",
        ("core.aindex", "excise"), ("core.aindex", "remove_object"),
        per="pump",
    ),
    _timing(
        "core.cache.get_many_ms",
        ("core.cache", "get"), ("core.cache", "get_many"),
    ),
    _timing(
        "core.cache.put_many_ms",
        ("core.cache", "put"), ("core.cache", "put_many"),
    ),
    _ratio("core.cache.hit_ratio"),
    _count("core.cache.evictions"),
    _timing(
        "core.connectors.fetch_ms",
        ("core.connectors", "fetch_one"),
        ("core.connectors", "fetch_many"),
        ("core.connectors", "fetch_grouped"),
    ),
    _count("core.connectors.store_queries"),
    _timing(
        "core.augmenters.execute_ms",
        ("core.augmenters", "execute"),
        ("core.augmenters", "_fetch_group"),
        ("core.augmenters", "_fetch_single"),
    ),
    _timing("core.search.assemble_ms", ("core.search", "assemble_answer")),
    _timing(
        "core.system.other_ms",
        ("core.system", "augmented_search"), ("core.system", "serve_search"),
    ),
    _timing(
        "network.executor.store_call_ms", ("network.executor", "store_call")
    ),
    _timing("network.executor.sleep_ms", ("network.executor", "sleep")),
    PerLayer("serving.queue_wait_ms", "ms/query", "lower"),
    PerLayer("serving.service_ms", "ms/query", "lower"),
    _ratio("serving.coalesce_hit_ratio"),
    _timing("serving.coalesce_wait_ms", ("serving", "fetch")),
    _count("serving.shed", "count"),
    _count("serving.failed", "count"),
    _timing("cdc.hub.pump_ms", ("cdc.hub", "pump"), per="pump"),
    _count("cdc.hub.events", "count/pump", "higher"),
    _count("cdc.hub.invalidated", "count/pump"),
    _timing("cdc.maintainer.apply_ms", ("cdc.maintainer", "apply"), per="pump"),
    _count("cdc.maintainer.pairs_rescored_per_event", "count/event"),
    _count("cdc.maintainer.affected_nodes_per_event", "count/event"),
    _timing(
        "collector.matching.score_ms",
        ("collector.matching", "decide"), per="pump",
    ),
    _count("collector.matching.pairs_scored", "count/pump"),
    PerLayer("collector.blocking.candidate_pairs_ms", "ms", "lower"),
    _timing(
        "cdc.materialize.lookup_ms",
        ("cdc.materialize", "lookup"), ("cdc.materialize", "observe"),
    ),
    _timing(
        "cdc.materialize.invalidate_ms",
        ("cdc.materialize", "invalidate"), per="pump",
    ),
    _ratio("cdc.materialize.hit_ratio"),
    _timing(
        "persistence.wal.append_ms", ("persistence.wal", "append"), per="pump"
    ),
    _count("persistence.wal.bytes_per_event", "B/event"),
    PerLayer("persistence.wal.replay_ms", "ms", "lower"),
    PerLayer("persistence.snapshot.save_ms", "ms", "lower"),
    PerLayer("persistence.snapshot.warm_restart_ms", "ms", "lower"),
    _count("persistence.snapshot.bytes", "B"),
    PerLayer("sharding.fetch_many_ms", "ms", "lower"),
    PerLayer("sharding.freeze_ms", "ms", "lower"),
    PerLayer("planner.plan_ms", "ms", "lower"),
    PerLayer("trace.overhead_ratio", "ratio", "lower"),
    # The user-visible numbers that exist on ingest_mixed only. The
    # driver's contract wants every end-to-end metric from every
    # workload, so they are reported here, measured on the untraced half
    # of the traced run; compare.py applies INGEST_BOUNDS to them.
    PerLayer("ingest_events_per_s", "1/s", "higher"),
    PerLayer("freshness_p50_ms", "ms", "lower"),
    PerLayer("freshness_p95_ms", "ms", "lower"),
    _ratio("failed_ratio", "lower"),
)

#: Regression bounds compare.py applies to the ingest-only user-visible
#: metrics, which BENCHMARK.json has to list without a bound.
INGEST_BOUNDS = {
    "ingest_events_per_s": 0.20,
    "freshness_p50_ms": 0.25,
    "freshness_p95_ms": 0.25,
}


def render_benchmark_json() -> dict:
    """The content ``BENCHMARK.json`` must have."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
