"""Run records: what QUEPA logs about each completed augmentation.

Section V, Phase 1: "We keep the logs of the completed augmentation
runs. They include QUEPA parameters such as BATCH_SIZE or THREADS_SIZE,
the overall execution time and the characteristics of the query (target
database, number of original data objects in the result, number of
augmented data objects)." These records are the training set of the
adaptive optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class QueryFeatures:
    """Characteristics of a query/polystore pair, known before execution.

    The planned fetch count is available before any store is contacted
    because planning only reads the (local) A' index.
    """

    engine: str
    database: str
    level: int
    original_count: int
    planned_fetches: int
    store_count: int
    deployment: str

    def as_dict(self) -> dict:
        return {
            "engine": self.engine,
            "database": self.database,
            "level": self.level,
            "original_count": self.original_count,
            "planned_fetches": self.planned_fetches,
            "store_count": self.store_count,
            "deployment": self.deployment,
        }


@dataclass(frozen=True)
class RunRecord:
    """One completed augmentation run: features, configuration, time.

    Beyond the paper's fields, records are enriched with the run's
    observability data (see :mod:`repro.obs`): per-database query/object
    counts from the runtime meter and a per-span-kind time breakdown, so
    the optimizer's training set can explain *where* time went, not just
    how much of it passed.
    """

    features: QueryFeatures
    augmenter: str
    batch_size: int
    threads_size: int
    cache_size: int
    elapsed: float
    queries_issued: int = 0
    cache_hits: int = 0
    #: Batch flushes swallowed by skip_unavailable (never reached a store).
    skipped_flushes: int = 0
    missing_objects: int = 0
    #: True iff faults cost this run planned objects (degraded answer).
    degraded: bool = False
    #: Database -> reason for every store that misbehaved during the run.
    errors: dict[str, str] = field(default_factory=dict)
    #: Per-database native query / object counts for this run.
    queries_by_database: dict[str, int] = field(default_factory=dict)
    objects_by_database: dict[str, int] = field(default_factory=dict)
    #: Per-database failed store calls (injected faults, outages).
    failed_queries_by_database: dict[str, int] = field(default_factory=dict)
    #: Span kind -> {"count": n, "total_s": seconds} for this run.
    span_summary: dict[str, dict] = field(default_factory=dict)
    #: The serving trace id this run executed under (``None`` for
    #: classic single-session runs).
    trace_id: str | None = None
    #: Request-scoped critical-path breakdown (store time by database,
    #: per-shard fetches, coalesce waits) computed by
    #: :func:`repro.obs.requests.latency_breakdown`; empty when the run
    #: was not request-scoped.
    breakdown: dict = field(default_factory=dict)

    def query_signature(self) -> tuple:
        """Groups runs of the same logical query for label derivation."""
        f = self.features
        return (
            f.engine,
            f.database,
            f.level,
            f.original_count,
            f.planned_fetches,
            f.store_count,
            f.deployment,
        )
