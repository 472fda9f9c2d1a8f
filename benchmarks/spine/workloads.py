"""The four workloads: seeded inputs, timed loops, oracle checks, guards.

Every workload is one class with the same life cycle::

    workload = make(name, scale, seed, workdir)
    workload.setup()                 # build data, start servers, warm up
    part = workload.measure(budget, tracer)   # one timed interval
    workload.guard(part)             # is this still the shape we meant?
    failed = workload.verify(parts)  # answers against the slow oracle
    workload.close()

Scripts are deterministic streams derived from the seed and are cut into
*blocks* in which every kind of op appears a fixed number of times, so
two runs — or two commits — execute the same mix however many ops they
complete. A timed interval always ends on a block boundary.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import shutil
import statistics
import string
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator

from repro.cdc import ChangeHub, IncrementalCollector, MaterializedAugmentations
from repro.collector import JaroWinklerComparator, PairwiseMatcher
from repro.collector.collector import Collector, CollectorSettings
from repro.collector.matching import AttributeRule
from repro.core import Quepa
from repro.core.aindex import AIndex
from repro.core.augmentation import AugmentationConfig
from repro.model import Polystore
from repro.network import RealRuntime, centralized_profile
from repro.persistence import WriteAheadLog
from repro.persistence.snapshot import load_snapshot_bundle
from repro.persistence.wal import replay
from repro.planner import FederatedEngine, LogicalQuery
from repro.planner.logical import answer_signature
from repro.serving import QuepaServer, ServingConfig
from repro.sharding import shard_aindex, shard_polystore
from repro.stores import (
    DocumentStore,
    GraphStore,
    KeyValueStore,
    RelationalStore,
)
from repro.stores.relational.types import Column, ColumnType, TableSchema
from repro.workloads import PolystoreScale, QueryWorkload, build_polyphony

from benchmarks.spine.hostspeed import SAMPLE_EVERY_S, HostSpeed
from benchmarks.spine.trace import Attribution, Tracer


class GuardError(Exception):
    """The run no longer has the shape the workload was defined to have."""


@dataclass(frozen=True)
class Scale:
    """Input sizes. ``blocks`` fixes the length of a timed interval in
    script blocks (exactly repeatable counts); ``None`` measures for the
    requested number of seconds instead."""

    n_albums: int
    cold_sizes: tuple[int, int]
    cold_cache: int
    variants: int
    serve_sizes: tuple[int, int]
    serve_windows: int
    ingest_entities: int
    lookup_keys: int
    probe_keys: int
    blocks: int | None
    #: Distinct queries the oracle replays per run (seeded sample).
    oracle_sample: int


FULL = Scale(
    n_albums=4000, cold_sizes=(100, 500), cold_cache=1024, variants=64,
    serve_sizes=(16, 64), serve_windows=32, ingest_entities=450,
    lookup_keys=20, probe_keys=1000, blocks=None, oracle_sample=48,
)
SMOKE = Scale(
    n_albums=240, cold_sizes=(8, 24), cold_cache=8, variants=8,
    serve_sizes=(4, 8), serve_windows=8, ingest_entities=48,
    lookup_keys=6, probe_keys=60, blocks=2, oracle_sample=32,
)


@dataclass
class Budget:
    """When a timed interval ends: after ``blocks`` blocks if set, else
    at the first block boundary past ``seconds`` of measured time."""

    seconds: float
    blocks: int | None

    def spent(self, measured: float, blocks_done: int) -> bool:
        if self.blocks is not None:
            return blocks_done >= self.blocks
        return measured >= self.seconds


@dataclass
class Part:
    """What one timed interval measured."""

    latencies: list[float] = field(default_factory=list)
    #: Seconds on the program's model clock, summed over the searches.
    virtual_seconds: float = 0.0
    #: Seconds the interval's work took (the throughput denominator).
    measured: float = 0.0
    #: Host-speed factor of the interval (``hostspeed``): wall-clock
    #: values are divided by it.
    host_factor: float = 1.0
    #: (query id, answer digest) per completed search, in order.
    answers: list[tuple[int, str]] = field(default_factory=list)
    attempted: int = 0
    #: Ops that raised, were shed or expired.
    errors: int = 0
    #: Deltas of the program's own counters over the interval.
    counters: dict[str, float] = field(default_factory=dict)
    # ingest_mixed only
    pumps: int = 0
    events: int = 0
    ingest_seconds: float = 0.0
    freshness: list[float] = field(default_factory=list)


def digest(answer) -> str:
    """A short, process-independent fingerprint of an augmented answer."""
    signature = repr(answer_signature(answer)).encode("utf-8")
    return hashlib.blake2b(signature, digest_size=8).hexdigest()


class QueryBook:
    """Distinct ``(database, query, level)`` triples, numbered."""

    def __init__(self) -> None:
        self._ids: dict[tuple[str, str, int], int] = {}
        self.entries: list[tuple[str, Any, int]] = []

    def add(self, database: str, query: Any, level: int) -> int:
        key = (database, repr(query), level)
        query_id = self._ids.get(key)
        if query_id is None:
            query_id = self._ids[key] = len(self.entries)
            self.entries.append((database, query, level))
        return query_id


class Workload:
    """Shared life cycle; subclasses fill in the workload's own parts."""

    name = ""
    #: Ops of one interval never run two spans at once, so per-layer
    #: self times must add up to each op's wall.
    sequential = True

    def __init__(
        self, scale: Scale, seed: int, workdir: Path, speed: HostSpeed
    ) -> None:
        self.scale = scale
        self.seed = seed
        self.workdir = workdir
        self.speed = speed
        self.book = QueryBook()
        self._op_ids = itertools.count(1)

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.seed}:{self.name}:{purpose}")

    def op(self, tracer: Tracer | None, kind: str, layer: str):
        """Context of one benchmark op: its root span when traced."""
        if tracer is None:
            return nullcontext()
        return tracer.op(next(self._op_ids), kind, layer)

    # -- to be provided by subclasses ---------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Stop threads and drop temporary files of the current set-up."""

    def context_classes(self) -> tuple[type, ...]:
        """The runtime's ``ExecContext`` classes, for ``Tracer.install``."""
        raise NotImplementedError

    def measure(self, budget: Budget, tracer: Tracer | None) -> Part:
        raise NotImplementedError

    def guard(self, part: Part) -> None:
        raise NotImplementedError

    def verify(self, parts: list[Part], tracer: Tracer | None) -> tuple[int, int]:
        """``(attempted, failed)`` over ``parts``, after the oracle ran."""
        raise NotImplementedError

    def input_digest(self) -> dict[str, Any]:
        raise NotImplementedError

    def layer_values(
        self, part: Part, attribution: Attribution
    ) -> dict[str, float]:
        """Per-layer metrics that come from counters, not from spans."""
        raise NotImplementedError

    def extras(self, traced: bool) -> dict[str, float]:
        """Untimed measurements after the interval (probes, restart),
        taken with the tracer's wrappers removed."""
        return {}


# ---------------------------------------------------------------------------
# Shared pieces of the Polyphony workloads
# ---------------------------------------------------------------------------


def _store_counters(polystore: Polystore) -> dict[str, float]:
    counters: dict[str, float] = {}
    for name in polystore:
        store = polystore.database(name)
        layer = f"stores.{store.engine}"
        stats = store.stats
        for field_name in (
            "queries", "gets", "multi_gets", "objects_returned", "writes"
        ):
            key = f"{layer}.{field_name}"
            counters[key] = counters.get(key, 0) + getattr(stats, field_name)
    return counters


def _quepa_counters(quepa: Quepa) -> dict[str, float]:
    counters = _store_counters(quepa.polystore)
    cache = quepa.cache.stats()
    counters["cache.hits"] = cache["hits"]
    counters["cache.misses"] = cache["misses"]
    counters["cache.evictions"] = cache["evictions"]
    counters["aindex.refreezes"] = quepa.aindex.refreezes
    return counters


def _delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {key: value - before.get(key, 0) for key, value in after.items()}


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def _age_telemetry(quepa: Quepa) -> None:
    """Put the span buffer in the state a long-running server has.

    Requests served through ``request_context`` share one bounded
    ``obs.tracer`` and every served search scans what it retains, so
    served latency climbs for the first ~1700 requests (a minute) until
    the buffer holds ``max_spans`` spans and then stays put. A timed
    interval must not straddle that climb: fill the buffer beforehand.
    """
    tracer = quepa.obs.tracer
    for __ in range(tracer.max_spans - len(tracer)):
        tracer.record("spine.aged", 0.0, 0.0)


def _common_layer_values(
    part: Part, searches: int, pumps: int
) -> dict[str, float]:
    """Counter-backed metrics every workload reports the same way."""
    counters = part.counters
    values: dict[str, float] = {}
    for engine in ("relational", "document", "graph", "keyvalue"):
        layer = f"stores.{engine}"
        values[f"{layer}.queries"] = _ratio(
            counters.get(f"{layer}.queries", 0)
            + counters.get(f"{layer}.multi_gets", 0)
            + counters.get(f"{layer}.gets", 0),
            searches,
        )
        values[f"{layer}.objects_returned"] = _ratio(
            counters.get(f"{layer}.objects_returned", 0), searches
        )
        values[f"{layer}.writes"] = _ratio(
            counters.get(f"{layer}.writes", 0), pumps
        )
    probes = counters.get("cache.hits", 0) + counters.get("cache.misses", 0)
    values["core.cache.hit_ratio"] = _ratio(counters.get("cache.hits", 0), probes)
    values["core.cache.evictions"] = _ratio(
        counters.get("cache.evictions", 0), searches
    )
    values["core.aindex.refreezes"] = _ratio(
        counters.get("aindex.refreezes", 0), searches
    )
    values["core.augmentation.planned_fetches"] = _ratio(
        counters.get("planned_fetches", 0), searches
    )
    values["core.connectors.store_queries"] = _ratio(
        counters.get("store_queries", 0), searches
    )
    return values


def _check_against_oracle(
    book: QueryBook,
    parts: list[Part],
    oracle: Quepa,
    sample: int,
    rng: random.Random,
) -> int:
    """Replay a seeded sample of the distinct queries through ``oracle``
    (sequential augmenter, cache off) and count the ops whose answer
    differs. Ops of one query must also agree among themselves, which
    covers the queries outside the sample on static data."""
    seen: dict[int, set[str]] = {}
    ops_by_query: dict[int, int] = {}
    for part in parts:
        for query_id, answer_digest in part.answers:
            seen.setdefault(query_id, set()).add(answer_digest)
            ops_by_query[query_id] = ops_by_query.get(query_id, 0) + 1
    failed = 0
    for query_id, digests in seen.items():
        if len(digests) > 1:
            failed += ops_by_query[query_id]
    agreed = sorted(q for q, digests in seen.items() if len(digests) == 1)
    for query_id in rng.sample(agreed, min(sample, len(agreed))):
        database, query, level = book.entries[query_id]
        expected = digest(
            oracle.augmented_search(
                database, query, level=level, config=ORACLE_CONFIG
            )
        )
        if seen[query_id] != {expected}:
            failed += ops_by_query[query_id]
    return failed


#: The paper's slow path: one direct-access query per object, no cache.
ORACLE_CONFIG = AugmentationConfig("sequential", cache_size=0)


class _Polyphony(Workload):
    """Set-up shared by the three workloads over the 4-store Polyphony."""

    def build(self) -> None:
        self.bundle = build_polyphony(
            stores=4,
            scale=PolystoreScale(n_albums=self.scale.n_albums),
            seed=self.seed,
        )
        self.queries = QueryWorkload(self.bundle)
        self.databases = self.bundle.database_names()

    def add_query(self, database: str, size: int, variant: int, level: int):
        query = self.queries.query(database, size, variant).query
        return self.book.add(database, query, level), database, query, level

    def input_digest(self) -> dict[str, Any]:
        polystore = self.bundle.polystore
        return {
            "objects": {
                name: polystore.database(name).count_objects()
                for name in sorted(polystore)
            },
            "aindex_nodes": self.bundle.aindex.node_count(),
            "aindex_edges": self.bundle.aindex.edge_count(),
            "script": self.script_digest(),
        }

    def script_digest(self) -> str:
        """Fingerprint of the first blocks of the script."""
        blocks = self.script()
        head = [next(blocks) for __ in range(4)]
        text = repr(
            [[self.book.entries[op[0]] for op in block] for block in head]
        )
        return hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()

    def script(self) -> Iterator[list[tuple]]:
        raise NotImplementedError

    def oracle(self) -> Quepa:
        return Quepa(
            self.bundle.polystore, self.bundle.aindex, config=ORACLE_CONFIG
        )


# ---------------------------------------------------------------------------
# search_cold / search_warm
# ---------------------------------------------------------------------------


class _Search(_Polyphony):
    """One thread, closed loop, ``Quepa.augmented_search`` on the virtual
    runtime."""

    cache_size = 0

    def setup(self) -> None:
        self.build()
        self.config = AugmentationConfig(
            "outer_batch", 64, 4, cache_size=self.cache_size
        )
        self.quepa = Quepa(
            self.bundle.polystore, self.bundle.aindex, config=self.config
        )
        self.bundle.aindex.frozen()
        self.blocks = self.script()
        self.warm_up()

    def warm_up(self) -> None:
        """First-touch work that is not part of steady state."""

    def context_classes(self) -> tuple[type, ...]:
        return (type(self.quepa.runtime.request_context()),)

    def counters(self) -> dict[str, float]:
        return _quepa_counters(self.quepa)

    def measure(self, budget: Budget, tracer: Tracer | None) -> Part:
        part = Part()
        before = self.counters()
        planned = store_queries = 0
        blocks_done = 0
        search = self.quepa.augmented_search
        speed = self.speed
        mark = speed.mark()
        speed.sample()
        while not budget.spent(part.measured, blocks_done):
            for query_id, database, query, level in next(self.blocks):
                speed.sample_if_due()
                part.attempted += 1
                try:
                    with self.op(tracer, "query", "spine"):
                        start = perf_counter()
                        answer = search(
                            database, query, level=level, config=self.config
                        )
                        latency = perf_counter() - start
                except Exception:  # counted, and the run reports failure
                    part.errors += 1
                    continue
                part.measured += latency
                part.latencies.append(latency)
                part.virtual_seconds += answer.stats.elapsed
                part.answers.append((query_id, digest(answer)))
                planned += answer.stats.planned_fetches
                store_queries += answer.stats.queries_issued
            blocks_done += 1
        speed.sample()
        part.host_factor = speed.factor(mark)
        part.counters = _delta(self.counters(), before)
        part.counters["planned_fetches"] = planned
        part.counters["store_queries"] = store_queries
        return part

    def verify(self, parts: list[Part], tracer: Tracer | None) -> tuple[int, int]:
        failed = _check_against_oracle(
            self.book, parts, self.oracle(), self.scale.oracle_sample,
            self.rng("oracle"),
        )
        return (
            sum(part.attempted for part in parts),
            failed + sum(part.errors for part in parts),
        )

    def layer_values(self, part: Part, attribution: Attribution) -> dict[str, float]:
        return _common_layer_values(part, len(part.latencies), 0)


class SearchCold(_Search):
    name = "search_cold"

    @property
    def cache_size(self) -> int:  # type: ignore[override]
        return self.scale.cold_cache

    def script(self) -> Iterator[list[tuple]]:
        """Every (database, size, level) once per block, shuffled, each
        with a uniformly random variant (key window)."""
        rng = self.rng("script")
        combos = [
            (database, size, level)
            for database in self.databases
            for size in self.scale.cold_sizes
            for level in (0, 1)
        ]
        while True:
            rng.shuffle(combos)
            yield [
                self.add_query(
                    database, size, rng.randrange(self.scale.variants), level
                )
                for database, size, level in combos
            ]

    def guard(self, part: Part) -> None:
        probes = part.counters["cache.hits"] + part.counters["cache.misses"]
        hit_ratio = _ratio(part.counters["cache.hits"], probes)
        if hit_ratio >= 0.15:
            raise GuardError(
                f"search_cold is not cold: cache hit ratio {hit_ratio:.3f}"
            )

    def extras(self, traced: bool) -> dict[str, float]:
        """Fixed-count probes of the sharded and planner paths, which no
        workload exercises (known gap: a number, not a gate)."""
        return _probes(self) if traced else {}


def _probes(workload: _Search) -> dict[str, float]:
    bundle = workload.bundle
    sharded = shard_polystore(bundle.polystore, shards=2, placement="hash")
    quepa = Quepa(sharded, bundle.aindex)
    keys = [
        bundle.entity_key("transactions", seq)
        for seq in range(workload.scale.probe_keys)
    ]
    connector = quepa.registry.connector("transactions")
    fetch_times = []
    for __ in range(5):
        ctx = quepa.runtime.root()
        start = perf_counter()
        found = connector.fetch_many(ctx, keys)
        fetch_times.append(perf_counter() - start)
        if len(found) != len(keys):
            raise GuardError(
                f"sharded probe fetched {len(found)} of {len(keys)} keys"
            )
    sharded_index = shard_aindex(bundle.aindex, shards=2)
    start = perf_counter()
    sharded_index.frozen()
    freeze = perf_counter() - start
    engine = FederatedEngine(bundle.polystore, bundle.aindex)
    __, database, query, level = workload.add_query(
        "transactions", workload.scale.cold_sizes[1], 0, 1
    )
    plan_times = []
    for __ in range(5):
        start = perf_counter()
        candidates, __rejected = engine.candidates(
            LogicalQuery(database, query, level=level)
        )
        plan_times.append(perf_counter() - start)
        if not candidates:
            raise GuardError("planner probe enumerated no admissible plan")
    return {
        "sharding.fetch_many_ms": statistics.median(fetch_times) * 1000.0,
        "sharding.freeze_ms": freeze * 1000.0,
        "planner.plan_ms": statistics.median(plan_times) * 1000.0,
    }


class SearchWarm(_Search):
    name = "search_warm"
    cache_size = 200_000

    def hot_queries(self) -> list[tuple]:
        """Two queries per database of about equal planned work — a small
        level-1 and a large level-0 search — on seeded key windows. The
        shapes are fixed so that set-ups with different seeds cost the
        same; only the windows and the order move."""
        rng = self.rng("hot")
        small, large = self.scale.cold_sizes
        return [
            self.add_query(
                database, size, rng.randrange(self.scale.variants), level
            )
            for database in self.databases
            for size, level in ((small, 1), (large, 0))
        ]

    def script(self) -> Iterator[list[tuple]]:
        rng = self.rng("script")
        hot = self.hot_queries()
        while True:
            rng.shuffle(hot)
            yield list(hot)

    def warm_up(self) -> None:
        for __, database, query, level in next(self.script()):
            self.quepa.augmented_search(
                database, query, level=level, config=self.config
            )

    def guard(self, part: Part) -> None:
        counters = part.counters
        probes = counters["cache.hits"] + counters["cache.misses"]
        hit_ratio = _ratio(counters["cache.hits"], probes)
        multi_gets = sum(
            value for key, value in counters.items()
            if key.endswith(".multi_gets")
        )
        if hit_ratio < 0.99 or multi_gets or counters["aindex.refreezes"]:
            raise GuardError(
                f"search_warm is not warm: cache hit ratio {hit_ratio:.3f}, "
                f"{multi_gets:.0f} store multi_gets, "
                f"{counters['aindex.refreezes']:.0f} refreezes"
            )


# ---------------------------------------------------------------------------
# serve_closed
# ---------------------------------------------------------------------------


def _zipf_index(rng: random.Random, count: int, s: float) -> int:
    weights = [1.0 / (rank ** s) for rank in range(1, count + 1)]
    return rng.choices(range(count), weights)[0]


class ServeClosed(_Polyphony):
    """Two closed-loop clients against a ``QuepaServer`` on the real
    runtime: a client sends its next request when the previous answer
    has arrived, as an interactive session does."""

    name = "serve_closed"
    sequential = False
    CLIENTS = 2
    HOT = 8
    ZIPF_S = 1.1

    def setup(self) -> None:
        self.build()
        profile = centralized_profile(self.databases)
        self.quepa = Quepa(
            self.bundle.polystore,
            self.bundle.aindex,
            profile=profile,
            runtime=RealRuntime(profile, time_scale=1.0),
            config=AugmentationConfig("outer_batch", 64, 4, cache_size=4096),
        )
        self.server = QuepaServer(self.quepa, ServingConfig()).start()
        self.bundle.aindex.frozen()
        self.hot = self.hot_queries()
        self.scripts = [self.script(client) for client in range(self.CLIENTS)]
        # First-touch work (parse caches, lazy imports) and the shared hot
        # pool, which every session after the first finds cached.
        for __, database, query, level in self.hot:
            self.server.search("warmup", database, query, level=level)
        _age_telemetry(self.quepa)

    def close(self) -> None:
        self.server.stop()

    def context_classes(self) -> tuple[type, ...]:
        return (type(self.quepa.runtime.request_context()),)

    def hot_queries(self) -> list[tuple]:
        rng = self.rng("hot")
        small, large = self.scale.serve_sizes
        return [
            self.add_query(
                database, size, rng.randrange(self.scale.serve_windows), level
            )
            for database in self.databases
            for size, level in ((small, 1), (large, 0))
        ]

    def script(self, client: int = 0) -> Iterator[list[tuple]]:
        """Per block: the 8 shared hot queries once each, and 8 searches
        on Zipf-skewed key windows covering every (size, level) twice."""
        rng = self.rng(f"client{client}")
        hot = self.hot
        shapes = [
            (size, level)
            for size in self.scale.serve_sizes
            for level in (0, 1)
        ] * 2
        while True:
            block = list(hot)
            for size, level in shapes:
                block.append(
                    self.add_query(
                        rng.choice(self.databases),
                        size,
                        _zipf_index(rng, self.scale.serve_windows, self.ZIPF_S),
                        level,
                    )
                )
            rng.shuffle(block)
            yield block

    def counters(self) -> dict[str, float]:
        counters = _quepa_counters(self.quepa)
        status = self.server.status()
        totals = status["totals"]
        counters["serving.submitted"] = totals["submitted"]
        counters["serving.admitted"] = totals["admitted"]
        counters["serving.completed"] = totals["completed"]
        counters["serving.failed"] = totals["failed"]
        counters["serving.shed"] = sum(totals["shed"].values())
        coalesce = (status["accelerator"] or {}).get("coalesce") or {}
        counters["coalesce.leaders"] = coalesce.get("leaders", 0)
        counters["coalesce.followers"] = coalesce.get("followers", 0)
        metrics = self.quepa.obs.metrics
        wait = metrics.histogram("serving_queue_wait_seconds")
        counters["serving.queue_wait_s"] = wait.sum
        profile = self.quepa.runtime.profile
        counters["model.charged_s"] = metrics.counter(
            "cpu_seconds_total"
        ).value + sum(
            metrics.counter("store_queries_total", database=database).value
            * profile.site(database).roundtrip
            for database in self.databases
        )
        return counters

    def measure(self, budget: Budget, tracer: Tracer | None) -> Part:
        part = Part()
        before = self.counters()
        lock = threading.Lock()
        totals = {"planned": 0, "store_queries": 0, "rate": 0.0}
        started = perf_counter()

        def client(index: int) -> None:
            blocks = self.scripts[index]
            session = f"client{index}"
            blocks_done = completed = 0
            while not budget.spent(perf_counter() - started, blocks_done):
                for query_id, database, query, level in next(blocks):
                    outcome = self._request(
                        session, database, query, level, tracer
                    )
                    with lock:
                        part.attempted += 1
                        if outcome is None:
                            part.errors += 1
                            continue
                        latency, answer = outcome
                        completed += 1
                        part.latencies.append(latency)
                        part.answers.append((query_id, digest(answer)))
                        totals["planned"] += answer.stats.planned_fetches
                        totals["store_queries"] += answer.stats.queries_issued
                blocks_done += 1
            with lock:
                totals["rate"] += completed / (perf_counter() - started)

        threads = [
            threading.Thread(target=client, args=(index,), name=f"spine-client-{index}")
            for index in range(self.CLIENTS)
        ]
        mark = self.speed.mark()
        for thread in threads:
            thread.start()
        # The kernel runs on this thread beside the clients: the scaled
        # sleeps of the real runtime are thousands of sub-millisecond
        # syscalls per request, and they follow the host's speed as
        # closely as the Python around them does (README, "Noise").
        while any(thread.is_alive() for thread in threads):
            self.speed.sample()
            threads[0].join(SAMPLE_EVERY_S)
        part.host_factor = self.speed.factor(mark)
        # Clients end on their own block boundaries, so throughput is the
        # sum of the clients' own rates, not ops over the longest client.
        part.measured = _ratio(len(part.latencies), totals["rate"])
        part.counters = _delta(self.counters(), before)
        # The real runtime's clock is the wall, which already gives the
        # latencies. Its model-clock number is what the cost model
        # charged: the CPU seconds and store round-trips it slept for.
        part.virtual_seconds = part.counters["model.charged_s"]
        part.counters["planned_fetches"] = totals["planned"]
        part.counters["store_queries"] = totals["store_queries"]
        return part

    def _request(self, session, database, query, level, tracer):
        """One closed-loop request: ``(latency, answer)`` or ``None``."""
        op_id = next(self._op_ids)
        try:
            with (
                tracer.op(op_id, "query", "serving", exclusive=False)
                if tracer is not None
                else nullcontext()
            ):
                start = perf_counter()
                ticket = self.server.submit_search(
                    session, database, query, level=level
                )
                if tracer is not None:
                    tracer.trace_ops[ticket.trace_id] = op_id
                answer = ticket.result()
                return perf_counter() - start, answer
        except Exception:  # shed, expired or failed: counted by the caller
            return None

    def guard(self, part: Part) -> None:
        """Nothing shed, and store fetches went through single-flight.

        Followers are not required: once the hot pool is cached, two
        closed-loop clients almost never have the same uncached fetch in
        flight, and the measured steady-state hit ratio is 0 (README).
        """
        counters = part.counters
        if counters["serving.shed"] or not counters["coalesce.leaders"]:
            raise GuardError(
                f"serve_closed lost its shape: {counters['serving.shed']:.0f} "
                f"shed, {counters['coalesce.leaders']:.0f} single-flight leaders"
            )

    def verify(self, parts: list[Part], tracer: Tracer | None) -> tuple[int, int]:
        totals = self.server.status()["totals"]
        shed = totals["shed"]
        reconciled = (
            totals["submitted"]
            == totals["admitted"] + shed["queue_full"]
            + shed["deadline_at_admission"]
            and totals["admitted"]
            == totals["completed"] + totals["failed"] + shed["deadline"]
            + shed["stopped"]
        )
        if not reconciled:
            raise GuardError(f"scheduler meters do not reconcile: {totals}")
        failed = _check_against_oracle(
            self.book, parts, self.oracle(), self.scale.oracle_sample,
            self.rng("oracle"),
        )
        return (
            sum(part.attempted for part in parts),
            failed + sum(part.errors for part in parts),
        )

    def layer_values(self, part: Part, attribution: Attribution) -> dict[str, float]:
        searches = len(part.latencies)
        counters = part.counters
        values = _common_layer_values(part, searches, 0)
        fetches = counters["coalesce.leaders"] + counters["coalesce.followers"]
        queue_wait_ms = _ratio(counters["serving.queue_wait_s"], searches) * 1000
        values.update({
            "serving.queue_wait_ms": queue_wait_ms,
            "serving.service_ms": max(
                attribution.self_ms("query", (("serving", "query"),))
                - queue_wait_ms,
                0.0,
            ),
            "serving.coalesce_hit_ratio": _ratio(
                counters["coalesce.followers"], fetches
            ),
            "serving.shed": counters["serving.shed"],
            "serving.failed": counters["serving.failed"],
        })
        return values


# ---------------------------------------------------------------------------
# ingest_mixed
# ---------------------------------------------------------------------------

WRITES_PER_PUMP = 8
READS_PER_PUMP = 4
CYCLES_PER_BLOCK = 8
HOT_LOOKUPS = 16
BLOCK_CAP = 64
WORDS_PER_TITLE = 4
RESTART_REPEATS = 3
DELTA_FRACTION = 0.01
#: Share of the entity copies that start absent, so that inserts always
#: have a copy to bring back.
ABSENT_FRACTION = 0.1


def _matcher() -> PairwiseMatcher:
    return PairwiseMatcher(
        [AttributeRule("name", "title", JaroWinklerComparator())],
        identity_threshold=0.95,
        matching_threshold=0.9,
    )


def _settings() -> CollectorSettings:
    return CollectorSettings(max_block_size=BLOCK_CAP)


def index_edges(index) -> set:
    return {
        (str(node), str(nb.key), nb.type.value, round(nb.probability, 12))
        for node in set(index.nodes())
        for nb in index.neighbors(node)
    }


class IngestMixed(Workload):
    """Writes beside reads on one live index.

    The corpus has the contested-bucket shape of the legacy ingestion
    benchmark: four stores share one entity set, every title draws four
    words from a vocabulary sized so that token buckets sit near the
    block cap, plus a unique suffix. Unlike the legacy corpus the
    key-value values are ``{"title": ...}`` records, so all four engines
    take part in matching, and a tenth of the entity copies start
    absent so that inserts can bring one back (see ``write``). One cycle
    is 8 writes, one pump, 4 reads.
    """

    name = "ingest_mixed"

    def setup(self) -> None:
        rng = self.rng("corpus")
        n = self.scale.ingest_entities
        vocabulary_size = max(1, (n * 4 * WORDS_PER_TITLE) // 56)
        self.vocabulary = [
            "".join(rng.choice(string.ascii_lowercase) for __ in range(7))
            for __ in range(vocabulary_size)
        ]
        self.sales = RelationalStore()
        self.sales.create_table(
            "inventory",
            TableSchema(
                columns=[
                    Column("id", ColumnType.TEXT, nullable=False),
                    Column("name", ColumnType.TEXT),
                ],
                primary_key="id",
            ),
        )
        self.catalogue = DocumentStore()
        self.similar = GraphStore()
        self.discount = KeyValueStore(keyspace="drop")
        #: Per engine: entity -> current title; the live and the absent
        #: entities in lists, so that a seeded choice costs O(1).
        self.titles: list[dict[int, str]] = [{} for __ in range(4)]
        self.live: list[list[int]] = [[] for __ in range(4)]
        self.absent: list[list[int]] = [[] for __ in range(4)]
        #: entity -> the words its copies in all four engines share.
        self.words = [
            " ".join(rng.choice(self.vocabulary) for __ in range(WORDS_PER_TITLE))
            for __ in range(n)
        ]
        for entity in range(n):
            title = self._title(rng, entity)
            for engine in range(4):
                if rng.random() < ABSENT_FRACTION:
                    self.absent[engine].append(entity)
                else:
                    self._insert(engine, entity, title)
        self.polystore = Polystore()
        self.polystore.attach("transactions", self.sales)
        self.polystore.attach("catalogue", self.catalogue)
        self.polystore.attach("similar", self.similar)
        self.polystore.attach("discount", self.discount)

        self.directory = self.workdir / f"ingest-{self.seed}"
        shutil.rmtree(self.directory, ignore_errors=True)
        self.directory.mkdir(parents=True)
        self.wal = WriteAheadLog(self.directory / "wal.jsonl")
        self.tier = MaterializedAugmentations()
        self.hub = ChangeHub(
            self.polystore,
            AIndex(),
            IncrementalCollector(_matcher(), _settings()),
            wal=self.wal,
            materialized=self.tier,
        )
        self.hub.bootstrap()
        self.reports = {"pairs_rescored": 0, "affected_nodes": 0, "invalidated": 0}
        self._count_applies(self.hub.maintainer)
        self.quepa = Quepa(self.polystore, self.hub.aindex)
        self.server = QuepaServer(self.quepa, ServingConfig())
        self.server.scheduler.materialized = self.tier
        self.server.start()
        self.lookups = self.hot_lookups()
        self.write_rng = self.rng("writes")
        self.read_rng = self.rng("reads")
        self.last_reads: list[tuple[int, str]] = []
        for query_id, database, query, level in self.lookups:
            self.server.search("warmup", database, query, level=level)
        _age_telemetry(self.quepa)
        self.digest = self._input_digest()

    def _count_applies(self, maintainer: IncrementalCollector) -> None:
        """Keep the ``IngestReport`` totals the hub does not pass on. The
        class attribute is looked up per call, so a tracer installed
        later still sees the call."""

        def apply(polystore, aindex, events):
            report = IncrementalCollector.apply(
                maintainer, polystore, aindex, events
            )
            self.reports["pairs_rescored"] += report.pairs_rescored
            self.reports["affected_nodes"] += report.affected_nodes
            return report

        maintainer.apply = apply  # type: ignore[method-assign]

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.stop()
            self.server = None
        directory = getattr(self, "directory", None)
        if directory is not None:
            shutil.rmtree(directory, ignore_errors=True)

    def context_classes(self) -> tuple[type, ...]:
        return (type(self.quepa.runtime.request_context()),)

    # -- corpus and writes --------------------------------------------------

    def _title(self, rng: random.Random, entity: int) -> str:
        return f"{self.words[entity]} x{rng.randrange(1 << 20):05x}"

    def _insert(self, engine: int, entity: int, title: str) -> None:
        if engine == 0:
            self.sales.insert_row("inventory", {"id": f"a{entity}", "name": title})
        elif engine == 1:
            self.catalogue.insert("albums", {"_id": f"d{entity}", "title": title})
        elif engine == 2:
            self.similar.create_node(
                "Item", {"title": title, "seq": entity}, node_id=f"i{entity}"
            )
        else:
            self.discount.set(f"k{entity}", {"title": title})
        self.titles[engine][entity] = title
        self.live[engine].append(entity)

    def _edit(self, engine: int, entity: int, title: str) -> None:
        if engine == 0:
            self.sales.table("inventory").update(f"a{entity}", {"name": title})
        elif engine == 1:
            self.catalogue.update_one("albums", f"d{entity}", {"title": title})
        elif engine == 2:
            self.similar.update_node(f"i{entity}", {"title": title})
        else:
            self.discount.set(f"k{entity}", {"title": title})
        self.titles[engine][entity] = title

    def _delete(self, engine: int, position: int) -> None:
        live = self.live[engine]
        entity = live[position]
        live[position] = live[-1]
        live.pop()
        self.absent[engine].append(entity)
        if engine == 0:
            self.sales.table("inventory").delete(f"a{entity}")
        elif engine == 1:
            self.catalogue.delete_one("albums", f"d{entity}")
        elif engine == 2:
            self.similar.delete_node(f"i{entity}")
        else:
            self.discount.delete(f"k{entity}")
        del self.titles[engine][entity]

    def write(self, rng: random.Random, engine: int) -> None:
        """80 % title edit (new unique suffix: same buckets, every score
        re-decided), 10 % delete of a copy, 10 % insert of an absent one.

        An insert brings back a copy of an entity that other engines
        still hold, so it matches them again: deletes and inserts move
        relations both ways and the index keeps its size however long
        the run is (inserting unrelated entities, as the legacy corpus
        does, lets it decay by a third per minute).
        """
        kind = rng.random()
        live = self.live[engine]
        absent = self.absent[engine]
        if kind < 0.1 and len(live) > self.scale.lookup_keys:
            self._delete(engine, rng.randrange(len(live)))
        elif kind < 0.2 and absent:
            position = rng.randrange(len(absent))
            entity = absent[position]
            absent[position] = absent[-1]
            absent.pop()
            self._insert(engine, entity, self._title(rng, entity))
        else:
            entity = rng.choice(live)
            self._edit(engine, entity, self._title(rng, entity))

    # -- reads --------------------------------------------------------------

    def hot_lookups(self) -> list[tuple]:
        """16 level-1 entity look-ups, four per engine, each naming
        ``lookup_keys`` entities in the engine's own language."""
        rng = self.rng("lookups")
        n = self.scale.ingest_entities
        count = self.scale.lookup_keys
        lookups = []
        for index in range(HOT_LOOKUPS):
            engine = index % 4
            entities = rng.sample(range(n), count)
            if engine == 0:
                keys = ", ".join(f"'a{entity}'" for entity in entities)
                database = "transactions"
                query: Any = f"SELECT * FROM inventory WHERE id IN ({keys})"
            elif engine == 1:
                database = "catalogue"
                query = {
                    "collection": "albums",
                    "filter": {"_id": {"$in": [f"d{e}" for e in entities]}},
                }
            elif engine == 2:
                database = "similar"
                low = rng.randrange(n - count)
                query = (
                    f"MATCH (n:Item) WHERE n.seq >= {low} "
                    f"AND n.seq < {low + count} RETURN n"
                )
            else:
                database = "discount"
                query = ("mget", [f"k{entity}" for entity in entities])
            lookups.append((self.book.add(database, query, 1), database, query, 1))
        return lookups

    def counters(self) -> dict[str, float]:
        counters = _quepa_counters(self.quepa)
        status = self.tier.status()
        counters["tier.hits"] = status["hits"]
        counters["tier.misses"] = status["misses"]
        counters["tier.invalidations"] = status["invalidations"]
        counters["wal.bytes"] = self.wal.size_bytes()
        wait = self.quepa.obs.metrics.histogram("serving_queue_wait_seconds")
        counters["serving.queue_wait_s"] = wait.sum
        counters.update(self.reports)
        return counters

    def measure(self, budget: Budget, tracer: Tracer | None) -> Part:
        """Blocks of ``CYCLES_PER_BLOCK`` cycles; the reads of one block
        are every hot look-up twice, in seeded order."""
        part = Part()
        before = self.counters()
        part.counters = {"planned_fetches": 0, "store_queries": 0}
        blocks_done = 0
        mark = self.speed.mark()
        self.speed.sample()
        while not budget.spent(part.measured, blocks_done):
            reads = self.lookups * (
                CYCLES_PER_BLOCK * READS_PER_PUMP // len(self.lookups)
            )
            self.read_rng.shuffle(reads)
            for cycle in range(CYCLES_PER_BLOCK):
                self._cycle(
                    part, tracer,
                    reads[cycle * READS_PER_PUMP:(cycle + 1) * READS_PER_PUMP],
                )
            blocks_done += 1
        self.speed.sample()
        part.host_factor = self.speed.factor(mark)
        part.counters.update(_delta(self.counters(), before))
        return part

    def _cycle(self, part: Part, tracer: Tracer | None, reads: list) -> None:
        engines = [0, 1, 2, 3] * (WRITES_PER_PUMP // 4)
        self.write_rng.shuffle(engines)
        written: list[float] = []
        self.speed.sample_if_due()
        start = perf_counter()
        with self.op(tracer, "pump", "spine"):
            report = self._write_and_pump(engines, written)
        pumped = perf_counter()
        part.attempted += WRITES_PER_PUMP
        part.pumps += 1
        part.events += report.events
        part.ingest_seconds += pumped - start
        part.freshness.extend(pumped - at for at in written)
        part.measured += pumped - start
        self.reports["invalidated"] += report.invalidated
        self.last_reads = []
        for query_id, database, query, level in reads:
            part.attempted += 1
            outcome = self._read(database, query, level, tracer)
            if outcome is None:
                part.errors += 1
                continue
            latency, answer = outcome
            part.measured += latency
            part.latencies.append(latency)
            part.virtual_seconds += answer.stats.elapsed
            self.last_reads.append((query_id, digest(answer)))
            part.counters["planned_fetches"] += answer.stats.planned_fetches
            part.counters["store_queries"] += answer.stats.queries_issued

    def _write_and_pump(self, engines: list[int], written: list[float]):
        for engine in engines:
            self.write(self.write_rng, engine)
            written.append(perf_counter())
        return self.hub.pump()

    def _read(self, database, query, level, tracer):
        try:
            with self.op(tracer, "query", "serving"):
                start = perf_counter()
                answer = self.server.search("reader", database, query, level=level)
                return perf_counter() - start, answer
        except Exception:  # shed, expired or failed: counted by the caller
            return None

    def guard(self, part: Part) -> None:
        counters = part.counters
        lookups = counters["tier.hits"] + counters["tier.misses"]
        enough = part.pumps / 4
        if (
            counters["aindex.refreezes"] < 1
            or counters["tier.invalidations"] < enough
            or not counters["tier.hits"]
        ):
            raise GuardError(
                f"ingest_mixed lost its shape over {part.pumps} pumps: "
                f"{counters['aindex.refreezes']:.0f} refreezes, "
                f"{counters['tier.invalidations']:.0f} materialized "
                f"invalidations, materialized hit ratio "
                f"{_ratio(counters['tier.hits'], lookups):.3f}"
            )

    # -- end state ----------------------------------------------------------

    def verify(self, parts: list[Part], tracer: Tracer | None) -> tuple[int, int]:
        """The end state against the batch oracle.

        Reads in the middle of the run saw index states that no longer
        exist, so what is checked is what still can be: the reads of the
        last cycle plus one more pass over every hot look-up (all of
        them answered after the last pump), against a fresh sequential
        ``Quepa`` over an index batch-built from the final stores — which
        the live index must equal edge for edge.
        """
        failed = 0
        if self.hub.lag() != 0:
            failed += 1
        fresh = AIndex()
        with self.op(tracer, "bootstrap", "spine"):
            Collector(_matcher(), _settings()).collect(self.polystore, fresh)
        if index_edges(self.hub.aindex) != index_edges(fresh):
            failed += 1
        final = Part(answers=list(self.last_reads))
        for query_id, database, query, level in self.lookups:
            answer = self.server.search("final", database, query, level=level)
            final.answers.append((query_id, digest(answer)))
            final.attempted += 1
        failed += _check_against_oracle(
            self.book, [final],
            Quepa(self.polystore, fresh, config=ORACLE_CONFIG),
            len(self.lookups), self.rng("oracle"),
        )
        return (
            sum(part.attempted for part in parts) + final.attempted,
            failed + sum(part.errors for part in parts),
        )

    def extras(self, traced: bool) -> dict[str, float]:
        """Untimed: snapshot, a 1 % delta, warm restart. The restarted
        index must equal the live one, which every run checks once; the
        traced run repeats the round to report median times."""
        self.server.stop()
        saves, restarts, replays = [], [], []
        snapshot_bytes = 0
        for repeat in range(RESTART_REPEATS if traced else 1):
            directory = self.directory / f"snapshot-{repeat}"
            start = perf_counter()
            self.hub.snapshot(directory)
            saves.append(perf_counter() - start)
            snapshot_bytes = sum(
                path.stat().st_size for path in directory.iterdir()
            )
            delta = max(1, int(self.polystore_objects() * DELTA_FRACTION))
            for index in range(delta):
                self.write(self.write_rng, index % 4)
            self.hub.pump()
            start = perf_counter()
            restarted, stats = ChangeHub.warm_restart(
                directory, _matcher(), settings=_settings(), wal=self.wal
            )
            restarts.append(perf_counter() - start)
            bundle = load_snapshot_bundle(directory)
            start = perf_counter()
            replay(bundle.polystore, self.wal, dict(bundle.applied_seqs))
            replays.append(perf_counter() - start)
            if stats["replayed_events"] != delta or index_edges(
                restarted.aindex
            ) != index_edges(self.hub.aindex):
                raise GuardError(
                    "warm-restarted index differs from the live one "
                    f"({stats['replayed_events']} of {delta} events replayed)"
                )
            restarted.detach()
        return {
            "persistence.snapshot.save_ms": statistics.median(saves) * 1000.0,
            "persistence.snapshot.warm_restart_ms": statistics.median(restarts) * 1000.0,
            "persistence.snapshot.bytes": float(snapshot_bytes),
            "persistence.wal.replay_ms": statistics.median(replays) * 1000.0,
        }

    def polystore_objects(self) -> int:
        return sum(len(live) for live in self.titles)

    def input_digest(self) -> dict[str, Any]:
        return self.digest

    def _input_digest(self) -> dict[str, Any]:
        head = repr(self.words[:8] + self.book.entries[:HOT_LOOKUPS])
        return {
            "objects": {
                name: self.polystore.database(name).count_objects()
                for name in sorted(self.polystore)
            },
            "aindex_nodes": self.hub.aindex.node_count(),
            "aindex_edges": self.hub.aindex.edge_count(),
            "script": hashlib.blake2b(
                head.encode("utf-8"), digest_size=8
            ).hexdigest(),
        }

    def layer_values(self, part: Part, attribution: Attribution) -> dict[str, float]:
        searches = len(part.latencies)
        counters = part.counters
        values = _common_layer_values(part, searches, part.pumps)
        lookups = counters["tier.hits"] + counters["tier.misses"]
        queue_wait_ms = _ratio(counters["serving.queue_wait_s"], searches) * 1000
        values.update({
            "serving.queue_wait_ms": queue_wait_ms,
            "serving.service_ms": max(
                attribution.self_ms("query", (("serving", "query"),))
                - queue_wait_ms,
                0.0,
            ),
            "cdc.hub.events": _ratio(part.events, part.pumps),
            "cdc.hub.invalidated": _ratio(counters["invalidated"], part.pumps),
            "cdc.maintainer.pairs_rescored_per_event": _ratio(
                counters["pairs_rescored"], part.events
            ),
            "cdc.maintainer.affected_nodes_per_event": _ratio(
                counters["affected_nodes"], part.events
            ),
            "collector.matching.pairs_scored": _ratio(
                attribution.calls("pump", ("collector.matching", "decide")),
                part.pumps,
            ),
            "collector.blocking.candidate_pairs_ms": attribution.self_ms(
                "bootstrap", (("collector.blocking", "candidate_pairs"),)
            ),
            "cdc.materialize.hit_ratio": _ratio(counters["tier.hits"], lookups),
            "persistence.wal.bytes_per_event": _ratio(
                counters["wal.bytes"], part.events
            ),
        })
        return values


WORKLOADS = {
    cls.name: cls for cls in (SearchCold, SearchWarm, ServeClosed, IngestMixed)
}


def make(
    name: str,
    scale: Scale,
    seed: int,
    workdir: Path,
    speed: HostSpeed | None = None,
) -> Workload:
    return WORKLOADS[name](scale, seed, workdir, speed or HostSpeed())
