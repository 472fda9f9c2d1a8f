"""A seeded, deterministic closed-loop load generator.

Drives a :class:`~repro.serving.server.QuepaServer` with N concurrent
client sessions. Each client runs a *closed loop*: submit one request,
wait for its answer, submit the next — so offered load adapts to what
the server can absorb, and throughput comparisons across client counts
are meaningful (the classic closed-system benchmark shape).

Determinism: every client's full request sequence is derived up front
from ``seed`` and the client index via its own ``random.Random``, so a
rerun with the same seed offers byte-identical workloads regardless of
thread interleaving. Only timing (and therefore shedding under a tiny
queue) can differ between runs.
"""

from __future__ import annotations

import random
import threading
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.errors import ServerBusy, ServingError


@dataclass(frozen=True)
class PlannedRequest:
    """One pre-generated request of a client's deterministic script."""

    database: str
    query: Any
    level: int
    size: int


@dataclass
class ClientReport:
    """What one closed-loop client observed."""

    session: str
    requests: int = 0
    completed: int = 0
    shed: int = 0
    failed: int = 0
    #: Per-completed-request wall latencies, seconds, in issue order.
    latencies: list[float] = field(default_factory=list)
    #: Answer sizes (originals + augmented) per completed request.
    answer_sizes: list[int] = field(default_factory=list)


@dataclass
class LoadReport:
    """Aggregate outcome of one load-generation run."""

    clients: int
    requests_per_client: int
    seed: int
    wall_s: float = 0.0
    completed: int = 0
    shed: int = 0
    failed: int = 0
    qps: float = 0.0
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    latency_p99: float = 0.0
    latency_mean: float = 0.0
    per_client: list[ClientReport] = field(default_factory=list)

    def as_dict(self) -> dict[str, Any]:
        return {
            "clients": self.clients,
            "requests_per_client": self.requests_per_client,
            "seed": self.seed,
            "wall_s": self.wall_s,
            "completed": self.completed,
            "shed": self.shed,
            "failed": self.failed,
            "qps": self.qps,
            "latency_p50": self.latency_p50,
            "latency_p95": self.latency_p95,
            "latency_p99": self.latency_p99,
            "latency_mean": self.latency_mean,
        }


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile over already-sorted samples."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, int(q * len(sorted_values))))
    return sorted_values[rank]


class LoadGenerator:
    """Closed-loop client fleet over one server, seeded end to end."""

    def __init__(
        self,
        server,
        workload,
        databases: Sequence[str] | None = None,
        sizes: Sequence[int] = (16,),
        levels: Sequence[int] = (1,),
        seed: int = 0,
        deadline: float | None = None,
        hot_queries: int = 0,
        hot_fraction: float = 0.0,
        zipf_s: float = 0.0,
        zipf_variants: int = 16,
    ) -> None:
        self.server = server
        self.workload = workload
        self.databases = (
            list(databases)
            if databases is not None
            else [name for name, _ in workload.bundle.databases]
        )
        if not self.databases:
            raise ValueError("load generator needs at least one database")
        if not 0.0 <= hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in [0, 1]")
        if zipf_s < 0.0:
            raise ValueError("zipf_s must be >= 0")
        if zipf_variants < 1:
            raise ValueError("zipf_variants must be >= 1")
        self.sizes = list(sizes)
        self.levels = list(levels)
        self.seed = seed
        self.deadline = deadline
        #: Size of the shared hot-query pool and the probability that a
        #: planned request is drawn from it instead of being private to
        #: its client. A hot pool makes concurrent clients issue the
        #: *same* queries — the workload shape single-flight coalescing
        #: exists for. Zero (the default) keeps the legacy all-private
        #: scripts byte-identical.
        self.hot_queries = hot_queries
        self.hot_fraction = hot_fraction
        #: Seeded Zipfian key skew: with ``zipf_s > 0`` the query
        #: *variant* (which shifts the key window, and therefore the
        #: shards the query lands on) is drawn from a Zipf(s)
        #: distribution over ``zipf_variants`` ranks instead of the
        #: legacy uniform draw over 4. Rank 0 is the hottest window, so
        #: a sharded deployment sees genuinely imbalanced partitions
        #: rather than uniform load. Zero (the default) keeps legacy
        #: scripts byte-identical.
        self.zipf_s = zipf_s
        self.zipf_variants = zipf_variants
        if zipf_s > 0.0:
            cumulative: list[float] = []
            total = 0.0
            for rank in range(1, zipf_variants + 1):
                total += 1.0 / (rank ** zipf_s)
                cumulative.append(total)
            self._zipf_cdf: list[float] | None = cumulative
        else:
            self._zipf_cdf = None
        self._hot_pool: list[PlannedRequest] | None = None

    def _planned(self, rng: random.Random) -> PlannedRequest:
        database = rng.choice(self.databases)
        size = rng.choice(self.sizes)
        level = rng.choice(self.levels)
        if self._zipf_cdf is not None:
            point = rng.random() * self._zipf_cdf[-1]
            variant = min(
                bisect_left(self._zipf_cdf, point), self.zipf_variants - 1
            )
        else:
            variant = rng.randrange(4)
        query = self.workload.query(database, size, variant=variant)
        return PlannedRequest(database, query.query, level, size)

    def hot_pool(self) -> list[PlannedRequest]:
        """The seeded hot-query pool, shared by every client."""
        if self._hot_pool is None:
            rng = random.Random(f"{self.seed}:loadgen:hot")
            self._hot_pool = [
                self._planned(rng) for _ in range(self.hot_queries)
            ]
        return self._hot_pool

    def plan_for_client(
        self, client_index: int, requests: int
    ) -> list[PlannedRequest]:
        """The deterministic request script of one client."""
        rng = random.Random(f"{self.seed}:loadgen:{client_index}")
        pool = self.hot_pool()
        script: list[PlannedRequest] = []
        for _ in range(requests):
            if pool and rng.random() < self.hot_fraction:
                script.append(pool[rng.randrange(len(pool))])
            else:
                script.append(self._planned(rng))
        return script

    def run(
        self,
        clients: int,
        requests_per_client: int,
        session_prefix: str = "client",
    ) -> LoadReport:
        """Run the fleet to completion and aggregate what it saw."""
        if clients < 1:
            raise ValueError("clients must be >= 1")
        scripts = [
            self.plan_for_client(i, requests_per_client)
            for i in range(clients)
        ]
        reports = [
            ClientReport(session=f"{session_prefix}-{i}")
            for i in range(clients)
        ]
        barrier = threading.Barrier(clients + 1)

        def client_loop(index: int) -> None:
            report = reports[index]
            barrier.wait()
            for planned in scripts[index]:
                report.requests += 1
                issued = time.monotonic()
                try:
                    answer = self.server.search(
                        report.session,
                        planned.database,
                        planned.query,
                        level=planned.level,
                        deadline=self.deadline,
                    )
                except ServerBusy:
                    report.shed += 1
                    continue
                except ServingError:
                    # Deadline expired in queue: shed by the server.
                    report.shed += 1
                    continue
                except Exception:
                    report.failed += 1
                    continue
                report.completed += 1
                report.latencies.append(time.monotonic() - issued)
                report.answer_sizes.append(
                    len(answer.originals) + len(answer.augmented)
                )

        threads = [
            threading.Thread(
                target=client_loop, args=(i,), name=f"loadgen-{i}"
            )
            for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()  # release all clients at once
        started = time.monotonic()
        for thread in threads:
            thread.join()
        wall = time.monotonic() - started

        aggregate = LoadReport(
            clients=clients,
            requests_per_client=requests_per_client,
            seed=self.seed,
            wall_s=wall,
            per_client=reports,
        )
        latencies: list[float] = []
        for report in reports:
            aggregate.completed += report.completed
            aggregate.shed += report.shed
            aggregate.failed += report.failed
            latencies.extend(report.latencies)
        latencies.sort()
        aggregate.qps = aggregate.completed / wall if wall > 0 else 0.0
        aggregate.latency_p50 = _percentile(latencies, 0.50)
        aggregate.latency_p95 = _percentile(latencies, 0.95)
        aggregate.latency_p99 = _percentile(latencies, 0.99)
        aggregate.latency_mean = (
            sum(latencies) / len(latencies) if latencies else 0.0
        )
        return aggregate
