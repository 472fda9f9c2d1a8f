"""Shared machinery of the middleware emulators.

The emulators double as the execution cores of the cross-store planner
(:mod:`repro.planner`): each one's architecture — collect-and-join,
staged ETL cast, in-memory multi-model import — is exposed there as a
:class:`~repro.planner.plans.PhysicalPlan` strategy competing against
QUEPA's A'-index push-down. The page-scan primitive both layers share
lives here as :func:`page_scan`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

from repro.errors import OutOfMemoryError, StoreUnavailableError
from repro.model.objects import GlobalKey
from repro.network.executor import ExecContext, VirtualRuntime
from repro.network.latency import DeploymentProfile
from repro.workloads.builder import PolystoreBundle
from repro.workloads.queries import WorkloadQuery

#: Page size of bulk collection scans through a middleware connector.
SCAN_PAGE = 1000


def check_memory(name: str, footprint: int, budget: int) -> None:
    """The red X of Fig 13: ``name`` holds more objects than its budget."""
    if footprint > budget:
        raise OutOfMemoryError(
            f"{name}: footprint {footprint} objects exceeds budget {budget}",
            footprint=footprint,
            budget=budget,
        )


def page_scan(
    ctx: ExecContext,
    store,
    database: str,
    collection: str,
    page_size: int = SCAN_PAGE,
    issue: Callable | None = None,
) -> list[GlobalKey]:
    """Pull a whole collection through a middleware connector, paged.

    Charges one store roundtrip per page of ``page_size`` objects and
    returns the global keys (middleware layers track footprints and
    join keys; payloads live in the underlying stores either way).
    ``issue`` optionally replaces the plain ``ctx.store_call`` — the
    planner routes pages through the resilience layer with it, so an
    open circuit breaker fails a scan exactly as it fails a fetch.
    """
    keys = [
        GlobalKey(database, collection, local)
        for local in store.collection_keys(collection)
    ]
    for page_start in range(0, len(keys), page_size):
        page = keys[page_start:page_start + page_size]
        op = lambda page=page: page  # noqa: E731
        if issue is not None:
            issue(ctx, database, op)
        else:
            ctx.store_call(database, op)
    return keys


@dataclass
class MiddlewareResult:
    """Outcome of one middleware run (Fig 13 data point)."""

    system: str
    elapsed: float
    answer_size: int
    out_of_memory: bool = False
    footprint: int = 0
    #: Reason string when a source store was unreachable mid-run (the
    #: run reports instead of raising, like the OOM case).
    unavailable: str | None = None

    @property
    def marker(self) -> str:
        """The plot marker: the paper's red 'X' on OOM."""
        return "X" if self.out_of_memory else "o"


class MiddlewareSystem(ABC):
    """A baseline system answering the augmentation task its own way."""

    #: Display name used by the benchmark tables.
    name = "abstract"
    #: Engine kinds the middleware can connect to.
    supported_engines: frozenset[str] = frozenset(
        {"relational", "document", "graph", "keyvalue"}
    )

    def __init__(
        self,
        bundle: PolystoreBundle,
        profile: DeploymentProfile,
        memory_budget: int = 200_000,
    ) -> None:
        self.bundle = bundle
        self.profile = profile
        self.memory_budget = memory_budget
        self.runtime = VirtualRuntime(profile)

    # -- public entry point ----------------------------------------------------

    def run(self, query: WorkloadQuery, level: int = 0) -> MiddlewareResult:
        """Answer the augmented query; OOM and unreachable stores are
        reported on the result rather than raised (the middleware has no
        degraded half-answers — its run simply fails and says why)."""
        ctx = self.runtime.root()
        try:
            answer_size = self._execute(ctx, query, level)
        except OutOfMemoryError as oom:
            return MiddlewareResult(
                system=self.name,
                elapsed=self.runtime.elapsed,
                answer_size=0,
                out_of_memory=True,
                footprint=oom.footprint,
            )
        except StoreUnavailableError as exc:
            return MiddlewareResult(
                system=self.name,
                elapsed=self.runtime.elapsed,
                answer_size=0,
                unavailable=str(exc),
            )
        return MiddlewareResult(
            system=self.name,
            elapsed=self.runtime.elapsed,
            answer_size=answer_size,
        )

    @abstractmethod
    def _execute(self, ctx: ExecContext, query: WorkloadQuery, level: int) -> int:
        """Run the augmentation task; returns the answer size."""

    # -- shared helpers -----------------------------------------------------------

    def supported_databases(self) -> list[tuple[str, str]]:
        return [
            (name, kind)
            for name, kind in self.bundle.databases
            if kind in self.supported_engines
        ]

    def check_memory(self, footprint: int) -> None:
        check_memory(self.name, footprint, self.memory_budget)

    def scan_collection(
        self, ctx: ExecContext, database: str, collection: str
    ) -> list[GlobalKey]:
        """Pull a whole collection through the middleware, page by page.

        Charges one store roundtrip per page of ``SCAN_PAGE`` objects and
        returns the global keys (the emulators track footprints and join
        keys; payloads live in the underlying stores either way).
        """
        store = self.bundle.polystore.database(database)
        return page_scan(ctx, store, database, collection)

    def run_local_query(self, ctx: ExecContext, query: WorkloadQuery):
        """The user's original query, through the middleware connector."""
        store = self.bundle.polystore.database(query.database)
        return list(
            ctx.store_call(query.database, lambda: store.execute(query.query))
        )
