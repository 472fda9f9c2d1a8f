"""The planner's logical query form and plan-execution results.

A :class:`LogicalQuery` is the declarative input of the federated
engine: a native query against one member store plus the augmentation
reach — level, optional target databases, optional probability floor.
It says *what* related objects the answer must contain; the physical
plans (:mod:`repro.planner.plans`) disagree only on *how* they are
materialized and therefore on cost, never on the answer itself. That
invariant — every enumerated plan returns a bit-identical result set —
is what :func:`answer_signature` exists to check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.augmentation import AugmentationPlan
from repro.core.search import AugmentedAnswer
from repro.model.objects import DataObject, GlobalKey
from repro.model.polystore import Polystore


@dataclass(frozen=True)
class LogicalQuery:
    """One declarative cross-store query.

    ``database``/``query`` is the native local query (Definition 3's
    ``Q``); ``level`` the augmentation level; ``targets`` optionally
    restricts which databases may contribute augmented objects (``None``
    = every database of the polystore). ``targets`` never restricts the
    local query itself — originals always come from ``database``.
    """

    database: str
    query: Any
    level: int = 0
    targets: tuple[str, ...] | None = None
    min_probability: float = 0.0

    def resolve_targets(self, polystore: Polystore) -> tuple[str, ...]:
        """The concrete, ordered set of augmentation target databases."""
        if self.targets is None:
            return tuple(sorted(name for name in polystore.databases))
        return tuple(sorted(dict.fromkeys(self.targets)))


@dataclass
class QueryContext:
    """A logical query prepared for enumeration and costing.

    Built off-clock by :meth:`~repro.planner.engine.FederatedEngine.prepare`
    — like ``Quepa.explain``, preparation runs the local query, the
    index traversal and a count of every touched collection without
    charging virtual time, so estimates price the true cardinalities of
    the moment the query is planned.
    """

    query: LogicalQuery
    targets: tuple[str, ...]
    originals: list[DataObject]
    seeds: list[GlobalKey]
    #: Augmentation plan already restricted to the targets.
    plan: AugmentationPlan
    #: Database -> collection -> object count, taken under each store's
    #: lock: the home database first, then every target.
    collection_stats: dict[str, dict[str, int]] = field(default_factory=dict)
    #: Edges of the whole A' index (what a multi-model import copies).
    index_edges: int = 0

    @property
    def fetch_count(self) -> int:
        """Planned fetches, duplicates included (what executions pay)."""
        return self.plan.total_fetches()

    @property
    def unique_fetch_count(self) -> int:
        """Distinct planned keys (what the answer can maximally gain)."""
        return len(set(self.plan.keys))

    @property
    def edges_examined(self) -> int:
        return self.plan.edges_examined

    @property
    def databases(self) -> tuple[str, ...]:
        """Every counted database: the home database, then the targets."""
        return tuple(self.collection_stats)

    def database_objects(self, database: str) -> int:
        return sum(self.collection_stats[database].values())

    def fetches_by_database(self) -> dict[str, int]:
        """Planned fetch counts per home database (duplicates included)."""
        counts: dict[str, int] = {}
        for key in self.plan.keys:
            database = key.database
            counts[database] = counts.get(database, 0) + 1
        return dict(sorted(counts.items()))


@dataclass
class PlanResult:
    """What executing one physical plan produced, with its measured cost.

    ``answer`` follows the exact :func:`~repro.core.search.assemble_answer`
    semantics of the QUEPA search path, so results are comparable across
    strategies (and against ``Quepa.augmented_search`` itself).
    """

    strategy: str
    answer: AugmentedAnswer
    #: Virtual-time seconds of the whole plan execution.
    elapsed: float = 0.0
    #: Native store queries issued (scans, local query, fetches).
    queries_issued: int = 0
    #: Peak middleware-side object footprint (collect/cast strategies).
    footprint: int = 0
    out_of_memory: bool = False
    #: True iff a fault cost this answer planned objects.
    degraded: bool = False
    #: Databases skipped because they were unreachable.
    unavailable: tuple[str, ...] = ()
    #: Database -> reason for every store that misbehaved.
    errors: dict[str, str] = field(default_factory=dict)

    def signature(self) -> tuple:
        """Canonical form of the answer for plan-equivalence checks."""
        return answer_signature(self.answer)


def answer_signature(answer: AugmentedAnswer) -> tuple:
    """A hashable, order-sensitive fingerprint of an augmented answer.

    Covers the originals (key and payload, in answer order) and the
    ranked augmentation (key, exact probability, provenance). Two plans
    are equivalent iff their signatures compare equal — probabilities
    are compared bit-for-bit, not rounded.
    """
    originals = tuple(
        (str(obj.key), repr(obj.value)) for obj in answer.originals
    )
    augmented = tuple(
        (str(entry.key), entry.probability, str(entry.source))
        for entry in answer.augmented
    )
    return (originals, augmented)
