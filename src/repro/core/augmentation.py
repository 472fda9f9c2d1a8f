"""The augmentation operator alpha^n (Definition 2).

Augmentation of level ``n`` expands a set of data objects with every
object reachable in the A' index within ``n + 1`` hops: level 0 adds the
direct identity/matching neighbours of each result, level 1 additionally
adds their neighbours, and so on (Example 4 of the paper).

The *plan* — which global keys to retrieve, at which probability, from
which seed — is computed here by a pure, index-only traversal. The
*execution* — actually materializing the objects from the polystore —
is the augmenters' job (:mod:`repro.core.augmenters`), because that is
where the paper's network/CPU/memory optimizations live.

Probabilities compose multiplicatively along a path; when several paths
reach the same object the most probable one wins. Seed objects (the
original answer) are never re-added as augmented entries of themselves,
but an object of the original answer can legitimately appear in the
augmentation of *another* seed (Example 4: the answer to Q contains o,
and o2 = transactions.inventory.a32 appears in its augmentation).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.core.aindex import AIndex
from repro.core.cache import BoundedLru
from repro.model.objects import GlobalKey


@dataclass
class AugmentationConfig:
    """Tunable parameters of one augmentation run (Section V).

    ``augmenter`` selects the strategy; ``batch_size``/``threads_size``
    parameterize it; ``cache_size`` is applied to the shared LRU cache.
    ``min_probability`` optionally prunes very weak paths from the plan.
    """

    augmenter: str = "sequential"
    batch_size: int = 64
    threads_size: int = 4
    cache_size: int = 1024
    min_probability: float = 0.0
    #: Degrade gracefully when a store is down: skip its objects instead
    #: of failing the whole augmented query (loose coupling in action).
    skip_unavailable: bool = False
    #: Runtime-clock seconds the augmentation may spend before further
    #: store calls are skipped (degrading the outcome). ``None`` = no
    #: budget. Checked between fetches, never mid-call.
    timeout_budget: float | None = None


@dataclass(frozen=True, slots=True)
class PlannedFetch:
    """One object the augmentation must retrieve.

    ``seed`` is the original-answer object this fetch augments and
    ``path`` the chain of intermediate keys (excluding the seed,
    including the target), so the exploration UI can explain each link.
    """

    key: GlobalKey
    probability: float
    seed: GlobalKey
    path: tuple[GlobalKey, ...]


@dataclass
class AugmentationPlan:
    """The per-seed fetch lists for one augmented query."""

    level: int
    seeds: list[GlobalKey]
    fetches_by_seed: dict[GlobalKey, list[PlannedFetch]] = field(
        default_factory=dict
    )
    #: Number of A' index edges examined (charged as CPU by augmenters).
    edges_examined: int = 0
    #: (flat fetch list, its keys, fetch count), built on first use. A
    #: plan is filled once by whoever builds it and read-only after, and
    #: the plan cache hands the same plan to every repeat of a query, so
    #: these are computed once per plan, not once per search.
    _columns: tuple[list[PlannedFetch], list[GlobalKey], int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def _flat(self) -> tuple[list[PlannedFetch], list[GlobalKey], int]:
        columns = self._columns
        if columns is None:
            by_seed = self.fetches_by_seed
            fetches = [
                fetch for seed in self.seeds for fetch in by_seed.get(seed, ())
            ]
            columns = self._columns = (
                fetches,
                [fetch.key for fetch in fetches],
                sum(len(group) for group in by_seed.values()),
            )
        return columns

    def all_fetches(self) -> list[PlannedFetch]:
        """Fetches of every seed, in seed order (duplicates possible —
        overlapping augmentations are deduplicated only in the final
        answer, which is exactly why the cache helps at level > 0).
        The plan's own list: callers must not mutate it."""
        return self._flat()[0]

    def fetch_keys(self) -> list[GlobalKey]:
        """``fetch.key`` of every :meth:`all_fetches` entry, in the
        same order (what a cache probe run walks)."""
        return self._flat()[1]

    def total_fetches(self) -> int:
        return self._flat()[2]


class Augmentation:
    """Plans augmentations over an A' index.

    Planning runs against a read-only snapshot of the index by default
    (:meth:`AIndex.frozen`): the snapshot is cached per index
    generation, so a publish is paid once per mutation rather than once
    per query, and live edits (including lazy deletions) invalidate it
    transparently. Passing a :class:`FrozenAIndex` directly still
    works — a frozen index is its own snapshot.
    """

    #: Recently computed plans kept per planner (repeated queries over
    #: an unchanged index replay the same traversal).
    PLAN_CACHE_SIZE = 8

    def __init__(self, aindex: AIndex) -> None:
        self.aindex = aindex
        #: (planning index, level, min_probability, seeds) -> plan. The
        #: snapshot is part of the key and hashes by identity, so any
        #: index mutation (new generation, new frozen instance) makes
        #: every cached plan a miss; plans of dead snapshots age out.
        #: Concurrent serving sessions share one planner per Quepa.
        self._plan_cache: BoundedLru[tuple, AugmentationPlan] = BoundedLru(
            self.PLAN_CACHE_SIZE
        )

    def _planning_index(self):
        """The read snapshot to traverse: frozen if available, else live."""
        frozen = getattr(self.aindex, "frozen", None)
        return frozen() if frozen is not None else self.aindex

    def _plan_cache_key(
        self, index, seeds: list[GlobalKey], level: int, min_probability: float
    ) -> tuple | None:
        """The plan-cache key, or ``None`` when ``index`` is no safe
        anchor: only immutable snapshots are — a live duck-typed index
        can mutate without changing identity."""
        if index is self.aindex and hasattr(index, "add"):
            return None
        return (index, level, min_probability, tuple(seeds))

    def plan_cache_stats(self) -> dict:
        """The plan cache's :meth:`BoundedLru.stats`."""
        return self._plan_cache.stats()

    def plan(
        self,
        seeds: list[GlobalKey],
        level: int,
        min_probability: float = 0.0,
    ) -> AugmentationPlan:
        """Compute the fetch plan for ``alpha^level`` over ``seeds``.

        Plans over a frozen snapshot are cached: re-running the same
        query against an unchanged index (the warm half of the paper's
        protocol) returns the previously computed plan — including its
        ``edges_examined``, so the charged planning cost is identical —
        instead of repeating the traversal.
        """
        return self._plan_on(
            self._planning_index(), seeds, level, min_probability
        )

    def _plan_on(
        self,
        index,
        seeds: list[GlobalKey],
        level: int,
        min_probability: float,
    ) -> AugmentationPlan:
        """:meth:`plan` over ``index``, the snapshot the caller pinned."""
        if level < 0:
            raise ValueError(f"augmentation level must be >= 0, got {level}")
        cache_key = self._plan_cache_key(index, seeds, level, min_probability)
        if cache_key is not None:
            cached = self._plan_cache.get(cache_key)
            if cached is not None:
                return cached
        plan = AugmentationPlan(level=level, seeds=list(seeds))
        for seed in seeds:
            fetches, edges = self._expand(index, seed, level, min_probability)
            plan.fetches_by_seed[seed] = fetches
            plan.edges_examined += edges
        if cache_key is not None:
            self._plan_cache.put(cache_key, plan)
        return plan

    def explain(
        self,
        seeds: list[GlobalKey],
        level: int,
        min_probability: float = 0.0,
    ) -> dict:
        """Describe how ``alpha^level`` over ``seeds`` would be planned.

        Reports the A' index traversal — which snapshot (type, the
        generation it was published from, and how many of its nodes are
        read from the overlay of a patched snapshot), whether the plan
        cache already holds this plan, edges walked, and the planned
        fetch workload per target database. Planning is index-only, so
        this runs the real traversal (or replays the cached plan) over
        the one snapshot it describes but never touches a store.
        """
        index = self._planning_index()
        cache_key = self._plan_cache_key(index, seeds, level, min_probability)
        plan_cache_hit = (
            cache_key is not None
            and self._plan_cache.peek(cache_key) is not None
        )
        plan = self._plan_on(index, seeds, level, min_probability)
        fetches_by_database: dict[str, int] = {}
        for fetch in plan.all_fetches():
            database = fetch.key.database
            fetches_by_database[database] = (
                fetches_by_database.get(database, 0) + 1
            )
        return {
            "level": level,
            "seeds": len(seeds),
            "min_probability": min_probability,
            "snapshot": type(index).__name__,
            "snapshot_generation": getattr(index, "generation", None),
            "snapshot_overlay_nodes": getattr(index, "overlay_nodes", None),
            "refreezes": getattr(self.aindex, "refreezes", None),
            "plan_cacheable": cache_key is not None,
            "plan_cache_hit": plan_cache_hit,
            "edges_examined": plan.edges_examined,
            "planned_fetches": plan.total_fetches(),
            "fetches_by_database": dict(sorted(fetches_by_database.items())),
        }

    def _expand(
        self, index, seed: GlobalKey, level: int, min_probability: float
    ) -> tuple[list[PlannedFetch], int]:
        """Best-probability-first traversal to depth ``level + 1``.

        A Dijkstra-style search over ``-log p`` (implemented directly on
        products) guarantees each reachable key is planned with its
        maximum path probability.
        """
        max_depth = level + 1
        best: dict[GlobalKey, float] = {seed: 1.0}
        result: dict[GlobalKey, PlannedFetch] = {}
        edges = 0
        arcs = getattr(index, "neighbor_arcs", None) or _arcs_via_neighbors(
            index
        )
        # Heap entries: (-probability, tiebreak, key, depth, path)
        counter = 0
        heap: list[tuple[float, int, GlobalKey, int, tuple[GlobalKey, ...]]] = [
            (-1.0, counter, seed, 0, ())
        ]
        heappop, heappush = heapq.heappop, heapq.heappush
        best_get = best.get
        while heap:
            neg_probability, __, key, depth, path = heappop(heap)
            probability = -neg_probability
            if probability < best_get(key, 0.0):
                continue  # stale entry
            if depth >= max_depth:
                continue
            next_depth = depth + 1
            arc_list = arcs(key)
            edges += len(arc_list)
            for neighbor_key, neighbor_probability in arc_list:
                combined = probability * neighbor_probability
                if combined < min_probability or combined <= 0.0:
                    continue
                if combined <= best_get(neighbor_key, 0.0):
                    continue
                best[neighbor_key] = combined
                new_path = path + (neighbor_key,)
                if neighbor_key != seed:
                    result[neighbor_key] = PlannedFetch(
                        neighbor_key, combined, seed, new_path
                    )
                counter += 1
                heappush(
                    heap, (-combined, counter, neighbor_key, next_depth, new_path)
                )
        # Decorate-sort-undecorate: one fetch per key, so the
        # (probability, key-text) prefix is unique and PlannedFetch
        # instances are never compared.
        decorated = [
            (-fetch.probability, str(fetch.key), fetch)
            for fetch in result.values()
        ]
        decorated.sort()
        return [fetch for __, __, fetch in decorated], edges


def _arcs_via_neighbors(index):
    """Arc accessor for duck-typed indexes without ``neighbor_arcs``."""

    def arcs(key: GlobalKey) -> list[tuple[GlobalKey, float]]:
        return [(n.key, n.probability) for n in index.neighbors(key)]

    return arcs
