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

import functools
import heapq
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.core.aindex import AIndex
from repro.core.cache import BoundedLru
from repro.core.search import _SEED, _rank
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


class PlannedFetch(NamedTuple):
    """One object the augmentation must retrieve.

    ``seed`` is the original-answer object this fetch augments and
    ``path`` the chain of intermediate keys (excluding the seed,
    including the target), so the exploration UI can explain each link.
    """

    key: GlobalKey
    probability: float
    seed: GlobalKey
    path: tuple[GlobalKey, ...]


#: ``PlannedFetch(*fields)`` for the planner's inner loop: the generated
#: ``__new__`` is a Python frame per fetch, this is none.
_fetch = functools.partial(tuple.__new__, PlannedFetch)


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
    #: :meth:`rank`'s memo, same lifecycle. Two threads filling it at
    #: once write equal lists from the same fetches: the race is benign.
    _ranked: list[int] | None = field(
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

    def rank(self) -> list[int]:
        """:func:`~repro.core.search._rank` of :meth:`all_fetches` (the
        plan's own list: callers must not mutate it)."""
        ranked = self._ranked
        if ranked is None:
            ranked = self._ranked = _rank(self.all_fetches(), _SEED)
        return ranked


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
        can mutate without changing identity. A snapshot is what says
        it is its own (``frozen() is index``); one :meth:`_planning_index`
        took from a live index is one by construction."""
        if index is self.aindex:
            frozen = getattr(index, "frozen", None)
            if frozen is None or frozen() is not index:
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
        *,
        attrs: dict | None = None,
    ) -> AugmentationPlan:
        """Compute the fetch plan for ``alpha^level`` over ``seeds``.

        A seed listed more than once is planned once, at its first
        position (``plan.seeds`` are the distinct seeds). Plans over a
        frozen snapshot are cached by the seeds as given: re-running
        the same query against an unchanged index (the warm half of the
        paper's protocol) returns the previously computed plan —
        including its ``edges_examined``, so the charged planning cost
        is identical — instead of repeating the traversal. ``attrs``
        (the caller's ``plan`` span attributes) receives ``expanded``,
        the seeds this call traversed: 0 on a plan-cache hit.
        """
        plan, expanded = self._plan_on(
            self._planning_index(), seeds, level, min_probability
        )
        if attrs is not None:
            attrs["expanded"] = expanded
        return plan

    def _plan_on(
        self,
        index,
        seeds: list[GlobalKey],
        level: int,
        min_probability: float,
    ) -> tuple[AugmentationPlan, int]:
        """:meth:`plan` over ``index``, the snapshot the caller pinned:
        the plan, and how many seeds were expanded to get it."""
        if level < 0:
            raise ValueError(f"augmentation level must be >= 0, got {level}")
        cache_key = self._plan_cache_key(index, seeds, level, min_probability)
        if cache_key is not None:
            cached = self._plan_cache.get(cache_key)
            if cached is not None:
                return cached, 0
        # On a miss only: a repeat of a cached query pays no second pass
        # over its seeds.
        seeds = list(dict.fromkeys(seeds))
        plan = AugmentationPlan(level=level, seeds=seeds)
        for seed in seeds:
            fetches, edges = self._expand(index, seed, level, min_probability)
            plan.fetches_by_seed[seed] = fetches
            plan.edges_examined += edges
        if cache_key is not None:
            self._plan_cache.put(cache_key, plan)
        return plan, len(seeds)

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
        plan, expanded = self._plan_on(index, seeds, level, min_probability)
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
            "expanded": expanded,
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
        maximum path probability. Among equal probabilities the node
        discovered first is expanded first, and an arc only replaces a
        strictly weaker entry (the tie rule). A node is expanded through
        its best entry or not at all (the depth rule): if that was found
        at depth ``level + 1`` it is a leaf, even where a weaker entry
        reached it nearer the seed.

        The loop runs over node handles: ids on a snapshot that has them
        (``plan_view``), the keys themselves on any other index.
        """
        view = getattr(index, "plan_view", None)
        node_of, row_of, hop_of, text_of = (
            view() if view is not None else _key_view(index)
        )
        start = node_of(seed)
        if start is None:
            return [], 0
        max_depth = level + 1
        best = {start: 1.0}
        parent = {}
        #: Expanded node -> the keys from the seed to it. Probabilities
        #: are <= 1, so no entry improves once its node was expanded:
        #: the parent pointers an expansion reads are final.
        trail = {start: ()}
        edges = 0
        # Heap entries: (-probability, tiebreak, node, depth)
        counter = 0
        heap = [(-1.0, counter, start, 0)]
        heappop, heappush = heapq.heappop, heapq.heappush
        best_get = best.get
        while heap:
            neg_probability, __, node, depth = heappop(heap)
            probability = -neg_probability
            if probability < best[node]:
                continue  # stale entry
            if depth:
                trail[node] = trail[parent[node]] + hop_of(node)
            row = row_of(node)
            edges += len(row)
            depth += 1
            # A node found at the last depth is never expanded, so its
            # entry is never pushed.
            inner = depth < max_depth
            for target, arc_probability in row:
                combined = probability * arc_probability
                if combined < min_probability or combined <= 0.0:
                    continue
                if combined <= best_get(target, 0.0):
                    continue
                best[target] = combined
                parent[target] = node
                if inner:
                    counter += 1
                    heappush(heap, (-combined, counter, target, depth))
        del best[start]
        # One fetch per node, so the (probability, key-text) prefix is
        # unique and handles are never compared.
        ranked = [
            (-probability, text_of(node), node)
            for node, probability in best.items()
        ]
        ranked.sort()
        for node, above in parent.items():
            if node not in trail:  # never expanded: a hop past its parent
                trail[node] = trail[above] + hop_of(node)
        return [
            _fetch(((path := trail[node])[-1], -neg_probability, seed, path))
            for neg_probability, __, node in ranked
        ], edges


def _itself(key: GlobalKey) -> GlobalKey:
    return key


def _hop(key: GlobalKey) -> tuple[GlobalKey]:
    return (key,)


def _key_view(index):
    """:meth:`FrozenAIndex.plan_view` for an index without node ids: a
    key is its own handle, ``neighbor_arcs`` (or ``neighbors``) its row."""
    arcs = getattr(index, "neighbor_arcs", None) or (
        lambda key: [(n.key, n.probability) for n in index.neighbors(key)]
    )
    return _itself, arcs, _hop, str
