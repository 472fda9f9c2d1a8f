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
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import count, repeat
from typing import Callable

from repro.core.aindex import AIndex
from repro.core.cache import BoundedLru
from repro.core.search import _rank
from repro.model.objects import GlobalKey


@dataclass
class AugmentationConfig:
    """Tunable parameters of one augmentation run (Section V).

    ``augmenter`` selects the strategy; ``batch_size``/``threads_size``
    parameterize it; ``cache_size`` is applied to the shared LRU cache.
    """

    augmenter: str = "sequential"
    batch_size: int = 64
    threads_size: int = 4
    cache_size: int = 1024
    #: Degrade gracefully when a store is down: skip its objects instead
    #: of failing the whole augmented query (loose coupling in action).
    skip_unavailable: bool = False
    #: Runtime-clock seconds the augmentation may spend before further
    #: store calls are skipped (degrading the outcome). ``None`` = no
    #: budget. Checked between fetches, never mid-call.
    timeout_budget: float | None = None


def _hop(key: GlobalKey) -> tuple[GlobalKey]:
    return (key,)


#: The per-row columns of a plan.
_COLUMNS = ("keys", "probabilities", "sources", "nodes", "parents")


@dataclass
class AugmentationPlan:
    """The fetches of one augmented query, as parallel columns.

    Row ``r`` fetches ``keys[r]`` at ``probabilities[r]`` for the seed
    ``sources[r]``. The rows of ``seeds[i]`` are ``range(bounds[i],
    bounds[i + 1])``, in seed order, each seed's ranked by probability
    with the key (its text) as tiebreak. ``path(r)`` is the chain of
    keys from the seed to the row (seed excluded, target included), so
    the exploration UI can explain each link. No row fetches its own
    seed. A key may have a row under several seeds: overlapping
    augmentations are deduplicated only in the final answer, which is
    exactly why the cache helps at level > 0.

    A plan is filled once by whoever builds it and read-only after;
    the plan cache hands the same plan to every repeat of a query.
    Callers must not mutate its lists.
    """

    level: int
    seeds: list[GlobalKey]
    keys: list[GlobalKey] = field(default_factory=list)
    probabilities: list[float] = field(default_factory=list)
    sources: list[GlobalKey] = field(default_factory=list)
    #: The row's node handle: the snapshot's node id, or the key itself
    #: on an index without ids. One handle per key.
    nodes: list = field(default_factory=list)
    #: The row of the previous hop on the row's path, -1 at the seed.
    parents: list[int] = field(default_factory=list)
    bounds: list[int] = field(default_factory=lambda: [0])
    #: Number of A' index edges examined (charged as CPU by augmenters).
    edges_examined: int = 0
    #: Seeds whose rows were copied from the snapshot's seed segments
    #: instead of traversed (their filed edges are in ``edges_examined``).
    segments_reused: int = 0
    #: ``(key,)`` of a node: a depth-1 path, the index's own tuple
    #: where it keeps one.
    hop_of: Callable = field(default=_hop, repr=False, compare=False)
    #: The plan ``parents`` index (this one, unless :meth:`select`
    #: cut this plan from another).
    _trail: "AugmentationPlan | None" = field(
        default=None, repr=False, compare=False
    )
    #: :meth:`rank`'s memo: filled once, read-only after. Two threads
    #: filling it at once write equal lists from the same columns: the
    #: race is benign.
    _ranked: tuple[list[int], list[tuple]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def total_fetches(self) -> int:
        return len(self.keys)

    def path(self, row: int) -> tuple[GlobalKey, ...]:
        """The keys from row ``row``'s seed to it (seed excluded), built
        on read."""
        above = self.parents[row]
        if above < 0:
            return self.hop_of(self.nodes[row])
        trail = self._trail or self
        keys, parents = trail.keys, trail.parents
        hops = [self.keys[row]]
        while above >= 0:
            hops.append(keys[above])
            above = parents[above]
        hops.reverse()
        return tuple(hops)

    def select(self, rows: list[int]) -> "AugmentationPlan":
        """The plan of ``rows`` (ascending): the same seeds, paths and
        ``edges_examined``, the rank recomputed."""
        picked = AugmentationPlan(
            level=self.level,
            seeds=list(self.seeds),
            bounds=[bisect_left(rows, bound) for bound in self.bounds],
            edges_examined=self.edges_examined,
            segments_reused=self.segments_reused,
            hop_of=self.hop_of,
            _trail=self._trail or self,
        )
        for name in _COLUMNS:
            column = getattr(self, name)
            setattr(picked, name, list(map(column.__getitem__, rows)))
        return picked

    def rank(self) -> tuple[list[int], list[tuple[GlobalKey, ...]]]:
        """:func:`~repro.core.search._rank` of every row, and the winners'
        paths (the plan's own lists: callers must not mutate them)."""
        ranked = self._ranked
        if ranked is None:
            order = _rank(
                self.nodes, self.probabilities, self.keys,
                range(len(self.keys)),
            )
            ranked = self._ranked = (order, list(map(self.path, order)))
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
        the seeds this call planned one by one (0 on a plan-cache hit),
        and ``segments_reused``, how many of those were copied from the
        snapshot's seed segments rather than traversed.
        """
        plan, expanded = self._plan_on(
            self._planning_index(), seeds, level, min_probability
        )
        if attrs is not None:
            attrs["expanded"] = expanded
            attrs["segments_reused"] = plan.segments_reused if expanded else 0
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
        plan = AugmentationPlan(
            level=level, seeds=seeds, hop_of=_plan_view(index)[3]
        )
        bounds = plan.bounds
        for seed in seeds:
            plan.edges_examined += self._expand(
                index, seed, level, min_probability, plan
            )
            bounds.append(len(plan.keys))
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
        generation it was published from, how many of its nodes are
        read from the overlay of a patched snapshot, and the seed
        segments it has filed), whether the plan cache already holds
        this plan, the seeds planned and how many of them came from
        seed segments, edges walked, and the planned fetch workload per
        target database. Planning is index-only, so
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
        memo = getattr(index, "segments", None)
        filed = memo.stats() if memo is not None else {}
        fetches_by_database: dict[str, int] = {}
        for key in plan.keys:
            database = key.database
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
            "snapshot_segments": filed.get("segments"),
            "snapshot_segment_rows": filed.get("rows"),
            "refreezes": getattr(self.aindex, "refreezes", None),
            "plan_cacheable": cache_key is not None,
            "plan_cache_hit": plan_cache_hit,
            "expanded": expanded,
            "segments_reused": plan.segments_reused if expanded else 0,
            "edges_examined": plan.edges_examined,
            "planned_fetches": plan.total_fetches(),
            "fetches_by_database": dict(sorted(fetches_by_database.items())),
        }

    def _expand(
        self,
        index,
        seed: GlobalKey,
        level: int,
        min_probability: float,
        plan: AugmentationPlan,
    ) -> int:
        """The rows of ``seed`` appended to ``plan``'s columns; returns
        the number of edges examined to find them.

        Without a probability cut, on a snapshot that keeps seed
        segments (:class:`~repro.core.compressed.SeedSegments`), the
        rows are those of the seed's segment, and the edges those its
        traversal examined: the first plan of the seed on the snapshot
        traverses and files it, every later plan copies it. Anything
        else runs :func:`_traverse` into the plan.
        """
        node_of, row_of, key_of, __ = _plan_view(index)
        start = node_of(seed)
        if start is None:
            return 0
        memo = (
            getattr(index, "segments", None)
            if min_probability == 0.0
            else None
        )
        if memo is not None:
            arena = memo.find(start, level)
            if arena is not None:
                plan.segments_reused += 1
                return _copy_segment(arena, start, seed, plan)
        order, best, parent, edges = _traverse(
            start, level, min_probability, row_of, key_of
        )
        if memo is not None:
            arena = memo.file(
                start,
                level,
                map(key_of, order),
                map(best.__getitem__, order),
                order,
                _parent_rows(order, parent, start, 0),
                edges,
            )
            if arena is not None:
                return _copy_segment(arena, start, seed, plan)
        plan.parents += _parent_rows(order, parent, start, len(plan.keys))
        plan.keys += map(key_of, order)
        plan.probabilities += map(best.__getitem__, order)
        plan.sources += repeat(seed, len(order))
        plan.nodes += order
        return edges


def _traverse(start, level: int, min_probability: float, row_of, key_of):
    """Best-probability-first traversal from node ``start`` to depth
    ``level + 1``: the nodes reached, in plan order, their best
    probabilities, the node each was reached from, and the number of
    edges examined.

    A Dijkstra-style search over ``-log p`` (implemented directly on
    products) guarantees each reachable key is planned with its
    maximum path probability. Among equal probabilities the node
    discovered first is expanded first, and an arc only replaces a
    strictly weaker entry (the tie rule). A node is expanded through
    its best entry or not at all (the depth rule): if that was found
    at depth ``level + 1`` it is a leaf, even where a weaker entry
    reached it nearer the seed.

    The loop runs over node handles: ids on a snapshot that has them
    (``plan_view``), the keys themselves on any other index. It keeps
    no object per row: a path is read back through the plan's
    ``parents`` (:meth:`AugmentationPlan.path`).
    """
    max_depth = level + 1
    best = {start: 1.0}
    parent = {}
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
    # Probability descending, key ascending (a key sorts as its text):
    # two stable sorts. One row per node, so the key is unique and
    # handles never decide. Probabilities are <= 1, so no entry
    # improved once its node was expanded: the parent pointers read
    # here are final.
    order = sorted(best, key=key_of)
    order.sort(key=best.__getitem__, reverse=True)
    return order, best, parent, edges


def _parent_rows(order: list, parent: dict, start, first: int):
    """The parent row of each of ``order``'s nodes, rows numbered from
    ``first``: -1 for a node reached from ``start``, the seed."""
    row_of_node = dict(zip(order, count(first)))
    row_of_node[start] = -1
    return map(row_of_node.__getitem__, map(parent.__getitem__, order))


def _copy_segment(arena, node: int, seed: GlobalKey, plan) -> int:
    """Append ``node``'s filed segment in ``arena`` to ``plan`` as the
    rows of ``seed``; returns the edges its traversal examined."""
    first, last = arena.starts[node], arena.stops[node]
    offset = len(plan.keys)
    plan.keys += arena.keys[first:last]
    plan.probabilities += arena.probabilities[first:last]
    plan.sources += repeat(seed, last - first)
    plan.nodes += arena.nodes[first:last]
    parents = arena.parents[first:last]
    if plan.level:
        # Rebase onto the plan's rows; the seed's -1 stays.
        plan.parents += [
            above + offset if above >= 0 else -1 for above in parents
        ]
    else:
        plan.parents += parents  # every row hangs off the seed: all -1
    return arena.edges[node]


def _itself(key: GlobalKey) -> GlobalKey:
    return key


def _plan_view(index) -> tuple:
    """``index.plan_view()``, or the same view of an index without node
    ids: a key is its own handle, ``neighbor_arcs`` (or ``neighbors``)
    its row."""
    view = getattr(index, "plan_view", None)
    if view is not None:
        return view()
    arcs = getattr(index, "neighbor_arcs", None) or (
        lambda key: [(n.key, n.probability) for n in index.neighbors(key)]
    )
    return _itself, arcs, _itself, _hop
