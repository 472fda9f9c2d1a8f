"""A compressed, read-only A' index snapshot (paper future work).

Section VIII: "We are also studying more performing strategies to
implement our A' index." This module provides one: a CSR-style frozen
snapshot of an :class:`AIndex`. Global keys are interned into dense
integer ids; adjacency is three parallel arrays (offsets, neighbour
ids, probabilities) plus a bit-per-edge type vector. Planning-time
neighbour scans avoid per-edge tuple/dict overhead and the snapshot is
~3-5x smaller than the dict-of-dicts index.

The snapshot implements the same ``neighbors`` protocol the
augmentation planner uses, so ``Augmentation(FrozenAIndex.freeze(ix))``
works unchanged. It is immutable: maintenance (insertions, lazy
deletions, promotion) stays on the live index, and :meth:`AIndex.frozen`
publishes a new snapshot per index generation. Publishing is
proportional to what changed: :meth:`FrozenAIndex.patched` returns a new
snapshot that shares this one's CSR base and lays an *overlay* over it —
each touched node's current adjacency row, or a tombstone — and
:meth:`FrozenAIndex.freeze`, the full rebuild, runs as the first freeze
and as the compaction once the overlay passes :data:`COMPACT_FRACTION`
of the base.

A snapshot preserves the live index's per-node adjacency order (Python
dicts iterate in insertion order, which is deterministic for a given
build sequence), whether a row is read from the base or the overlay.
This matters: the planner's best-first traversal breaks probability
ties by discovery order, so an order-preserving snapshot replays the
live traversal edge-for-edge and the virtual-time benchmarks stay
bit-identical whichever index backs the plan. The order of
:meth:`FrozenAIndex.nodes` is *not* part of the contract: a patched
snapshot lists untouched base nodes first, then overlay nodes.
"""

from __future__ import annotations

import copy
import threading
from array import array
from itertools import chain, islice
from typing import Iterable, Iterator

from repro.core.aindex import AIndex, Neighbor
from repro.model.objects import GlobalKey
from repro.model.prelations import PRelation, RelationType

#: A patched snapshot is compacted (rebuilt in full) once its overlay
#: would hold more than this fraction of its base's nodes. It bounds what
#: a publish copies (the overlay dict) and what a snapshot holds twice.
COMPACT_FRACTION = 0.25

#: One node's arcs as the planner reads them: ``(target id, probability)``
#: in live adjacency order.
IdRow = list[tuple[int, float]]

#: One overlay row: the node's :data:`IdRow` and, in parallel, each
#: arc's relation type.
Row = tuple[IdRow, list[RelationType]]


class SegmentArena:
    """The rows of every seed segment filed at one level, as columns.

    A segment is one seed's rows, in plan order: ``keys``,
    ``probabilities``, ``nodes`` and ``parents`` from ``starts[node]``
    to ``stops[node]``, where ``node`` is the seed's id. Parents count
    from the segment's first row, -1 at the seed. ``edges[node]`` is
    what the traversal that filed the segment examined. ``starts[node]``
    is -1 until the segment is filed.
    """

    __slots__ = (
        "keys", "probabilities", "nodes", "parents", "starts", "stops",
        "edges",
    )

    def __init__(self, size: int) -> None:
        self.keys: list[GlobalKey] = []
        self.probabilities = array("d")
        self.nodes = array("i")
        self.parents = array("i")
        self.starts = array("i", [-1]) * size
        self.stops = array("i", [0]) * size
        self.edges = array("i", [0]) * size


class SeedSegments:
    """The alpha^level rows of each seed one snapshot has planned
    (DESIGN.md, "Seed segments").

    The rows a seed contributes to a plan depend only on the snapshot,
    the seed and the level (with no probability cut), so they are filed
    once per ``(seed id, level)`` and copied into every later plan. One
    :class:`SegmentArena` per level holds them: no object per segment.

    Readers never lock. A writer files under the lock and publishes a
    segment's start last, so a reader that finds the start reads a
    complete segment. A segment is filed at most once, and the memo
    dies with its snapshot: it holds at most one segment per node and
    level.
    """

    def __init__(self, size: int) -> None:
        #: Node ids the arenas cover: every id the snapshot knows.
        self._size = size
        self._arenas: dict[int, SegmentArena] = {}
        self._lock = threading.Lock()
        #: Segments filed so far.
        self.filed = 0

    def find(self, node: int, level: int) -> SegmentArena | None:
        """The arena holding ``node``'s segment at ``level``, or ``None``
        when it is not filed."""
        arena = self._arenas.get(level)
        if arena is None or node >= self._size or arena.starts[node] < 0:
            return None
        return arena

    def file(
        self,
        node: int,
        level: int,
        keys: Iterable[GlobalKey],
        probabilities: Iterable[float],
        nodes: Iterable[int],
        parents: Iterable[int],
        edges: int,
    ) -> SegmentArena | None:
        """File ``node``'s segment at ``level`` unless it already is;
        the arena holding it, or ``None`` for a node the arenas do not
        cover (an id interned after this snapshot was published)."""
        if node >= self._size:
            return None
        with self._lock:
            arena = self._arenas.get(level)
            if arena is None:
                arena = self._arenas[level] = SegmentArena(self._size)
            if arena.starts[node] < 0:
                start = len(arena.keys)
                arena.keys += keys
                arena.probabilities.extend(probabilities)
                arena.nodes.extend(nodes)
                arena.parents.extend(parents)
                arena.stops[node] = len(arena.keys)
                arena.edges[node] = edges
                arena.starts[node] = start  # published last
                self.filed += 1
        return arena

    def stats(self) -> dict:
        """How many segments are filed, and their rows."""
        return {
            "segments": self.filed,
            "rows": sum(len(arena.keys) for arena in self._arenas.values()),
        }


class FrozenAIndex:
    """An immutable snapshot of an A' index: a CSR base, plus an overlay
    of the rows touched since the base was built."""

    def __init__(
        self,
        keys: list[GlobalKey],
        ids: dict[GlobalKey, int],
        offsets: array,
        targets: array,
        probabilities: array,
        is_identity: list[bool],
    ) -> None:
        self._keys = keys
        self._ids = ids
        self._offsets = offsets
        self._targets = targets
        self._probabilities = probabilities
        self._is_identity = is_identity
        #: ``keys[:owned]`` are the base's nodes; the keys a patch
        #: interns past them are ghosts (see :meth:`_intern`), which no
        #: count or iteration reports.
        self._owned = owned = len(keys)
        #: Per-node :data:`IdRow`, built from the CSR arrays the first
        #: time the planner expands the node: every seed of a plan
        #: revisits the hubs, but most nodes are never expanded, so a
        #: row per node up front would be paid in memory for nothing.
        #: A function of the base alone, so snapshots patched from it
        #: share the memo.
        self._rows: list[IdRow | None] = [None] * len(keys)
        #: ``(key,)`` (the path of a direct neighbour, and what a
        #: longer path ends in) per node, set for every target of a
        #: built row — the nodes a plan can return. One 1-tuple per node
        #: replaces one per fetch that plans the node.
        self._hops: list[tuple[GlobalKey] | None] = [None] * len(keys)
        #: Rows that supersede the base: node id -> its current row, or
        #: ``None`` for a node that no longer exists. Empty on a full
        #: freeze; never mutated once the snapshot is published.
        self._overlay: dict[int, Row | None] = {}
        self._node_total = owned
        #: Directed arcs (every edge is stored from both endpoints).
        self._arc_total = len(targets)
        #: Generation of the live index this snapshot was published from.
        #: The serving layer pins this per request for snapshot isolation.
        self.generation: int | None = None
        #: The planner's seed segments: this snapshot's own, never
        #: shared with a snapshot patched from it.
        self.segments = SeedSegments(len(keys))

    # -- construction ---------------------------------------------------------

    @classmethod
    def freeze(cls, index: AIndex) -> "FrozenAIndex":
        """Build a snapshot of ``index`` in full (no overlay), preserving
        its iteration order.

        Every arc's target is a node: the live index writes and drops
        both arcs of an edge together.
        """
        offsets = array("l", [0])
        targets = array("l")
        probabilities = array("d")
        is_identity: list[bool] = []
        identity = RelationType.IDENTITY
        with index._mutex:
            keys = list(index._adjacency)
            ids = {key: node for node, key in enumerate(keys)}
            for row in index._adjacency.values():
                for other, (edge_type, probability) in row.items():
                    targets.append(ids[other])
                    probabilities.append(probability)
                    is_identity.append(edge_type is identity)
                offsets.append(len(targets))
            generation = index.generation
        snapshot = cls(keys, ids, offsets, targets, probabilities, is_identity)
        snapshot.generation = generation
        return snapshot

    def _intern(self, key: GlobalKey) -> int:
        """The id of ``key``, appending it to the base as a zero-degree
        ghost if it has none: the keys a patch introduces get ids past
        the base's, so overlay rows are id rows like any other.

        The tables are shared with every snapshot on this base and only
        ever grow; a snapshot that does not know the key reads the ghost
        as what it is to it — absent, no arcs. ``_ids`` is written last,
        so an id a concurrent reader finds indexes every table.
        """
        node = self._ids.get(key)
        if node is None:
            node = len(self._keys)
            self._keys.append(key)
            self._rows.append([])
            self._hops.append(None)
            self._offsets.append(self._offsets[-1])
            self._ids[key] = node
        return node

    def patched(
        self, adjacency, dirty: dict[GlobalKey, None], generation: int
    ) -> "FrozenAIndex | None":
        """A new snapshot of ``adjacency`` (the live node map this one
        was taken from) given ``dirty``, the nodes whose rows changed
        since: it shares this snapshot's base and overlays the current
        row of every dirty node, in O(overlay + dirty rows).

        Returns ``None`` when the overlay would pass
        :data:`COMPACT_FRACTION` of the base: the caller compacts with
        :meth:`freeze` instead.
        """
        overlay, known = self._overlay, self._ids.get
        added = sum(known(key) not in overlay for key in dirty)
        if len(overlay) + added > COMPACT_FRACTION * self._owned:
            return None
        snapshot = copy.copy(self)  # shares the base and its memos
        overlay = snapshot._overlay = dict(overlay)
        snapshot.generation = generation
        intern, hops = self._intern, self._hops
        for key in dirty:
            live = adjacency.get(key)
            snapshot._node_total += (live is not None) - (key in self)
            snapshot._arc_total += len(live or ()) - self.degree(key)
            row = None
            if live is not None:
                arcs = []
                for other, edge in live.items():
                    target = intern(other)
                    if hops[target] is None:
                        hops[target] = (other,)
                    arcs.append((target, edge[1]))
                row = (arcs, [edge[0] for edge in live.values()])
            overlay[intern(key)] = row
        # The overlay changed rows, so the planned segments start empty.
        snapshot.segments = SeedSegments(len(self._keys))
        return snapshot

    @property
    def overlay_nodes(self) -> int:
        """Nodes read from the overlay (0 for a full freeze)."""
        return len(self._overlay)

    # -- the planner's view ---------------------------------------------------

    def _row(self, node: int) -> IdRow:
        """The arcs out of ``node``, overlay first."""
        overlay = self._overlay
        if overlay and node in overlay:
            row = overlay[node]
            return row[0] if row is not None else []
        arcs = self._rows[node]
        if arcs is None:
            keys, hops = self._keys, self._hops
            targets = self._targets
            probabilities = self._probabilities
            arcs = []
            for position in range(
                self._offsets[node], self._offsets[node + 1]
            ):
                target = targets[position]
                if hops[target] is None:
                    hops[target] = (keys[target],)
                arcs.append((target, probabilities[position]))
            self._rows[node] = arcs
        return arcs

    def plan_view(self) -> tuple:
        """``(node of a key or None, row of a node, key of a node,
        (key,) of a node)`` for :meth:`Augmentation._expand`: nodes are
        ids, and the last two are plain list look-ups."""
        return (
            self._ids.get,
            self._row,
            self._keys.__getitem__,
            self._hops.__getitem__,
        )

    # -- AIndex read protocol -----------------------------------------------------

    def neighbors(
        self, key: GlobalKey, rel_type: RelationType | None = None
    ) -> list[Neighbor]:
        node = self._ids.get(key)
        if node is None:
            return []
        keys = self._keys
        if node in self._overlay:
            arcs, types = self._overlay[node] or ((), ())
            return [
                Neighbor(keys[target], edge_type, probability)
                for (target, probability), edge_type in zip(arcs, types)
                if rel_type is None or edge_type is rel_type
            ]
        start = self._offsets[node]
        end = self._offsets[node + 1]
        out: list[Neighbor] = []
        for position in range(start, end):
            edge_type = (
                RelationType.IDENTITY
                if self._is_identity[position]
                else RelationType.MATCHING
            )
            if rel_type is not None and edge_type is not rel_type:
                continue
            out.append(
                Neighbor(
                    keys[self._targets[position]],
                    edge_type,
                    self._probabilities[position],
                )
            )
        return out

    def neighbor_arcs(
        self, key: GlobalKey
    ) -> list[tuple[GlobalKey, float]]:
        """All edges out of ``key`` as bare ``(key, probability)`` pairs.

        Same order as :meth:`neighbors`, minus the per-edge
        :class:`Neighbor` and :class:`RelationType` materialization:
        the node's memoized id row (what the planner walks) with the
        ids resolved.
        """
        node = self._ids.get(key)
        if node is None:
            return []
        keys = self._keys
        return [
            (keys[target], probability)
            for target, probability in self._row(node)
        ]

    def frozen(self) -> "FrozenAIndex":
        """A frozen index is its own snapshot (mirrors ``AIndex.frozen``)."""
        return self

    def relation(self, a: GlobalKey, b: GlobalKey) -> PRelation | None:
        for neighbor in self.neighbors(a):
            if neighbor.key == b:
                return PRelation(a, b, neighbor.type, neighbor.probability)
        return None

    def degree(self, key: GlobalKey) -> int:
        node = self._ids.get(key)
        if node is None:
            return 0
        if node in self._overlay:
            row = self._overlay[node]
            return len(row[0]) if row is not None else 0
        return self._offsets[node + 1] - self._offsets[node]

    def __contains__(self, key: GlobalKey) -> bool:
        node = self._ids.get(key)
        if node in self._overlay:
            return self._overlay[node] is not None
        return node is not None and node < self._owned

    def nodes(self) -> Iterator[GlobalKey]:
        overlay, keys = self._overlay, self._keys
        return chain(
            (
                key
                for node, key in enumerate(islice(keys, self._owned))
                if node not in overlay
            ),
            (keys[node] for node, row in overlay.items() if row is not None),
        )

    def node_count(self) -> int:
        return self._node_total

    def edge_count(self) -> int:
        return self._arc_total // 2

    # -- immutability guards ---------------------------------------------------------

    def add(self, relation: PRelation) -> None:
        raise TypeError(
            "FrozenAIndex is read-only; mutate the live AIndex and refreeze"
        )

    def remove_object(self, key: GlobalKey) -> int:
        raise TypeError(
            "FrozenAIndex is read-only; mutate the live AIndex and refreeze"
        )
