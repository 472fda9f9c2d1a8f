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
from array import array
from itertools import chain, islice
from typing import Iterator

from repro.core.aindex import AIndex, Neighbor
from repro.model.objects import GlobalKey
from repro.model.prelations import PRelation, RelationType

#: A patched snapshot is compacted (rebuilt in full) once its overlay
#: would hold more than this fraction of its base's nodes. It bounds what
#: a publish copies (the overlay dict) and what a snapshot holds twice.
COMPACT_FRACTION = 0.25

#: One overlay row: the node's ``(key, probability)`` arcs in live
#: adjacency order and, in parallel, each arc's relation type.
Row = tuple[list[tuple[GlobalKey, float]], list[RelationType]]


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
        owned: int,
    ) -> None:
        self._keys = keys
        self._ids = ids
        self._offsets = offsets
        self._targets = targets
        self._probabilities = probabilities
        self._is_identity = is_identity
        #: ``keys[:owned]`` are the base's nodes; the rest are ghosts
        #: (see :meth:`freeze`), which no count or iteration reports.
        self._owned = owned
        #: Per-node (key, probability) arc lists, built lazily from the
        #: CSR arrays on first access (planner fast path). A function of
        #: the base alone, so snapshots patched from it share the memo.
        self._arcs: list[list[tuple[GlobalKey, float]] | None] = [None] * len(
            keys
        )
        #: Rows that supersede the base: node -> its current row, or
        #: ``None`` for a node that no longer exists. Empty on a full
        #: freeze; never mutated once the snapshot is published.
        self._overlay: dict[GlobalKey, Row | None] = {}
        self._node_total = owned
        #: Directed arcs (every edge is stored from both endpoints).
        self._arc_total = len(targets)
        #: Generation of the live index this snapshot was published from.
        #: The serving layer pins this per request for snapshot isolation.
        self.generation: int | None = None

    # -- construction ---------------------------------------------------------

    @classmethod
    def freeze(cls, index: AIndex) -> "FrozenAIndex":
        """Build a snapshot of ``index`` in full (no overlay), preserving
        its iteration order.

        Targets that are not themselves nodes of ``index`` are interned
        as zero-degree ghost nodes appended after the real ones. A full
        A' index never produces these (every edge endpoint is a node);
        partition views of a sharded index do — their cross-shard
        neighbour stubs point at nodes owned by other partitions.
        """
        offsets = array("l", [0])
        targets = array("l")
        probabilities = array("d")
        is_identity: list[bool] = []
        identity = RelationType.IDENTITY
        with index._mutex:
            keys = list(index._adjacency)
            owned = len(keys)
            ids = {key: node for node, key in enumerate(keys)}
            for row in index._adjacency.values():
                for other, (edge_type, probability) in row.items():
                    target = ids.get(other)
                    if target is None:
                        target = ids[other] = len(keys)
                        keys.append(other)
                    targets.append(target)
                    probabilities.append(probability)
                    is_identity.append(edge_type is identity)
                offsets.append(len(targets))
            generation = index.generation
        offsets.extend([len(targets)] * (len(keys) - owned))
        snapshot = cls(
            keys, ids, offsets, targets, probabilities, is_identity, owned
        )
        snapshot.generation = generation
        return snapshot

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
        overlay = self._overlay | dirty
        if len(overlay) > COMPACT_FRACTION * self._owned:
            return None
        snapshot = copy.copy(self)  # shares the base and its arc memo
        snapshot._overlay = overlay
        snapshot.generation = generation
        for key in dirty:
            live = adjacency.get(key)
            snapshot._node_total += (live is not None) - (key in self)
            snapshot._arc_total += len(live or ()) - self.degree(key)
            overlay[key] = None if live is None else (
                [(other, edge[1]) for other, edge in live.items()],
                [edge[0] for edge in live.values()],
            )
        return snapshot

    @property
    def overlay_nodes(self) -> int:
        """Nodes read from the overlay (0 for a full freeze)."""
        return len(self._overlay)

    # -- AIndex read protocol -----------------------------------------------------

    def neighbors(
        self, key: GlobalKey, rel_type: RelationType | None = None
    ) -> list[Neighbor]:
        if key in self._overlay:
            arcs, types = self._overlay[key] or ((), ())
            return [
                Neighbor(other, edge_type, probability)
                for (other, probability), edge_type in zip(arcs, types)
                if rel_type is None or edge_type is rel_type
            ]
        node = self._ids.get(key)
        if node is None:
            return []
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
                    self._keys[self._targets[position]],
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
        :class:`Neighbor` and :class:`RelationType` materialization the
        planner never looks at. Arc lists are memoized per node, so
        repeated traversals (every seed of a plan revisits hub nodes)
        reduce to one list lookup.
        """
        overlay = self._overlay
        if overlay and key in overlay:
            row = overlay[key]
            return row[0] if row is not None else []
        node = self._ids.get(key)
        if node is None:
            return []
        arcs = self._arcs[node]
        if arcs is None:
            keys = self._keys
            targets = self._targets
            probabilities = self._probabilities
            arcs = [
                (keys[targets[position]], probabilities[position])
                for position in range(
                    self._offsets[node], self._offsets[node + 1]
                )
            ]
            self._arcs[node] = arcs
        return arcs

    def frozen(self) -> "FrozenAIndex":
        """A frozen index is its own snapshot (mirrors ``AIndex.frozen``)."""
        return self

    def relation(self, a: GlobalKey, b: GlobalKey) -> PRelation | None:
        for neighbor in self.neighbors(a):
            if neighbor.key == b:
                return PRelation(a, b, neighbor.type, neighbor.probability)
        return None

    def degree(self, key: GlobalKey) -> int:
        if key in self._overlay:
            row = self._overlay[key]
            return len(row[0]) if row is not None else 0
        node = self._ids.get(key)
        if node is None:
            return 0
        return self._offsets[node + 1] - self._offsets[node]

    def __contains__(self, key: GlobalKey) -> bool:
        if key in self._overlay:
            return self._overlay[key] is not None
        return self._ids.get(key, self._owned) < self._owned

    def nodes(self) -> Iterator[GlobalKey]:
        overlay = self._overlay
        return chain(
            (
                key
                for key in islice(self._keys, self._owned)
                if key not in overlay
            ),
            (key for key, row in overlay.items() if row is not None),
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
