"""The A' index: a graph of p-relations over global keys (Section III-B).

Each global key is a node; edges carry the relation type (identity or
matching) and its probability. The index enforces the paper's
Consistency Condition at insertion time (Section III-C):

* adding an identity ``a ~ b`` materializes, by transitivity, an
  identity between ``a`` and every identity-neighbour of ``b`` (and vice
  versa), with probability equal to the product along the two edges
  (Example 7: 0.8 x 0.85 -> 0.68);
* since ``x = b`` and ``b ~ a`` must imply ``x = a``, matching edges are
  propagated across new identity edges the same way.

Deletions are lazy: an object found missing during augmentation is
dropped with :meth:`AIndex.remove_object`. Every *inferred* edge records
its two supporting edges (lineage), enabling the cascading deletion the
paper lists as future work (:meth:`AIndex.remove_relation` with
``cascade=True``).

The index carries a monotonically increasing ``generation`` counter,
bumped on every successful mutation. :meth:`AIndex.frozen` returns a
cached :class:`~repro.core.compressed.FrozenAIndex` snapshot of the
current generation and publishes a new one only when the live index has
changed since the last — this is what lets the augmentation planner scan
a compact read-only snapshot by default while lazy deletions still
invalidate it transparently. Publishing costs what changed, not what
exists: while a snapshot exists every mutation records the nodes whose
adjacency row it touched, and the next publish lays just those rows
over the previous snapshot's CSR arrays (DESIGN.md, "Snapshots: base +
overlay"). ``refreezes`` counts every snapshot published,
``compactions`` the ones that were full rebuilds.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.model.objects import GlobalKey
from repro.model.prelations import PRelation, RelationType


@dataclass(frozen=True, slots=True)
class Neighbor:
    """One edge out of a node: the other endpoint, type, probability."""

    key: GlobalKey
    type: RelationType
    probability: float


Pair = tuple[GlobalKey, GlobalKey]


def _pair(a: GlobalKey, b: GlobalKey) -> Pair:
    return (a, b) if a <= b else (b, a)


def _mentioned(pair: Pair, supports: Iterable[Pair]) -> set[GlobalKey]:
    """Every node a lineage record names: its own endpoints and the
    endpoints of its supports."""
    return {pair[0], pair[1]}.union(*supports)


class AIndex:
    """An in-memory, adjacency-list p-relation graph."""

    def __init__(self, enforce_consistency: bool = True) -> None:
        #: key -> neighbour key -> (type, probability)
        self._adjacency: dict[
            GlobalKey, dict[GlobalKey, tuple[RelationType, float]]
        ] = {}
        #: lineage of inferred edges: pair -> set of supporting pairs
        self._lineage: dict[Pair, set[Pair]] = {}
        #: Derived from ``_lineage``: node -> the records that mention it
        #: (:func:`_mentioned`), so deletions visit only the records that
        #: touch their targets. Inner dicts are insertion-ordered sets.
        self._lineage_by_node: dict[GlobalKey, dict[Pair, None]] = {}
        self.enforce_consistency = enforce_consistency
        #: Bumped on every successful mutation; read snapshots compare it
        #: to decide whether the cached snapshot is still current.
        self.generation = 0
        #: Snapshots :meth:`frozen` published, patched or rebuilt.
        self.refreezes = 0
        #: Of those, the full rebuilds (the first freeze included).
        self.compactions = 0
        self._frozen_snapshot = None
        self._frozen_generation = -1
        #: Nodes whose adjacency row changed since the last publish, in
        #: mutation order (an insertion-ordered set, so nothing on a
        #: snapshot depends on the hash seed). ``None`` until a snapshot
        #: exists to patch: a bulk load tracks nothing.
        self._dirty: dict[GlobalKey, None] | None = None
        #: Guards every mutation and the freeze path, so a concurrent
        #: writer can never tear the adjacency dicts out from under a
        #: snapshot rebuild. Reentrant because consistency propagation
        #: and cascading deletion recurse through the public surface.
        self._mutex = threading.RLock()

    # -- size ------------------------------------------------------------------

    def node_count(self) -> int:
        return len(self._adjacency)

    def edge_count(self) -> int:
        with self._mutex:
            return sum(len(adj) for adj in self._adjacency.values()) // 2

    def __contains__(self, key: GlobalKey) -> bool:
        return key in self._adjacency

    def nodes(self) -> Iterator[GlobalKey]:
        return iter(self._adjacency)

    # -- insertion ----------------------------------------------------------------

    def add(self, relation: PRelation) -> None:
        """Insert a p-relation, enforcing the Consistency Condition."""
        with self._mutex:
            inferred = self._set_edge(
                relation.left, relation.right, relation.type, relation.probability
            )
            if not inferred or not self.enforce_consistency:
                return
            if relation.type is RelationType.IDENTITY:
                self._propagate_identity(relation)
            else:
                self._propagate_matching(relation)

    def add_all(self, relations: Iterable[PRelation]) -> None:
        with self._mutex:
            for relation in relations:
                self.add(relation)

    def _set_edge(
        self,
        a: GlobalKey,
        b: GlobalKey,
        rel_type: RelationType,
        probability: float,
    ) -> bool:
        """Store an undirected edge; returns False if an equal-or-stronger
        edge already exists (identity supersedes matching; higher
        probability supersedes lower)."""
        if a == b:
            return False
        existing = self._adjacency.get(a, {}).get(b)
        if existing is not None:
            current_type, current_probability = existing
            stronger = (
                current_type is RelationType.IDENTITY
                and rel_type is RelationType.MATCHING
            )
            if stronger:
                return False
            if current_type is rel_type and current_probability >= probability:
                return False
        self._adjacency.setdefault(a, {})[b] = (rel_type, probability)
        self._adjacency.setdefault(b, {})[a] = (rel_type, probability)
        self._touch(a, b)
        self.generation += 1
        return True

    def _touch(self, *keys: GlobalKey) -> None:
        """Record that a mutation changed the adjacency rows of ``keys``."""
        if self._dirty is not None:
            self._dirty.update(dict.fromkeys(keys))

    def _propagate_identity(self, relation: PRelation) -> None:
        """Materialize transitive identities and propagated matchings
        across the new identity edge ``left ~ right``."""
        for anchor, other in (
            (relation.left, relation.right),
            (relation.right, relation.left),
        ):
            # Neighbours of `other` become related to `anchor`.
            for neighbor_key, (n_type, n_prob) in list(
                self._adjacency.get(other, {}).items()
            ):
                if neighbor_key == anchor:
                    continue
                combined = relation.probability * n_prob
                if combined <= 0.0:
                    continue
                if self._set_edge(anchor, neighbor_key, n_type, combined):
                    self._record_lineage(
                        anchor, neighbor_key,
                        supports=[(anchor, other), (other, neighbor_key)],
                    )
                    # Newly inferred identities propagate further.
                    if n_type is RelationType.IDENTITY:
                        self._propagate_identity(
                            PRelation.identity(anchor, neighbor_key, combined)
                        )

    def _propagate_matching(self, relation: PRelation) -> None:
        """``x = b`` plus ``b ~ a`` implies ``x = a``: the new matching
        edge must connect the whole identity class of each endpoint to
        the whole identity class of the other.

        Identity classes are materialized cliques (see
        :meth:`_propagate_identity`), so one hop of identity edges is
        the full class. Probabilities compose multiplicatively along
        ``x ~ left = right ~ y``.
        """
        left_class = self._identity_class(relation.left)
        right_class = self._identity_class(relation.right)
        for x, p_left in left_class.items():
            for y, p_right in right_class.items():
                if x == y or (x, y) == (relation.left, relation.right):
                    continue
                combined = p_left * relation.probability * p_right
                if combined <= 0.0:
                    continue
                if self._set_edge(x, y, RelationType.MATCHING, combined):
                    self._record_lineage(
                        x, y,
                        supports=[(relation.left, relation.right)],
                    )

    def _identity_class(self, key: GlobalKey) -> dict[GlobalKey, float]:
        """The materialized identity class of ``key``: the key itself
        (probability 1) plus its direct identity neighbours."""
        members = {key: 1.0}
        for neighbor_key, (n_type, n_prob) in self._adjacency.get(key, {}).items():
            if n_type is RelationType.IDENTITY:
                members[neighbor_key] = n_prob
        return members

    def _record_lineage(
        self,
        a: GlobalKey,
        b: GlobalKey,
        supports: list[Pair] | set[Pair],
    ) -> None:
        pair = _pair(a, b)
        self._lineage.setdefault(pair, set()).update(
            _pair(x, y) for x, y in supports
        )
        for node in _mentioned(pair, supports):
            self._lineage_by_node.setdefault(node, {})[pair] = None

    def _drop_lineage(
        self, pair: Pair, stale: Iterable[Pair] | None = None
    ) -> None:
        """Remove the lineage record of ``pair`` — given ``stale``, only
        those supports, the record surviving while it has another — and
        the per-node entries of every node it no longer mentions."""
        record = self._lineage[pair]
        unmentioned = _mentioned(pair, record)
        if stale is not None:
            record.difference_update(stale)
        if stale is None or not record:
            del self._lineage[pair]
        else:
            unmentioned -= _mentioned(pair, record)
        for node in unmentioned:
            records = self._lineage_by_node[node]
            del records[pair]
            if not records:
                del self._lineage_by_node[node]

    def restore_lineage(self, lineage: dict[Pair, set[Pair]]) -> None:
        """Replace the lineage with a copy of ``lineage`` (pair ->
        supporting pairs) and rebuild the per-node index from it."""
        with self._mutex:
            self._lineage, self._lineage_by_node = {}, {}
            for (a, b), supports in lineage.items():
                self._record_lineage(a, b, supports)

    # -- read snapshot ------------------------------------------------------------

    def frozen(self):
        """The read snapshot of the current generation, published on demand.

        The snapshot is cached: repeated calls between mutations return
        the same :class:`~repro.core.compressed.FrozenAIndex` instance,
        so planners pay for a publish once per index generation rather
        than once per query. A publish after a mutation returns a *new*
        immutable snapshot (the plan cache keys on snapshot identity)
        that shares the previous one's CSR base and overlays the rows
        touched since — O(touched nodes) — or, once the overlay has
        outgrown the base, a full rebuild.

        Thread-safe: publishing happens under the index mutex, so a
        concurrent writer can never tear the adjacency dicts mid-publish
        and two readers never build the same generation twice. Each
        snapshot is stamped with the generation it was published from
        (``FrozenAIndex.generation``), which is what serving-layer
        snapshot isolation pins per request.
        """
        if self._frozen_generation == self.generation:
            # Fast path: `_frozen_snapshot` is assigned before
            # `_frozen_generation` below, so a matching generation
            # always sees the finished snapshot.
            return self._frozen_snapshot
        with self._mutex:
            if self._frozen_generation != self.generation:
                self._frozen_snapshot = self._publish()
                self._frozen_generation = self.generation
                self.refreezes += 1
            return self._frozen_snapshot

    def _publish(self):
        """The next snapshot: the previous one patched with the rows
        touched since it was published, or a full rebuild when there is
        none to patch or its overlay would outgrow its base."""
        snapshot = None
        if self._frozen_snapshot is not None:
            snapshot = self._frozen_snapshot.patched(
                self._adjacency, self._dirty, self.generation
            )
        if snapshot is None:
            from repro.core.compressed import FrozenAIndex

            snapshot = FrozenAIndex.freeze(self)
            self.compactions += 1
        self._dirty = {}
        return snapshot

    @property
    def overlay_nodes(self) -> int:
        """Overlay size of the cached snapshot (0 before the first)."""
        snapshot = self._frozen_snapshot
        return 0 if snapshot is None else snapshot.overlay_nodes

    # -- queries --------------------------------------------------------------------

    def neighbors(
        self, key: GlobalKey, rel_type: RelationType | None = None
    ) -> list[Neighbor]:
        """All edges out of ``key``, optionally filtered by type."""
        with self._mutex:
            adjacency = self._adjacency.get(key)
            if not adjacency:
                return []
            return [
                Neighbor(other, edge_type, probability)
                for other, (edge_type, probability) in adjacency.items()
                if rel_type is None or edge_type is rel_type
            ]

    def neighbor_arcs(
        self, key: GlobalKey
    ) -> list[tuple[GlobalKey, float]]:
        """All edges out of ``key`` as bare ``(key, probability)`` pairs.

        The planner's traversal never looks at the relation type, so this
        skips the per-edge :class:`Neighbor` construction. Pairs come in
        adjacency insertion order, same as :meth:`neighbors`.
        """
        with self._mutex:
            adjacency = self._adjacency.get(key)
            if not adjacency:
                return []
            return [
                (other, probability)
                for other, (_, probability) in adjacency.items()
            ]

    def relation(self, a: GlobalKey, b: GlobalKey) -> PRelation | None:
        edge = self._adjacency.get(a, {}).get(b)
        if edge is None:
            return None
        edge_type, probability = edge
        return PRelation(a, b, edge_type, probability)

    def degree(self, key: GlobalKey) -> int:
        return len(self._adjacency.get(key, {}))

    # -- deletion ----------------------------------------------------------------------

    def remove_object(self, key: GlobalKey) -> int:
        """Lazy deletion: drop a node and its incident edges.

        Called when augmentation discovers the object no longer exists
        in the polystore. Returns the number of edges removed. Inferred
        p-relations that were derived *via* this node are kept, per the
        paper's stated strategy.
        """
        with self._mutex:
            adjacency = self._adjacency.pop(key, None)
            if adjacency is None:
                return 0
            self._touch(key, *adjacency)
            for other in adjacency:
                self._adjacency.get(other, {}).pop(key, None)
            self.generation += 1
            return len(adjacency)

    def excise(self, keys: Iterable[GlobalKey]) -> int:
        """Surgically remove a set of nodes, their incident edges, and
        every lineage record touching them, in one generation bump.

        Unlike :meth:`remove_object` (the paper's lazy deletion, which
        keeps inferred edges and their lineage), ``excise`` is the
        rebuild primitive of incremental maintenance: the caller removes
        a whole affected region and re-inserts its current base
        relations, so stale inferred edges and stale lineage must go
        with the nodes. Returns the number of nodes removed.
        """
        targets = set(keys)
        if not targets:
            return 0
        with self._mutex:
            removed = 0
            records: dict[Pair, None] = {}
            # Callers hand in sets; the textual order keeps the dirty
            # record independent of the hash seed.
            for key in sorted(targets, key=str):
                records.update(self._lineage_by_node.get(key, ()))
                adjacency = self._adjacency.pop(key, None)
                if adjacency is None:
                    continue
                removed += 1
                self._touch(key, *adjacency)
                for other in adjacency:
                    if other not in targets:
                        self._adjacency.get(other, {}).pop(key, None)
            for pair in records:
                if pair[0] in targets or pair[1] in targets:
                    self._drop_lineage(pair)
                else:
                    self._drop_lineage(pair, [
                        s for s in self._lineage[pair]
                        if s[0] in targets or s[1] in targets
                    ])
            if removed or records:
                self.generation += 1
            return removed

    def remove_relation(
        self, a: GlobalKey, b: GlobalKey, cascade: bool = False
    ) -> int:
        """Remove the edge ``a -- b``.

        With ``cascade=True``, edges whose lineage includes the removed
        edge are removed too, recursively — the "data oblivion" lineage
        system the paper plans as future work. Returns the number of
        edges removed.
        """
        with self._mutex:
            if self._adjacency.get(a, {}).pop(b, None) is None:
                return 0
            self._adjacency.get(b, {}).pop(a, None)
            self._touch(a, b)
            self.generation += 1
            removed = 1
            removed_pair = _pair(a, b)
            if removed_pair in self._lineage:
                self._drop_lineage(removed_pair)
            if cascade:
                # A record supported by a -- b mentions both endpoints.
                dependents = [
                    pair
                    for pair in self._lineage_by_node.get(a, ())
                    if removed_pair in self._lineage[pair]
                ]
                for pair in dependents:
                    removed += self.remove_relation(pair[0], pair[1], cascade=True)
            return removed

    def is_inferred(self, a: GlobalKey, b: GlobalKey) -> bool:
        return _pair(a, b) in self._lineage
