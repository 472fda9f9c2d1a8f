"""The incremental collector: CDC batches in, A' index deltas out.

The batch :class:`~repro.collector.collector.Collector` re-blocks the
whole polystore; this maintainer re-blocks **only dirty entities and
their blocking neighborhoods** and still lands on the same index state —
the equivalence the differential suite (``tests/test_cdc_props.py``)
pins. The construction that makes this possible:

* **Token index.** A live mirror of the blocker's state: per-key token
  sets plus token → key buckets. A batch blocker's candidate set is a
  pure function of this index, so candidacy changes are computable from
  the buckets a dirty key enters or leaves — including the subtle case
  where a bucket crosses the validity thresholds (``2 <= size <= max``)
  and clean–clean pairs inside it gain or lose candidacy.

* **Scored relation set.** Every pre-dedup p-relation the matcher has
  emitted, keyed by canonical pair. Per batch, only possibly-changed
  pairs are re-decided; local dedup is then recomputed over the whole
  scored set — a cheap linear pass that is order-independent (see
  :func:`~repro.collector.matching.enforce_local_dedup`), so the
  post-dedup *base* set is exactly what a batch run would produce.

* **Component rebuild.** The A' closure of a connected component is a
  fixpoint of its base relations, independent of insertion order, so a
  delta is applied by excising the affected components (removing stale
  inferred edges and lineage with them — :meth:`AIndex.excise`) and
  re-inserting their current base relations in canonical order. Works
  unchanged against a :class:`~repro.sharding.aindex.ShardedAIndex`:
  it is the same ``AIndex.excise``/``add`` code over a partitioned
  node map, which files each adjacency entry under its owning shard.

Locking follows the PR 5 discipline: store fetches take ``store.lock``
and index surgery holds the index mutex across excise + re-add, so a
concurrent freeze can never observe a half-rebuilt component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.cdc.feed import ChangeEvent
from repro.collector.blocking import TokenBlocker
from repro.collector.collector import CollectorSettings
from repro.collector.matching import PairwiseMatcher, enforce_local_dedup
from repro.errors import ConfigurationError
from repro.model.objects import DataObject, GlobalKey
from repro.model.polystore import Polystore
from repro.model.prelations import PRelation

Pair = tuple[GlobalKey, GlobalKey]


def _canonical(a: GlobalKey, b: GlobalKey) -> Pair:
    return (a, b) if str(a) <= str(b) else (b, a)


def _relation_order(relation: PRelation) -> tuple[str, str, str]:
    return (str(relation.left), str(relation.right), relation.type.value)


@dataclass
class IngestReport:
    """What one bootstrap or CDC batch application did."""

    events: int = 0
    dirty_keys: int = 0
    pairs_rescored: int = 0
    relations_added: int = 0
    relations_removed: int = 0
    #: Nodes excised and rebuilt (the affected connected components).
    affected_nodes: int = 0
    #: Bootstrap-only: full-scan size and blocker candidate count.
    objects_scanned: int = 0
    candidate_pairs: int = 0
    #: The batch's dirty global keys plus every node of the rebuilt
    #: components — exactly what materialized-answer invalidation
    #: (:meth:`repro.cdc.materialize.MaterializedAugmentations.invalidate`)
    #: needs to intersect against.
    invalidation_keys: set[GlobalKey] = field(default_factory=set)


class IncrementalCollector:
    """Maintains a live A' index from CDC batches, batch-equivalently."""

    def __init__(
        self,
        matcher: PairwiseMatcher,
        settings: CollectorSettings | None = None,
    ) -> None:
        self.matcher = matcher
        self.settings = settings or CollectorSettings()
        if self.settings.max_candidate_pairs is not None:
            raise ConfigurationError(
                "incremental maintenance requires max_candidate_pairs=None: "
                "a candidate cap depends on enumeration order, which has no "
                "incremental equivalent"
            )
        self._blocker = TokenBlocker(
            max_block_size=self.settings.max_block_size,
            min_token_length=self.settings.min_token_length,
        )
        #: key -> its current blocker tokens.
        self._tokens: dict[GlobalKey, frozenset[str]] = {}
        #: token -> keys carrying it (bucket membership, all sizes).
        self._buckets: dict[str, set[GlobalKey]] = {}
        #: canonical pair -> pre-dedup p-relation the matcher emitted.
        self._scored: dict[Pair, PRelation] = {}
        #: canonical pair -> post-dedup (base) p-relation.
        self._base: dict[Pair, PRelation] = {}
        #: adjacency of the base relation graph (component lookup).
        self._base_adj: dict[GlobalKey, set[GlobalKey]] = {}

    # -- bootstrap -----------------------------------------------------------

    def bootstrap(self, polystore: Polystore, aindex: Any) -> IngestReport:
        """Full scan to seed the maintainer state and the index.

        Produces the same index a batch :class:`Collector` run would
        (modulo insertion order, which the closure is independent of),
        plus the token index and scored set that incremental batches
        update from then on.
        """
        report = IngestReport()
        objects: list[DataObject] = []
        for database in polystore:
            store = polystore.database(database)
            with store.lock:
                objects.extend(store.scan_objects())
        report.objects_scanned = len(objects)
        for obj in objects:
            tokens = frozenset(self._blocker._object_tokens(obj))
            if not tokens:
                continue
            self._tokens[obj.key] = tokens
            for token in tokens:
                self._buckets.setdefault(token, set()).add(obj.key)
        for left, right in self._blocker.candidate_pairs(objects):
            report.candidate_pairs += 1
            decision = self.matcher.decide(left, right)
            if decision.relation is not None:
                pair = _canonical(left.key, right.key)
                self._scored[pair] = decision.relation
        base = enforce_local_dedup(
            sorted(self._scored.values(), key=_relation_order)
        )
        self._base = {(r.left, r.right): r for r in base}
        for relation in base:
            self._base_adj.setdefault(relation.left, set()).add(relation.right)
            self._base_adj.setdefault(relation.right, set()).add(relation.left)
        with aindex._mutex:
            aindex.add_all(sorted(base, key=_relation_order))
        report.relations_added = len(base)
        report.affected_nodes = len(self._base_adj)
        return report

    # -- incremental application ---------------------------------------------

    def apply(
        self,
        polystore: Polystore,
        aindex: Any,
        events: Iterable[ChangeEvent],
    ) -> IngestReport:
        """Apply one CDC batch to the live index.

        Idempotent and order-tolerant within the batch: the store is the
        source of truth for every dirty key's current state, so applying
        a duplicated or internally reordered batch recomputes the same
        result.
        """
        report = IngestReport()
        dirty: set[GlobalKey] = set()
        for event in events:
            report.events += 1
            if event.collection.startswith("_"):
                continue
            dirty.add(event.global_key)
        if not dirty:
            return report
        report.dirty_keys = len(dirty)
        report.invalidation_keys |= dirty

        current = self._fetch(polystore, dirty)
        old_tokens = {k: self._tokens.get(k, frozenset()) for k in dirty}
        new_tokens: dict[GlobalKey, frozenset[str]] = {}
        for key in dirty:
            obj = current.get(key)
            new_tokens[key] = (
                frozenset(self._blocker._object_tokens(obj))
                if obj is not None
                else frozenset()
            )
        touched: set[str] = set()
        for key in dirty:
            touched |= old_tokens[key] | new_tokens[key]
        old_sizes = {t: len(self._buckets.get(t, ())) for t in touched}

        # Move dirty keys between buckets.
        for key in dirty:
            for token in old_tokens[key] - new_tokens[key]:
                bucket = self._buckets.get(token)
                if bucket is not None:
                    bucket.discard(key)
                    if not bucket:
                        del self._buckets[token]
            for token in new_tokens[key] - old_tokens[key]:
                self._buckets.setdefault(token, set()).add(key)
            if new_tokens[key]:
                self._tokens[key] = new_tokens[key]
            else:
                self._tokens.pop(key, None)

        pairs = self._possibly_changed_pairs(
            dirty, new_tokens, touched, old_sizes
        )

        # Re-decide candidacy + score for every possibly-changed pair.
        missing = {k for pair in pairs for k in pair if k not in current}
        current.update(self._fetch(polystore, missing))
        for pair in sorted(pairs, key=lambda p: (str(p[0]), str(p[1]))):
            report.pairs_rescored += 1
            relation = None
            if self._is_candidate(*pair):
                left, right = current.get(pair[0]), current.get(pair[1])
                if left is not None and right is not None:
                    relation = self.matcher.decide(left, right).relation
            if relation is None:
                self._scored.pop(pair, None)
            else:
                self._scored[pair] = relation

        # Recompute dedup over the full scored set (order-independent),
        # then rebuild only the components the base-set diff touches.
        base = enforce_local_dedup(
            sorted(self._scored.values(), key=_relation_order)
        )
        new_base = {(r.left, r.right): r for r in base}
        changed: set[Pair] = set()
        for pair, relation in self._base.items():
            if new_base.get(pair) != relation:
                changed.add(pair)
        for pair, relation in new_base.items():
            if self._base.get(pair) != relation:
                changed.add(pair)
        if changed:
            report.relations_added = sum(
                1 for pair in changed if pair in new_base
            )
            report.relations_removed = sum(
                1 for pair in changed
                if pair in self._base and pair not in new_base
            )
            affected = self._affected_component(changed, new_base)
            report.affected_nodes = len(affected)
            report.invalidation_keys |= affected
            rebuilt = sorted(
                (
                    relation
                    for pair, relation in new_base.items()
                    if pair[0] in affected
                ),
                key=_relation_order,
            )
            with aindex._mutex:
                aindex.excise(affected)
                aindex.add_all(rebuilt)
            self._apply_base_diff(changed, new_base)
        self._base = new_base
        return report

    # -- internals ------------------------------------------------------------

    def _possibly_changed_pairs(
        self,
        dirty: set[GlobalKey],
        new_tokens: dict[GlobalKey, frozenset[str]],
        touched: set[str],
        old_sizes: dict[str, int],
    ) -> set[Pair]:
        """Every pair whose candidacy or score may have changed.

        Three sources: (a) scored pairs with a dirty endpoint (content
        or candidacy change), (b) dirty keys × co-members of their valid
        new buckets (new candidacies), (c) all cross-database pairs of
        buckets whose validity flipped (clean–clean candidacy changes).
        """
        max_size = self._blocker.max_block_size
        pairs: set[Pair] = set()
        for pair in self._scored:
            if pair[0] in dirty or pair[1] in dirty:
                pairs.add(pair)
        for key in dirty:
            for token in new_tokens[key]:
                bucket = self._buckets.get(token, set())
                if 2 <= len(bucket) <= max_size:
                    for other in bucket:
                        if other != key and other.database != key.database:
                            pairs.add(_canonical(key, other))
        for token in touched:
            bucket = self._buckets.get(token, set())
            was_valid = 2 <= old_sizes[token] <= max_size
            is_valid = 2 <= len(bucket) <= max_size
            if was_valid == is_valid:
                continue
            members = sorted(bucket, key=str)
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    if a.database != b.database:
                        pairs.add(_canonical(a, b))
        return pairs

    def _is_candidate(self, a: GlobalKey, b: GlobalKey) -> bool:
        """Would the batch blocker emit this pair right now?"""
        if a.database == b.database:
            return False
        tokens_a = self._tokens.get(a)
        tokens_b = self._tokens.get(b)
        if not tokens_a or not tokens_b:
            return False
        max_size = self._blocker.max_block_size
        for token in tokens_a & tokens_b:
            bucket = self._buckets.get(token)
            if bucket is not None and 2 <= len(bucket) <= max_size:
                return True
        return False

    def _affected_component(
        self, changed: set[Pair], new_base: dict[Pair, PRelation]
    ) -> set[GlobalKey]:
        """Union of the connected components (over old ∪ new base
        edges) containing any endpoint of a changed base relation."""
        added_adj: dict[GlobalKey, set[GlobalKey]] = {}
        for pair in changed:
            if pair in new_base:
                added_adj.setdefault(pair[0], set()).add(pair[1])
                added_adj.setdefault(pair[1], set()).add(pair[0])
        affected: set[GlobalKey] = set()
        frontier = [key for pair in changed for key in pair]
        while frontier:
            node = frontier.pop()
            if node in affected:
                continue
            affected.add(node)
            for neighbor in self._base_adj.get(node, ()):
                if neighbor not in affected:
                    frontier.append(neighbor)
            for neighbor in added_adj.get(node, ()):
                if neighbor not in affected:
                    frontier.append(neighbor)
        return affected

    def _apply_base_diff(
        self, changed: set[Pair], new_base: dict[Pair, PRelation]
    ) -> None:
        for pair in changed:
            a, b = pair
            if pair in new_base:
                self._base_adj.setdefault(a, set()).add(b)
                self._base_adj.setdefault(b, set()).add(a)
            else:
                for x, y in ((a, b), (b, a)):
                    neighbors = self._base_adj.get(x)
                    if neighbors is not None:
                        neighbors.discard(y)
                        if not neighbors:
                            del self._base_adj[x]

    def _fetch(
        self, polystore: Polystore, keys: Iterable[GlobalKey]
    ) -> dict[GlobalKey, DataObject]:
        """Current store state of ``keys`` (missing keys are absent)."""
        by_database: dict[str, list[GlobalKey]] = {}
        for key in keys:
            by_database.setdefault(key.database, []).append(key)
        found: dict[GlobalKey, DataObject] = {}
        for database in sorted(by_database):
            store = polystore.database(database)
            with store.lock:
                for obj in store.multi_get(by_database[database]):
                    found[obj.key] = obj
        return found

    # -- introspection ---------------------------------------------------------

    def base_relations(self) -> list[PRelation]:
        """The current post-dedup base set, canonically ordered."""
        return sorted(self._base.values(), key=_relation_order)

    def state(self) -> dict[str, int]:
        return {
            "tracked_keys": len(self._tokens),
            "buckets": len(self._buckets),
            "scored_relations": len(self._scored),
            "base_relations": len(self._base),
        }

    # -- persistence hooks -----------------------------------------------------

    def dump_state(self) -> dict[str, Any]:
        """JSON-serializable maintainer state for incremental snapshots.

        Only the scored set is persisted: the token index is a pure
        function of the polystore and is rebuilt linearly on load
        (:meth:`load_state`), while the base set re-derives from the
        scored set through the (deterministic) dedup pass.
        """
        return {
            "scored": [
                {
                    "left": str(r.left),
                    "right": str(r.right),
                    "type": r.type.value,
                    "p": r.probability,
                }
                for r in sorted(self._scored.values(), key=_relation_order)
            ],
        }

    def load_state(
        self, payload: dict[str, Any], polystore: Polystore
    ) -> None:
        """Restore from :meth:`dump_state` plus a loaded polystore.

        Rebuilds the token index from a linear scan (no pairwise work)
        and re-derives the base set from the persisted scored set. Does
        not touch any index — the caller restores the A' snapshot
        separately and replays the WAL delta through :meth:`apply`.
        """
        from repro.model.prelations import RelationType

        self._tokens.clear()
        self._buckets.clear()
        self._scored.clear()
        self._base.clear()
        self._base_adj.clear()
        for database in polystore:
            store = polystore.database(database)
            with store.lock:
                for obj in store.scan_objects():
                    tokens = frozenset(self._blocker._object_tokens(obj))
                    if not tokens:
                        continue
                    self._tokens[obj.key] = tokens
                    for token in tokens:
                        self._buckets.setdefault(token, set()).add(obj.key)
        for spec in payload.get("scored", ()):
            relation = PRelation(
                GlobalKey.parse(spec["left"]),
                GlobalKey.parse(spec["right"]),
                RelationType(spec["type"]),
                spec["p"],
            )
            self._scored[(relation.left, relation.right)] = relation
        base = enforce_local_dedup(
            sorted(self._scored.values(), key=_relation_order)
        )
        self._base = {(r.left, r.right): r for r in base}
        for relation in base:
            self._base_adj.setdefault(relation.left, set()).add(relation.right)
            self._base_adj.setdefault(relation.right, set()).add(relation.left)
