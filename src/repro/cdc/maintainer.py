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
  emitted, keyed by canonical pair, with two derived views: key → its
  scored pairs, and dedup slot ``(target, source database)`` → the
  scored identities competing for it. Per batch, only possibly-changed
  pairs are re-decided, and local dedup is re-decided only in the slots
  of the pairs whose scored relation actually changed: the winner of a
  slot is taken over every scored identity in it, never over survivors
  (see :func:`~repro.collector.matching.enforce_local_dedup`, the
  oracle of this path), so a change cannot cascade past the slots it
  touches and the post-dedup *base* set is exactly what a batch run
  would produce. A batch costs what it changes, not what is stored.

* **Filed values.** Each tracked key's rule fields
  (:meth:`PairwiseMatcher.project`), filed beside its tokens. A batch
  reads the stores for its dirty keys only; the other end of a pair is
  decided from its filed values, and read only when it has none (after
  :meth:`IncrementalCollector.load_state`, which does not persist
  them). A key's filed values are its store state as of its last
  applied event — the same condition the token index holds, since every
  change to a tracked key reaches :meth:`IncrementalCollector.apply`.
  Their keys are the key's *presence signature*: a pair this batch
  forms whose two signatures cannot reach ``matching_threshold``
  (:meth:`PairwiseMatcher.reachable`) holds no scored relation and
  would decide to none, so it is never formed.

* **Component rebuild.** The A' closure of a connected component is a
  fixpoint of its base relations, independent of insertion order, so a
  delta is applied by excising the affected components (removing stale
  inferred edges and lineage with them — :meth:`AIndex.excise`) and
  re-inserting their current base relations in canonical order. On a
  sharded polystore the index is the same one ``AIndex``: only the
  stores are partitioned.

Locking follows the PR 5 discipline: store fetches take ``store.lock``
and index surgery holds the index mutex across excise + re-add, so a
concurrent freeze can never observe a half-rebuilt component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Any, Iterable

from repro.cdc.feed import ChangeEvent
from repro.collector.blocking import TokenBlocker
from repro.collector.collector import CollectorSettings
from repro.collector.matching import (
    BOUND_SLACK,
    PairwiseMatcher,
    _outranks,
    enforce_local_dedup,
)
from repro.model.objects import DataObject, GlobalKey
from repro.model.polystore import Polystore
from repro.model.prelations import PRelation, RelationType
from repro.persistence.snapshot import key_reader

Pair = tuple[GlobalKey, GlobalKey]
#: What identities compete for: (target object, source database).
Slot = tuple[GlobalKey, str]
#: A key's filed values: its presence signature (the rule fields it
#: holds) and the object over those values, ready to decide a pair.
Filed = tuple[frozenset[str], DataObject]


def _canonical(a: GlobalKey, b: GlobalKey) -> Pair:
    return (a, b) if a <= b else (b, a)


def _relation_order(relation: PRelation) -> tuple[str, str, str]:
    return (relation.left, relation.right, relation.type.value)


def _slots(pair: Pair) -> tuple[Slot, Slot]:
    """The two dedup slots an identity between ``pair`` competes for."""
    return ((pair[0], pair[1].database), (pair[1], pair[0].database))


def _is_identity(relation: PRelation | None) -> bool:
    return relation is not None and relation.type is RelationType.IDENTITY


def _file(view: dict[Any, set], key: Any, member: Any) -> None:
    view.setdefault(key, set()).add(member)


def _unfile(view: dict[Any, set], key: Any, member: Any) -> None:
    """Inverse of :func:`_file`; no empty container is left behind."""
    members = view[key]
    members.discard(member)
    if not members:
        del view[key]


@dataclass
class IngestReport:
    """What one bootstrap or CDC batch application did."""

    events: int = 0
    dirty_keys: int = 0
    pairs_rescored: int = 0
    #: Pairs the batch would have formed that no rule can score (their
    #: presence signatures cannot reach ``matching_threshold``).
    pairs_unscorable: int = 0
    #: Keys read from the stores because they had no filed values (the
    #: dirty keys are read on top of these).
    values_fetched: int = 0
    #: Relations whose dedup survival was re-decided (the re-scored
    #: pairs that changed plus their slot rivals).
    dedup_rechecked: int = 0
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
        self._blocker = TokenBlocker(
            max_block_size=self.settings.max_block_size,
            min_token_length=self.settings.min_token_length,
        )
        #: key -> its current blocker tokens.
        self._tokens: dict[GlobalKey, frozenset[str]] = {}
        #: token -> keys carrying it (bucket membership, all sizes).
        self._buckets: dict[str, set[GlobalKey]] = {}
        #: tracked key -> its filed values (:meth:`_filing`); a tracked
        #: key may have none yet (after :meth:`load_state`).
        self._filed: dict[GlobalKey, Filed] = {}
        #: Each presence signature once, shared by the keys holding it.
        self._signatures: dict[frozenset[str], frozenset[str]] = {}
        #: canonical pair -> pre-dedup p-relation the matcher emitted.
        self._scored: dict[Pair, PRelation] = {}
        #: Two views derived from ``_scored``, written by
        #: :meth:`_set_scored` only: key -> the scored pairs it ends,
        #: and slot -> the scored identity pairs competing for it.
        self._scored_by_key: dict[GlobalKey, set[Pair]] = {}
        self._slot_rivals: dict[Slot, set[Pair]] = {}
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
        self._track(
            (obj.key, self._blocker._object_tokens(obj)) for obj in objects
        )
        self._filed.update(
            (obj.key, self._filing(obj))
            for obj in objects
            if obj.key in self._tokens
        )
        for left, right in self._blocker.candidate_pairs(objects):
            report.candidate_pairs += 1
            decision = self.matcher.decide(left, right)
            if decision.relation is not None:
                self._set_scored(
                    _canonical(left.key, right.key), decision.relation
                )
        base = enforce_local_dedup(
            sorted(self._scored.values(), key=_relation_order)
        )
        for relation in base:
            self._set_base((relation.left, relation.right), relation)
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
        result. The stores are read twice: the dirty keys, then the
        other ends of the pairs to re-decide that have no filed values
        (none, once every tracked key is filed). All-or-nothing on
        maintainer state up to the last decision: if a store fetch (or
        the matcher) raises, the exception propagates with the state as
        it was before the call, so the redelivered batch is applied
        against the same index this one was. The guarantee ends at
        :meth:`_commit`: from there on only in-memory writes remain
        (filed values, scored set, base set, then the index), and an
        interrupt landing among them is not rolled back — the
        redelivery would find its decisions already recorded and repair
        nothing, so rebuild after one.
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
        fresh = {key: self._filing(obj) for key, obj in current.items()}
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

        # Decide before committing: candidacy is a function of the token
        # index *after* the move, and the second fetch can fail. A batch
        # that raises must leave no trace (the hub leaves it unacked and
        # redelivers it; a half-moved index would hide the bucket flips
        # from the retry), so the move is undone on the way out and
        # nothing else is written until every decision is in hand.
        self._move(dirty, old_tokens, new_tokens)
        try:
            rescore, formed, lost = self._possibly_changed_pairs(
                dirty, new_tokens, touched, old_sizes
            )
            pairs = rescore | formed | lost
            # Each end as this batch decides it: a dirty key as just read
            # (None once deleted), any other from its filed values, read
            # from its store only when it has none (None if absent).
            filed = self._filed
            ends = {key: fresh.get(key) for key in dirty}
            missing = []
            for key in {key for pair in pairs for key in pair} - dirty:
                entry = ends[key] = filed.get(key)
                if entry is None:
                    missing.append(key)
            report.values_fetched = len(missing)
            refilled = {
                key: self._filing(obj)
                for key, obj in self._fetch(polystore, missing).items()
            }
            ends.update(refilled)
            # A pair formed here that no rule can score is never decided:
            # it holds no scored relation (one with a dirty end is in
            # ``rescore``; one between clean keys was decided from the
            # values they hold, so it reaches the threshold), and it
            # would decide to none.
            reachable = self.matcher.reachable
            floor = self.matcher.matching_threshold - BOUND_SLACK
            unscorable = {
                pair
                for pair in (formed | lost) - rescore
                if (left := ends[pair[0]]) is not None
                and (right := ends[pair[1]]) is not None
                and reachable(left[0], right[0]) < floor
            }
            report.pairs_unscorable = len(unscorable)
            decided: dict[Pair, PRelation | None] = {}
            for pair in pairs - unscorable:
                relation = None
                left, right = ends[pair[0]], ends[pair[1]]
                if (
                    left is not None
                    and right is not None
                    and (pair in formed or self._is_candidate(*pair))
                ):
                    relation = self.matcher.decide(left[1], right[1]).relation
                decided[pair] = relation
        except BaseException:
            self._move(dirty, new_tokens, old_tokens)
            raise
        report.pairs_rescored = len(decided)

        for key in dirty:
            entry = fresh.get(key)
            if entry is not None and key in self._tokens:
                filed[key] = entry
            else:
                filed.pop(key, None)
        for key, entry in refilled.items():
            if key in self._tokens:
                filed[key] = entry
        changed = self._commit(decided, report)
        if changed:
            # Both ends of every changed pair seed the walk, so the
            # pieces a removed edge leaves behind are found from their
            # own end: the walk needs the new adjacency only.
            affected = self._component(changed)
            report.affected_nodes = len(affected)
            report.invalidation_keys |= affected
            # ``_base`` is keyed by canonical pair: each edge of the
            # components is found once, from its left end.
            rebuilt = sorted(
                (
                    relation
                    for node in affected
                    for neighbor in self._base_adj.get(node, ())
                    if (relation := self._base.get((node, neighbor)))
                ),
                key=_relation_order,
            )
            with aindex._mutex:
                aindex.excise(affected)
                aindex.add_all(rebuilt)
        return report

    # -- internals ------------------------------------------------------------

    def _track(self, entries: Iterable[tuple[GlobalKey, Iterable[str]]]) -> None:
        """File each key under its tokens in the token index (a key with
        none is not tracked)."""
        buckets = self._buckets
        for key, tokens in entries:
            tokens = frozenset(tokens)
            if not tokens:
                continue
            self._tokens[key] = tokens
            for token in tokens:
                bucket = buckets.get(token)
                if bucket is None:
                    buckets[token] = {key}
                else:
                    bucket.add(key)

    def _move(
        self,
        keys: set[GlobalKey],
        source: dict[GlobalKey, frozenset[str]],
        target: dict[GlobalKey, frozenset[str]],
    ) -> None:
        """Re-file ``keys`` in the token index from their ``source``
        token sets to their ``target`` ones (swapped, it is the undo)."""
        for key in keys:
            for token in source[key] - target[key]:
                _unfile(self._buckets, token, key)
            for token in target[key] - source[key]:
                _file(self._buckets, token, key)
            if target[key]:
                self._tokens[key] = target[key]
            else:
                self._tokens.pop(key, None)

    def _commit(
        self, decided: dict[Pair, PRelation | None], report: IngestReport
    ) -> set[Pair]:
        """Write a batch's decisions to the scored set and re-decide
        local dedup where they can have changed it.

        An identity survives iff it is the winner of both its slots, and
        a slot's winner is taken over every scored identity in it, so
        survival can change only for a pair whose scored relation
        changed and for the identities sharing a slot with one. The
        base set is updated in place; returns the pairs whose base
        relation changed.
        """
        recheck: set[Pair] = set()
        contested: set[Slot] = set()
        for pair, relation in decided.items():
            previous = self._scored.get(pair)
            if relation == previous:
                continue
            self._set_scored(pair, relation)
            recheck.add(pair)
            if _is_identity(previous) or _is_identity(relation):
                contested.update(_slots(pair))
        for slot in contested:
            recheck.update(self._slot_rivals.get(slot, ()))
        report.dedup_rechecked = len(recheck)

        changed: set[Pair] = set()
        winners: dict[Slot, PRelation] = {}
        for pair in recheck:
            relation = self._scored.get(pair)
            if _is_identity(relation) and not all(
                self._winner(slot, winners) is relation
                for slot in _slots(pair)
            ):
                relation = None
            if relation == self._base.get(pair):
                continue
            changed.add(pair)
            self._set_base(pair, relation)
            if relation is None:
                report.relations_removed += 1
            else:
                report.relations_added += 1
        return changed

    def _set_scored(self, pair: Pair, relation: PRelation | None) -> None:
        """Set (or with ``None`` remove) a pair's scored relation — the
        one writer of ``_scored`` and of the two views derived from it."""
        previous = self._scored.pop(pair, None)
        if previous is not None:
            for key in pair:
                _unfile(self._scored_by_key, key, pair)
            if _is_identity(previous):
                for slot in _slots(pair):
                    _unfile(self._slot_rivals, slot, pair)
        if relation is not None:
            self._scored[pair] = relation
            for key in pair:
                _file(self._scored_by_key, key, pair)
            if _is_identity(relation):
                for slot in _slots(pair):
                    _file(self._slot_rivals, slot, pair)

    def _set_base(self, pair: Pair, relation: PRelation | None) -> None:
        """Set (or with ``None`` remove) a base relation and its edge in
        the base adjacency."""
        a, b = pair
        if relation is None:
            del self._base[pair]
            _unfile(self._base_adj, a, b)
            _unfile(self._base_adj, b, a)
        else:
            self._base[pair] = relation
            _file(self._base_adj, a, b)
            _file(self._base_adj, b, a)

    def _winner(self, slot: Slot, winners: dict[Slot, PRelation]) -> PRelation:
        """The identity that holds ``slot``: the one no scored rival
        outranks (``enforce_local_dedup``'s ``best``), found once per
        batch and slot."""
        best = winners.get(slot)
        if best is None:
            for pair in self._slot_rivals[slot]:
                rival = self._scored[pair]
                if best is None or _outranks(rival, best):
                    best = rival
            winners[slot] = best
        return best

    def _possibly_changed_pairs(
        self,
        dirty: set[GlobalKey],
        new_tokens: dict[GlobalKey, frozenset[str]],
        touched: set[str],
        old_sizes: dict[str, int],
    ) -> tuple[set[Pair], set[Pair], set[Pair]]:
        """Every pair whose candidacy or score may have changed, from
        three sources.

        (a) scored pairs with a dirty endpoint (content or candidacy
        change), (b) dirty keys × co-members of their valid new buckets
        (new candidacies), (c) all cross-database pairs of buckets whose
        validity flipped (clean–clean candidacy changes). Returned as
        (a), then the pairs of (b) and of the buckets (c) made valid,
        which share a valid bucket and so are candidates, then the pairs
        of the buckets (c) made invalid.
        """
        max_size = self._blocker.max_block_size
        rescore: set[Pair] = set()
        formed: set[Pair] = set()
        lost: set[Pair] = set()
        for key in dirty:
            rescore.update(self._scored_by_key.get(key, ()))
            for token in new_tokens[key]:
                bucket = self._buckets.get(token, ())
                if 2 <= len(bucket) <= max_size:
                    for other in bucket:
                        if other.database != key.database:
                            formed.add(_canonical(key, other))
        for token in touched:
            bucket = self._buckets.get(token, ())
            was_valid = 2 <= old_sizes[token] <= max_size
            is_valid = 2 <= len(bucket) <= max_size
            if was_valid == is_valid:
                continue
            flipped = formed if is_valid else lost
            for a, b in combinations(bucket, 2):
                if a.database != b.database:
                    flipped.add(_canonical(a, b))
        return rescore, formed, lost

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

    def _filing(self, obj: DataObject) -> Filed:
        """``obj``'s filed values: :meth:`PairwiseMatcher.project`'s
        dict, with its keys as the presence signature."""
        values = self.matcher.project(obj)
        signature = frozenset(values)
        return (
            self._signatures.setdefault(signature, signature),
            DataObject(obj.key, values),
        )

    def _component(self, pairs: Iterable[Pair]) -> set[GlobalKey]:
        """Union of the connected components of the base adjacency that
        hold an endpoint of ``pairs``."""
        affected: set[GlobalKey] = set()
        frontier = [key for pair in pairs for key in pair]
        while frontier:
            node = frontier.pop()
            if node in affected:
                continue
            affected.add(node)
            for neighbor in self._base_adj.get(node, ()):
                if neighbor not in affected:
                    frontier.append(neighbor)
        return affected

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
            "filed_values": len(self._filed),
            "buckets": len(self._buckets),
            "scored_relations": len(self._scored),
            "base_relations": len(self._base),
            "scored_keys": len(self._scored_by_key),
            "dedup_slots": len(self._slot_rivals),
        }

    # -- persistence hooks -----------------------------------------------------

    def dump_state(self) -> dict[str, Any]:
        """JSON-serializable maintainer state for incremental snapshots.

        The scored set, and each tracked key's sorted tokens (joined by
        a space, which no token holds) with the ``min_token_length``
        they were cut with. The tokens are a pure function of the
        polystore, persisted so that a restart need not re-read and
        re-tokenise every object; they describe the stores as of the
        last applied batch, which is what a snapshot taken after a drain
        (:meth:`repro.cdc.hub.ChangeHub.snapshot`) holds. The base set
        re-derives from the scored set through the (deterministic) dedup
        pass. The filed values are not persisted: a restart refills them
        as batches read them.
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
            "min_token_length": self._blocker.min_token_length,
            "tokens": {
                str(key): " ".join(sorted(tokens))
                for key, tokens in self._tokens.items()
            },
        }

    def load_state(
        self, payload: dict[str, Any], polystore: Polystore
    ) -> None:
        """Restore from :meth:`dump_state` plus a loaded polystore.

        Restores the token index from the persisted tokens, or rebuilds
        it from a linear scan (no pairwise work) when the payload has
        none (written before tokens were persisted) or they were cut
        with another ``min_token_length``; re-derives the base set from
        the persisted scored set. Files no values: a key's are read the
        first time a batch decides a pair of it. Does not touch any
        index — the caller restores the A' snapshot separately and
        replays the WAL delta through :meth:`apply`.
        """
        self._tokens.clear()
        self._buckets.clear()
        self._filed.clear()
        self._scored.clear()
        self._scored_by_key.clear()
        self._slot_rivals.clear()
        self._base.clear()
        self._base_adj.clear()
        read_key = key_reader(polystore)
        tokens = payload.get("tokens")
        if (
            tokens is not None
            and payload.get("min_token_length") == self._blocker.min_token_length
        ):
            self._track(
                (read_key(text), joined.split(" "))
                for text, joined in tokens.items()
            )
        else:
            for database in polystore:
                store = polystore.database(database)
                with store.lock:
                    self._track(
                        (obj.key, self._blocker._object_tokens(obj))
                        for obj in store.iter_objects()
                    )
        for spec in payload.get("scored", ()):
            relation = PRelation(
                read_key(spec["left"]),
                read_key(spec["right"]),
                RelationType(spec["type"]),
                spec["p"],
            )
            self._set_scored((relation.left, relation.right), relation)
        for relation in enforce_local_dedup(
            sorted(self._scored.values(), key=_relation_order)
        ):
            self._set_base((relation.left, relation.right), relation)
