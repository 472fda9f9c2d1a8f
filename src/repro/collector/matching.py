"""Pairwise matching (the Duke stand-in).

A :class:`PairwiseMatcher` scores a candidate pair by comparing
configured attribute pairs with weighted comparators; the final score
is the weighted mean of attribute similarities. Thresholds translate
scores into p-relations with the calibration used in the paper's
evaluation: identity for score >= ``identity_threshold`` (0.9),
matching for score >= ``matching_threshold`` (0.6), nothing below.

The matcher also enforces the paper's local-deduplication rule: two
objects of the same database cannot both hold an identity p-relation
with the same object elsewhere — only the most probable one is kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.collector.comparators import Comparator
from repro.model.objects import DataObject, GlobalKey
from repro.model.prelations import PRelation, RelationType


@dataclass(frozen=True)
class AttributeRule:
    """Compare attribute ``left_field`` of one object against
    ``right_field`` of the other with ``comparator`` at ``weight``."""

    left_field: str
    right_field: str
    comparator: Comparator
    weight: float = 1.0


@dataclass
class MatchDecision:
    """The outcome of scoring one candidate pair."""

    left: GlobalKey
    right: GlobalKey
    score: float
    relation: PRelation | None


def _field_value(obj: DataObject, name: str) -> Any:
    value = obj.value
    # Every engine hands out plain dicts; the exact-type test keeps them
    # off ``typing.Mapping``'s Python-level ``__instancecheck__``.
    if type(value) is dict or isinstance(value, Mapping):
        return value.get(name)
    if name == "value":
        return value
    return None


class PairwiseMatcher:
    """Weighted-mean attribute matching with thresholding."""

    def __init__(
        self,
        rules: list[AttributeRule],
        identity_threshold: float = 0.9,
        matching_threshold: float = 0.6,
    ) -> None:
        if not rules:
            raise ValueError("at least one attribute rule is required")
        if not 0 < matching_threshold <= identity_threshold <= 1:
            raise ValueError(
                "thresholds must satisfy 0 < matching <= identity <= 1"
            )
        self.rules = rules
        self.identity_threshold = identity_threshold
        self.matching_threshold = matching_threshold

    def score(self, left: DataObject, right: DataObject) -> float:
        """Weighted mean similarity over the attribute rules.

        Rules whose fields are absent on both sides are skipped, so
        heterogeneous objects are compared only on shared evidence.
        """
        total_weight = 0.0
        total = 0.0
        for rule in self.rules:
            a = _field_value(left, rule.left_field)
            b = _field_value(right, rule.right_field)
            if a is None and b is None:
                # The rule's fields may live on the opposite sides (the
                # blocker orients pairs canonically, not by schema), so
                # heterogeneous rules like ("name", "title") apply in
                # whichever direction finds the evidence.
                a = _field_value(right, rule.left_field)
                b = _field_value(left, rule.right_field)
            if a is None and b is None:
                continue
            total += rule.weight * rule.comparator.compare(a, b)
            total_weight += rule.weight
        if total_weight == 0.0:
            return 0.0
        return total / total_weight

    def decide(self, left: DataObject, right: DataObject) -> MatchDecision:
        """Score a pair and emit its p-relation, if any."""
        score = self.score(left, right)
        relation: PRelation | None = None
        if score >= self.identity_threshold:
            relation = PRelation.identity(left.key, right.key, min(score, 1.0))
        elif score >= self.matching_threshold:
            relation = PRelation.matching(left.key, right.key, score)
        return MatchDecision(left.key, right.key, score, relation)

    def match_pairs(
        self, pairs: Iterable[tuple[DataObject, DataObject]]
    ) -> list[PRelation]:
        """Decide every candidate pair, then apply local dedup."""
        relations = [
            decision.relation
            for decision in (self.decide(left, right) for left, right in pairs)
            if decision.relation is not None
        ]
        return enforce_local_dedup(relations)


def enforce_local_dedup(relations: list[PRelation]) -> list[PRelation]:
    """Keep, per (target object, source database), only the most
    probable identity p-relation (Section III-D).

    Matching p-relations are unaffected: the rule only concerns
    identities, because deduplication within a database is assumed to be
    a local responsibility.

    The winner of each slot is chosen by probability, with exact ties
    broken by the canonically smaller endpoint pair — so the surviving
    set depends only on the relations themselves, never on the order
    they were discovered in. Order-independence is what lets the
    incremental collector (``repro.cdc``) recompute deduplication from
    its pair set and land on the same base relations as a batch run.
    """
    best: dict[tuple[GlobalKey, str], PRelation] = {}
    kept: list[PRelation] = []
    for relation in relations:
        if relation.type is not RelationType.IDENTITY:
            kept.append(relation)
            continue
        for target, source in (
            (relation.left, relation.right),
            (relation.right, relation.left),
        ):
            slot = (target, source.database)
            current = best.get(slot)
            if current is None or _outranks(relation, current):
                best[slot] = relation

    # An identity occupies two slots (one per endpoint); it survives
    # only if it is the most probable in both.
    winner_count: dict[int, int] = {}
    for winner in best.values():
        winner_count[id(winner)] = winner_count.get(id(winner), 0) + 1
    for relation in relations:
        if (
            relation.type is RelationType.IDENTITY
            and winner_count.get(id(relation), 0) == 2
        ):
            kept.append(relation)
    return kept


def _outranks(candidate: PRelation, incumbent: PRelation) -> bool:
    """Deterministic slot ordering: higher probability wins; exact ties
    go to the canonically smaller endpoint pair."""
    if candidate.probability != incumbent.probability:
        return candidate.probability > incumbent.probability
    return (candidate.left, candidate.right) < (
        incumbent.left, incumbent.right
    )
