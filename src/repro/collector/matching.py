"""Pairwise matching (the Duke stand-in).

A :class:`PairwiseMatcher` scores a candidate pair by comparing
configured attribute pairs with weighted comparators; the final score
is the weighted mean of attribute similarities. Thresholds translate
scores into p-relations with the calibration used in the paper's
evaluation: identity for score >= ``identity_threshold`` (0.9),
matching for score >= ``matching_threshold`` (0.6), nothing below.

A pair is decided bound-then-verify: the weighted mean of the
comparators' cheap upper bounds first, the exact comparators only when
that mean can still reach ``matching_threshold``
(:meth:`PairwiseMatcher.decide`). Most blocked pairs are ruled out by
the bound, and every pair that matches is scored exactly. Coarser still,
which rule fields two objects hold at all caps what they can score
(:meth:`PairwiseMatcher.reachable`), so the incremental collector never
forms a pair that no rule can score.

The matcher also enforces the paper's local-deduplication rule: two
objects of the same database cannot both hold an identity p-relation
with the same object elsewhere — only the most probable one is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
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

    def __post_init__(self) -> None:
        # A negative, NaN or infinite weight takes the weighted mean out
        # of [0, 1], and the weighted bound stops bounding it.
        if not 0.0 <= self.weight < inf:
            raise ValueError(
                f"rule weight must be finite and >= 0, got {self.weight!r}"
            )


#: How far under ``matching_threshold`` a pair's bound must fall before
#: :meth:`PairwiseMatcher.decide` rules the pair out unscored. Every step
#: of the weighted mean (a product by a weight >= 0, a sum, one division)
#: rounds monotonically, so a bound that is not below its comparator's
#: score gives a mean not below the score. A bound is an upper bound in
#: real arithmetic; in floats it can fall short of its score by the
#: rounding of a few operations on values in [0, 1], a few multiples of
#: 2**-53 (about 1.1e-16), and the mean carries at most the largest such
#: shortfall. 1e-9 is more than a million times that, and far below any
#: difference a threshold is meant to resolve. A constant of the
#: arithmetic, not a setting.
BOUND_SLACK = 1e-9


@dataclass
class MatchDecision:
    """The outcome of deciding one candidate pair."""

    left: GlobalKey
    right: GlobalKey
    #: The exact weighted score, or ``None`` when the bound ruled the
    #: pair out before any exact comparator ran (the score is then known
    #: to be below ``matching_threshold``, and ``relation`` is ``None``).
    score: float | None
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
        #: The distinct fields the rules read, on either side, in rule
        #: order: all :meth:`project` keeps of an object.
        self.fields = tuple(
            dict.fromkeys(
                name
                for rule in rules
                for name in (rule.left_field, rule.right_field)
            )
        )
        #: (left signature, right signature) -> :meth:`reachable`.
        self._reachable: dict[
            tuple[frozenset[str], frozenset[str]], float
        ] = {}

    def score(self, left: DataObject, right: DataObject) -> float:
        """Weighted mean similarity over the attribute rules, exact (the
        genetic tuner's fitness needs every score, matching or not)."""
        return _weighted_mean(self._evidence(left, right), "compare")

    def decide(self, left: DataObject, right: DataObject) -> MatchDecision:
        """Decide a pair: its p-relation, if any.

        Bound, then verify. The weighted mean of the rules'
        :meth:`~repro.collector.comparators.Comparator.bound` is at least
        the score, so when it falls more than :data:`BOUND_SLACK` under
        ``matching_threshold`` no exact comparator runs and the decision
        is ``score=None, relation=None``. Otherwise the score is
        :meth:`score`'s, bit for bit (same values, same order of
        operations), and thresholded as always.
        """
        evidence = self._evidence(left, right)
        if (
            _weighted_mean(evidence, "bound")
            < self.matching_threshold - BOUND_SLACK
        ):
            return MatchDecision(left.key, right.key, None, None)
        score = _weighted_mean(evidence, "compare")
        relation: PRelation | None = None
        if score >= self.identity_threshold:
            relation = PRelation.identity(left.key, right.key, min(score, 1.0))
        elif score >= self.matching_threshold:
            relation = PRelation.matching(left.key, right.key, score)
        return MatchDecision(left.key, right.key, score, relation)

    def project(self, obj: DataObject) -> dict[str, Any]:
        """The rule fields ``obj`` holds as non-``None``, with their values.

        A mapping payload gives its fields, a scalar payload is
        ``"value"``, as :meth:`_evidence` reads them, so a
        ``DataObject(obj.key, project(obj))`` decides every pair exactly
        like ``obj``. Its keys are ``obj``'s *presence signature*, the
        input of :meth:`reachable`.
        """
        return {
            name: value
            for name in self.fields
            if (value := _field_value(obj, name)) is not None
        }

    def reachable(self, left: frozenset[str], right: frozenset[str]) -> float:
        """The best score a pair can reach whose left and right objects
        hold the rule fields ``left`` and ``right`` (their presence
        signatures, :meth:`project`'s keys).

        :meth:`_evidence` read off the signatures alone, with the same
        orientation fallback: a rule with both sides present may score
        1.0, a rule with one side absent 0.0 if its comparator declares
        ``absent_scores_zero`` and 1.0 otherwise, and a rule with both
        sides absent is skipped. The weights are summed in rule order,
        as :func:`_weighted_mean` sums them, so the float result is not
        below any score such a pair gets. Cached per signature pair.
        """
        signatures = (left, right)
        best = self._reachable.get(signatures)
        if best is None:
            total = total_weight = 0.0
            for rule in self.rules:
                a, b = rule.left_field in left, rule.right_field in right
                if not (a or b):
                    a, b = rule.left_field in right, rule.right_field in left
                    if not (a or b):
                        continue
                if (a and b) or not rule.comparator.absent_scores_zero:
                    total += rule.weight
                total_weight += rule.weight
            best = total / total_weight if total_weight else 0.0
            self._reachable[signatures] = best
        return best

    def _evidence(
        self, left: DataObject, right: DataObject
    ) -> list[tuple[AttributeRule, Any, Any]]:
        """Each rule with the pair's two values for it, read once.

        Rules whose fields are absent on both sides are skipped, so
        heterogeneous objects are compared only on shared evidence.
        """
        evidence = []
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
            evidence.append((rule, a, b))
        return evidence

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


def _weighted_mean(
    evidence: list[tuple[AttributeRule, Any, Any]], measure: str
) -> float:
    """The weight-averaged ``compare`` or ``bound`` of the evidence (0.0
    without any)."""
    total_weight = 0.0
    total = 0.0
    for rule, a, b in evidence:
        total += rule.weight * getattr(rule.comparator, measure)(a, b)
        total_weight += rule.weight
    if total_weight == 0.0:
        return 0.0
    return total / total_weight


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
