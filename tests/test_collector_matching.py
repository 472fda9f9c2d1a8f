"""Tests for pairwise matching, thresholds and the local-dedup rule."""

import pytest

from repro.collector.comparators import ExactComparator, JaroWinklerComparator
from repro.collector.matching import (
    AttributeRule,
    PairwiseMatcher,
    enforce_local_dedup,
)
from repro.model.objects import DataObject, GlobalKey
from repro.model.prelations import PRelation, RelationType


def obj(db: str, key: str, **fields) -> DataObject:
    return DataObject(GlobalKey(db, "c", key), fields)


def simple_matcher(identity=0.9, matching=0.6) -> PairwiseMatcher:
    return PairwiseMatcher(
        [AttributeRule("title", "title", JaroWinklerComparator())],
        identity_threshold=identity,
        matching_threshold=matching,
    )


class TestScoring:
    def test_identical_titles_score_one(self):
        matcher = simple_matcher()
        assert matcher.score(
            obj("a", "1", title="Wish"), obj("b", "2", title="Wish")
        ) == pytest.approx(1.0)

    def test_weighted_mean(self):
        matcher = PairwiseMatcher(
            [
                AttributeRule("x", "x", ExactComparator(), weight=3.0),
                AttributeRule("y", "y", ExactComparator(), weight=1.0),
            ]
        )
        score = matcher.score(obj("a", "1", x=1, y=1), obj("b", "2", x=1, y=2))
        assert score == pytest.approx(0.75)

    def test_rules_with_absent_fields_skipped(self):
        matcher = PairwiseMatcher(
            [
                AttributeRule("title", "title", ExactComparator()),
                AttributeRule("price", "price", ExactComparator()),
            ]
        )
        score = matcher.score(
            obj("a", "1", title="Wish"), obj("b", "2", title="Wish")
        )
        assert score == 1.0  # price rule skipped on both-absent

    def test_no_shared_evidence_scores_zero(self):
        matcher = simple_matcher()
        assert matcher.score(obj("a", "1", other=1), obj("b", "2", price=2)) == 0.0

    @pytest.mark.parametrize("weight", [-1.0, float("nan"), float("inf")])
    def test_weight_outside_the_finite_non_negatives_refused(self, weight):
        # Such a weight takes the weighted mean out of [0, 1].
        with pytest.raises(ValueError, match="weight"):
            AttributeRule("a", "b", JaroWinklerComparator(), weight=weight)

    def test_zero_weight_accepted(self):
        assert AttributeRule("a", "b", ExactComparator(), weight=0.0).weight == 0.0

    def test_requires_rules(self):
        with pytest.raises(ValueError):
            PairwiseMatcher([])

    def test_threshold_ordering_validated(self):
        with pytest.raises(ValueError):
            simple_matcher(identity=0.5, matching=0.8)


class TestDecisions:
    def test_identity_above_high_threshold(self):
        decision = simple_matcher().decide(
            obj("a", "1", title="Wish"), obj("b", "2", title="Wish")
        )
        assert decision.relation.type is RelationType.IDENTITY

    def test_matching_between_thresholds(self):
        decision = simple_matcher().decide(
            obj("a", "1", title="Queen Dead"),
            obj("b", "2", title="Queen Bees Live"),
        )
        assert decision.relation is not None
        assert decision.relation.type is RelationType.MATCHING

    def test_nothing_below_low_threshold(self):
        decision = simple_matcher().decide(
            obj("a", "1", title="Wish"), obj("b", "2", title="Zanzibar!")
        )
        assert decision.relation is None

    def test_scalar_objects_compared_by_value(self):
        matcher = PairwiseMatcher(
            [AttributeRule("value", "value", ExactComparator())]
        )
        left = DataObject(GlobalKey("a", "c", "1"), "40%")
        right = DataObject(GlobalKey("b", "c", "2"), "40%")
        assert matcher.decide(left, right).relation.type is RelationType.IDENTITY


class TestLocalDedup:
    def key(self, db, name):
        return GlobalKey(db, "c", name)

    def test_conflicting_identities_keep_strongest(self):
        """Two same-db objects cannot both be identical to one target."""
        target = self.key("dbB", "t")
        strong = PRelation.identity(self.key("dbA", "x"), target, 0.95)
        weak = PRelation.identity(self.key("dbA", "y"), target, 0.91)
        kept = enforce_local_dedup([strong, weak])
        assert strong in kept
        assert weak not in kept

    def test_identities_to_different_targets_all_kept(self):
        one = PRelation.identity(self.key("dbA", "x"), self.key("dbB", "t1"), 0.95)
        two = PRelation.identity(self.key("dbA", "y"), self.key("dbB", "t2"), 0.91)
        assert set(enforce_local_dedup([one, two])) == {one, two}

    def test_matchings_unaffected(self):
        target = self.key("dbB", "t")
        m1 = PRelation.matching(self.key("dbA", "x"), target, 0.7)
        m2 = PRelation.matching(self.key("dbA", "y"), target, 0.8)
        assert set(enforce_local_dedup([m1, m2])) == {m1, m2}

    def test_match_pairs_applies_dedup(self):
        matcher = simple_matcher()
        target = obj("dbB", "t", title="Wish")
        clone1 = obj("dbA", "x", title="Wish")
        clone2 = obj("dbA", "y", title="Wish!")
        relations = matcher.match_pairs([(clone1, target), (clone2, target)])
        identities = [
            r for r in relations if r.type is RelationType.IDENTITY
        ]
        assert len(identities) == 1
