"""Bound-then-verify matching decides every pair exactly.

``PairwiseMatcher.decide`` runs the exact comparators only when the
weighted mean of the comparators' bounds can still reach
``matching_threshold``. Two properties make that exact:

* every built-in comparator's ``bound`` is at least its ``compare``
  (up to the rounding of the Jaro-Winkler prefix step, far inside the
  matcher's ``BOUND_SLACK``);
* ``decide(l, r).relation`` is the relation the exact weighted score
  gives, bit for bit — over the ``ingest_mixed`` corpus shape and over
  thresholds placed within 1e-6 of the pairs' own scores.
"""

from __future__ import annotations

import math
import random
import string

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.collector import (
    ExactComparator,
    JaroWinklerComparator,
    LevenshteinComparator,
    NumericComparator,
    PairwiseMatcher,
    TokenOverlapComparator,
)
from repro.collector.blocking import TokenBlocker
from repro.collector.comparators import Comparator
from repro.collector.matching import BOUND_SLACK, AttributeRule, _field_value
from repro.model.objects import DataObject, GlobalKey
from repro.model.prelations import PRelation

#: How far a float bound may fall under its float score. The Jaro bound
#: is never below Jaro (each of its steps rounds monotonically on a
#: larger operand); the Winkler step ``j + c * (1 - j)`` rounds three
#: times, each off by at most 2**-53 of a value <= 1, on both sides.
ROUNDING = 6 * 2.0 ** -53

COMPARATORS = [
    ExactComparator(),
    LevenshteinComparator(),
    JaroWinklerComparator(),
    JaroWinklerComparator(prefix_scale=0.25, max_prefix=4),
    JaroWinklerComparator(prefix_scale=1.0, max_prefix=1),
    JaroWinklerComparator(prefix_scale=0.0, max_prefix=0),
    TokenOverlapComparator(),
    NumericComparator(),
]

WORDS = st.text(
    alphabet=st.sampled_from("abcdeABCDE xyzÄäßẞİıǅ0123\t"), max_size=16
)
VALUES = st.one_of(
    st.none(),
    st.integers(-1000, 1000),
    st.floats(allow_nan=True, allow_infinity=True),
    WORDS,
    WORDS.map(str.upper),
    WORDS.map(lambda text: f"  {text}\n"),
    st.text(max_size=12),
)


def pairs_of(values):
    """Independent pairs, equal pairs and pairs sharing a prefix."""
    return st.one_of(
        st.tuples(values, values),
        values.map(lambda value: (value, value)),
        st.tuples(WORDS, WORDS, WORDS).map(
            lambda parts: (parts[0] + parts[1], parts[0].upper() + parts[2])
        ),
    )


class TestBoundIsAnUpperBound:
    @settings(max_examples=400, deadline=None)
    @given(pair=pairs_of(VALUES))
    @example(pair=("abcdxyz", "abcdpqr"))
    @example(pair=("MARTHA", "marhta"))
    @example(pair=("  Wish ", "wish"))
    @example(pair=("İstanbul", "istanbul"))
    @example(pair=(None, "wish"))
    @example(pair=(12, "12"))
    def test_bound_is_at_least_the_score(self, pair):
        left, right = pair
        for comparator in COMPARATORS:
            for a, b in ((left, right), (right, left)):
                score = comparator.compare(a, b)
                assert comparator.bound(a, b) >= score - ROUNDING, (
                    comparator.name, a, b
                )

    def test_rounding_sits_far_inside_the_matchers_slack(self):
        assert ROUNDING * 1e6 < BOUND_SLACK

    def test_identical_text_bounds_at_one(self):
        comparator = JaroWinklerComparator()
        assert comparator.bound("Queen Bees", " queen bees ") == 1.0

    def test_no_common_character_bounds_at_zero(self):
        assert JaroWinklerComparator().bound("abc", "xyz") == 0.0
        assert JaroWinklerComparator().bound("", "xyz") == 0.0
        assert JaroWinklerComparator().bound(None, "xyz") == 0.0


class CountingJaroWinkler(JaroWinklerComparator):
    """Counts the exact comparisons it runs."""

    def __init__(self) -> None:
        super().__init__()
        self.exact_calls = 0

    def compare(self, left, right):
        self.exact_calls += 1
        return super().compare(left, right)


def obj(database, key, **fields):
    return DataObject(GlobalKey(database, "c", key), fields)


class TestDecide:
    def test_a_pair_the_bound_rules_out_is_not_scored(self):
        comparator = CountingJaroWinkler()
        matcher = PairwiseMatcher([AttributeRule("title", "title", comparator)])
        decision = matcher.decide(
            obj("a", "1", title="Queen Dead"), obj("b", "2", title="xyz")
        )
        assert decision.score is None
        assert decision.relation is None
        assert comparator.exact_calls == 0

    def test_a_pair_that_can_match_is_scored_exactly(self):
        comparator = CountingJaroWinkler()
        matcher = PairwiseMatcher([AttributeRule("title", "title", comparator)])
        left = obj("a", "1", title="Queen Dead")
        right = obj("b", "2", title="Queen Bees Live")
        decision = matcher.decide(left, right)
        assert comparator.exact_calls == 1
        assert decision.score == matcher.score(left, right)
        assert decision.relation == reference_relation(matcher, left, right)

    def test_a_rule_without_a_bound_keeps_every_pair_in_play(self):
        calls = []

        class Recording(Comparator):
            def compare(self, left, right):
                calls.append((left, right))
                return 0.0

        matcher = PairwiseMatcher([AttributeRule("x", "x", Recording())])
        decision = matcher.decide(obj("a", "1", x=1), obj("b", "2", x=2))
        assert calls == [(1, 2)]
        assert decision.score == 0.0 and decision.relation is None

    def test_pairs_without_shared_evidence_are_ruled_out(self):
        matcher = PairwiseMatcher(
            [AttributeRule("title", "title", JaroWinklerComparator())]
        )
        decision = matcher.decide(obj("a", "1", x=1), obj("b", "2", y=2))
        assert decision.score is None and decision.relation is None


# -- the differential check ---------------------------------------------------


def reference_score(matcher, left, right):
    """The weighted mean of exact comparisons, as the matcher scored
    every pair before it bounded them."""
    total_weight = 0.0
    total = 0.0
    for rule in matcher.rules:
        a = _field_value(left, rule.left_field)
        b = _field_value(right, rule.right_field)
        if a is None and b is None:
            a = _field_value(right, rule.left_field)
            b = _field_value(left, rule.right_field)
        if a is None and b is None:
            continue
        total += rule.weight * rule.comparator.compare(a, b)
        total_weight += rule.weight
    if total_weight == 0.0:
        return 0.0
    return total / total_weight


def reference_relation(matcher, left, right):
    score = reference_score(matcher, left, right)
    if score >= matcher.identity_threshold:
        return PRelation.identity(left.key, right.key, min(score, 1.0))
    if score >= matcher.matching_threshold:
        return PRelation.matching(left.key, right.key, score)
    return None


def ingest_mixed_pairs(seed, entities=96):
    """Candidate pairs of the ``ingest_mixed`` corpus shape: four stores
    share one entity set; a title is four words from a vocabulary sized
    to fill token buckets near the block cap, plus a unique suffix. Half
    the copies carry a suffix of their own, as a title edit leaves it,
    so same-entity pairs score on both sides of the thresholds."""
    rng = random.Random(seed)
    vocabulary = [
        "".join(rng.choice(string.ascii_lowercase) for __ in range(7))
        for __ in range(max(1, entities * 16 // 56))
    ]
    objects = []
    for entity in range(entities):
        words = " ".join(rng.choice(vocabulary) for __ in range(4))
        shared = f"{words} x{rng.randrange(1 << 20):05x}"
        for database, collection, field in (
            ("transactions", "inventory", "name"),
            ("catalogue", "albums", "title"),
            ("similar", "Item", "title"),
            ("discount", "drop", "title"),
        ):
            if rng.random() < 0.1:
                continue
            title = shared
            if rng.random() < 0.5:
                title = f"{words} x{rng.randrange(1 << 20):05x}"
            key = GlobalKey(database, collection, f"{database[0]}{entity}")
            objects.append(DataObject(key, {field: title}))
    return list(TokenBlocker(max_block_size=64).candidate_pairs(objects))


def ingest_mixed_matcher(identity=0.95, matching=0.9):
    return PairwiseMatcher(
        [AttributeRule("name", "title", JaroWinklerComparator())],
        identity_threshold=identity,
        matching_threshold=matching,
    )


def weighted_matcher(identity=0.9, matching=0.6):
    """Several rules, weights and comparators without a bound of their
    own (the ``examples/collector_pipeline.py`` shape)."""
    return PairwiseMatcher(
        [
            AttributeRule("name", "title", JaroWinklerComparator(), weight=0.6),
            AttributeRule("name", "title", TokenOverlapComparator(), weight=0.2),
            AttributeRule("title", "title", LevenshteinComparator(), weight=0.3),
            AttributeRule(
                "price", "price", NumericComparator(0.2), weight=0.2
            ),
        ],
        identity_threshold=identity,
        matching_threshold=matching,
    )


def assert_decides_exactly(matcher, pairs):
    for left, right in pairs:
        decision = matcher.decide(left, right)
        expected = reference_relation(matcher, left, right)
        assert decision.relation == expected, (left, right)
        if decision.score is not None:
            assert decision.score == reference_score(matcher, left, right)


def near(value):
    """Thresholds within 1e-6 of ``value`` on both sides, down to the
    neighbouring floats, kept inside (0, 1]."""
    candidates = {
        value,
        math.nextafter(value, 0.0),
        math.nextafter(value, 2.0),
        value - 5e-7,
        value + 5e-7,
        value - 1e-6,
        value + 1e-6,
    }
    return sorted(c for c in candidates if 0.0 < c <= 1.0)


class TestDecideEqualsTheExactReference:
    def test_ingest_mixed_corpus(self):
        for seed in (11, 37):
            pairs = ingest_mixed_pairs(seed)
            assert len(pairs) > 1000
            matcher = ingest_mixed_matcher()
            decided = [matcher.decide(l, r) for l, r in pairs]
            # The corpus must exercise both outcomes of the bound.
            assert any(d.score is None for d in decided)
            assert any(d.relation is not None for d in decided)
            assert_decides_exactly(matcher, pairs)

    def test_weighted_rules(self):
        # Every fourth pair: the Levenshtein kernel is quadratic Python.
        pairs = ingest_mixed_pairs(23, entities=48)[::4]
        priced = [
            (
                DataObject(l.key, {**l.value, "price": len(l.key)}),
                DataObject(r.key, {**r.value, "price": len(r.key) + 1}),
            )
            for l, r in pairs
        ]
        for matcher in (weighted_matcher(), weighted_matcher(0.8, 0.75)):
            assert_decides_exactly(matcher, priced)

    def test_thresholds_within_a_millionth_of_the_scores(self):
        """Pairs whose score sits on, just over and just under both
        thresholds: the bound may rule out none of those that match."""
        pairs = ingest_mixed_pairs(11, entities=48)
        reference = ingest_mixed_matcher()
        scored = sorted(
            {
                (reference_score(reference, l, r), l, r)
                for l, r in pairs
                if reference_score(reference, l, r) > 0.8
            },
            key=lambda item: (item[0], item[1].key, item[2].key),
        )
        assert len(scored) >= 20
        sample = scored[:: max(1, len(scored) // 40)]
        for score, left, right in sample:
            for threshold in near(score):
                for matcher in (
                    ingest_mixed_matcher(identity=1.0, matching=threshold),
                    ingest_mixed_matcher(identity=threshold, matching=threshold),
                    ingest_mixed_matcher(
                        identity=threshold, matching=min(threshold, 0.9)
                    ),
                ):
                    assert_decides_exactly(matcher, [(left, right)])
