"""Property-based tests (hypothesis) on core invariants."""

from __future__ import annotations

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collector.comparators import (
    JaroWinklerComparator,
    LevenshteinComparator,
    NumericComparator,
    jaro_similarity,
    levenshtein_distance,
)
from repro.core.aindex import AIndex
from repro.core.augmentation import Augmentation
from repro.core.cache import LruCache
from repro.core.search import SearchStats, assemble_answer
from repro.model.objects import AugmentedObject, DataObject, GlobalKey
from repro.model.prelations import PRelation, RelationType
from repro.stores.document.query import matches_filter
from repro.stores.relational.ast import sql_to_string
from repro.stores.relational.parser import parse_sql

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)
words = st.text(alphabet=string.ascii_letters + " '", min_size=0, max_size=20)


@st.composite
def global_keys(draw, pool: int = 12) -> GlobalKey:
    index = draw(st.integers(min_value=0, max_value=pool - 1))
    return GlobalKey(f"db{index % 4}", "c", f"k{index}")


@st.composite
def prelations(draw) -> PRelation:
    left = draw(global_keys())
    right = draw(global_keys().filter(lambda k: True))
    if left == right:
        right = GlobalKey(left.database, left.collection, left.key + "x")
    rel_type = draw(st.sampled_from(list(RelationType)))
    probability = draw(
        st.floats(min_value=0.01, max_value=1.0, allow_nan=False)
    )
    return PRelation(left, right, rel_type, probability)


# ---------------------------------------------------------------------------
# String metrics
# ---------------------------------------------------------------------------


class TestStringMetricProperties:
    @given(words, words)
    def test_levenshtein_symmetry(self, a, b):
        assert levenshtein_distance(a, b) == levenshtein_distance(b, a)

    @given(words)
    def test_levenshtein_identity(self, a):
        assert levenshtein_distance(a, a) == 0

    @given(words, words, words)
    @settings(max_examples=50)
    def test_levenshtein_triangle_inequality(self, a, b, c):
        assert levenshtein_distance(a, c) <= (
            levenshtein_distance(a, b) + levenshtein_distance(b, c)
        )

    @given(words, words)
    def test_levenshtein_bounded_by_longer_string(self, a, b):
        assert levenshtein_distance(a, b) <= max(len(a), len(b))

    @given(words, words)
    def test_jaro_range_and_symmetry(self, a, b):
        similarity = jaro_similarity(a, b)
        assert 0.0 <= similarity <= 1.0
        assert similarity == jaro_similarity(b, a)

    @given(words, words)
    def test_jaro_winkler_at_least_jaro(self, a, b):
        a, b = a.lower(), b.lower()
        assert JaroWinklerComparator().compare(a, b) >= jaro_similarity(
            a.strip(), b.strip()
        ) - 1e-9 if a.strip() and b.strip() else True

    @given(words, words)
    def test_comparator_outputs_are_probabilities(self, a, b):
        for comparator in (
            LevenshteinComparator(),
            JaroWinklerComparator(),
        ):
            assert 0.0 <= comparator.compare(a, b) <= 1.0 + 1e-9

    @given(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
    def test_numeric_comparator_range_and_symmetry(self, a, b):
        comparator = NumericComparator(0.5)
        score = comparator.compare(a, b)
        assert 0.0 <= score <= 1.0
        assert score == comparator.compare(b, a)


# ---------------------------------------------------------------------------
# LRU cache model check
# ---------------------------------------------------------------------------


class TestCacheProperties:
    @given(
        st.lists(
            st.tuples(st.sampled_from("gp"), st.integers(0, 20)),
            max_size=200,
        ),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60)
    def test_against_reference_model(self, operations, capacity):
        """The cache behaves exactly like a dict-based LRU model."""
        cache = LruCache(capacity)
        model: dict[str, int] = {}
        for op, index in operations:
            key = GlobalKey("db", "c", f"k{index}")
            if op == "p":
                model.pop(str(key), None)
                model[str(key)] = index
                while len(model) > capacity:
                    model.pop(next(iter(model)))
                cache.put(DataObject(key, index))
            else:
                expected = str(key) in model
                if expected:
                    value = model.pop(str(key))
                    model[str(key)] = value
                got = cache.get(key)
                assert (got is not None) == expected
        assert len(cache) == len(model)

    @given(st.lists(st.integers(0, 50), max_size=100),
           st.integers(min_value=0, max_value=10))
    def test_never_exceeds_capacity(self, inserts, capacity):
        cache = LruCache(capacity)
        for index in inserts:
            cache.put(DataObject(GlobalKey("db", "c", f"k{index}"), index))
            assert len(cache) <= capacity


# ---------------------------------------------------------------------------
# A' index invariants
# ---------------------------------------------------------------------------


class TestAIndexProperties:
    @given(st.lists(prelations(), max_size=25))
    @settings(max_examples=60)
    def test_adjacency_is_symmetric(self, relations):
        index = AIndex()
        index.add_all(relations)
        for node in list(index.nodes()):
            for neighbor in index.neighbors(node):
                back = index.relation(neighbor.key, node)
                assert back is not None
                assert back.probability == neighbor.probability
                assert back.type is neighbor.type

    @given(st.lists(prelations(), max_size=25))
    @settings(max_examples=60)
    def test_consistency_condition_holds(self, relations):
        """After arbitrary inserts: x = b and b ~ a implies x = a."""
        index = AIndex()
        index.add_all(relations)
        for node in list(index.nodes()):
            identities = [
                n for n in index.neighbors(node, RelationType.IDENTITY)
            ]
            matchings = [
                n for n in index.neighbors(node, RelationType.MATCHING)
            ]
            for identity in identities:
                for matching in matchings:
                    if identity.key == matching.key:
                        continue
                    assert index.relation(identity.key, matching.key) is not None

    @given(st.lists(prelations(), max_size=25))
    @settings(max_examples=60)
    def test_probabilities_stay_valid(self, relations):
        index = AIndex()
        index.add_all(relations)
        for node in list(index.nodes()):
            for neighbor in index.neighbors(node):
                assert 0.0 < neighbor.probability <= 1.0

    @given(st.lists(prelations(), max_size=20), global_keys())
    @settings(max_examples=60)
    def test_remove_object_removes_all_traces(self, relations, victim):
        index = AIndex()
        index.add_all(relations)
        index.remove_object(victim)
        assert victim not in index
        for node in list(index.nodes()):
            assert all(n.key != victim for n in index.neighbors(node))


# ---------------------------------------------------------------------------
# Augmentation planning invariants
# ---------------------------------------------------------------------------


class TestAugmentationProperties:
    @given(st.lists(prelations(), min_size=1, max_size=25),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=60)
    def test_plan_probabilities_monotone_with_level(self, relations, level):
        index = AIndex()
        index.add_all(relations)
        seed = relations[0].left
        plan = Augmentation(index).plan([seed], level)
        # Ordered by decreasing probability, no seed, no duplicates.
        probabilities = plan.probabilities
        assert probabilities == sorted(probabilities, reverse=True)
        keys = plan.keys
        assert len(keys) == len(set(keys))
        assert seed not in keys

    @given(st.lists(prelations(), min_size=1, max_size=25))
    @settings(max_examples=60)
    def test_higher_level_reaches_superset(self, relations):
        index = AIndex()
        index.add_all(relations)
        seed = relations[0].left
        augmentation = Augmentation(index)
        level0 = set(augmentation.plan([seed], 0).keys)
        level2 = set(augmentation.plan([seed], 2).keys)
        assert level0 <= level2

    @given(st.lists(prelations(), min_size=1, max_size=25))
    @settings(max_examples=60)
    def test_path_products_match_probability(self, relations):
        index = AIndex()
        index.add_all(relations)
        seed = relations[0].left
        plan = Augmentation(index).plan([seed], 2)
        for row, probability in enumerate(plan.probabilities):
            product = 1.0
            previous = seed
            for hop in plan.path(row):
                relation = index.relation(previous, hop)
                assert relation is not None
                product *= relation.probability
                previous = hop
            assert abs(product - probability) < 1e-9


# ---------------------------------------------------------------------------
# Answer assembly invariants
# ---------------------------------------------------------------------------


class TestAnswerProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 8),   # target key index
                st.integers(0, 3),   # source key index
                st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=80)
    def test_dedup_keeps_global_maximum(self, entries):
        originals = [DataObject(GlobalKey("db", "s", f"s{i}")) for i in range(4)]
        raw = [
            AugmentedObject(
                DataObject(
                    GlobalKey("other", "c", f"t{target}"), None, probability=p
                ),
                source=GlobalKey("db", "s", f"s{source}"),
                probability=p,
            )
            for target, source, p in entries
        ]
        answer = assemble_answer(originals, raw, SearchStats())
        best: dict[str, float] = {}
        for target, __, p in entries:
            key = f"other.c.t{target}"
            best[key] = max(best.get(key, 0.0), p)
        assert {str(e.key): e.probability for e in answer.augmented} == best


# ---------------------------------------------------------------------------
# SQL printer fixpoint
# ---------------------------------------------------------------------------


class TestSqlPrinterProperties:
    @given(
        st.integers(0, 3),
        st.sampled_from(["=", "!=", "<", ">", "<=", ">="]),
        st.integers(-100, 100),
        st.booleans(),
    )
    def test_print_parse_fixpoint(self, column, op, literal, order):
        sql = (
            f"SELECT c{column}, c9 FROM t WHERE c{column} {op} {literal}"
            + (" ORDER BY c9 DESC" if order else "")
        )
        printed = sql_to_string(parse_sql(sql))
        assert sql_to_string(parse_sql(printed)) == printed


# ---------------------------------------------------------------------------
# Document filters
# ---------------------------------------------------------------------------


class TestFilterProperties:
    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
    def test_range_filter_equals_python_semantics(self, value, low, high):
        document = {"_id": "x", "v": value}
        query = {"v": {"$gte": low, "$lt": high}}
        assert matches_filter(document, query) == (low <= value < high)

    @given(st.lists(st.integers(0, 9), max_size=6), st.integers(0, 9))
    def test_membership_filter(self, members, candidate):
        document = {"_id": "x", "tags": members}
        assert matches_filter(document, {"tags": candidate}) == (
            candidate in members
        )
