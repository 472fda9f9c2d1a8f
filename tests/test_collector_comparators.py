"""Tests for the string/numeric comparators."""

import pytest

from repro.collector.comparators import (
    ExactComparator,
    JaroWinklerComparator,
    LevenshteinComparator,
    NumericComparator,
    TokenOverlapComparator,
    jaro_similarity,
    levenshtein_distance,
)


class TestLevenshtein:
    @pytest.mark.parametrize(
        "a, b, distance",
        [
            ("", "", 0),
            ("abc", "abc", 0),
            ("abc", "", 3),
            ("", "xyz", 3),
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
            ("cure", "curse", 1),
        ],
    )
    def test_known_distances(self, a, b, distance):
        assert levenshtein_distance(a, b) == distance

    def test_symmetry(self):
        assert levenshtein_distance("wish", "fish") == levenshtein_distance(
            "fish", "wish"
        )

    def test_comparator_normalizes(self):
        comparator = LevenshteinComparator()
        assert comparator.compare("wish", "wish") == 1.0
        assert comparator.compare("wish", "fish") == pytest.approx(0.75)
        assert comparator.compare(None, "x") == 0.0
        assert comparator.compare(None, None) == 0.0

    def test_comparator_is_case_insensitive(self):
        assert LevenshteinComparator().compare("WISH", "wish") == 1.0


class TestJaro:
    def test_identical(self):
        assert jaro_similarity("martha", "martha") == 1.0

    def test_classic_example(self):
        assert jaro_similarity("martha", "marhta") == pytest.approx(0.9444, abs=1e-3)

    def test_no_overlap(self):
        assert jaro_similarity("abc", "xyz") == 0.0

    def test_empty(self):
        assert jaro_similarity("", "x") == 0.0

    def test_winkler_prefix_bonus(self):
        jw = JaroWinklerComparator()
        plain = jaro_similarity("dixon", "dicksonx")
        boosted = jw.compare("dixon", "dicksonx")
        assert boosted > plain
        assert boosted == pytest.approx(0.8133, abs=1e-3)

    def test_winkler_caps_prefix(self):
        jw = JaroWinklerComparator(max_prefix=4)
        assert jw.compare("abcdefgh", "abcdefgh") == 1.0

    def test_negative_prefix_scale_refused(self):
        # It would score a shared prefix below plain Jaro.
        with pytest.raises(ValueError, match="prefix_scale"):
            JaroWinklerComparator(prefix_scale=-0.1)

    def test_negative_max_prefix_refused(self):
        with pytest.raises(ValueError, match="max_prefix"):
            JaroWinklerComparator(max_prefix=-1)

    def test_prefix_bonus_past_the_gap_refused(self):
        # (0.5, 4) scored ("abcdxyz", "abcdpqr") 1.2857, outside [0, 1].
        with pytest.raises(ValueError, match="must not exceed 1"):
            JaroWinklerComparator(prefix_scale=0.5, max_prefix=4)

    def test_the_largest_bonus_allowed_stays_in_the_unit_interval(self):
        jw = JaroWinklerComparator(prefix_scale=0.25, max_prefix=4)
        assert 0.0 <= jw.compare("abcdxyz", "abcdpqr") <= 1.0


class TestExactAndTokens:
    def test_exact_strings_case_insensitive(self):
        assert ExactComparator().compare("Wish", "wish") == 1.0
        assert ExactComparator().compare("Wish", "Wash") == 0.0

    def test_exact_numbers(self):
        assert ExactComparator().compare(3, 3.0) == 1.0
        assert ExactComparator().compare(3, 4) == 0.0

    def test_exact_none(self):
        assert ExactComparator().compare(None, None) == 0.0

    def test_token_overlap_jaccard(self):
        comparator = TokenOverlapComparator()
        assert comparator.compare("the queen is dead", "the queen") == 0.5
        assert comparator.compare("a b", "a b") == 1.0
        assert comparator.compare("a", "") == 0.0


class TestNumeric:
    def test_equal_values(self):
        assert NumericComparator().compare(10, 10) == 1.0
        assert NumericComparator().compare(0, 0) == 1.0

    def test_linear_decay(self):
        comparator = NumericComparator(tolerance=0.5)
        assert comparator.compare(100, 75) == pytest.approx(0.5)
        assert comparator.compare(100, 50) == 0.0
        assert comparator.compare(100, 40) == 0.0

    def test_symmetry(self):
        comparator = NumericComparator(0.4)
        assert comparator.compare(8, 10) == comparator.compare(10, 8)

    def test_non_numeric_is_zero(self):
        assert NumericComparator().compare("x", 1) == 0.0

    def test_numeric_strings_coerced(self):
        assert NumericComparator().compare("10", 10) == 1.0

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            NumericComparator(0)

    def test_non_finite_is_zero_unless_equal(self):
        comparator = NumericComparator()
        assert comparator.compare(float("nan"), 1.0) == 0.0
        assert comparator.compare(float("inf"), 1.0) == 0.0
        assert comparator.compare("nan", "nan") == 0.0
        assert comparator.compare(float("inf"), float("-inf")) == 0.0
        assert comparator.compare(float("inf"), float("inf")) == 1.0
        assert comparator.compare(10 ** 400, 1) == 0.0  # float() overflows


#: Values outside every comparator's comfort zone, alone and mixed.
AWKWARD = (
    None, "", " ", "nan", "inf", "Wish", 0, 1, -1, 10 ** 400, True, False,
    float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 5e-324,
    b"", b"12", bytearray(b"wish"), memoryview(b"7"), (), [1], {"a": 1},
)


class TestContract:
    """The module's promise: a similarity in [0, 1], whatever comes in
    (a ``nan`` here poisons the matcher's weighted mean)."""

    @pytest.mark.parametrize(
        "comparator",
        [
            ExactComparator(),
            LevenshteinComparator(),
            JaroWinklerComparator(),
            TokenOverlapComparator(),
            NumericComparator(),
        ],
        ids=lambda comparator: comparator.name,
    )
    def test_every_result_is_a_finite_float_in_the_unit_interval(
        self, comparator
    ):
        for left in AWKWARD:
            for right in AWKWARD:
                score = comparator.compare(left, right)
                assert type(score) is float, (left, right, score)
                assert 0.0 <= score <= 1.0, (left, right, score)
