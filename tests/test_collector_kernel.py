"""The matching kernel is the textbook Jaro algorithm, bit for bit.

``repro.collector.comparators.jaro_similarity`` runs the greedy matcher
on integer bitmasks. The position-by-position scan it replaced lives
here as the reference, and every comparison below is ``==`` on floats:
the two make the same matches in the same order, count the same
transpositions and do the same three divisions, so there is no
tolerance to grant.
"""

from __future__ import annotations

import random
import string

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.collector.comparators import JaroWinklerComparator, jaro_similarity


def reference_jaro(a: str, b: str) -> float:
    """Jaro similarity, scanning the window one position at a time."""
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    window = max(len(a), len(b)) // 2 - 1
    window = max(window, 0)
    a_matched = [False] * len(a)
    b_matched = [False] * len(b)
    matches = 0
    for i, char in enumerate(a):
        start = max(0, i - window)
        end = min(i + window + 1, len(b))
        for j in range(start, end):
            if not b_matched[j] and b[j] == char:
                a_matched[i] = True
                b_matched[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i, matched in enumerate(a_matched):
        if not matched:
            continue
        while not b_matched[j]:
            j += 1
        if a[i] != b[j]:
            transpositions += 1
        j += 1
    transpositions //= 2
    return (
        matches / len(a) + matches / len(b) + (matches - transpositions) / matches
    ) / 3.0


def winkler_bonus(jaro: float, a: str, b: str) -> float:
    """The comparator's prefix bonus (scale 0.1, at most 4 characters)."""
    prefix = 0
    for char_a, char_b in zip(a, b):
        if char_a != char_b or prefix >= 4:
            break
        prefix += 1
    return jaro + prefix * 0.1 * (1.0 - jaro)


def reference_jaro_winkler(a: str, b: str) -> float:
    a, b = a.strip().lower(), b.strip().lower()
    if not a or not b:
        return 0.0
    return winkler_bonus(reference_jaro(a, b), a, b)


def assert_same(a: str, b: str) -> None:
    assert jaro_similarity(a, b) == reference_jaro(a, b), (a, b)
    assert jaro_similarity(b, a) == reference_jaro(b, a), (b, a)
    assert JaroWinklerComparator().compare(a, b) == reference_jaro_winkler(a, b)


# Few letters make repeated characters and transpositions the common
# case — where a greedy matcher goes wrong — and lengths up to 70 carry
# the masks across CPython's 30-bit digit and the 64-bit word.
def texts(alphabet: str) -> st.SearchStrategy[str]:
    return st.text(alphabet=alphabet, min_size=0, max_size=70)


@st.composite
def mutated_pairs(draw, alphabet: str) -> tuple[str, str]:
    """A string and a copy with a few substitutions, deletions,
    insertions and swaps — the shape of a near-duplicate title."""
    original = draw(st.text(alphabet=alphabet, min_size=1, max_size=70))
    chars = list(original)
    for __ in range(draw(st.integers(0, 4))):
        if not chars:
            break
        at = draw(st.integers(0, len(chars) - 1))
        edit = draw(st.integers(0, 3))
        if edit == 0:
            chars[at] = draw(st.sampled_from(alphabet))
        elif edit == 1:
            del chars[at]
        elif edit == 2:
            chars.insert(at, draw(st.sampled_from(alphabet)))
        else:
            other = draw(st.integers(0, len(chars) - 1))
            chars[at], chars[other] = chars[other], chars[at]
    return original, "".join(chars)


class TestKernelEqualsReference:
    @settings(max_examples=400, deadline=None)
    @given(texts("ab"), texts("ab"))
    @example("ab" * 35, "ba" * 35)
    @example("a" * 70, "a" * 69)
    @example("a" * 31 + "b", "b" + "a" * 31)
    def test_two_letters(self, a, b):
        assert_same(a, b)

    @settings(max_examples=400, deadline=None)
    @given(texts("abc"), texts("abc"))
    def test_three_letters(self, a, b):
        assert_same(a, b)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(mutated_pairs("ab"), mutated_pairs("abc"),
                     mutated_pairs(string.ascii_lowercase + " ")))
    def test_one_side_is_a_mutated_copy(self, pair):
        assert_same(*pair)

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=70), st.text(max_size=70))
    @example("Ærøskøbing", "ærøsköbing")
    @example("İstanbul", "istanbul")  # lower() changes the length
    @example("naïve café", "naive cafe")
    def test_any_unicode(self, a, b):
        assert_same(a, b)

    def test_seeded_sweep_of_title_shaped_pairs(self):
        """100 000 pairs shaped like the ingest corpus' titles: four
        vocabulary words and a hex suffix, against a copy with another
        suffix, an edited copy, or another title sharing a word."""
        rng = random.Random(20261002)
        vocabulary = [
            "".join(rng.choice(string.ascii_lowercase) for __ in range(7))
            for __ in range(128)
        ]

        def title() -> str:
            words = " ".join(rng.choice(vocabulary) for __ in range(4))
            return f"{words} x{rng.randrange(1 << 20):05x}"

        jaro_winkler = JaroWinklerComparator()
        differing = 0
        for __ in range(100_000):
            a = title()
            roll = rng.random()
            if roll < 0.3:
                b = f"{a[:-5]}{rng.randrange(1 << 20):05x}"
            elif roll < 0.5:
                chars = list(a)
                for __ in range(rng.randrange(1, 4)):
                    at = rng.randrange(len(chars))
                    other = rng.randrange(len(chars))
                    chars[at], chars[other] = chars[other], chars[at]
                b = "".join(chars).strip()
            else:
                words = a.split()
                words[rng.randrange(4)] = rng.choice(vocabulary)
                rng.shuffle(words)
                b = " ".join(words)
            # Titles are lower-case and stripped already, so the
            # comparator's normalisation leaves them as they are.
            want = reference_jaro(a, b)
            if jaro_similarity(a, b) != want:
                differing += 1
            if jaro_winkler.compare(a, b) != winkler_bonus(want, a, b):
                differing += 1
        assert differing == 0
