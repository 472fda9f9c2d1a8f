"""Attribute comparators for pairwise matching (the Duke stand-ins).

Each comparator maps a pair of attribute values to a similarity in
[0, 1]. The string metrics (Levenshtein, Jaro, Jaro-Winkler, token
overlap) are implemented from scratch; a numeric comparator handles
quantities with relative tolerance.

Each also has a cheap upper bound on that similarity,
:meth:`Comparator.bound`, which the matcher consults before running the
exact kernel (see :meth:`repro.collector.matching.PairwiseMatcher.decide`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter
from functools import lru_cache
from itertools import repeat
from math import isfinite
from operator import ne
from typing import Any

#: Texts whose character counts a :class:`JaroWinklerComparator` keeps
#: (each about 1 KB). Blocking compares every object with each member of
#: its blocks, so one text is bounded against many others in a row.
CHAR_COUNT_MEMO = 2048


class Comparator(ABC):
    """Similarity of two attribute values, in [0, 1]."""

    name = "abstract"
    #: Whether :meth:`compare` is 0.0 whenever exactly one value is
    #: ``None``. The matcher then knows, from which fields two objects
    #: hold alone, that such a rule adds nothing to their score
    #: (:meth:`repro.collector.matching.PairwiseMatcher.reachable`); a
    #: comparator that does not declare it is taken to reach 1.0 there.
    absent_scores_zero = False

    @abstractmethod
    def compare(self, left: Any, right: Any) -> float:
        """Return the similarity of the two values."""

    def bound(self, left: Any, right: Any) -> float:
        """An upper bound on :meth:`compare` of the same values, cheaper
        to compute. ``1.0`` here, so a comparator without its own bound
        is always run exactly."""
        return 1.0

    @staticmethod
    def _text(value: Any) -> str:
        return str(value).strip().lower() if value is not None else ""


class ExactComparator(Comparator):
    """1.0 on equality (case-insensitive for strings), else 0.0."""

    name = "exact"
    absent_scores_zero = True

    def compare(self, left: Any, right: Any) -> float:
        if left is None or right is None:
            return 0.0
        if isinstance(left, str) or isinstance(right, str):
            return 1.0 if self._text(left) == self._text(right) else 0.0
        return 1.0 if left == right else 0.0


def levenshtein_distance(a: str, b: str) -> int:
    """Classic dynamic-programming edit distance (two-row variant)."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, start=1):
        current = [i]
        for j, char_b in enumerate(b, start=1):
            cost = 0 if char_a == char_b else 1
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
            )
        previous = current
    return previous[-1]


class LevenshteinComparator(Comparator):
    """1 - normalized edit distance."""

    name = "levenshtein"
    absent_scores_zero = True

    def compare(self, left: Any, right: Any) -> float:
        a, b = self._text(left), self._text(right)
        if not a and not b:
            return 0.0
        longest = max(len(a), len(b))
        return 1.0 - levenshtein_distance(a, b) / longest


def jaro_similarity(a: str, b: str) -> float:
    """Jaro similarity with the standard matching-window definition.

    The textbook greedy matcher — each character of ``a`` takes the
    first unmatched position of ``b`` inside its window that holds the
    same character — run on integers instead of position by position:
    bit ``j`` of ``positions[char]`` says ``b[j] == char`` and bit ``j``
    of ``free`` that ``b[j]`` is still unmatched, so "the first such
    position" is the lowest set bit of their intersection. Same matches
    in the same order, same transposition count, same three divisions:
    the same float, bit for bit, as the scan kept in
    ``tests/test_collector_kernel.py``.
    """
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    window = max(max(len(a), len(b)) // 2 - 1, 0)
    positions: dict[str, int] = {}
    bit = 1
    for char in b:
        positions[char] = positions.get(char, 0) | bit
        bit <<= 1
    every = free = bit - 1
    matched_a: list[str] = []
    for i, char in enumerate(a):
        held = positions.get(char)
        if held is None:
            continue
        candidates = held & free
        if i > window:
            # Clear the positions before the window's first, i - window.
            candidates = candidates >> (i - window) << (i - window)
        first = candidates & -candidates
        # No bit at or past len(b) is ever set, so only the window's own
        # last position, i + window, bounds the match from above.
        if first and not first >> (i + window + 1):
            free ^= first
            matched_a.append(char)
    matches = len(matched_a)
    if matches == 0:
        return 0.0
    # bin() lists bits high to low behind its "0b": reversed, flag j is b[j]'s.
    taken = bin(every ^ free)[:1:-1]
    matched_b = [char for char, flag in zip(b, taken) if flag == "1"]
    transpositions = sum(map(ne, matched_a, matched_b)) // 2
    return (
        matches / len(a) + matches / len(b) + (matches - transpositions) / matches
    ) / 3.0


class JaroWinklerComparator(Comparator):
    """Jaro with the Winkler common-prefix bonus (scaling 0.1, max 4).

    The bonus closes ``prefix * prefix_scale`` of the gap between Jaro
    and 1, so ``prefix_scale * max_prefix`` must not exceed 1: past it a
    score leaves [0, 1], and the score stops growing with Jaro, which
    :meth:`bound` relies on.
    """

    name = "jaro_winkler"
    absent_scores_zero = True

    def __init__(self, prefix_scale: float = 0.1, max_prefix: int = 4) -> None:
        if not prefix_scale >= 0:
            raise ValueError(f"prefix_scale must be >= 0, got {prefix_scale!r}")
        if max_prefix < 0:
            raise ValueError(f"max_prefix must be >= 0, got {max_prefix!r}")
        if prefix_scale * max_prefix > 1:
            raise ValueError(
                "prefix_scale * max_prefix must not exceed 1, got "
                f"{prefix_scale!r} * {max_prefix!r}"
            )
        self.prefix_scale = prefix_scale
        self.max_prefix = max_prefix
        self._char_counts = lru_cache(maxsize=CHAR_COUNT_MEMO)(Counter)

    def compare(self, left: Any, right: Any) -> float:
        a, b = self._text(left), self._text(right)
        if not a or not b:
            return 0.0
        return self._winkler(jaro_similarity(a, b), a, b)

    def bound(self, left: Any, right: Any) -> float:
        """Jaro-Winkler with Jaro replaced by its character-multiset bound.

        A Jaro match pairs equal characters, each used once, so the
        matches ``m`` are at most ``M``, the size of the two strings'
        multiset intersection, and Jaro is at most ``(M/|a| + M/|b| + 1)
        / 3`` (transpositions only lower the last term). Each step of
        that expression rounds the same way as the kernel's and takes a
        larger operand, so the float bound is not below the float Jaro;
        the Winkler step, which grows with Jaro, is then applied to it
        with the real prefix. That step is monotone in real arithmetic
        only: its rounding can leave the bound a few ulps under the
        score, which the matcher's ``BOUND_SLACK`` absorbs. With no
        common character there is neither a match nor a prefix: 0.
        """
        a, b = self._text(left), self._text(right)
        if not a or not b:
            return 0.0
        counts_a, counts_b = self._char_counts(a), self._char_counts(b)
        common = sum(
            map(min, counts_a.values(), map(counts_b.get, counts_a, repeat(0)))
        )
        if common == 0:
            return 0.0
        jaro = (common / len(a) + common / len(b) + 1.0) / 3.0
        return self._winkler(jaro, a, b)

    def _winkler(self, jaro: float, a: str, b: str) -> float:
        prefix = 0
        for char_a, char_b in zip(a, b):
            if char_a != char_b or prefix >= self.max_prefix:
                break
            prefix += 1
        return jaro + prefix * self.prefix_scale * (1.0 - jaro)


class TokenOverlapComparator(Comparator):
    """Jaccard overlap of whitespace tokens (good for titles)."""

    name = "token_overlap"
    absent_scores_zero = True

    def compare(self, left: Any, right: Any) -> float:
        tokens_a = set(self._text(left).split())
        tokens_b = set(self._text(right).split())
        if not tokens_a or not tokens_b:
            return 0.0
        return len(tokens_a & tokens_b) / len(tokens_a | tokens_b)


class NumericComparator(Comparator):
    """Similarity of two numbers under a relative tolerance.

    Equal values score 1.0; the score decays linearly to 0.0 as the
    relative difference reaches ``tolerance``. Values that are not
    numbers, or not finite (``nan``, an infinity against anything but
    itself), score 0.0.
    """

    name = "numeric"
    absent_scores_zero = True

    def __init__(self, tolerance: float = 0.5) -> None:
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        self.tolerance = tolerance

    def compare(self, left: Any, right: Any) -> float:
        try:
            a = float(left)
            b = float(right)
        except (TypeError, ValueError, OverflowError):
            return 0.0
        if a == b:
            return 1.0
        if not (isfinite(a) and isfinite(b)):
            return 0.0
        scale = max(abs(a), abs(b))
        if scale == 0:
            return 1.0
        relative = abs(a - b) / scale
        if relative >= self.tolerance:
            return 0.0
        return 1.0 - relative / self.tolerance
