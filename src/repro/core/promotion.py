"""Promotion of p-relations from exploration behaviour (Section III-D.a).

QUEPA tracks, in a repository called D_P, the *full paths* users walk
through the A' index during augmented exploration: sequences
``v0, v1, ..., vk`` (k > 1) from the first object of a session to the
last. When a path has been traversed ``tau`` times, a matching
p-relation between its endpoints is added to the A' index as a
shortcut, with probability equal to the average of the probabilities
along the path. The threshold decreases with path length — long paths
are rarer, so fewer visits are needed to call them interesting.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

from repro.core.aindex import AIndex
from repro.model.objects import GlobalKey
from repro.model.prelations import PRelation


@dataclass(frozen=True)
class PromotionPolicy:
    """Threshold schedule:
    tau(length) = max(min_visits, ceil(base / (2 * (length - 1)))).

    ``length`` is the number of edges in the path (>= 2 by definition of
    full path). With the defaults, a 2-edge path needs 12 visits, a
    3-edge path 6, a 4-edge path 4, and no path ever needs fewer than
    ``min_visits``.
    """

    base: int = 24
    min_visits: int = 2

    def threshold(self, length: int) -> int:
        if length < 2:
            raise ValueError("full paths have at least two edges")
        return max(self.min_visits, math.ceil(self.base / (length - 1) / 2))


class PathRepository:
    """D_P: visit counts of full exploration paths, plus promotion."""

    def __init__(
        self, aindex: AIndex, policy: PromotionPolicy | None = None
    ) -> None:
        self.aindex = aindex
        self.policy = policy or PromotionPolicy()
        self._visits: dict[tuple[GlobalKey, ...], int] = {}
        self.promoted: list[PRelation] = []
        #: Sessions close on HTTP handler threads: one count at a time.
        self._lock = threading.Lock()

    def record_path(self, path: tuple[GlobalKey, ...]) -> PRelation | None:
        """Record one traversal of ``path``; returns the promoted
        p-relation if this visit crossed the threshold.

        Paths with fewer than two edges (three nodes) are not full paths
        and are ignored, matching the paper's ``k > 1`` condition.
        """
        if len(path) < 3:
            return None
        with self._lock:
            visits = self._visits[path] = self._visits.get(path, 0) + 1
        # The count this call wrote: exactly one call sees the threshold.
        if visits != self.policy.threshold(len(path) - 1):
            return None
        return self._promote(path)

    def visits(self, path: tuple[GlobalKey, ...]) -> int:
        return self._visits.get(path, 0)

    def _promote(self, path: tuple[GlobalKey, ...]) -> PRelation | None:
        start, end = path[0], path[-1]
        if start == end:
            return None
        if self.aindex.relation(start, end) is not None:
            return None  # "if not yet present"
        probabilities = []
        for a, b in zip(path, path[1:]):
            relation = self.aindex.relation(a, b)
            if relation is None:
                # The path is stale (an edge was deleted); do not promote.
                return None
            probabilities.append(relation.probability)
        average = sum(probabilities) / len(probabilities)
        promoted = PRelation.matching(start, end, average)
        self.aindex.add(promoted)
        self.promoted.append(promoted)
        return promoted
