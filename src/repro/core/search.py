"""Augmented search (Definition 3) and its answer representation.

An augmented search runs a native query on one database, then expands
the result with the augmentation of level ``n``, ordered by probability.
The answer keeps the original results first (they are certain, p = 1.0)
followed by the augmented objects ranked by probability — the paper's
colors/rankings presentation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter, is_
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from repro.model.objects import AugmentedObject, DataObject, GlobalKey

if TYPE_CHECKING:
    from repro.core.augmentation import PlannedFetch
    from repro.core.augmenters.base import AugmentationOutcome


@dataclass
class AugmentedAnswer:
    """The result of one augmented search.

    ``originals`` is the local answer ``Q(D)``; ``augmented`` the
    deduplicated, probability-ranked expansion. ``stats`` carries the
    execution measurements used by the run log and the experiments.
    """

    originals: list[DataObject] = field(default_factory=list)
    augmented: list[AugmentedObject] = field(default_factory=list)
    stats: "SearchStats" = field(default_factory=lambda: SearchStats())

    def __iter__(self) -> Iterator[DataObject]:
        """Iterate all objects, originals first then ranked augmentation."""
        yield from self.originals
        for entry in self.augmented:
            yield entry.object

    def __len__(self) -> int:
        return len(self.originals) + len(self.augmented)

    def augmented_keys(self) -> list[GlobalKey]:
        return [entry.key for entry in self.augmented]

    def top(self, count: int) -> list[AugmentedObject]:
        """The ``count`` most probable augmented objects."""
        return self.augmented[:count]

    def by_database(self) -> dict[str, list[AugmentedObject]]:
        """Augmented objects grouped by their home database."""
        grouped: dict[str, list[AugmentedObject]] = {}
        for entry in self.augmented:
            grouped.setdefault(entry.key.database, []).append(entry)
        return grouped


@dataclass
class SearchStats:
    """Measurements of one augmented run (feeds the optimizer log)."""

    database: str = ""
    level: int = 0
    original_count: int = 0
    augmented_count: int = 0
    planned_fetches: int = 0
    queries_issued: int = 0
    cache_hits: int = 0
    missing_objects: int = 0
    elapsed: float = 0.0
    augmenter: str = ""
    batch_size: int = 0
    threads_size: int = 0
    cache_size: int = 0
    rewritten: bool = False
    #: Databases skipped under graceful degradation (skip_unavailable).
    unavailable_databases: tuple[str, ...] = ()
    #: True iff faults cost this answer planned objects (see
    #: :class:`~repro.core.augmenters.base.AugmentationOutcome`).
    degraded: bool = False
    #: Database -> reason for every store that misbehaved during the run.
    errors: dict[str, str] = field(default_factory=dict)
    #: True iff this answer was served from the materialized
    #: augmentation tier (:mod:`repro.cdc.materialize`) instead of
    #: being planned and traversed for this request.
    materialized: bool = False


#: Where a row came from: a planned fetch names its ``seed``, a built
#: entry its ``source``.
_SEED, _SOURCE = attrgetter("seed"), attrgetter("source")


def _augmented(obj: DataObject, fetch: "PlannedFetch") -> AugmentedObject:
    """The answer entry of one materialized fetch: the stored object,
    uncopied, and the probability of the path that reached it."""
    return AugmentedObject(obj, fetch.seed, fetch.path, fetch.probability)


def _rank(rows: Sequence, seed_of: Callable) -> list[int]:
    """Indexes of ``rows`` in answer order: per key its most probable
    row, the first one on a tie, unless ``seed_of(row)`` is the key
    itself; by probability descending, key text as tiebreak."""
    # key -> index of its best row so far. Row indexes, not (probability,
    # index) pairs: a tuple per row is a GC-tracked allocation, and over
    # thousands of rows the collections those trigger cost more than
    # reading the best row's probability back through its index.
    best: dict[GlobalKey, int] = {}
    for index, row in enumerate(rows):
        key = row.key
        current = best.get(key)
        if (
            current is None or row.probability > rows[current].probability
        ) and seed_of(row) != key:
            best[key] = index
    # Decorate-sort-undecorate: one row per key, so the (probability,
    # key-text) prefix is unique and row indexes never decide.
    decorated = [
        (-rows[index].probability, str(key), index)
        for key, index in best.items()
    ]
    decorated.sort()
    return [index for __, __, index in decorated]


def assemble_answer(
    originals: list[DataObject],
    raw_augmented: "AugmentationOutcome | list[AugmentedObject]",
    stats: SearchStats,
) -> AugmentedAnswer:
    """Deduplicate and rank the raw augmentation output (:func:`_rank`).

    ``raw_augmented`` is what the augmentation produced, in execution
    order: an outcome's parallel ``values`` / ``fetches`` columns, or
    entries the caller has already built. Objects of the original answer
    are not repeated in the augmented section when reached from
    themselves, but are kept when reached from *another* seed (Example 4
    of the paper).

    Dedup and rank read only (key, probability, seed), so an outcome's
    rows stay columns until here and an :class:`AugmentedObject` is
    built for the winners alone. Rows that are their plan's fetch list
    itself (an all-hit run, say) take the plan's memoised rank.
    """
    fetches = getattr(raw_augmented, "fetches", None)
    if fetches is None:
        order = _rank(raw_augmented, _SOURCE)
        ranked = [raw_augmented[index] for index in order]
    else:
        plan = raw_augmented.plan
        planned = plan.all_fetches() if plan is not None else ()
        if planned and len(planned) == len(fetches) and all(
            map(is_, planned, fetches)
        ):
            order = plan.rank()
        else:
            order = _rank(fetches, _SEED)
        values = raw_augmented.values
        ranked = [_augmented(values[index], fetches[index]) for index in order]
    stats.augmented_count = len(ranked)
    stats.original_count = len(originals)
    return AugmentedAnswer(list(originals), ranked, stats)


def format_answer(answer: AugmentedAnswer, limit: int = 10) -> str:
    """Human-readable rendering of an augmented answer.

    Mirrors the paper's introduction example: each original object is
    printed with the augmented objects it links to, annotated with their
    probabilities.
    """
    lines: list[str] = []
    by_source: dict[GlobalKey, list[AugmentedObject]] = {}
    for entry in answer.augmented:
        if entry.source is not None:
            by_source.setdefault(entry.source, []).append(entry)
    for original in answer.originals[:limit]:
        lines.append(f"{original.key}  {_short(original.value)}")
        for entry in by_source.get(original.key, [])[:limit]:
            lines.append(
                f"  => {entry.key} (p={entry.probability:.2f}) "
                f"{_short(entry.object.value)}"
            )
    remaining = len(answer.originals) - limit
    if remaining > 0:
        lines.append(f"... and {remaining} more results")
    return "\n".join(lines)


def _short(value: Any, width: int = 60) -> str:
    text = repr(value)
    return text if len(text) <= width else text[: width - 3] + "..."


def result_seeds(originals: list[DataObject]) -> list[GlobalKey]:
    """Augmentation seeds: every original that is a stored object
    (computed ``_result`` rows have no A' index entry)."""
    return [
        obj.key for obj in originals if obj.key.collection != "_result"
    ]
