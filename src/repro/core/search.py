"""Augmented search (Definition 3) and its answer representation.

An augmented search runs a native query on one database, then expands
the result with the augmentation of level ``n``, ordered by probability.
The answer keeps the original results first (they are certain, p = 1.0)
followed by the augmented objects ranked by probability — the paper's
colors/rankings presentation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

from repro.model.objects import AugmentedObject, DataObject, GlobalKey

if TYPE_CHECKING:
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


def _rank(
    nodes: Sequence, probabilities: Sequence[float], keys: Sequence[GlobalKey],
    rows: Iterable[int],
) -> list[int]:
    """``rows`` in answer order: per node its most probable row, the
    first one on a tie; by probability descending, key (its text) as
    tiebreak.

    Rows are indexes into the three columns, and a node is one handle
    per key (a snapshot's node id), so the dedup hashes ints.
    """
    best: dict = {}
    best_get = best.get
    for row in rows:
        node = nodes[row]
        current = best_get(node)
        if current is None or probabilities[row] > probabilities[current]:
            best[node] = row
    # One row per node, so the keys are unique: two stable sorts give
    # (probability descending, key) and rows never decide.
    order = sorted(best.values(), key=keys.__getitem__)
    order.sort(key=probabilities.__getitem__, reverse=True)
    return order


def assemble_answer(
    originals: list[DataObject],
    raw_augmented: "AugmentationOutcome | list[AugmentedObject]",
    stats: SearchStats,
) -> AugmentedAnswer:
    """Deduplicate and rank the raw augmentation output (:func:`_rank`).

    ``raw_augmented`` is what the augmentation produced, in execution
    order: an outcome's parallel ``values`` / ``rows`` columns (rows of
    its plan), or entries the caller has already built. Objects of the
    original answer are not repeated in the augmented section when
    reached from themselves, but are kept when reached from *another*
    seed (Example 4 of the paper); a plan has no row of that kind.

    Dedup and rank read only plan columns, so an
    :class:`AugmentedObject` is built for the winners alone. An outcome
    whose rows are its plan's rows in plan order (an all-hit run, say)
    takes the plan's memoised rank and winners' paths.
    """
    rows = getattr(raw_augmented, "rows", None)
    if rows is None:
        entries = raw_augmented
        keys = [entry.key for entry in entries]
        order = _rank(
            keys,
            [entry.probability for entry in entries],
            keys,
            [
                index for index, entry in enumerate(entries)
                if entry.source != entry.key
            ],
        )
        ranked = [entries[index] for index in order]
    else:
        plan = raw_augmented.plan
        values = raw_augmented.values
        if raw_augmented.in_plan_order and len(rows) == len(plan.keys):
            # ``rows`` is every plan row in order: row == position.
            order, paths = plan.rank()
        else:
            order = _rank(plan.nodes, plan.probabilities, plan.keys, rows)
            paths = map(plan.path, order)
            values = dict(zip(rows, values))
        sources, probabilities = plan.sources, plan.probabilities
        ranked = [
            AugmentedObject(
                values[row], sources[row], path, probabilities[row]
            )
            for row, path in zip(order, paths)
        ]
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
