"""The run-log repository: Phase 1 of the adaptive optimizer.

Collects :class:`~repro.core.runlog.RunRecord` entries (it can be
attached directly to ``Quepa.run_listeners``) and derives the training
sets of Phase 2: for each distinct query signature, the run with the
minimum execution time defines the *best* augmenter and parameters for
that query's feature vector.
"""

from __future__ import annotations

from collections import defaultdict

from repro.core.augmenters import BATCHING, POOLED
from repro.core.runlog import RunRecord
from repro.ml.dataset import Example


class RunLogRepository:
    """Accumulates run records and derives labelled training examples."""

    def __init__(self) -> None:
        self.records: list[RunRecord] = []

    def __call__(self, record: RunRecord) -> None:
        """Listener form, for ``quepa.run_listeners.append(repo)``."""
        self.add(record)

    def add(self, record: RunRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def clear(self) -> None:
        self.records.clear()

    # -- training-set derivation --------------------------------------------

    def best_runs(self) -> list[RunRecord]:
        """The fastest run of each distinct query signature."""
        groups: dict[tuple, RunRecord] = {}
        for record in self.records:
            signature = record.query_signature()
            current = groups.get(signature)
            if current is None or record.elapsed < current.elapsed:
                groups[signature] = record
        return list(groups.values())

    def augmenter_examples(self) -> list[Example]:
        """T1 training set: features -> best augmenter name."""
        return [
            Example(best.features.as_dict(), best.augmenter)
            for best in self.best_runs()
        ]

    def batch_size_examples(self) -> list[Example]:
        """T2 training set: features -> best BATCH_SIZE (batching runs)."""
        return [
            Example(best.features.as_dict(), best.batch_size)
            for best in self.best_runs()
            if best.augmenter in BATCHING
        ]

    def threads_size_examples(self) -> list[Example]:
        """T3 training set: features -> best THREADS_SIZE (concurrent runs)."""
        return [
            Example(best.features.as_dict(), best.threads_size)
            for best in self.best_runs()
            if best.augmenter in POOLED
        ]

    def cache_size_examples(self) -> list[Example]:
        """T4 training set: features -> CACHE_SIZE of the best run."""
        return [
            Example(best.features.as_dict(), best.cache_size)
            for best in self.best_runs()
        ]

    # -- diagnostics -------------------------------------------------------------

    def runs_per_signature(self) -> dict[tuple, int]:
        counts: dict[tuple, int] = defaultdict(int)
        for record in self.records:
            counts[record.query_signature()] += 1
        return dict(counts)
