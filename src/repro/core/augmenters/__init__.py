"""Augmenter execution strategies (Section IV of the paper).

Six strategies, one per subsection:

===============  ==========================================================
``sequential``   one direct-access query per planned object
``batch``        per-database key groups flushed at ``BATCH_SIZE`` (IV-A)
``inner``        parallel fetches *within* each result's augmentation (IV-B.a)
``outer``        one worker per result of the original answer (IV-B.b)
``outer_batch``  workers consume ``BATCH_SIZE`` key groups as the main
                 process keeps filling them (IV-B.c)
``outer_inner``  half the threads across results, half within (IV-B.d)
===============  ==========================================================

All strategies share the LRU cache (IV-C) and produce identical answers;
they differ only in how many native queries they issue and how those
queries overlap in time.
"""

from repro.core.augmenters.base import (
    BATCHING,
    POOLED,
    AugmentationOutcome,
    Augmenter,
    available_augmenters,
    make_augmenter,
)
from repro.core.augmenters.strategies import (
    BatchAugmenter,
    InnerAugmenter,
    OuterAugmenter,
    OuterBatchAugmenter,
    OuterInnerAugmenter,
    SequentialAugmenter,
)

__all__ = [
    "BATCHING",
    "POOLED",
    "AugmentationOutcome",
    "Augmenter",
    "BatchAugmenter",
    "InnerAugmenter",
    "OuterAugmenter",
    "OuterBatchAugmenter",
    "OuterInnerAugmenter",
    "SequentialAugmenter",
    "available_augmenters",
    "make_augmenter",
]
