"""Unsupervised blocking (the BLAST stand-in).

Blocking partitions the data objects of the polystore into candidate
blocks so that pairwise matching only compares objects within a block.
Like BLAST, it needs no prior knowledge of the sources: every object is
keyed by the normalized tokens of its textual attribute values, and
objects sharing a token land in the same block. Oversized blocks (stop
words, common tokens) are dropped, which is the standard meta-blocking
cleanup step.
"""

from __future__ import annotations

import re
from collections import defaultdict
from typing import Iterable, Iterator

from repro.model.objects import DataObject

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def _oriented(
    left: DataObject, right: DataObject
) -> tuple[DataObject, DataObject]:
    """Canonical pair orientation (by key text).

    Blockers emit every pair in this orientation so matching scores are
    independent of scan order — incremental maintenance (:mod:`repro.cdc`)
    re-scores pairs out of scan context and must land on the same score
    a full batch run computes.
    """
    return (left, right) if left.key <= right.key else (right, left)


def tokenize_value(value: object) -> set[str]:
    """Normalized alphanumeric tokens of one attribute value."""
    if value is None:
        return set()
    return set(_TOKEN_RE.findall(str(value).lower()))


class TokenBlocker:
    """Token blocking with oversized-block pruning.

    ``max_block_size`` drops blocks keyed by uninformative tokens;
    ``min_token_length`` skips very short tokens ("a", "of", ids).
    """

    def __init__(self, max_block_size: int = 50, min_token_length: int = 3) -> None:
        self.max_block_size = max_block_size
        self.min_token_length = min_token_length

    def blocks(
        self, objects: Iterable[DataObject]
    ) -> dict[str, list[DataObject]]:
        """Group objects by shared token."""
        buckets: dict[str, list[DataObject]] = defaultdict(list)
        for obj in objects:
            for token in self._object_tokens(obj):
                buckets[token].append(obj)
        return {
            token: members
            for token, members in buckets.items()
            if 2 <= len(members) <= self.max_block_size
        }

    def candidate_pairs(
        self, objects: Iterable[DataObject]
    ) -> Iterator[tuple[DataObject, DataObject]]:
        """Distinct cross-database pairs sharing at least one block.

        Deduplication is a *local* responsibility in the paper's model,
        so pairs within the same database are not candidates.
        """
        emitted: set[tuple[str, str]] = set()
        for members in self.blocks(objects).values():
            for i, left in enumerate(members):
                for right in members[i + 1:]:
                    if left.key.database == right.key.database:
                        continue
                    pair = _oriented(left, right)
                    pair_ids = (pair[0].key, pair[1].key)
                    if pair_ids in emitted:
                        continue
                    emitted.add(pair_ids)
                    yield pair

    def _object_tokens(self, obj: DataObject) -> set[str]:
        tokens: set[str] = set()
        for name, value in obj.fields():
            if name.startswith("_"):
                continue
            for token in tokenize_value(value):
                if len(token) >= self.min_token_length and not token.isdigit():
                    tokens.add(token)
        return tokens

