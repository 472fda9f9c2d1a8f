"""Tests for token blocking (the BLAST stand-in)."""

import random
import string

import pytest

from repro.collector.blocking import TokenBlocker, _oriented, tokenize_value
from repro.model.objects import DataObject, GlobalKey
from repro.workloads import PolystoreScale, build_polyphony


def obj(db: str, key: str, **fields) -> DataObject:
    return DataObject(GlobalKey(db, "c", key), fields)


class TestTokenize:
    def test_lowercase_alnum_tokens(self):
        assert tokenize_value("The Queen, Is Dead!") == {
            "the", "queen", "is", "dead",
        }

    def test_none_is_empty(self):
        assert tokenize_value(None) == set()

    def test_numbers_tokenized(self):
        assert tokenize_value("v1.2") == {"v1", "2"}


class TestBlocks:
    def test_shared_token_same_block(self):
        blocker = TokenBlocker()
        a = obj("db1", "1", title="Wish upon")
        b = obj("db2", "2", name="Wish")
        blocks = blocker.blocks([a, b])
        assert any(
            {o.key.key for o in members} == {"1", "2"}
            for members in blocks.values()
        )

    def test_singleton_blocks_dropped(self):
        blocker = TokenBlocker()
        blocks = blocker.blocks([obj("db1", "1", title="unique")])
        assert blocks == {}

    def test_oversized_blocks_dropped(self):
        blocker = TokenBlocker(max_block_size=3)
        members = [obj("db1", str(i), title="common") for i in range(5)]
        assert blocker.blocks(members) == {}

    def test_short_tokens_ignored(self):
        blocker = TokenBlocker(min_token_length=3)
        a = obj("db1", "1", title="of it")
        b = obj("db2", "2", title="of us")
        assert blocker.blocks([a, b]) == {}

    def test_pure_numbers_ignored(self):
        blocker = TokenBlocker()
        a = obj("db1", "1", year="1992")
        b = obj("db2", "2", year="1992")
        assert blocker.blocks([a, b]) == {}

    def test_underscore_fields_skipped(self):
        blocker = TokenBlocker()
        a = obj("db1", "1", _internal="shared words here")
        b = obj("db2", "2", _internal="shared words here")
        assert blocker.blocks([a, b]) == {}


class TestCandidatePairs:
    def test_cross_database_only(self):
        blocker = TokenBlocker()
        same_db = [
            obj("db1", "1", title="wish"),
            obj("db1", "2", title="wish"),
        ]
        assert list(blocker.candidate_pairs(same_db)) == []

    def test_pairs_deduplicated_across_blocks(self):
        blocker = TokenBlocker()
        a = obj("db1", "1", title="black wish")
        b = obj("db2", "2", title="black wish")
        pairs = list(blocker.candidate_pairs([a, b]))
        assert len(pairs) == 1

    def test_scalar_values_compared_via_value_field(self):
        blocker = TokenBlocker()
        a = DataObject(GlobalKey("db1", "c", "1"), "cure wish")
        b = DataObject(GlobalKey("db2", "c", "2"), "cure forever")
        pairs = list(blocker.candidate_pairs([a, b]))
        assert len(pairs) == 1


def polyphony_objects() -> list[DataObject]:
    polystore = build_polyphony(
        stores=4, scale=PolystoreScale(n_albums=60), with_aindex=False
    ).polystore
    return [
        obj for database in polystore
        for obj in polystore.database(database).scan_objects()
    ]


def contested_objects() -> list[DataObject]:
    """The ingest benchmark's shape: four copies per entity, titles of
    four words from a vocabulary small enough to fill the buckets."""
    rng = random.Random(11)
    vocabulary = [
        "".join(rng.choice(string.ascii_lowercase) for __ in range(7))
        for __ in range(40)
    ]
    objects = []
    for entity in range(120):
        words = " ".join(rng.choice(vocabulary) for __ in range(4))
        for database in ("transactions", "catalogue", "similar", "discount"):
            if rng.random() < 0.9:
                title = f"{words} x{rng.randrange(1 << 20):05x}"
                objects.append(obj(database, f"e{entity}", title=title))
    rng.shuffle(objects)
    return objects


def emitted_before(scanned):
    """How the blockers enumerated before they oriented first: a sorted
    tuple of key texts per scanned pair, oriented only when yielded."""
    emitted = set()
    for left, right in scanned:
        if left.key.database == right.key.database:
            continue
        pair_ids = tuple(sorted((str(left.key), str(right.key))))
        if pair_ids in emitted:
            continue
        emitted.add(pair_ids)
        yield _oriented(left, right)


def key_texts(pairs) -> list[tuple[str, str]]:
    return [(str(left.key), str(right.key)) for left, right in pairs]


class TestYieldOrder:
    """The matcher scores pairs, and the A' index files relations, in
    the order the blocker emits them, so the sequence is part of the
    contract."""

    @pytest.mark.parametrize("corpus", [polyphony_objects, contested_objects])
    def test_token_blocker_sequence(self, corpus):
        objects = corpus()
        blocker = TokenBlocker(max_block_size=32)
        scanned = (
            (left, right)
            for members in blocker.blocks(objects).values()
            for i, left in enumerate(members)
            for right in members[i + 1:]
        )
        got = key_texts(blocker.candidate_pairs(objects))
        assert len(got) > 500
        assert got == key_texts(emitted_before(scanned))
