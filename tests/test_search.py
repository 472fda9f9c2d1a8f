"""Tests for augmented search assembly and the answer API."""

import pytest

from repro.core.search import (
    AugmentedAnswer,
    SearchStats,
    assemble_answer,
    format_answer,
)
from repro.model.objects import AugmentedObject, DataObject, GlobalKey

K = GlobalKey.parse


def augmented(key, probability, source):
    return AugmentedObject(
        DataObject(K(key), {"k": key}, probability=probability),
        source=K(source),
        probability=probability,
    )


class TestAssembly:
    def test_orders_by_probability_desc(self):
        originals = [DataObject(K("db.t.s1"))]
        raw = [
            augmented("a.c.x", 0.5, "db.t.s1"),
            augmented("b.c.y", 0.9, "db.t.s1"),
            augmented("c.c.z", 0.7, "db.t.s1"),
        ]
        answer = assemble_answer(originals, raw, SearchStats())
        assert [e.probability for e in answer.augmented] == [0.9, 0.7, 0.5]

    def test_dedup_keeps_max_probability(self):
        originals = [DataObject(K("db.t.s1")), DataObject(K("db.t.s2"))]
        raw = [
            augmented("a.c.x", 0.5, "db.t.s1"),
            augmented("a.c.x", 0.8, "db.t.s2"),
        ]
        answer = assemble_answer(originals, raw, SearchStats())
        assert len(answer.augmented) == 1
        assert answer.augmented[0].probability == 0.8
        assert answer.augmented[0].source == K("db.t.s2")

    def test_self_reference_dropped(self):
        originals = [DataObject(K("db.t.s1"))]
        raw = [augmented("db.t.s1", 0.9, "db.t.s1")]
        answer = assemble_answer(originals, raw, SearchStats())
        assert answer.augmented == []

    def test_original_reachable_from_other_seed_kept(self):
        """Example 4: an original object may appear in the augmentation
        of another result."""
        originals = [DataObject(K("db.t.s1")), DataObject(K("db.t.s2"))]
        raw = [augmented("db.t.s2", 0.8, "db.t.s1")]
        answer = assemble_answer(originals, raw, SearchStats())
        assert len(answer.augmented) == 1

    def test_stats_updated(self):
        stats = SearchStats()
        answer = assemble_answer(
            [DataObject(K("db.t.s1"))],
            [augmented("a.c.x", 0.5, "db.t.s1")],
            stats,
        )
        assert stats.original_count == 1
        assert stats.augmented_count == 1
        assert answer.stats is stats

    def test_deterministic_tiebreak(self):
        originals = [DataObject(K("db.t.s1"))]
        raw = [
            augmented("b.c.y", 0.5, "db.t.s1"),
            augmented("a.c.x", 0.5, "db.t.s1"),
        ]
        answer = assemble_answer(originals, raw, SearchStats())
        assert [str(e.key) for e in answer.augmented] == ["a.c.x", "b.c.y"]


class TestAnswerApi:
    def make_answer(self) -> AugmentedAnswer:
        originals = [DataObject(K("db.t.s1"), {"n": 1})]
        raw = [
            augmented("a.c.x", 0.9, "db.t.s1"),
            augmented("b.d.y", 0.5, "db.t.s1"),
            augmented("a.c.z", 0.7, "db.t.s1"),
        ]
        return assemble_answer(originals, raw, SearchStats())

    def test_len_counts_everything(self):
        assert len(self.make_answer()) == 4

    def test_iteration_originals_first(self):
        keys = [str(obj.key) for obj in self.make_answer()]
        assert keys[0] == "db.t.s1"
        assert keys[1] == "a.c.x"

    def test_top(self):
        top = self.make_answer().top(2)
        assert [e.probability for e in top] == [0.9, 0.7]

    def test_by_database(self):
        grouped = self.make_answer().by_database()
        assert {db: len(v) for db, v in grouped.items()} == {"a": 2, "b": 1}

    def test_augmented_keys(self):
        keys = self.make_answer().augmented_keys()
        assert [str(k) for k in keys] == ["a.c.x", "a.c.z", "b.d.y"]


class TestFormatting:
    def test_format_groups_by_source(self):
        text = format_answer(self.make())
        assert "db.t.s1" in text
        assert "=> a.c.x (p=0.90)" in text

    def test_format_truncates(self):
        originals = [DataObject(K(f"db.t.s{i}")) for i in range(20)]
        answer = assemble_answer(originals, [], SearchStats())
        text = format_answer(answer, limit=3)
        assert "17 more results" in text

    @staticmethod
    def make() -> AugmentedAnswer:
        originals = [DataObject(K("db.t.s1"), {"n": 1})]
        raw = [augmented("a.c.x", 0.9, "db.t.s1")]
        return assemble_answer(originals, raw, SearchStats())


class TestEndToEnd:
    def test_running_example_level_0(self, mini_quepa):
        """Lucy's query from the introduction."""
        answer = mini_quepa.augmented_search(
            "transactions",
            "SELECT * FROM inventory WHERE name LIKE '%wish%'",
            level=0,
        )
        assert [str(o.key) for o in answer.originals] == [
            "transactions.inventory.a32"
        ]
        augmented_keys = {str(k) for k in answer.augmented_keys()}
        assert augmented_keys == {
            "catalogue.albums.d1",
            "discount.drop.k1:cure:wish",
            "similar.Item.i1",
        }
        # The discount (40%) from another store is in the answer.
        discount = next(
            e for e in answer.augmented
            if str(e.key) == "discount.drop.k1:cure:wish"
        )
        assert discount.object.value == "40%"

    def test_level_1_reaches_further(self, mini_quepa):
        level0 = mini_quepa.augmented_search(
            "transactions",
            "SELECT * FROM inventory WHERE name LIKE '%wish%'",
            level=0,
        )
        level1 = mini_quepa.augmented_search(
            "transactions",
            "SELECT * FROM inventory WHERE name LIKE '%wish%'",
            level=1,
        )
        assert len(level1.augmented) >= len(level0.augmented)
        assert "similar.Item.i2" in {
            str(k) for k in level1.augmented_keys()
        }

    def test_document_store_query_augments(self, mini_quepa):
        answer = mini_quepa.augmented_search(
            "catalogue", {"collection": "albums", "filter": {"year": 1992}}
        )
        assert "transactions.inventory.a32" in {
            str(k) for k in answer.augmented_keys()
        }

    def test_kv_query_augments(self, mini_quepa):
        answer = mini_quepa.augmented_search("discount", "KEYS k1*")
        assert "catalogue.albums.d1" in {
            str(k) for k in answer.augmented_keys()
        }

    def test_graph_query_augments(self, mini_quepa):
        answer = mini_quepa.augmented_search(
            "similar", {"op": "match", "label": "Item", "properties": {"title": "Wish"}}
        )
        assert "catalogue.albums.d1" in {
            str(k) for k in answer.augmented_keys()
        }
