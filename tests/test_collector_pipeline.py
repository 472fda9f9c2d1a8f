"""Tests for the collector pipeline and the genetic tuner."""

import pytest

from repro.collector import (
    Collector,
    GeneticTuner,
    JaroWinklerComparator,
    PairwiseMatcher,
)
from repro.collector.genetic import LabeledPair
from repro.collector.matching import AttributeRule
from repro.core.aindex import AIndex
from repro.model import Polystore
from repro.model.objects import DataObject, GlobalKey
from repro.stores import DocumentStore, RelationalStore
from repro.stores.relational.types import Column, ColumnType, TableSchema


def build_two_store_polystore() -> Polystore:
    polystore = Polystore()
    sales = RelationalStore()
    sales.create_table(
        "inventory",
        TableSchema(
            columns=[
                Column("id", ColumnType.TEXT, nullable=False),
                Column("name", ColumnType.TEXT),
            ],
            primary_key="id",
        ),
    )
    catalogue = DocumentStore()
    titles = ["Violet Dreams", "Endless Rivers", "Quiet Harbors"]
    for index, title in enumerate(titles):
        sales.insert_row("inventory", {"id": f"a{index}", "name": title})
        catalogue.insert("albums", {"_id": f"d{index}", "title": title})
    polystore.attach("transactions", sales)
    polystore.attach("catalogue", catalogue)
    return polystore


def title_matcher() -> PairwiseMatcher:
    return PairwiseMatcher(
        [AttributeRule("name", "title", JaroWinklerComparator())],
        identity_threshold=0.9,
        matching_threshold=0.6,
    )


class TestCollector:
    def test_collects_ground_truth_identities(self):
        polystore = build_two_store_polystore()
        aindex = AIndex()
        report = Collector(title_matcher()).collect(polystore, aindex)
        assert report.objects_scanned == 6
        assert report.identities == 3
        for i in range(3):
            relation = aindex.relation(
                GlobalKey("transactions", "inventory", f"a{i}"),
                GlobalKey("catalogue", "albums", f"d{i}"),
            )
            assert relation is not None

    def test_report_counts_consistent(self):
        polystore = build_two_store_polystore()
        report = Collector(title_matcher()).collect(polystore, AIndex())
        assert report.relations_found == report.identities + report.matchings
        assert len(report.relations) == report.relations_found

    def test_index_usable_for_augmentation(self, mini_quepa):
        """End-to-end: collector output drives augmented search."""
        polystore = build_two_store_polystore()
        aindex = AIndex()
        Collector(title_matcher()).collect(polystore, aindex)
        from repro.core import Quepa

        quepa = Quepa(polystore, aindex)
        answer = quepa.augmented_search(
            "transactions", "SELECT * FROM inventory WHERE name LIKE '%violet%'"
        )
        assert "catalogue.albums.d0" in {
            str(k) for k in answer.augmented_keys()
        }


class TestGeneticTuner:
    def make_examples(self) -> list[LabeledPair]:
        def obj(db, key, title):
            return DataObject(GlobalKey(db, "c", key), {"title": title})

        pairs = []
        titles = ["alpha omega", "beta waves", "gamma rays", "delta blues"]
        for i, title in enumerate(titles):
            for j, other in enumerate(titles):
                pairs.append(
                    LabeledPair(
                        obj("a", f"l{i}", title),
                        obj("b", f"r{j}", other),
                        is_match=(i == j),
                    )
                )
        return pairs

    def rules(self):
        return [AttributeRule("title", "title", JaroWinklerComparator())]

    def test_tuner_reaches_high_f1_on_separable_data(self):
        tuner = GeneticTuner(self.rules(), generations=15, seed=1)
        result = tuner.tune(self.make_examples())
        assert result.fitness >= 0.9

    def test_tuner_is_deterministic_for_a_seed(self):
        examples = self.make_examples()
        one = GeneticTuner(self.rules(), generations=5, seed=2).tune(examples)
        two = GeneticTuner(self.rules(), generations=5, seed=2).tune(examples)
        assert one.fitness == two.fitness
        assert (
            one.matcher.matching_threshold == two.matcher.matching_threshold
        )

    def test_empty_examples_rejected(self):
        with pytest.raises(ValueError):
            GeneticTuner(self.rules()).tune([])

    def test_small_population_rejected(self):
        with pytest.raises(ValueError):
            GeneticTuner(self.rules(), population_size=2)

    def test_tuned_matcher_thresholds_are_valid(self):
        result = GeneticTuner(self.rules(), generations=5, seed=3).tune(
            self.make_examples()
        )
        matcher = result.matcher
        assert 0 < matcher.matching_threshold <= matcher.identity_threshold <= 1
