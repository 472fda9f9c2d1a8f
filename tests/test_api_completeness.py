"""Direct tests for API corners that are otherwise covered indirectly."""

import pytest

from repro.errors import TrainingError
from repro.ml.dataset import Dataset, Example
from repro.model.objects import GlobalKey
from repro.sharding import shard_aindex

K = GlobalKey.parse


class TestAIndexCopy:
    def test_copy_preserves_lineage_for_cascade(self, mini_aindex):
        """``shard_aindex`` copies an index; the copy carries the lineage
        a cascading removal follows, and the cascade leaves the source
        untouched."""
        replica = shard_aindex(mini_aindex, shards=1)
        # d1 ~ a32 and d1 ~ discount imply an inferred a32 ~ discount.
        a32 = K("transactions.inventory.a32")
        discount = K("discount.drop.k1:cure:wish")
        d1 = K("catalogue.albums.d1")
        assert replica.is_inferred(a32, discount)
        removed = replica.remove_relation(d1, a32, cascade=True)
        assert removed >= 2
        # The original index's lineage is untouched.
        assert mini_aindex.relation(d1, a32) is not None
        assert mini_aindex.is_inferred(a32, discount)


class TestDataset:
    def examples(self):
        return [
            Example({"size": i, "kind": "a" if i % 2 else "b"}, float(i))
            for i in range(10)
        ]

    def test_feature_type_detection(self):
        dataset = Dataset(self.examples())
        assert dataset.is_numeric("size")
        assert not dataset.is_numeric("kind")
        assert not dataset.is_numeric("missing")

    def test_values(self):
        dataset = Dataset(self.examples())
        assert dataset.values("size") == list(range(10))

    def test_split_holdout_partitions(self):
        dataset = Dataset(self.examples())
        train, holdout = dataset.split_holdout(0.3, seed=1)
        assert len(train) + len(holdout) == len(dataset)
        assert len(holdout) >= 1

    def test_split_holdout_is_seeded(self):
        dataset = Dataset(self.examples())
        one = dataset.split_holdout(0.3, seed=5)[0]
        two = dataset.split_holdout(0.3, seed=5)[0]
        assert [e.target for e in one] == [e.target for e in two]

    def test_split_holdout_bad_fraction(self):
        with pytest.raises(TrainingError):
            Dataset(self.examples()).split_holdout(1.5)

    def test_empty_dataset_rejected(self):
        with pytest.raises(TrainingError):
            Dataset([])


class TestMiscApi:
    def test_store_capabilities(self, mini_polystore):
        capabilities = mini_polystore.database("transactions").capabilities()
        assert capabilities.name == "relational"
        assert capabilities.supports_batch_get

    def test_iter_objects_covers_all_collections(self, mini_polystore):
        store = mini_polystore.database("catalogue")
        keys = {str(obj.key) for obj in store.iter_objects()}
        assert "catalogue.albums.d1" in keys
        assert "catalogue.customers.c1" in keys

    def test_iter_objects_requires_attachment(self):
        from repro.stores import KeyValueStore

        store = KeyValueStore()
        store.set("k", "v")
        with pytest.raises(ValueError):
            list(store.iter_objects())

    def test_table_schema_has_column(self, mini_polystore):
        schema = (
            mini_polystore.database("transactions")
            .table("inventory").schema
        )
        assert schema.has_column("name")
        assert not schema.has_column("ghost")
        assert schema.column_names[0] == "id"

    def test_optimizer_is_trained_flag(self):
        from repro.optimizer import AdaptiveOptimizer

        optimizer = AdaptiveOptimizer()
        assert not optimizer.is_trained

    def test_query_meter_per_database(self, mini_quepa):
        mini_quepa.augmented_search(
            "transactions",
            "SELECT * FROM inventory WHERE name LIKE '%wish%'",
        )
        meter = mini_quepa.runtime.meter
        assert meter.queries_by_database["transactions"] >= 1
        assert meter.total_objects >= 4
