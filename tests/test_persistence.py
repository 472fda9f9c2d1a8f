"""Tests for JSON snapshots of polystores and A' indexes."""

import json

import pytest

from repro.persistence import load_snapshot, save_snapshot
from repro.persistence.snapshot import SnapshotError
from repro.core import Quepa
from repro.model.objects import GlobalKey

K = GlobalKey.parse


class TestRoundTrip:
    def test_manifest_and_files(self, tmp_path, mini_polystore, mini_aindex):
        path = save_snapshot(tmp_path / "snap", mini_polystore, mini_aindex)
        names = {p.name for p in path.iterdir()}
        assert "manifest.json" in names
        assert "aindex.json" in names
        assert "db_transactions.json" in names
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["version"] == 2
        assert len(manifest["databases"]) == 4

    def test_objects_survive(self, tmp_path, mini_polystore, mini_aindex):
        save_snapshot(tmp_path / "snap", mini_polystore, mini_aindex)
        polystore, __ = load_snapshot(tmp_path / "snap")
        assert polystore.total_objects() == mini_polystore.total_objects()
        for key_text in (
            "transactions.inventory.a32",
            "catalogue.albums.d1",
            "discount.drop.k1:cure:wish",
            "similar.Item.i1",
        ):
            original = mini_polystore.get(K(key_text)).value
            restored = polystore.get(K(key_text)).value
            assert restored == original

    def test_aindex_survives_verbatim(self, tmp_path, mini_polystore,
                                      mini_aindex):
        save_snapshot(tmp_path / "snap", mini_polystore, mini_aindex)
        __, aindex = load_snapshot(tmp_path / "snap")
        assert aindex.node_count() == mini_aindex.node_count()
        assert aindex.edge_count() == mini_aindex.edge_count()
        for node in mini_aindex.nodes():
            for neighbor in mini_aindex.neighbors(node):
                restored = aindex.relation(node, neighbor.key)
                assert restored is not None
                assert restored.probability == pytest.approx(
                    neighbor.probability
                )
                assert restored.type is neighbor.type

    def test_restored_polystore_answers_queries(self, tmp_path,
                                                mini_polystore, mini_aindex):
        save_snapshot(tmp_path / "snap", mini_polystore, mini_aindex)
        polystore, aindex = load_snapshot(tmp_path / "snap")
        quepa = Quepa(polystore, aindex)
        answer = quepa.augmented_search(
            "transactions", "SELECT * FROM inventory WHERE name LIKE '%wish%'"
        )
        assert len(answer.augmented) == 3

    def test_relational_indexes_restored(self, tmp_path, mini_polystore):
        store = mini_polystore.database("transactions")
        store.table("inventory").create_index("artist")
        save_snapshot(tmp_path / "snap", mini_polystore)
        polystore, __ = load_snapshot(tmp_path / "snap")
        table = polystore.database("transactions").table("inventory")
        assert table.has_index("artist")
        assert table.index_lookup("artist", "Cure") == ["a32", "a33"]

    def test_document_indexes_restored(self, tmp_path, mini_polystore):
        store = mini_polystore.database("catalogue")
        store.create_index("albums", "artist")
        save_snapshot(tmp_path / "snap", mini_polystore)
        polystore, __ = load_snapshot(tmp_path / "snap")
        restored = polystore.database("catalogue")
        assert restored.find("albums", {"artist": "Pixies"})[0]["_id"] == "d2"

    def test_graph_edges_restored(self, tmp_path, mini_polystore):
        save_snapshot(tmp_path / "snap", mini_polystore)
        polystore, __ = load_snapshot(tmp_path / "snap")
        graph = polystore.database("similar")
        assert graph.edge_count() == 2
        assert [n.id for n in graph.neighbors("i1", "SIMILAR")] == ["i2"]

    def test_snapshot_without_aindex(self, tmp_path, mini_polystore):
        save_snapshot(tmp_path / "snap", mini_polystore)
        __, aindex = load_snapshot(tmp_path / "snap")
        assert aindex.node_count() == 0

    def test_generated_bundle_round_trips(self, tmp_path, small_bundle):
        save_snapshot(tmp_path / "snap", small_bundle.polystore,
                      small_bundle.aindex)
        polystore, aindex = load_snapshot(tmp_path / "snap")
        assert polystore.total_objects() == (
            small_bundle.polystore.total_objects()
        )
        assert aindex.edge_count() == small_bundle.aindex.edge_count()


class TestShardedPolystore:
    """A sharded polystore snapshots like any other: sharding is a
    load-time decision, so the directory holds the engines' ordinary
    payloads and reloads as plain stores."""

    @pytest.mark.parametrize("placement", ["hash", "range"])
    def test_snapshot_then_load_returns_every_object(
        self, tmp_path, small_bundle, placement
    ):
        from repro.sharding import shard_polystore

        original = small_bundle.polystore
        sharded = shard_polystore(original, shards=3, placement=placement)
        path = save_snapshot(tmp_path / "snap", sharded, small_bundle.aindex)
        manifest = json.loads((path / "manifest.json").read_text())
        assert set(manifest) == {"version", "databases", "applied_seqs"}
        assert {d["name"]: d["engine"] for d in manifest["databases"]} == {
            name: store.engine for name, store in original.databases.items()
        }
        restored, aindex = load_snapshot(path)
        assert aindex.edge_count() == small_bundle.aindex.edge_count()
        for name, store in original.databases.items():
            assert type(restored.database(name)) is type(store)
            assert {
                obj.key: obj.value
                for obj in restored.database(name).scan_objects()
            } == {obj.key: obj.value for obj in store.scan_objects()}
        # Cut graph edges excepted, and counted.
        graph = original.database("similar")
        cut = sharded.database("similar").cut_edges
        assert cut > 0
        assert restored.database("similar").edge_count() + cut == (
            graph.edge_count()
        )

    def test_indexes_and_schemas_survive_the_shards(self, tmp_path,
                                                    mini_polystore):
        from repro.sharding import shard_polystore

        mini_polystore.database("transactions").table(
            "inventory"
        ).create_index("artist")
        mini_polystore.database("catalogue").create_index("albums", "artist")
        save_snapshot(
            tmp_path / "snap", shard_polystore(mini_polystore, shards=2)
        )
        restored, __ = load_snapshot(tmp_path / "snap")
        table = restored.database("transactions").table("inventory")
        assert table.index_lookup("artist", "Cure") == ["a32", "a33"]
        assert restored.database("catalogue").find(
            "albums", {"artist": "Pixies"}
        )[0]["_id"] == "d2"


from hypothesis import given, settings  # noqa: E402 (grouped with use)
from hypothesis import strategies as hs  # noqa: E402

_DOC_VALUES = hs.one_of(
    hs.none(),
    hs.booleans(),
    hs.integers(-1000, 1000),
    hs.floats(-1e6, 1e6, allow_nan=False),
    hs.text(max_size=12),
    hs.lists(hs.integers(0, 9), max_size=4),
)


class TestRoundTripProperties:
    """Hypothesis: random stores survive save/load value-for-value."""

    @given(
        entries=hs.dictionaries(
            hs.text("abcdef:", min_size=1, max_size=8),
            hs.text(max_size=10),
            max_size=15,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_keyvalue_round_trip(self, entries, tmp_path_factory):
        from repro.model import Polystore
        from repro.stores import KeyValueStore

        directory = tmp_path_factory.mktemp("kv-snap")
        polystore = Polystore()
        store = KeyValueStore()
        for key, value in entries.items():
            store.set(key, value)
        polystore.attach("kv", store)
        save_snapshot(directory, polystore)
        restored, __ = load_snapshot(directory)
        restored_store = restored.database("kv")
        assert len(restored_store) == len(entries)
        for key, value in entries.items():
            assert restored_store.get_command(key) == value

    @given(
        docs=hs.lists(
            hs.dictionaries(hs.text("xyz", min_size=1, max_size=5),
                            _DOC_VALUES, max_size=5),
            max_size=10,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_document_round_trip(self, docs, tmp_path_factory):
        from repro.model import Polystore
        from repro.stores import DocumentStore

        directory = tmp_path_factory.mktemp("doc-snap")
        polystore = Polystore()
        store = DocumentStore()
        store.create_collection("c")
        for doc in docs:
            payload = dict(doc)
            payload.pop("_id", None)
            store.insert("c", payload)
        polystore.attach("docs", store)
        save_snapshot(directory, polystore)
        restored, __ = load_snapshot(directory)
        restored_store = restored.database("docs")
        assert restored_store.count("c") == len(docs)
        for key in store.collection_keys("c"):
            assert restored_store.get_value("c", key) == store.get_value(
                "c", key
            )


class TestErrors:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(SnapshotError):
            load_snapshot(tmp_path)

    def test_bad_version(self, tmp_path, mini_polystore):
        path = save_snapshot(tmp_path / "snap", mini_polystore)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["version"] = 99
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_corrupt_database_file(self, tmp_path, mini_polystore):
        path = save_snapshot(tmp_path / "snap", mini_polystore)
        (path / "db_catalogue.json").write_text("{not json")
        with pytest.raises(SnapshotError):
            load_snapshot(path)
