"""Tests for EXPLAIN/ANALYZE: per-engine access paths and the report
``Quepa.explain`` stitches over them."""

import pytest

from repro.core import Quepa
from repro.core.augmentation import AugmentationConfig
from repro.core.runlog import QueryFeatures, RunRecord
from repro.errors import QueryError
from repro.model import GlobalKey, PRelation
from repro.network import centralized_profile
from repro.optimizer.adaptive import AdaptiveOptimizer
from repro.stores import GraphStore
from repro.workloads import QueryWorkload

QUERY = "SELECT * FROM inventory WHERE name LIKE '%wish%'"


# ---------------------------------------------------------------------------
# Per-engine access paths
# ---------------------------------------------------------------------------


class TestRelationalExplain:
    def test_full_scan_without_usable_index(self, mini_polystore):
        store = mini_polystore.database("transactions")
        # The range sits under an OR: no access path serves it.
        report = store.explain(
            "SELECT * FROM inventory WHERE price > 12 OR price IS NULL"
        )
        assert report["engine"] == "relational"
        assert report["access_path"] == "full_scan"
        assert report["index"] is None
        assert report["estimated_rows"] == 3

    @pytest.mark.parametrize("where", [
        "price > 12", "12 < price", "price BETWEEN 12.5 AND 20",
        "price >= 12.5 AND price < 100 AND name LIKE '%'",
    ])
    def test_a_numeric_range_reads_the_ordered_path(self, mini_polystore, where):
        """Derived, never declared: a range on a numeric column examines
        the rows in its window only, and EXPLAIN's estimate is that count
        — what execution then examines."""
        store = mini_polystore.database("transactions")
        query = f"SELECT * FROM inventory WHERE {where}"
        report = store.explain(query)
        assert report["access_path"] == "index_range"
        assert report["index"] == "inventory.price"
        assert report["estimated_rows"] == 2
        store.stats.reset()
        answer = store.explain(query, analyze=True)
        assert answer["actual_rows"] == 2
        assert store.stats.rows_examined == 2

    def test_a_text_range_keeps_the_scan(self, mini_polystore):
        store = mini_polystore.database("transactions")
        report = store.explain("SELECT * FROM inventory WHERE name >= 'E'")
        assert report["access_path"] == "full_scan"
        assert report["estimated_rows"] == 3

    def test_primary_key_is_an_index_probe(self, mini_polystore):
        store = mini_polystore.database("transactions")
        report = store.explain("SELECT * FROM inventory WHERE id = 'a32'")
        assert report["access_path"] == "index_probe"
        assert report["index"] == "inventory.id"
        assert report["estimated_rows"] == 1

    def test_created_index_changes_the_plan(self, mini_polystore):
        store = mini_polystore.database("transactions")
        before = store.explain("SELECT * FROM inventory WHERE artist = 'Cure'")
        assert before["access_path"] == "full_scan"
        store.table("inventory").create_index("artist")
        after = store.explain("SELECT * FROM inventory WHERE artist = 'Cure'")
        assert after["access_path"] == "index_probe"
        assert after["index"] == "inventory.artist"
        assert after["estimated_rows"] == 2  # two Cure albums

    def test_analyze_reports_actual_rows_and_time(self, mini_polystore):
        store = mini_polystore.database("transactions")
        report = store.explain(
            "SELECT * FROM inventory WHERE artist = 'Cure'", analyze=True
        )
        assert report["actual_rows"] == 2
        assert report["actual_time_s"] >= 0.0
        # Estimated rows are examined rows, so estimated >= returned.
        assert report["estimated_rows"] >= report["actual_rows"]

    def test_plain_explain_does_not_execute(self, mini_polystore):
        store = mini_polystore.database("transactions")
        before = store.stats.queries
        report = store.explain("SELECT * FROM inventory")
        assert "actual_rows" not in report
        assert store.stats.queries == before

    def test_rejects_non_sql_query(self, mini_polystore):
        store = mini_polystore.database("transactions")
        with pytest.raises(QueryError):
            store.explain({"op": "match"})


class TestDocumentExplain:
    def test_collection_scan_without_index(self, mini_polystore):
        store = mini_polystore.database("catalogue")
        report = store.explain(("albums", {"artist": "Pixies"}))
        assert report["engine"] == "document"
        assert report["access_path"] == "collection_scan"
        assert report["estimated_rows"] == 2  # both albums examined

    def test_a_numeric_range_reads_the_ordered_path(self, mini_polystore):
        store = mini_polystore.database("catalogue")
        query = ("albums", {"year": {"$gt": 1989}})
        report = store.explain(query)
        assert report["access_path"] == "index_range"
        assert report["index"] == "albums.year"
        assert report["estimated_rows"] == 1
        assert [obj.key.key for obj in store.execute(query)] == ["d1"]
        # Another operator beside the range: the collection is scanned.
        both = ("albums", {"year": {"$gt": 1989, "$ne": 0}})
        assert store.explain(both)["access_path"] == "collection_scan"

    def test_index_probe_on_indexed_field(self, mini_polystore):
        store = mini_polystore.database("catalogue")
        store.create_index("albums", "artist")
        report = store.explain(("albums", {"artist": "Pixies"}))
        assert report["access_path"] == "index_probe"
        assert report["index"] == "albums.artist"
        assert report["estimated_rows"] == 1

    def test_index_probe_on_in_condition(self, mini_polystore):
        store = mini_polystore.database("catalogue")
        store.create_index("albums", "artist")
        report = store.explain(
            ("albums", {"artist": {"$in": ["Pixies", "The Cure"]}})
        )
        assert report["access_path"] == "index_probe"
        assert report["estimated_rows"] == 2

    def test_analyze(self, mini_polystore):
        store = mini_polystore.database("catalogue")
        report = store.explain(("albums", {}), analyze=True)
        assert report["actual_rows"] == 2


class TestGraphExplain:
    def test_match_uses_the_label_index(self, mini_polystore):
        store = mini_polystore.database("similar")
        report = store.explain({"op": "match", "label": "Item"})
        assert report["engine"] == "graph"
        assert report["access_path"] == "label_index"
        assert report["index"] == "label:Item"
        assert report["estimated_rows"] == 3

    def test_cypher_counts_hops(self, mini_polystore):
        store = mini_polystore.database("similar")
        report = store.explain("MATCH (a:Item)-[:SIMILAR]->(b) RETURN b")
        assert report["access_path"] == "label_index"
        assert report["hops"] == 1
        assert report["estimated_cost"] > report["estimated_rows"]

    def test_a_single_node_range_reads_the_ordered_path(self):
        store = GraphStore()
        for seq in range(10):
            store.create_node("Item", {"seq": seq}, node_id=f"i{seq}")
        query = "MATCH (n:Item) WHERE n.seq >= 3 AND n.seq < 7 RETURN n"
        report = store.explain(query)
        assert report["access_path"] == "index_range"
        assert report["index"] == "Item.seq"
        assert report["estimated_rows"] == 4
        store.stats.reset()
        assert [obj.key.key for obj in store.execute(query)] == [
            "i3", "i4", "i5", "i6"
        ]
        assert store.stats.rows_examined == 4
        # An edge pattern, or a range under an OR, reads the label.
        for other in (
            "MATCH (n:Item)-[:SIMILAR]->(m) WHERE n.seq > 3 RETURN m",
            "MATCH (n:Item) WHERE n.seq > 3 OR n.seq < 1 RETURN n",
        ):
            assert store.explain(other)["access_path"] == "label_index"

    def test_neighbors_is_an_adjacency_probe(self, mini_polystore):
        store = mini_polystore.database("similar")
        report = store.explain({"op": "neighbors", "node": "i2"})
        assert report["access_path"] == "adjacency_probe"
        assert report["estimated_rows"] == 2  # one in, one out

    def test_analyze_match(self, mini_polystore):
        store = mini_polystore.database("similar")
        report = store.explain({"op": "match", "label": "Item"}, analyze=True)
        assert report["actual_rows"] == 3


class TestKeyValueExplain:
    def test_get_is_a_key_probe(self, mini_polystore):
        store = mini_polystore.database("discount")
        report = store.explain("GET k1:cure:wish")
        assert report["engine"] == "keyvalue"
        assert report["access_path"] == "key_probe"
        assert report["index"] == "keyspace_hash"
        assert report["estimated_rows"] == 1

    def test_get_missing_key_estimates_zero(self, mini_polystore):
        store = mini_polystore.database("discount")
        report = store.explain("GET nope")
        assert report["access_path"] == "key_probe"
        assert report["estimated_rows"] == 0

    def test_keys_glob_is_a_keyspace_scan(self, mini_polystore):
        store = mini_polystore.database("discount")
        report = store.explain("KEYS *")
        assert report["access_path"] == "keyspace_scan"
        assert report["estimated_rows"] == 2

    def test_connector_mget_form(self, mini_polystore):
        store = mini_polystore.database("discount")
        report = store.explain(("mget", ["k1:cure:wish", "k2:pixies:doolittle"]))
        assert report["access_path"] == "key_probe"
        assert report["estimated_rows"] == 2

    def test_analyze_get(self, mini_polystore):
        store = mini_polystore.database("discount")
        report = store.explain("GET k1:cure:wish", analyze=True)
        assert report["actual_rows"] == 1


# ---------------------------------------------------------------------------
# The stitched Quepa.explain report
# ---------------------------------------------------------------------------


class TestQuepaExplain:
    def test_report_sections(self, mini_quepa):
        report = mini_quepa.explain("transactions", QUERY, level=1)
        assert report["database"] == "transactions"
        assert report["level"] == 1
        assert report["query"]["store"]["access_path"] == "full_scan"
        plan = report["plan"]
        assert plan["seeds"] == 1
        assert plan["planned_fetches"] > 0
        assert plan["edges_examined"] > 0
        assert "snapshot_generation" in plan
        assert report["config"]["source"] == "default"
        execution = report["execution"]
        assert execution["augmenter"] == "sequential"
        assert execution["batching"] is False
        assert execution["pooled"] is False
        assert execution["estimated_queries"] >= 1
        assert "actual" not in report  # plain EXPLAIN

    def test_plan_cache_hit_on_second_explain(self, mini_quepa):
        first = mini_quepa.explain("transactions", QUERY, level=1)
        second = mini_quepa.explain("transactions", QUERY, level=1)
        assert first["plan"]["plan_cache_hit"] is False
        assert second["plan"]["plan_cache_hit"] is True
        assert first["plan"]["expanded"] == first["plan"]["seeds"] > 0
        assert second["plan"]["expanded"] == 0

    def test_plan_names_the_snapshot_it_traversed(
        self, mini_quepa, monkeypatch
    ):
        """Regression: ``snapshot_generation`` was read off the *live*
        index after planning, so a write landing meanwhile (here: from
        inside the traversal) made the report describe a snapshot
        nobody traversed."""
        aindex, planner = mini_quepa.aindex, mini_quepa.augmentation
        pinned = aindex.frozen()
        expand = planner._expand

        def expand_during_a_write(index, *args):
            if index is pinned:
                aindex.add(PRelation.matching(
                    GlobalKey.parse("catalogue.albums.d1"),
                    GlobalKey.parse("catalogue.albums.late"),
                    0.5,
                ))
            return expand(index, *args)

        monkeypatch.setattr(planner, "_expand", expand_during_a_write)
        plan = mini_quepa.explain("transactions", QUERY, level=1)["plan"]
        assert aindex.generation > pinned.generation
        assert plan["snapshot_generation"] == pinned.generation
        assert plan["snapshot_overlay_nodes"] == 0
        monkeypatch.undo()
        plan = mini_quepa.explain("transactions", QUERY, level=1)["plan"]
        assert plan["snapshot_generation"] == aindex.generation
        assert plan["snapshot_overlay_nodes"] == aindex.overlay_nodes

    def test_explicit_config_is_reported(self, mini_quepa):
        config = AugmentationConfig(augmenter="outer_batch", threads_size=3)
        report = mini_quepa.explain(
            "transactions", QUERY, level=1, config=config
        )
        assert report["config"]["source"] == "explicit"
        execution = report["execution"]
        assert execution["augmenter"] == "outer_batch"
        assert execution["batching"] is True
        assert execution["pooled"] is True
        assert execution["pool_workers"] == 3
        assert "pool" in execution["shape"]

    def test_analyze_estimates_match_actuals_cold(
        self, mini_polystore, mini_aindex
    ):
        quepa = Quepa(mini_polystore, mini_aindex)
        report = quepa.explain("transactions", QUERY, level=1, analyze=True)
        actual = report["actual"]
        # Sequential augmenter on a cold cache: one native query per
        # planned miss plus the local query — the estimate is exact.
        assert actual["queries_issued"] == report["execution"]["estimated_queries"]
        assert actual["augmented_objects"] > 0
        assert actual["elapsed_s"] > 0.0
        assert set(actual["queries_by_database"]) >= {"transactions"}

    def test_explain_predicts_cache_hits_after_a_run(self, mini_quepa):
        cold = mini_quepa.explain("transactions", QUERY, level=1)
        assert cold["execution"]["cache"]["would_hit"] == 0
        mini_quepa.augmented_search("transactions", QUERY, level=1)
        warm = mini_quepa.explain("transactions", QUERY, level=1)
        assert warm["execution"]["cache"]["would_hit"] > 0

    def test_explain_does_not_perturb_cache_counters(self, mini_quepa):
        mini_quepa.augmented_search("transactions", QUERY, level=1)
        stats_before = mini_quepa.cache.stats()
        mini_quepa.explain("transactions", QUERY, level=1)
        stats_after = mini_quepa.cache.stats()
        assert stats_after["hits"] == stats_before["hits"]
        assert stats_after["misses"] == stats_before["misses"]

    def test_untrained_optimizer_reports_fallback_rule(
        self, mini_polystore, mini_aindex
    ):
        quepa = Quepa(
            mini_polystore, mini_aindex, optimizer=AdaptiveOptimizer()
        )
        report = quepa.explain("transactions", QUERY, level=1)
        assert report["config"]["source"] == "optimizer"
        rules = report["config"]["rules"]
        assert rules[0]["tree"] == "T1"
        assert rules[0]["fired"] is False
        assert "not trained" in rules[0]["detail"]

    def test_trained_optimizer_reports_decision_path(
        self, mini_polystore, mini_aindex
    ):
        optimizer = AdaptiveOptimizer()
        for level, augmenter, elapsed in (
            (0, "sequential", 0.01), (1, "outer", 0.5), (2, "batch", 0.3),
        ):
            features = QueryFeatures(
                engine="relational", database="transactions", level=level,
                original_count=1, planned_fetches=4, store_count=4,
                deployment="centralized",
            )
            optimizer.logs.add(RunRecord(
                features=features, augmenter=augmenter, batch_size=64,
                threads_size=4, cache_size=1024, elapsed=elapsed,
            ))
        optimizer.train()
        quepa = Quepa(mini_polystore, mini_aindex, optimizer=optimizer)
        report = quepa.explain("transactions", QUERY, level=1)
        rules = {rule["tree"]: rule for rule in report["config"]["rules"]}
        assert rules["T1"]["fired"] is True
        assert rules["T1"]["outcome"] == report["execution"]["augmenter"]
        assert "->" in rules["T1"]["detail"]
        assert {"T2", "T3", "T4"} <= set(rules)
        # EXPLAIN is side-effect free: no prediction counter was bumped.
        names = {entry["name"] for entry in quepa.obs.metrics.snapshot()}
        assert "optimizer_predictions_total" not in names


# ---------------------------------------------------------------------------
# Acceptance: the fig09 workload explains on all four engines
# ---------------------------------------------------------------------------


class TestWorkloadAcceptance:
    def test_every_engine_reports_path_and_rows(self, small_bundle):
        quepa = Quepa(
            small_bundle.polystore, small_bundle.aindex,
            profile=centralized_profile([n for n, _ in small_bundle.databases]),
        )
        workload = QueryWorkload(small_bundle)
        seen_engines = set()
        for item in workload.base_queries(20):
            report = quepa.explain(
                item.database, item.query, level=1, analyze=True
            )
            store_report = report["query"]["store"]
            seen_engines.add(store_report["engine"])
            assert store_report["access_path"]
            assert store_report["estimated_rows"] >= 0
            assert store_report["actual_rows"] == 20
            assert store_report["estimated_rows"] >= store_report["actual_rows"]
            assert report["actual"]["queries_issued"] >= 1
        assert seen_engines == {"relational", "document", "graph", "keyvalue"}
