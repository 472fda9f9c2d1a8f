"""Edge cases across subsystems that deserve explicit regression tests."""

import pytest

from repro.core import Quepa
from repro.core.augmentation import AugmentationConfig
from repro.errors import NotAugmentableError, TrainingError
from repro.model.objects import GlobalKey
from repro.planner import LogicalQuery
from repro.stores import RelationalStore
from repro.stores.relational.types import Column, ColumnType, TableSchema

K = GlobalKey.parse


@pytest.fixture
def sql_store() -> RelationalStore:
    store = RelationalStore()
    store.database_name = "db"
    store.create_table(
        "t",
        TableSchema(
            columns=[
                Column("id", ColumnType.TEXT, nullable=False),
                Column("name", ColumnType.TEXT),
                Column("price", ColumnType.FLOAT),
            ],
            primary_key="id",
        ),
    )
    rows = [
        ("k1", "100% wool", 1.5),
        ("k2", "50_50 blend", 2.5),
        ("k3", "it's complicated", None),
        ("k4", "plain", 0.0),
    ]
    for id_, name, price in rows:
        store.insert_row("t", {"id": id_, "name": name, "price": price})
    return store


class TestSqlStringEdgeCases:
    def test_like_percent_is_literal_when_escaped_by_position(self, sql_store):
        """'100%' contains a literal % — LIKE '100%%...' style escaping
        is not in the subset, but a leading-anchor pattern still works."""
        rows = sql_store.sql("SELECT id FROM t WHERE name LIKE '100%'")
        assert [r["id"] for r in rows] == ["k1"]

    def test_like_underscore_matches_single_char(self, sql_store):
        rows = sql_store.sql("SELECT id FROM t WHERE name LIKE '50_50%'")
        assert [r["id"] for r in rows] == ["k2"]

    def test_like_pattern_with_regex_metacharacters(self, sql_store):
        """Dots, parens etc. in patterns are literals, not regex."""
        sql_store.insert_row("t", {"id": "k5", "name": "a.b(c)", "price": 1.0})
        rows = sql_store.sql("SELECT id FROM t WHERE name LIKE 'a.b(c)'")
        assert [r["id"] for r in rows] == ["k5"]
        rows = sql_store.sql("SELECT id FROM t WHERE name LIKE 'aXb(c)'")
        assert rows == []

    def test_quoted_apostrophe_round_trip(self, sql_store):
        rows = sql_store.sql(
            "SELECT id FROM t WHERE name = 'it''s complicated'"
        )
        assert [r["id"] for r in rows] == ["k3"]

    def test_float_comparison_and_zero(self, sql_store):
        rows = sql_store.sql("SELECT id FROM t WHERE price = 0")
        assert [r["id"] for r in rows] == ["k4"]

    def test_arithmetic_with_floats(self, sql_store):
        row = sql_store.sql(
            "SELECT price * 2 AS double FROM t WHERE id = 'k2'"
        )[0]
        assert row["double"] == 5.0

    def test_scientific_notation_literal(self, sql_store):
        rows = sql_store.sql("SELECT id FROM t WHERE price < 1e1")
        assert len(rows) == 3  # NULL price excluded


class TestValidatorEdgeCases:
    def test_rewrite_preserves_order_and_limit(self, mini_quepa):
        store = mini_quepa.polystore.database("transactions")
        from repro.core.validator import Validator

        result = Validator().validate(
            store,
            "SELECT name FROM inventory ORDER BY price DESC LIMIT 2",
        )
        assert result.rewritten
        rows = store.sql(result.query)
        assert len(rows) == 2
        assert "id" in rows[0]

    def test_update_statement_rejected(self, mini_quepa):
        with pytest.raises(NotAugmentableError):
            mini_quepa.augmented_search(
                "transactions", "UPDATE inventory SET price = 0"
            )

    def test_level_zero_empty_answer(self, mini_quepa):
        answer = mini_quepa.augmented_search(
            "transactions", "SELECT * FROM inventory WHERE id = 'none'"
        )
        assert answer.originals == []
        assert answer.augmented == []

    def test_results_without_index_entries_augment_to_nothing(
        self, mini_quepa
    ):
        """a33 has no p-relations: present locally, no augmentation."""
        answer = mini_quepa.augmented_search(
            "transactions", "SELECT * FROM inventory WHERE id = 'a33'"
        )
        assert len(answer.originals) == 1
        assert answer.augmented == []


class TestAugmentationEdgeCases:
    def test_min_probability_filters_plan_and_answer(self, mini_quepa):
        """The floor is a planner input: it cuts the plan and the answer."""
        logical = LogicalQuery(
            database="transactions",
            query="SELECT * FROM inventory WHERE name LIKE '%wish%'",
            min_probability=0.8,
        )
        run = mini_quepa.planner_engine().execute(logical)
        assert {str(k) for k in run.result.answer.augmented_keys()} == {
            "catalogue.albums.d1"
        }
        seeds = [K("transactions.inventory.a32")]
        assert len(mini_quepa.augmentation.plan(seeds, 1).keys) == 4
        plan = mini_quepa.augmentation.plan(seeds, 1, min_probability=0.8)
        assert {str(k) for k in plan.keys} == {"catalogue.albums.d1"}

    def test_high_level_converges_to_component(self, mini_quepa):
        """Beyond the component diameter, higher levels add nothing."""
        a = mini_quepa.augmented_search(
            "transactions",
            "SELECT * FROM inventory WHERE name LIKE '%wish%'",
            level=5,
        )
        b = mini_quepa.augmented_search(
            "transactions",
            "SELECT * FROM inventory WHERE name LIKE '%wish%'",
            level=50,
        )
        assert {str(k) for k in a.augmented_keys()} == {
            str(k) for k in b.augmented_keys()
        }

    def test_batch_size_larger_than_plan(self, mini_quepa):
        config = AugmentationConfig(augmenter="batch", batch_size=10_000)
        answer = mini_quepa.augmented_search(
            "transactions",
            "SELECT * FROM inventory WHERE name LIKE '%wish%'",
            config=config,
        )
        assert len(answer.augmented) == 3

    def test_threads_larger_than_work(self, mini_quepa):
        config = AugmentationConfig(augmenter="outer", threads_size=64)
        answer = mini_quepa.augmented_search(
            "transactions",
            "SELECT * FROM inventory WHERE name LIKE '%wish%'",
            config=config,
        )
        assert len(answer.augmented) == 3


class TestOptimizerEdgeCases:
    def test_retrain_failure_keeps_previous_models(self):
        from repro.core.runlog import QueryFeatures, RunRecord
        from repro.optimizer import AdaptiveOptimizer, RunLogRepository

        logs = RunLogRepository()

        def record(planned, augmenter, elapsed):
            features = QueryFeatures(
                "relational", "db", 0, planned // 10, planned, 4,
                "centralized",
            )
            return RunRecord(features, augmenter, 64, 4, 1024, elapsed)

        logs.add(record(10, "sequential", 0.1))
        logs.add(record(1000, "batch", 0.1))
        optimizer = AdaptiveOptimizer(logs, retrain_every=1)
        optimizer.train()
        t1_before = optimizer.t1
        # New logs collapse to a single signature -> retrain would fail;
        # the optimizer must keep serving the previous models.
        logs.clear()
        logs.add(record(10, "sequential", 0.1))
        features = QueryFeatures(
            "relational", "db", 0, 1, 10, 4, "centralized"
        )
        config = optimizer.configure(features, 1024)
        assert optimizer.t1 is t1_before
        assert config.augmenter in ("sequential", "batch")

    def test_training_on_empty_logs_raises(self):
        from repro.optimizer import AdaptiveOptimizer, RunLogRepository

        with pytest.raises(TrainingError):
            AdaptiveOptimizer(RunLogRepository()).train()


class TestGraphEdgeCases:
    def test_self_loop_edges_allowed_and_traversable(self):
        from repro.stores import GraphStore

        graph = GraphStore()
        graph.create_node("N", node_id="a")
        graph.create_edge("a", "E", "a")
        assert [n.id for n in graph.neighbors("a")] == ["a"]

    def test_parallel_edges_counted_separately(self):
        from repro.stores import GraphStore

        graph = GraphStore()
        graph.create_node("N", node_id="a")
        graph.create_node("N", node_id="b")
        graph.create_edge("a", "E", "b")
        graph.create_edge("a", "E", "b")
        assert graph.edge_count() == 2
        # neighbors deduplicates nodes even with parallel edges.
        assert [n.id for n in graph.neighbors("a", "E")] == ["b"]
