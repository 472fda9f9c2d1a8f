"""Cost-model calibration properties of the cross-store planner.

Three claims from docs/PLANNING.md are pinned here:

* **Accuracy band** — on fault-free workloads the *raw* analytic
  estimate of every strategy is within :data:`~repro.planner.RATIO_BAND`
  of the measured virtual-time execution (``analyze=True`` runs).
* **Calibration tightens** — after observing an execution, a strategy's
  calibrated estimate (``raw * factor``) converges on the measured time;
  faulted/OOM runs are never folded in.
* **Monotonicity** — the :class:`CostBasedOptimizer` formulas the
  push-down estimates are built from are non-decreasing in the planned
  fetch cardinality, for every augmenter and parameter choice.
"""

from __future__ import annotations

import pytest

from repro.core.augmentation import AugmentationConfig
from repro.core.runlog import QueryFeatures
from repro.faults import FaultInjector
from repro.optimizer.costbased import (
    BATCH_SIZES,
    THREADS_SIZES,
    CostBasedOptimizer,
)
from repro.planner import (
    RATIO_BAND,
    CalibrationStore,
    FederatedEngine,
    LogicalQuery,
)
from repro.workloads import PolystoreScale, QueryWorkload, build_polyphony

BIG_BUDGET = 10_000_000

AUGMENTERS = (
    "sequential",
    "batch",
    "inner",
    "outer",
    "outer_batch",
    "outer_inner",
)


def make_engine(bundle, **kwargs):
    kwargs.setdefault("memory_budget", BIG_BUDGET)
    return FederatedEngine(bundle.polystore, bundle.aindex, **kwargs)


class TestCalibrationStore:
    def test_unseen_strategy_has_unit_factor(self):
        assert CalibrationStore().factor("pushdown:batch") == 1.0

    def test_first_observation_adopts_the_ratio(self):
        store = CalibrationStore()
        assert store.observe("s", raw=2.0, actual=1.0) == pytest.approx(0.5)
        assert store.factor("s") == pytest.approx(0.5)

    def test_later_observations_blend_with_ewma(self):
        store = CalibrationStore()
        store.observe("s", raw=1.0, actual=1.0)
        updated = store.observe("s", raw=1.0, actual=2.0)
        assert updated == pytest.approx(0.6 * 1.0 + 0.4 * 2.0)

    def test_ratios_are_clamped(self):
        store = CalibrationStore()
        assert store.observe("hi", raw=1.0, actual=1e9) == 20.0
        assert store.observe("lo", raw=1e9, actual=1e-9) == 0.05

    def test_degenerate_observations_ignored(self):
        store = CalibrationStore()
        store.observe("s", raw=0.0, actual=1.0)
        store.observe("s", raw=-1.0, actual=1.0)
        assert store.factor("s") == 1.0
        assert store.snapshot() == {}

    def test_snapshot_counts_observations(self):
        store = CalibrationStore()
        store.observe("s", raw=1.0, actual=2.0)
        store.observe("s", raw=1.0, actual=2.0)
        snap = store.snapshot()
        assert snap["s"]["observations"] == 2
        assert snap["s"]["factor"] == pytest.approx(2.0)


class TestRatioBand:
    """Raw estimates track measured virtual time within the band."""

    @pytest.mark.parametrize(
        "database,level",
        [("catalogue", 0), ("catalogue", 1), ("catalogue", 2),
         ("transactions", 1)],
    )
    def test_every_strategy_within_band(
        self, small_bundle, database, level
    ):
        engine = make_engine(small_bundle)
        query = QueryWorkload(small_bundle).query(database, 15)
        logical = LogicalQuery(
            database=query.database, query=query.query, level=level
        )
        ranked, __ = engine.candidates(logical)
        raws = {estimate.strategy: estimate.raw for __, estimate in ranked}
        results = engine.execute_all(logical)
        low, high = RATIO_BAND
        for strategy, result in results.items():
            assert not result.out_of_memory and not result.errors
            ratio = result.elapsed / raws[strategy]
            assert low <= ratio <= high, (
                f"{strategy}: measured/raw = {ratio:.3f} outside {RATIO_BAND}"
            )

    def test_analyze_section_reports_ratio_in_band(self, small_bundle):
        engine = make_engine(small_bundle)
        query = QueryWorkload(small_bundle).query("catalogue", 15)
        section = engine.explain_section(
            LogicalQuery(database=query.database, query=query.query, level=1),
            analyze=True,
        )
        actual = section["actual"]
        assert actual["strategy"] == section["chosen"]
        low, high = RATIO_BAND
        assert low <= actual["ratio_to_raw"] <= high


class TestCalibrationFeedback:
    def test_observed_execution_makes_estimate_exact(self, small_bundle):
        """Virtual time is deterministic, so one observation suffices."""
        engine = make_engine(small_bundle)
        query = QueryWorkload(small_bundle).query("catalogue", 15)
        logical = LogicalQuery(
            database=query.database, query=query.query, level=1
        )
        first = engine.execute(logical, record=True)
        assert engine.calibration.snapshot()[first.chosen]["observations"] == 1
        ranked, __ = engine.candidates(logical)
        calibrated = {e.strategy: e for __, e in ranked}[first.chosen]
        assert calibrated.total == pytest.approx(
            first.result.elapsed, rel=1e-9
        )

    def test_calibration_never_loosens_the_estimate(self, small_bundle):
        engine = make_engine(small_bundle)
        query = QueryWorkload(small_bundle).query("catalogue", 15)
        logical = LogicalQuery(
            database=query.database, query=query.query, level=1
        )
        results = engine.execute_all(logical, record=True)
        after, __ = engine.candidates(logical)
        for __, estimate in after:
            measured = results[estimate.strategy].elapsed
            uncalibrated_gap = abs(estimate.raw - measured)
            calibrated_gap = abs(estimate.total - measured)
            assert calibrated_gap <= uncalibrated_gap + 1e-12

    def test_faulted_runs_are_not_observed(self, small_bundle):
        faults = FaultInjector(seed=5)
        faults.inject("discount", "fail", rate=1.0)
        engine = make_engine(small_bundle, faults=faults)
        query = QueryWorkload(small_bundle).query("catalogue", 15)
        engine.execute_all(
            LogicalQuery(database=query.database, query=query.query, level=2),
            record=True,
        )
        assert engine.calibration.snapshot() == {}


class TestCardinalitiesAreCountedPerPrepare:
    def test_a_long_lived_engine_prices_rows_inserted_after_it(self):
        """Scans and footprints are priced from the counts each prepare
        takes, so an engine built before 1 000 inserts estimates exactly
        what an engine built after them does."""
        bundle = build_polyphony(
            stores=4, scale=PolystoreScale(n_albums=120), seed=3
        )
        query = QueryWorkload(bundle).query("catalogue", 20)
        logical = LogicalQuery(
            database=query.database, query=query.query, level=1
        )

        def raws(engine):
            ranked, __ = engine.candidates(logical)
            return {estimate.strategy: estimate.raw for __, estimate in ranked}

        engine = make_engine(bundle)
        before = raws(engine)
        store = bundle.polystore.database("transactions")
        for seq in range(1000):
            store.insert_row(
                "inventory", {"id": f"extra-{seq}", "seq": 100_000 + seq}
            )
        after = raws(engine)
        assert after == raws(make_engine(bundle))
        assert after["collect_join"] > before["collect_join"]
        assert after["etl_cast"] > before["etl_cast"]


class TestMonotonicity:
    """optimizer/costbased.py: cost non-decreasing in input cardinality."""

    FETCH_GRID = (0, 1, 5, 32, 64, 100, 256, 1000, 5000)

    @staticmethod
    def features(planned, original=40, stores=5):
        return QueryFeatures(
            engine="document",
            database="catalogue",
            level=1,
            original_count=original,
            planned_fetches=planned,
            store_count=stores,
            deployment="centralized",
        )

    @pytest.mark.parametrize("augmenter", AUGMENTERS)
    def test_cost_non_decreasing_in_planned_fetches(self, augmenter):
        optimizer = CostBasedOptimizer()
        for batch_size in BATCH_SIZES:
            for threads_size in THREADS_SIZES:
                config = AugmentationConfig(
                    augmenter=augmenter,
                    batch_size=batch_size,
                    threads_size=threads_size,
                )
                costs = [
                    optimizer.estimate(self.features(planned), config)
                    for planned in self.FETCH_GRID
                ]
                for small, large in zip(costs, costs[1:]):
                    assert large >= small, (
                        f"{augmenter} b={batch_size} t={threads_size}: "
                        f"{costs}"
                    )

    @pytest.mark.parametrize("augmenter", AUGMENTERS)
    def test_cost_positive(self, augmenter):
        optimizer = CostBasedOptimizer()
        config = AugmentationConfig(augmenter=augmenter)
        assert optimizer.estimate(self.features(100), config) > 0

    def test_planner_pushdown_estimate_monotone_in_level(self, small_bundle):
        """More augmentation reach never gets a cheaper push-down plan."""
        engine = make_engine(small_bundle)
        query = QueryWorkload(small_bundle).query("catalogue", 15)
        totals = []
        for level in (0, 1, 2):
            ranked, __ = engine.candidates(
                LogicalQuery(
                    database=query.database, query=query.query, level=level
                )
            )
            raws = {e.strategy: e.raw for __, e in ranked}
            totals.append(raws["pushdown:sequential"])
        assert totals == sorted(totals)
