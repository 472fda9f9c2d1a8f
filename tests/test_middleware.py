"""Tests for the three middleware baselines (Fig 13 systems)."""

import pytest

from repro.middleware import EtlWorkflow, FederatedMiddleware, MultiModelStore
from repro.network import centralized_profile
from repro.workloads import QueryWorkload


@pytest.fixture
def env(seven_store_bundle):
    bundle = seven_store_bundle
    profile = centralized_profile(bundle.database_names())
    workload = QueryWorkload(bundle)
    return bundle, profile, workload


BIG_BUDGET = 10_000_000


class TestFederated:
    def test_mode_validated(self, env):
        bundle, profile, __ = env
        with pytest.raises(ValueError):
            FederatedMiddleware(bundle, profile, mode="quantum")

    def test_aug_answers_reachable_objects(self, env):
        bundle, profile, workload = env
        system = FederatedMiddleware(
            bundle, profile, mode="augmented", memory_budget=BIG_BUDGET
        )
        result = system.run(workload.query("catalogue", 20), level=0)
        assert not result.out_of_memory
        assert len(result.answer) > 20
        assert result.elapsed > 0

    def test_redis_objects_unreachable_through_meta(self, env):
        """The paper: Metamodel does not support Redis."""
        bundle, profile, workload = env
        system = FederatedMiddleware(
            bundle, profile, mode="augmented", memory_budget=BIG_BUDGET
        )
        query = workload.query("catalogue", 20)
        result = system.run(query, level=0)
        # QUEPA reaches one discount object per seed; META cannot.
        from repro.core import Quepa

        quepa = Quepa(bundle.polystore, bundle.aindex, profile=profile)
        answer = quepa.augmented_search(query.database, query.query, level=0)
        assert len(result.answer) < len(answer)

    def test_kv_target_query_rejected(self, env):
        bundle, profile, workload = env
        system = FederatedMiddleware(bundle, profile, memory_budget=BIG_BUDGET)
        with pytest.raises(ValueError):
            system.run(workload.query("discount", 10))

    def test_native_slower_than_augmented(self, env):
        """META-NAT pulls collections; META-AUG uses the index."""
        bundle, profile, workload = env
        query = workload.query("catalogue", 20)
        nat = FederatedMiddleware(
            bundle, profile, mode="native", memory_budget=BIG_BUDGET
        ).run(query)
        aug = FederatedMiddleware(
            bundle, profile, mode="augmented", memory_budget=BIG_BUDGET
        ).run(query)
        assert nat.elapsed > aug.elapsed

    def test_native_ooms_on_small_budget(self, env):
        bundle, profile, workload = env
        system = FederatedMiddleware(
            bundle, profile, mode="native", memory_budget=500
        )
        result = system.run(workload.query("catalogue", 100))
        assert result.out_of_memory
        assert len(result.answer) == 0
        assert result.footprint > 500


class TestEtl:
    def test_startup_dominates_small_queries(self, env):
        bundle, profile, workload = env
        system = EtlWorkflow(bundle, profile, memory_budget=BIG_BUDGET)
        result = system.run(workload.query("catalogue", 10))
        from repro.planner.plans import STARTUP_COST

        assert result.elapsed >= STARTUP_COST

    def test_per_record_cost_gives_steep_slope(self, env):
        bundle, profile, workload = env
        system = EtlWorkflow(bundle, profile, memory_budget=BIG_BUDGET)
        small = system.run(workload.query("catalogue", 10))
        large = system.run(workload.query("catalogue", 100))
        assert large.elapsed > small.elapsed

    def test_streams_instead_of_ooming(self, env):
        bundle, profile, workload = env
        system = EtlWorkflow(bundle, profile, memory_budget=100)
        result = system.run(workload.query("catalogue", 50))
        assert not result.out_of_memory


class TestMultiModel:
    def test_ooms_when_polystore_exceeds_budget(self, env):
        bundle, profile, workload = env
        system = MultiModelStore(bundle, profile, memory_budget=1000)
        result = system.run(workload.query("catalogue", 20))
        assert result.out_of_memory

    def test_relational_target_rejected(self, env):
        """The paper: ArangoDB import does not cover relational DBs."""
        bundle, profile, workload = env
        system = MultiModelStore(bundle, profile, memory_budget=BIG_BUDGET)
        with pytest.raises(ValueError):
            system.run(workload.query("transactions", 10))

    def test_relational_objects_not_in_answer(self, env):
        bundle, profile, workload = env
        system = MultiModelStore(bundle, profile, memory_budget=BIG_BUDGET)
        query = workload.query("catalogue", 20)
        result = system.run(query)
        from repro.core import Quepa

        quepa = Quepa(bundle.polystore, bundle.aindex, profile=profile)
        full = quepa.augmented_search(query.database, query.query, level=0)
        assert len(result.answer) < len(full)

    def test_memory_pressure_slows_warm_queries(self, env):
        """The in-memory answer (what a warm run would be) slows as the
        import fills the budget: on two cold runs that import the same
        objects, the one held against an exactly full budget is slower."""
        bundle, profile, workload = env
        query = workload.query("catalogue", 50)
        roomy = MultiModelStore(
            bundle, profile, mode="native", memory_budget=BIG_BUDGET
        ).run(query)
        tight = MultiModelStore(
            bundle, profile, mode="native", memory_budget=roomy.footprint
        ).run(query)
        assert not tight.out_of_memory
        assert tight.footprint == roomy.footprint
        assert tight.elapsed > roomy.elapsed
