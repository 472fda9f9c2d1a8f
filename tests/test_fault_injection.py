"""Fault injection: flaky and down stores during augmentation."""

import pytest

from repro.core import Quepa
from repro.core.augmentation import AugmentationConfig
from repro.core.augmenters import available_augmenters
from repro.errors import StoreUnavailableError
from repro.model.objects import GlobalKey
from repro.testing import DownStore, FlakyStore
from tests.conftest import make_mini_aindex, make_mini_polystore

K = GlobalKey.parse
QUERY = "SELECT * FROM inventory WHERE name LIKE '%wish%'"
ALL_AUGMENTERS = (
    "sequential", "batch", "inner", "outer", "outer_batch", "outer_inner",
)


def polystore_with_down_catalogue():
    """The mini polystore with the catalogue store offline."""
    polystore = make_mini_polystore()
    inner = polystore.detach("catalogue")
    polystore.attach("catalogue", DownStore(inner))
    return polystore, make_mini_aindex()


class TestWrappers:
    def test_flaky_store_fails_on_schedule(self, mini_polystore):
        flaky = FlakyStore(
            mini_polystore.database("transactions"), fail_every=2
        )
        flaky.database_name = "transactions"
        flaky.get(K("transactions.inventory.a32"))  # call 1: fine
        with pytest.raises(StoreUnavailableError):
            flaky.get(K("transactions.inventory.a32"))  # call 2: fails
        assert flaky.failures == 1

    def test_flaky_store_delegates_reads(self, mini_polystore):
        flaky = FlakyStore(
            mini_polystore.database("transactions"), fail_every=100
        )
        assert flaky.engine == "relational"
        assert flaky.collections() == ["inventory"]
        assert flaky.get_value("inventory", "a32")["name"] == "Wish"

    def test_flaky_execute_rekeys_to_wrapper_name(self, mini_polystore):
        flaky = FlakyStore(
            mini_polystore.database("transactions"), fail_every=100
        )
        flaky.database_name = "mirror"
        objects = flaky.execute("SELECT * FROM inventory")
        assert all(o.key.database == "mirror" for o in objects)

    def test_down_store_always_fails(self, mini_polystore):
        down = DownStore(mini_polystore.database("transactions"))
        with pytest.raises(StoreUnavailableError):
            down.execute("SELECT * FROM inventory")

    def test_invalid_fail_every(self, mini_polystore):
        with pytest.raises(ValueError):
            FlakyStore(mini_polystore.database("transactions"), fail_every=0)


class TestAugmentationUnderFailure:
    @pytest.mark.parametrize("augmenter", ALL_AUGMENTERS)
    def test_failure_propagates_by_default(self, augmenter):
        polystore, aindex = polystore_with_down_catalogue()
        quepa = Quepa(polystore, aindex)
        config = AugmentationConfig(
            augmenter=augmenter, batch_size=2, threads_size=2
        )
        with pytest.raises(StoreUnavailableError):
            quepa.augmented_search("transactions", QUERY, config=config)

    @pytest.mark.parametrize("augmenter", ALL_AUGMENTERS)
    def test_skip_unavailable_degrades_gracefully(self, augmenter):
        polystore, aindex = polystore_with_down_catalogue()
        quepa = Quepa(polystore, aindex)
        config = AugmentationConfig(
            augmenter=augmenter, batch_size=2, threads_size=2,
            skip_unavailable=True,
        )
        answer = quepa.augmented_search("transactions", QUERY, config=config)
        keys = {str(k) for k in answer.augmented_keys()}
        # The reachable stores still contribute...
        assert "discount.drop.k1:cure:wish" in keys
        assert "similar.Item.i1" in keys
        # ...the down store's objects are skipped and reported.
        assert "catalogue.albums.d1" not in keys
        assert answer.stats.unavailable_databases == ("catalogue",)

    @pytest.mark.parametrize("augmenter", available_augmenters())
    def test_batch_skipped_flush_not_counted_as_query(self, augmenter):
        """Regression: a fetch or flush swallowed by ``skip_unavailable``
        counted toward ``queries_issued`` even though no query ran (a
        single fetch did so until every augmenter counted it skipped)."""
        polystore, aindex = polystore_with_down_catalogue()
        quepa = Quepa(polystore, aindex)
        config = AugmentationConfig(
            augmenter=augmenter, batch_size=2, threads_size=2,
            skip_unavailable=True,
        )
        answer = quepa.augmented_search("transactions", QUERY, config=config)
        # The local query plus one fetch each for discount and similar;
        # the failed catalogue fetch is reported as skipped instead.
        assert answer.stats.queries_issued == 3
        assert quepa.last_record.skipped_flushes == 1
        skips = quepa.obs.metrics.counter(
            "store_unavailable_skips_total", database="catalogue"
        )
        assert skips.value == 1

    def test_missing_objects_deduped_across_seeds(self):
        """Regression: one unreachable object shared by many seeds was
        reported (and lazily deleted) once per seed."""
        from repro.model.prelations import PRelation

        polystore = make_mini_polystore()
        aindex = make_mini_aindex()
        polystore.database("transactions").insert_row(
            "inventory", {"id": "a99", "artist": "x", "name": "Wishbone"}
        )
        # Two seeds point at the same nonexistent object.
        ghost = K("catalogue.albums.nope")
        aindex.add(PRelation.identity(K("transactions.inventory.a32"),
                                      ghost, 0.9))
        aindex.add(PRelation.identity(K("transactions.inventory.a99"),
                                      ghost, 0.9))
        quepa = Quepa(polystore, aindex)
        answer = quepa.augmented_search(
            "transactions", "SELECT * FROM inventory WHERE name LIKE '%wish%'"
        )
        assert answer.stats.missing_objects == 1

    def test_skipped_store_not_lazily_deleted(self):
        """Unavailability is transient: the A' index must keep the
        down store's nodes (unlike genuinely missing objects)."""
        polystore, aindex = polystore_with_down_catalogue()
        quepa = Quepa(polystore, aindex)
        config = AugmentationConfig(
            augmenter="sequential", skip_unavailable=True
        )
        quepa.augmented_search("transactions", QUERY, config=config)
        assert K("catalogue.albums.d1") in quepa.aindex

    def test_local_query_failure_always_propagates(self):
        """Graceful degradation covers remote fetches, not the user's
        own query: if the target store is down, the query fails."""
        polystore, aindex = polystore_with_down_catalogue()
        quepa = Quepa(polystore, aindex)
        config = AugmentationConfig(skip_unavailable=True)
        with pytest.raises(StoreUnavailableError):
            quepa.augmented_search(
                "catalogue",
                {"collection": "albums", "filter": {}},
                config=config,
            )

    def test_flaky_store_partial_results(self):
        """A store failing intermittently yields partial augmentation."""
        polystore = make_mini_polystore()
        inner = polystore.detach("catalogue")
        flaky = FlakyStore(inner, fail_every=2)
        polystore.attach("catalogue", flaky)
        quepa = Quepa(polystore, make_mini_aindex())
        config = AugmentationConfig(
            augmenter="sequential", skip_unavailable=True, cache_size=0
        )
        answer = quepa.augmented_search(
            "transactions", "SELECT * FROM inventory", config=config
        )
        catalogue_objects = [
            k for k in answer.augmented_keys() if k.database == "catalogue"
        ]
        # Two catalogue fetches were planned; with every second call
        # failing, exactly one of them succeeded.
        assert len(catalogue_objects) == 1
        assert answer.stats.unavailable_databases == ("catalogue",)
        assert flaky.failures == 1
