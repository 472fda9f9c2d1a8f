"""What a warm restart restores instead of re-deriving.

The incremental collector's snapshot state carries each tracked key's
tokens with the ``min_token_length`` they were cut with, so a restart
files them instead of re-reading and re-tokenising every object; a
state without them (written before they were persisted) or cut with
other settings is re-tokenised. Keys are read once per load and are the
keys the loaded stores hand out. Either way the restored maintainer is
the live one, and so is the index it goes on maintaining.
"""

from __future__ import annotations

import json
import random

from repro.cdc import ChangeHub, IncrementalCollector
from repro.collector.collector import CollectorSettings
from repro.core.aindex import AIndex
from repro.persistence import WriteAheadLog, load_snapshot_bundle
from repro.persistence.snapshot import key_reader

from tests.test_cdc_props import (
    Driver,
    batch_signature,
    build_polystore,
    index_signature,
    make_matcher,
)


def live_hub(tmp_path, writes=20, seed=5):
    """A hub that bootstrapped, took writes and pumped them, with a WAL."""
    polystore = build_polystore()
    hub = ChangeHub(
        polystore,
        AIndex(),
        IncrementalCollector(make_matcher()),
        wal=WriteAheadLog(tmp_path / "wal.jsonl"),
    )
    hub.bootstrap()
    driver = Driver(polystore, random.Random(seed))
    for __ in range(writes):
        driver.step()
    hub.pump()
    return hub


def maintainer_state(maintainer):
    return (
        maintainer._tokens,
        maintainer._buckets,
        maintainer._scored,
        maintainer._scored_by_key,
        maintainer._slot_rivals,
        maintainer._base,
        maintainer._base_adj,
    )


def loaded(payload, polystore, settings=None):
    maintainer = IncrementalCollector(make_matcher(), settings)
    maintainer.load_state(payload, polystore)
    return maintainer


class TestPersistedTokens:
    def test_the_state_carries_each_keys_sorted_tokens(self, tmp_path):
        hub = live_hub(tmp_path)
        payload = json.loads(json.dumps(hub.maintainer.dump_state()))
        assert payload["min_token_length"] == 3
        assert payload["tokens"] == {
            str(key): " ".join(sorted(tokens))
            for key, tokens in hub.maintainer._tokens.items()
        }

    def test_restored_tokens_equal_the_live_and_the_rescanned_state(
        self, tmp_path
    ):
        hub = live_hub(tmp_path)
        payload = json.loads(json.dumps(hub.maintainer.dump_state()))
        restored = loaded(payload, hub.polystore)
        older = dict(payload)
        del older["tokens"], older["min_token_length"]
        rescanned = loaded(older, hub.polystore)
        assert maintainer_state(restored) == maintainer_state(hub.maintainer)
        assert maintainer_state(rescanned) == maintainer_state(hub.maintainer)

    def test_tokens_cut_with_other_settings_are_recut(self, tmp_path):
        hub = live_hub(tmp_path)
        payload = json.loads(json.dumps(hub.maintainer.dump_state()))
        settings = CollectorSettings(min_token_length=5)
        restored = loaded(payload, hub.polystore, settings)
        fresh = IncrementalCollector(make_matcher(), settings)
        fresh.bootstrap(hub.polystore, AIndex())
        assert restored._tokens == fresh._tokens
        assert restored._buckets == fresh._buckets
        assert all(
            len(token) >= 5
            for tokens in restored._tokens.values()
            for token in tokens
        )

    def test_an_older_snapshot_restarts_to_the_live_index(self, tmp_path):
        hub = live_hub(tmp_path)
        hub.snapshot(tmp_path / "snap")
        state_path = tmp_path / "snap" / "cdc_state.json"
        state = json.loads(state_path.read_text())
        del state["tokens"], state["min_token_length"]
        state_path.write_text(json.dumps(state))
        driver = Driver(hub.polystore, random.Random(9))
        for __ in range(10):
            driver.step()
        hub.pump()
        restarted, stats = ChangeHub.warm_restart(
            tmp_path / "snap", make_matcher(), wal=hub.wal
        )
        assert stats["replayed_events"] > 0
        assert index_signature(restarted.aindex) == index_signature(hub.aindex)
        assert index_signature(restarted.aindex) == batch_signature(
            restarted.polystore
        )


class TestKeysReadOncePerLoad:
    def test_restored_keys_are_the_stores_own(self, tmp_path):
        hub = live_hub(tmp_path)
        hub.snapshot(tmp_path / "snap")
        bundle = load_snapshot_bundle(tmp_path / "snap")
        maintainer = loaded(bundle.cdc_state, bundle.polystore)
        handed_out = {
            obj.key: obj.key
            for name in bundle.polystore
            for obj in bundle.polystore.database(name).iter_objects()
        }
        nodes = list(bundle.aindex.nodes())
        assert nodes
        for key in nodes:
            if key in handed_out:
                assert key is handed_out[key]
        for key in maintainer._tokens:
            assert key is handed_out[key]
        for left, right in maintainer._scored:
            assert left is handed_out[left] and right is handed_out[right]

    def test_one_key_object_per_text(self, tmp_path):
        polystore = build_polystore()
        read = key_reader(polystore)
        key = read("catalogue.albums.d1")
        assert read("catalogue.albums.d1") is key
        assert key.database == "catalogue" and key.key == "d1"
        # A database the polystore does not hold still parses.
        other = read("elsewhere.c.k:1.2")
        assert (other.database, other.collection, other.key) == (
            "elsewhere", "c", "k:1.2"
        )
