"""Tests for the structured event journal and the slow-query log."""

import io
import json
import time

import pytest

from repro.core import Quepa
from repro.network import RealRuntime, centralized_profile
from repro.obs import SEVERITIES, EventJournal

QUERY = "SELECT * FROM inventory WHERE name LIKE '%wish%'"


# ---------------------------------------------------------------------------
# The journal itself
# ---------------------------------------------------------------------------


class TestEventJournal:
    def test_emit_assigns_monotonic_seq(self):
        journal = EventJournal()
        a = journal.emit("first", ts=1.0, detail="x")
        b = journal.emit("second", severity="warning", ts=2.0)
        assert (a.seq, b.seq) == (1, 2)
        assert a.attrs == {"detail": "x"}
        assert b.severity == "warning"
        assert len(journal) == 2

    def test_as_dict_is_json_ready(self):
        journal = EventJournal()
        journal.emit("k", ts=0.5, database="catalogue", n=3)
        payload = json.dumps(journal.as_dicts())
        assert "catalogue" in payload

    def test_unknown_severity_rejected(self):
        journal = EventJournal()
        with pytest.raises(ValueError):
            journal.emit("k", severity="fatal")
        with pytest.raises(ValueError):
            journal.events(min_severity="loud")
        assert SEVERITIES == ("debug", "info", "warning", "error")

    def test_ring_evicts_oldest_and_counts_drops(self):
        journal = EventJournal(max_events=3)
        for i in range(5):
            journal.emit("tick", ts=float(i), i=i)
        stats = journal.stats()
        assert stats == {
            "size": 3, "capacity": 3, "emitted": 5, "dropped": 2,
        }
        # The survivors are the newest three, oldest first.
        assert [e.attrs["i"] for e in journal.events()] == [2, 3, 4]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            EventJournal(max_events=0)

    def test_filters_by_kind_severity_and_limit(self):
        journal = EventJournal()
        journal.emit("slow_query", severity="warning", ts=1.0)
        journal.emit("lazy_deletion", severity="info", ts=2.0)
        journal.emit("slow_query", severity="warning", ts=3.0)
        journal.emit("broken", severity="error", ts=4.0)
        assert len(journal.events(kind="slow_query")) == 2
        assert [e.kind for e in journal.events(min_severity="warning")] == [
            "slow_query", "slow_query", "broken",
        ]
        # limit keeps the newest events.
        limited = journal.events(min_severity="warning", limit=1)
        assert [e.kind for e in limited] == ["broken"]
        assert journal.events(limit=0) == []

    def test_limit_above_the_held_count_returns_everything(self):
        # 30 held, 50 asked (the ``repro events`` default): all 30,
        # the oldest included.
        journal = EventJournal()
        for i in range(30):
            journal.emit("tick", ts=float(i), i=i)
        assert [e.attrs["i"] for e in journal.events(limit=50)] == list(
            range(30)
        )

    def test_clear_keeps_counters(self):
        journal = EventJournal()
        journal.emit("k")
        journal.clear()
        assert len(journal) == 0
        assert journal.stats()["emitted"] == 1


class TestJsonlSink:
    def test_path_sink_mirrors_events(self, tmp_path):
        path = tmp_path / "events.jsonl"
        journal = EventJournal()
        journal.attach_sink(str(path))
        journal.emit("slow_query", severity="warning", ts=1.5, database="d")
        journal.emit("done", ts=2.0)
        journal.close_sink()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["kind"] == "slow_query"
        assert first["attrs"]["database"] == "d"

    def test_sink_appends_across_attachments(self, tmp_path):
        path = tmp_path / "events.jsonl"
        journal = EventJournal()
        journal.attach_sink(str(path))
        journal.emit("a")
        journal.close_sink()
        journal.attach_sink(str(path))
        journal.emit("b")
        journal.close_sink()
        assert len(path.read_text().splitlines()) == 2

    def test_caller_owned_file_object_not_closed(self):
        buffer = io.StringIO()
        journal = EventJournal()
        journal.attach_sink(buffer)
        journal.emit("k", ts=1.0)
        journal.close_sink()
        assert not buffer.closed
        assert json.loads(buffer.getvalue())["kind"] == "k"

    def test_events_before_attach_are_not_mirrored(self, tmp_path):
        path = tmp_path / "events.jsonl"
        journal = EventJournal()
        journal.emit("early")
        journal.attach_sink(str(path))
        journal.emit("late")
        journal.close_sink()
        lines = path.read_text().splitlines()
        assert [json.loads(line)["kind"] for line in lines] == ["late"]


# ---------------------------------------------------------------------------
# Pipeline wiring
# ---------------------------------------------------------------------------


class TestPipelineEvents:
    def test_augmentation_completed_event(self, mini_quepa):
        answer = mini_quepa.augmented_search("transactions", QUERY, level=1)
        events = mini_quepa.obs.events.events(kind="augmentation_completed")
        assert len(events) == 1
        event = events[0]
        assert event.severity == "info"
        assert event.attrs["database"] == "transactions"
        assert event.attrs["level"] == 1
        assert event.attrs["augmenter"] == answer.stats.augmenter
        assert event.attrs["elapsed_s"] == answer.stats.elapsed
        assert event.attrs["queries"] == answer.stats.queries_issued

    def test_slow_query_log_off_by_default(self, mini_quepa):
        assert mini_quepa.obs.slow_query_threshold is None
        mini_quepa.augmented_search("transactions", QUERY, level=1)
        assert mini_quepa.obs.events.events(kind="slow_query") == []

    def test_slow_query_captured_with_query_text(
        self, mini_polystore, mini_aindex
    ):
        """Acceptance: a deliberately slow store call lands in the journal
        with the store name, the native query text and the elapsed time."""
        profile = centralized_profile(list(mini_polystore))
        quepa = Quepa(
            mini_polystore, mini_aindex, runtime=RealRuntime(profile)
        )
        quepa.obs.slow_query_threshold = 0.01
        store = mini_polystore.database("transactions")
        original = store.execute

        def slow_execute(query):
            time.sleep(0.03)
            return original(query)

        store.execute = slow_execute
        quepa.augmented_search("transactions", QUERY, level=1)
        slow = quepa.obs.events.events(kind="slow_query")
        assert slow, "the slowed store call must be journaled"
        by_database = {event.attrs["database"] for event in slow}
        assert "transactions" in by_database
        local = next(
            e for e in slow if e.attrs["database"] == "transactions"
        )
        assert local.severity == "warning"
        assert "SELECT * FROM inventory" in local.attrs["query"]
        assert local.attrs["elapsed_s"] >= 0.01

    def test_virtual_slow_query_threshold_uses_virtual_time(self, mini_quepa):
        """Under the virtual runtime the threshold compares *virtual*
        elapsed store time, so the log is deterministic."""
        mini_quepa.obs.slow_query_threshold = 0.0  # everything is "slow"
        mini_quepa.augmented_search("transactions", QUERY, level=1)
        slow = mini_quepa.obs.events.events(kind="slow_query")
        assert len(slow) >= 1
        for event in slow:
            assert event.attrs["database"]
            assert event.attrs["elapsed_s"] >= 0.0
            assert isinstance(event.attrs["query"], str)
