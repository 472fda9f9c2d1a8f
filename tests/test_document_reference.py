"""Differential testing of the document store against naive filtering."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stores import DocumentStore
from repro.stores.document.query import matches_filter

_DOCS = st.lists(
    st.fixed_dictionaries(
        {
            "year": st.one_of(st.none(), st.integers(1980, 2020)),
            "plays": st.integers(0, 100),
            "genre": st.sampled_from(["rock", "pop", "jazz"]),
            "tags": st.lists(
                st.sampled_from(["live", "remix", "mono"]), max_size=3
            ),
        }
    ),
    max_size=20,
)

_FILTERS = st.one_of(
    st.builds(lambda k: {"plays": {"$gte": k}}, st.integers(0, 100)),
    st.builds(lambda g: {"genre": g}, st.sampled_from(["rock", "pop", "jazz"])),
    st.builds(lambda t: {"tags": t}, st.sampled_from(["live", "remix"])),
    st.builds(
        lambda a, b: {"year": {"$gte": min(a, b), "$lte": max(a, b)}},
        st.integers(1980, 2020),
        st.integers(1980, 2020),
    ),
    st.builds(lambda: {"year": {"$exists": True}}),
    # Ranges an ordered path serves, on a field every document holds and
    # on one some documents lack.
    st.builds(
        lambda a, b: {"plays": {"$gt": a, "$lte": b}},
        st.integers(0, 100), st.floats(0, 100, allow_nan=False),
    ),
    st.builds(lambda y: {"year": {"$lt": y}, "genre": "rock"},
              st.integers(1980, 2020)),
    st.builds(
        lambda k, g: {"$or": [{"plays": {"$lt": k}}, {"genre": g}]},
        st.integers(0, 100),
        st.sampled_from(["rock", "jazz"]),
    ),
    # Negations over the optional field: documents without a ``year``
    # match them (ISSUE 22; the parent returned none of those).
    st.builds(lambda y: {"year": {"$ne": y}}, st.integers(1980, 2020)),
    st.builds(
        lambda a, b: {"year": {"$nin": [a, b]}},
        st.integers(1980, 2020),
        st.integers(1980, 2020),
    ),
    st.builds(lambda y: {"year": {"$not": {"$gte": y}}}, st.integers(1980, 2020)),
)


def build_store(docs) -> DocumentStore:
    store = DocumentStore()
    store.create_collection("c")
    for index, doc in enumerate(docs):
        payload = {k: v for k, v in doc.items() if v is not None}
        payload["_id"] = f"d{index}"
        store.insert("c", payload)
    return store


class TestFindVersusNaive:
    @given(_DOCS, _FILTERS)
    @settings(max_examples=120, deadline=None)
    def test_find_matches_python_filter(self, docs, query):
        store = build_store(docs)
        got = [d["_id"] for d in store.find("c", query)]
        expected = []
        for index, doc in enumerate(docs):
            payload = {k: v for k, v in doc.items() if v is not None}
            payload["_id"] = f"d{index}"
            if matches_filter(payload, query):
                expected.append(f"d{index}")
        assert got == expected  # in collection order, whatever the path

    @given(_DOCS, st.integers(1980, 2020), st.integers(1980, 2020))
    @settings(max_examples=60, deadline=None)
    def test_negations_match_plain_python_over_the_optional_year(
        self, docs, first, second
    ):
        store = build_store(docs)
        years = {f"d{i}": doc["year"] for i, doc in enumerate(docs)}

        def found(condition):
            return {d["_id"] for d in store.find("c", {"year": condition})}

        assert found({"$ne": first}) == {
            key for key, year in years.items() if year != first
        }
        assert found({"$nin": [first, second]}) == {
            key for key, year in years.items() if year not in (first, second)
        }
        assert found({"$not": {"$gte": first}}) == {
            key for key, year in years.items() if year is None or year < first
        }

    @given(_DOCS, _FILTERS)
    @settings(max_examples=60, deadline=None)
    def test_index_does_not_change_answers(self, docs, query):
        plain = build_store(docs)
        indexed = build_store(docs)
        indexed.create_index("c", "genre")
        indexed.create_index("c", "tags")
        # Element for element: an index probe returns collection order,
        # not its bucket's hash-seeded set order.
        assert indexed.find("c", query) == plain.find("c", query)

    @given(_DOCS, st.integers(0, 100), st.integers(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_a_range_examines_only_its_window(self, docs, low, high):
        store = build_store(docs)
        store.stats.reset()
        got = store.find("c", {"plays": {"$gte": low, "$lt": high}})
        assert [d["_id"] for d in got] == [
            f"d{i}" for i, doc in enumerate(docs) if low <= doc["plays"] < high
        ]
        assert store.stats.rows_examined == len(got)

    @given(_DOCS, st.integers(0, 10), st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_sort_skip_limit_window(self, docs, skip, limit):
        store = build_store(docs)
        everything = store.find("c", sort=[("plays", 1), ("_id", 1)])
        window = store.find(
            "c", sort=[("plays", 1), ("_id", 1)], skip=skip, limit=limit
        )
        assert window == everything[skip:skip + limit]

    @given(_DOCS)
    @settings(max_examples=60, deadline=None)
    def test_count_matches_len_find(self, docs):
        store = build_store(docs)
        assert store.count("c", {"genre": "rock"}) == len(
            store.find("c", {"genre": "rock"})
        )


class TestScanGuarantee:
    @given(st.sets(st.text("abcz", min_size=1, max_size=4), max_size=30),
           st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_scan_returns_every_stable_key(self, keys, count):
        from repro.stores import KeyValueStore

        store = KeyValueStore()
        for key in keys:
            store.set(key, "v")
        seen: set[str] = set()
        cursor = 0
        for __ in range(1000):
            cursor, page = store.scan(cursor, count=count)
            seen.update(page)
            if cursor == 0:
                break
        assert seen == keys
