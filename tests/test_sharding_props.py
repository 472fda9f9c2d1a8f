"""Property suite: a sharded deployment answers exactly like an
unsharded one.

The tentpole invariant of the sharding layer: partitioning is a
*physical* change — placement scheme, shard count and scatter-gather
routing must never alter the answer. Through ``Quepa``, originals are
compared as key sets; augmented objects as ``(key, probability)`` pairs
(rounded, since float summation order across shards is not fixed).
Native queries with ``ORDER BY`` / ``LIMIT`` / ``skip``, generated in
every engine's language, are compared row for row.
"""

from __future__ import annotations

import random

import pytest

from repro.core import Quepa
from repro.errors import QueryError
from repro.sharding import shard_aindex, shard_polystore
from repro.workloads import QueryWorkload

PLACEMENTS = ("hash", "range")
SHARD_COUNTS = (1, 2, 4)

#: The workload's query per database family, the graph's ``match``
#: with its ``limit`` included.
def _queries(workload):
    return [
        ("transactions", workload.query("transactions", 40, variant=1).query),
        ("catalogue", workload.query("catalogue", 40, variant=2).query),
        ("similar", workload.query("similar", 40).query),
        ("discount", workload.query("discount", 40, variant=0).query),
    ]


def _signature(answer):
    return (
        sorted(str(obj.key) for obj in answer.originals),
        sorted(
            (str(obj.key), round(obj.probability, 12))
            for obj in answer.augmented
        ),
    )


@pytest.fixture(scope="module")
def baseline(small_bundle):
    """Unsharded answers for every (query, level) the suite replays."""
    quepa = Quepa(small_bundle.polystore, small_bundle.aindex)
    workload = QueryWorkload(small_bundle)
    answers = {}
    for database, query in _queries(workload):
        for level in (0, 1):
            answer = quepa.augmented_search(database, query, level=level)
            answers[(database, str(query), level)] = _signature(answer)
    return answers


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_answers_match_unsharded(
    small_bundle, baseline, placement, shards
):
    polystore = shard_polystore(
        small_bundle.polystore, shards=shards, placement=placement
    )
    aindex = shard_aindex(small_bundle.aindex, shards=shards)
    quepa = Quepa(polystore, aindex)
    workload = QueryWorkload(small_bundle)
    for database, query in _queries(workload):
        for level in (0, 1):
            answer = quepa.augmented_search(database, query, level=level)
            assert _signature(answer) == baseline[
                (database, str(query), level)
            ], (
                f"{placement}/{shards}-shard answer diverged on "
                f"{database} at level {level}"
            )


@pytest.mark.parametrize("placement", PLACEMENTS)
def test_single_shard_matches_unsharded_virtual_time(
    small_bundle, placement
):
    """One shard is pass-through: not just the same answers, the same
    virtual elapsed time (the fig09-guard property, asserted directly)."""
    plain = Quepa(small_bundle.polystore, small_bundle.aindex)
    workload = QueryWorkload(small_bundle)
    query = workload.query("transactions", 40, variant=1).query
    expected = plain.augmented_search("transactions", query, level=1)

    polystore = shard_polystore(
        small_bundle.polystore, shards=1, placement=placement
    )
    quepa = Quepa(polystore, shard_aindex(small_bundle.aindex, shards=1))
    answer = quepa.augmented_search("transactions", query, level=1)
    assert _signature(answer) == _signature(expected)
    assert answer.stats.elapsed == expected.stats.elapsed
    assert answer.stats.queries_issued == expected.stats.queries_issued


@pytest.mark.parametrize("shards", (2, 4))
def test_hash_point_routing_prunes_partitions(small_bundle, shards):
    """Level-1 augmentation over hash placement scatters with per-key
    fan-out 1 — every non-owning partition is pruned, and the metrics
    registry records it."""
    polystore = shard_polystore(
        small_bundle.polystore, shards=shards, placement="hash"
    )
    quepa = Quepa(polystore, shard_aindex(small_bundle.aindex, shards=shards))
    workload = QueryWorkload(small_bundle)
    query = workload.query("transactions", 40, variant=1).query
    quepa.augmented_search("transactions", query, level=1)
    scanned = pruned = 0.0
    for entry in quepa.obs.metrics.snapshot():
        if entry["name"] == "shard_partitions_scanned_total":
            scanned += entry["value"]
        elif entry["name"] == "shard_partitions_pruned_total":
            pruned += entry["value"]
    assert scanned > 0
    assert pruned > 0


def test_range_point_routing_cannot_prune(small_bundle):
    """Range placement probes every shard on key fetches (the documented
    cost side of the trade-off) — nothing is pruned."""
    polystore = shard_polystore(
        small_bundle.polystore, shards=2, placement="range"
    )
    quepa = Quepa(polystore, shard_aindex(small_bundle.aindex, shards=2))
    workload = QueryWorkload(small_bundle)
    query = workload.query("transactions", 40, variant=1).query
    quepa.augmented_search("transactions", query, level=1)
    for entry in quepa.obs.metrics.snapshot():
        if entry["name"] == "shard_partitions_pruned_total":
            assert entry["value"] == 0.0


# -- windowed native queries, generated per language ---------------------------
#
# A case is ``(database, query, all_rows, sort_key)``: ``all_rows`` is the
# same query without its window (every row the window may draw from), and
# ``sort_key(obj, base)`` the ORDER BY values of an answer row, read off
# the unsharded store ``base`` (a projection may drop them).

def _sql_cases(rng):
    for __ in range(24):
        keys = rng.sample(["seq", "price", "artist", "stock", "name"], rng.randint(0, 2))
        select = rng.choice(["*", "id, name", "name AS n, price"])
        where = rng.choice(["", " WHERE seq >= 10 AND seq < 90", " WHERE price > 15"])
        order = ", ".join(f"{key}{rng.choice(['', ' DESC'])}" for key in keys)
        window = f" LIMIT {rng.randint(0, 12)}"
        if rng.random() < 0.5:
            window += f" OFFSET {rng.randint(1, 30)}"
        base = f"SELECT {select} FROM inventory{where}"
        if order:
            base += f" ORDER BY {order}"
        yield ("transactions", base + window, base,
               lambda obj, store, keys=keys: tuple(
                   store.get_value(obj.key.collection, obj.key.key)[key]
                   for key in keys
               ))
    # ORDER BY an alias, one shadowing its column, and an expression.
    for select, order, key in [
        ("name AS n, price", "n DESC", "name"),
        ("price * 2 AS price, id", "price", "price"),
        ("id", "price * -1, id", "price"),
    ]:
        base = f"SELECT {select} FROM inventory ORDER BY {order}"
        yield ("transactions", f"{base} LIMIT 5 OFFSET 2", base,
               lambda obj, store, key=key: (
                   store.get_value(obj.key.collection, obj.key.key)[key],
               ))


def _document_cases(rng):
    for __ in range(24):
        fields = rng.sample(["seq", "year", "artist", "tracks", "title"], rng.randint(0, 2))
        query = {
            "collection": "albums",
            "filter": rng.choice([{}, {"seq": {"$gte": 10, "$lt": 90}},
                                  {"year": {"$gt": 2000}}]),
        }
        if fields:
            query["sort"] = [(field, rng.choice([1, -1])) for field in fields]
        if rng.random() < 0.5:
            query["projection"] = rng.choice([{"title": 1}, {"year": 0}])
        window = {"limit": rng.randint(0, 12)}
        if rng.random() < 0.5:
            window["skip"] = rng.randint(1, 30)
        yield ("catalogue", {**query, **window}, query,
               lambda obj, store, fields=fields: tuple(
                   store.get_value(obj.key.collection, obj.key.key).get(field)
                   for field in fields
               ))


def _cypher_cases(rng):
    for __ in range(24):
        props = rng.sample(["seq", "artist", "title"], rng.randint(0, 2))
        order = ", ".join(f"a.{prop}{rng.choice(['', ' DESC'])}" for prop in props)
        pattern = rng.choice(["(a:Item)", "(a)"])
        where = rng.choice(["", " WHERE a.seq < 80"])
        base = f"MATCH {pattern}{where} RETURN {rng.choice(['a', 'a, a.title'])}"
        if order:
            base += f" ORDER BY {order}"
        key = (lambda obj, store, props=props: tuple(
            obj.value.get(prop) for prop in props
        ))
        # A labelled pattern matches in node-id order: that breaks ties.
        if pattern == "(a:Item)":
            key = (lambda obj, store, key=key: (key(obj, store), obj.key.key))
        yield ("similar", f"{base} LIMIT {rng.randint(0, 12)}", base, key)


def _by_key(obj, store):
    return obj.key.key


def _unordered(obj, store):
    return ()


def _other_cases():
    for limit in (0, 7, 40):
        yield ("similar", {"op": "match", "label": "Item", "limit": limit},
               {"op": "match", "label": "Item"}, _by_key)
        yield ("similar", {"op": "match", "limit": limit}, {"op": "match"},
               _unordered)
    for pattern in ("KEYS disc:1*", "disc:*"):
        yield ("discount", pattern, pattern, _by_key)
    mget = "MGET disc:3 nope disc:1 disc:3"  # the order asked, repeats kept
    yield ("discount", mget, mget, _by_key)


def _windowed_cases():
    rng = random.Random(28)
    return [
        *_sql_cases(rng), *_document_cases(rng), *_cypher_cases(rng),
        *_other_cases(),
    ]


def _rows(objects):
    return [(str(obj.key), obj.value) for obj in objects]


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_windowed_queries_match_unsharded(small_bundle, placement, shards):
    """Sharded ≡ unsharded row for row. Where the order is not total —
    ties, or no order any shard knows (an unlabelled ``match``, a LIMIT
    without ORDER BY) — the answer has the unsharded length and sort-key
    sequence, and every row is a row of the unwindowed answer."""
    polystore = shard_polystore(
        small_bundle.polystore, shards=shards, placement=placement
    )
    exact = 0
    for database, query, unwindowed, key in _windowed_cases():
        plain = small_bundle.polystore.database(database)
        expected = plain.execute(query)
        got = polystore.database(database).execute(query)
        candidates = plain.execute(unwindowed)
        keys = [key(obj, plain) for obj in candidates]
        if len(set(keys)) == len(keys) or shards == 1:
            exact += 1
            assert _rows(got) == _rows(expected), (placement, shards, query)
            continue
        assert [key(obj, plain) for obj in got] == [
            key(obj, plain) for obj in expected
        ], (placement, shards, query)
        drawn = [obj.value for obj in candidates]
        assert all(obj.value in drawn for obj in got), (placement, shards, query)
    assert exact > 20  # the generator produced total orders too


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize(
    ("database", "query"),
    [
        ("transactions", "SELECT COUNT(*) FROM inventory"),
        ("transactions", "SELECT DISTINCT artist FROM inventory"),
        ("transactions",
         "SELECT a.id FROM inventory a JOIN inventory b ON a.id = b.id"),
        ("transactions", "DELETE FROM inventory WHERE seq < 0"),
        ("similar", "MATCH (a:Item) RETURN a.title ORDER BY a.seq LIMIT 3"),
        ("similar", "MATCH (a:Item)-[r]->(b) RETURN b LIMIT 3"),
        ("discount", "SCAN 0"),
    ],
)
def test_unmergeable_queries_are_refused(small_bundle, placement, database, query):
    """Per-shard rows are never an answer: two shards refuse what does
    not merge (aggregates, DISTINCT, joins, writes, property rows, a
    SCAN cursor); one shard is the engine itself."""
    plain = small_bundle.polystore.database(database)
    for shards in (1, 2):
        store = shard_polystore(
            small_bundle.polystore, shards=shards, placement=placement
        ).database(database)
        if shards == 1 and not query.startswith(("DELETE", "SCAN")):
            assert _rows(store.execute(query)) == _rows(plain.execute(query))
        elif shards > 1:
            with pytest.raises(QueryError):
                store.execute(query)

