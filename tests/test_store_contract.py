"""The store state contract, one suite over every kind of ``Store``.

``dump_state`` / ``load_state`` / ``empty_like`` / ``records`` /
``apply_change`` are what snapshots, WAL replay, CDC and partitioning
ask of a store, so they are checked once here — over the four engines,
``ShardedStore`` under both placements and ``FlakyStore`` — instead of
once per consumer. The central property is the inverse one:
``apply_change`` undoes ``_emit_change``, so replaying the feed a store
captured into ``empty_like()`` reproduces ``dump_state()`` exactly.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cdc.feed import ChangeEvent, ChangeFeed
from repro.errors import ConfigurationError, KeyNotFoundError
from repro.model import Polystore
from repro.persistence import save_snapshot
from repro.persistence.snapshot import SnapshotError
from repro.persistence.wal import WalError
from repro.persistence.wal import apply_change as wal_apply
from repro.sharding import (
    HashScheme,
    RangeScheme,
    partition_store,
    shard_polystore,
)
from repro.stores import (
    ENGINES,
    DocumentStore,
    GraphStore,
    KeyValueStore,
    RelationalStore,
    Store,
)
from repro.stores.relational.types import Column, ColumnType, TableSchema
from repro.testing import FlakyStore
from repro.workloads import PolystoreScale, build_polyphony

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

DATABASES = {
    "relational": "transactions",
    "document": "catalogue",
    "graph": "similar",
    "keyvalue": "discount",
}
WRAPS = {
    "plain": lambda store: store,
    "hash": lambda store: partition_store(store, HashScheme(3)),
    "range": lambda store: partition_store(store, RangeScheme(3)),
    "flaky": lambda store: FlakyStore(store, fail_every=10**9),
}
KINDS = [f"{engine}-{wrap}" for engine in DATABASES for wrap in WRAPS]


def make(kind: str):
    """A populated store of one kind, cut from a generated bundle."""
    engine, wrap = kind.split("-")
    bundle = build_polyphony(
        stores=4, scale=PolystoreScale(n_albums=24), seed=5, with_aindex=False
    )
    return WRAPS[wrap](bundle.polystore.database(DATABASES[engine]))


@pytest.fixture(params=KINDS)
def store(request):
    return make(request.param)


def canonical(payload: dict) -> dict:
    """A payload with graph edges as a multiset: edge ids are local to
    a store, so a reload may renumber (and so reorder) them."""
    if "edges" in payload:
        edges = sorted(json.dumps(e, sort_keys=True) for e in payload["edges"])
        return {**payload, "edges": edges}
    return payload


def objects(store) -> dict:
    return {(c, k): v for c, k, v in store.records() if c != "_edge"}


class TestContract:
    def test_engines_table_names_the_four_engines(self):
        assert ENGINES == {
            "relational": RelationalStore,
            "document": DocumentStore,
            "graph": GraphStore,
            "keyvalue": KeyValueStore,
        }

    def test_load_of_dump_preserves_objects_schemas_and_indexes(self, store):
        payload = store.dump_state()
        clone = store.load_state(payload)
        assert type(clone) is type(store)
        assert objects(clone) == objects(store)
        # Schemas and secondary indexes are part of the payload.
        assert canonical(clone.dump_state()) == canonical(payload)
        if store.engine in ("relational", "document"):
            (specs,) = payload.values()  # "tables" / "collections"
            assert any(spec["indexes"] for spec in specs.values())

    def test_a_wrapper_dumps_its_engines_ordinary_payload(self, store):
        """Sharding and fault injection are not persisted: the payload
        loads as a plain engine store with the same objects."""
        plain = ENGINES[store.engine].load_state(store.dump_state())
        assert type(plain) in ENGINES.values()
        assert objects(plain) == objects(store)

    def test_empty_like_keeps_schema_and_indexes_only(self, store):
        empty = store.empty_like()
        assert type(empty) is type(store)
        assert list(empty.records()) == []
        payload, blank = store.dump_state(), empty.dump_state()
        if store.engine == "relational":
            assert {
                name: (spec["schema"], spec["indexes"])
                for name, spec in blank["tables"].items()
            } == {
                name: (spec["schema"], spec["indexes"])
                for name, spec in payload["tables"].items()
            }
        if store.engine == "document":
            assert {
                name: spec["indexes"]
                for name, spec in blank["collections"].items()
            } == {
                name: spec["indexes"]
                for name, spec in payload["collections"].items()
            }
        if store.engine == "keyvalue":
            assert blank["keyspace"] == payload["keyspace"]

    def test_apply_change_twice_is_once(self, store):
        """Data objects upsert. (Graph edges have no identity across
        stores — re-applying an ``_edge`` adds a parallel edge, as WAL
        replay always did — so the property is about objects.)"""
        once, twice = store.empty_like(), store.empty_like()
        for collection, key, value in store.records():
            if collection == "_edge":
                continue
            once.apply_change("append", collection, key, value)
            twice.apply_change("append", collection, key, value)
            twice.apply_change("update", collection, key, value)
        assert once.dump_state() == twice.dump_state()
        assert objects(once) == objects(store)

    def test_delete_of_a_missing_key_is_a_noop(self, store):
        before = store.dump_state()
        collection = next(iter(store.records()))[0]
        store.apply_change("delete", collection, "no-such-key")
        assert store.dump_state() == before

    def test_apply_change_is_an_ordinary_write(self, store):
        """It goes through the engine's own write methods: a feed
        attached to the target sees it and ``stats.writes`` counts it
        (on the engine that took it, for a wrapper)."""
        collection, key, value = next(iter(store.records()))
        target = store.empty_like()
        target.changes = feed = ChangeFeed("db")
        parts = getattr(target, "shards", [getattr(target, "inner", target)])
        target.apply_change("append", collection, key, value)
        assert [(e.op, e.collection, e.key) for e in feed] == [
            ("append", collection, key)
        ]
        assert feed.read_since()[0].value == value
        # (A key-value DEL counts as a write even when it finds nothing,
        # so range placement's sweep of the other shards adds to it.)
        assert sum(part.stats.writes for part in parts) >= 1

    def test_a_store_without_the_contract_says_so(self, tmp_path):
        """Key access is all the paper asks of a store; one that stops
        there still attaches and answers, and each consumer of the
        state contract refuses it with its own error."""
        bare = KeyOnly()
        assert list(bare.records()) == []  # the generic traversal
        for call in (bare.dump_state, bare.empty_like,
                     lambda: bare.load_state({}),
                     lambda: bare.apply_change("append", "c", "k", 1)):
            with pytest.raises(NotImplementedError):
                call()
        polystore = Polystore()
        polystore.attach("bespoke", bare)
        with pytest.raises(SnapshotError, match="'keyonly' of 'bespoke'"):
            save_snapshot(tmp_path / "snap", polystore)
        with pytest.raises(WalError, match="'keyonly'"):
            wal_apply(polystore, ChangeEvent(1, "bespoke", "append", "c", "k"))
        with pytest.raises(ConfigurationError, match="'keyonly'"):
            partition_store(bare, HashScheme(2))


class KeyOnly(Store):
    """The minimal contract of ``stores/base.py`` and nothing else."""

    engine = "keyonly"

    def execute(self, query):
        return []

    def get_value(self, collection, key):
        raise KeyNotFoundError(f"{collection}.{key}")

    def collections(self):
        return []

    def collection_keys(self, collection):
        return iter(())


class TestPartitioning:
    @pytest.mark.parametrize("placement", ["hash", "range"])
    @pytest.mark.parametrize("engine", list(DATABASES))
    def test_merged_dump_equals_the_original(self, engine, placement):
        original = make(f"{engine}-plain")
        sharded = WRAPS[placement](original)
        assert sum(s.count_objects() for s in sharded.shards) == (
            original.count_objects()
        )
        assert objects(sharded) == objects(original)
        merged, payload = sharded.dump_state(), original.dump_state()
        if engine == "graph":
            # Cut edges excepted, and counted.
            kept, had = canonical(merged)["edges"], canonical(payload)["edges"]
            assert set(kept) <= set(had)
            assert len(had) - len(kept) == sharded.cut_edges
            merged, payload = merged["nodes"], payload["nodes"]
        assert merged == payload

    def test_every_shard_carries_schema_and_indexes(self):
        original = make("relational-plain")
        blank = original.empty_like().dump_state()
        for shard in WRAPS["hash"](original).shards:
            assert shard.empty_like().dump_state() == blank

    def test_split_cost_stays_near_the_parents(self, monkeypatch):
        """``shard_polystore`` into empty shards writes each object once,
        under both placements: one ``append`` on one shard, and no
        ``delete`` on any. The per-engine splitters it replaced made
        exactly those writes; the routed ``ShardedStore.apply_change``,
        which first drops a previous holder from every other candidate
        shard, took 2.2x the old hash split. Counted, not timed, so the
        check is the same on every host."""
        polystore = build_polyphony(
            stores=4, scale=PolystoreScale(n_albums=200), seed=7,
            with_aindex=False,
        ).polystore
        objects = {
            (name, collection, key)
            for name, store in polystore.databases.items()
            for collection, key, __ in store.records()
            if collection != "_edge"
        }
        writes: list[tuple[str, str, str, str]] = []
        for engine in (RelationalStore, DocumentStore, GraphStore,
                       KeyValueStore):
            monkeypatch.setattr(
                engine, "apply_change", counted(engine.apply_change, writes)
            )
        for placement in ("hash", "range"):
            writes.clear()
            sharded = shard_polystore(polystore, 4, placement)
            object_writes = [write for write in writes if write[2] != "_edge"]
            assert [op for op, *__ in object_writes] == (
                ["append"] * len(objects)
            ), placement
            assert {
                (database, collection, key)
                for __, database, collection, key in object_writes
            } == objects, placement
            assert not [op for op, *__ in writes if op != "append"], placement
            for name, store in polystore.databases.items():
                assert sum(
                    shard.count_objects()
                    for shard in sharded.database(name).shards
                ) == store.count_objects(), placement


def counted(apply_change, writes):
    """``apply_change`` that first appends ``(op, the store's database
    name, collection, key)`` to ``writes``."""

    def wrapper(store, op, collection, key, value=None):
        writes.append((op, store.database_name, collection, key))
        return apply_change(store, op, collection, key, value)

    return wrapper


# -- the inverse property ----------------------------------------------------

KEYS = st.sampled_from([f"k{i}" for i in range(6)])
SEQS = st.integers(0, 29)
NAMES = st.sampled_from(["Wish", "Doolittle", "Low", "Heroes"])


def _relational():
    store = RelationalStore()
    store.create_table("items", TableSchema(
        columns=[
            Column("id", ColumnType.TEXT, nullable=False),
            Column("seq", ColumnType.INTEGER),
            Column("name", ColumnType.TEXT),
        ],
        primary_key="id",
    ))
    store.table("items").create_index("name")
    return store


def _document():
    store = DocumentStore()
    store.create_collection("items")
    store.create_index("items", "name")
    return store


# Per engine: its *native* put / drop (SQL, Mongo update operators,
# node writes, SET / DEL) — no ``apply_change`` on this side.


def _put_row(store, key, seq, name):
    if key in set(store.collection_keys("items")):
        store.sql(
            f"UPDATE items SET seq = {seq}, name = '{name}' WHERE id = '{key}'"
        )
    else:
        store.sql(
            f"INSERT INTO items (id, seq, name) VALUES ('{key}', {seq}, '{name}')"
        )


def _put_document(store, key, seq, name):
    if key not in set(store.collection_keys("items")):
        store.insert("items", {"_id": key, "seq": seq, "name": name})
    elif name == "Low":  # a removed field must stay removed on replay
        store.update_one(
            "items", key, {"$set": {"seq": seq}, "$unset": {"name": 1}}
        )
    else:
        store.update_one("items", key, {"$set": {"seq": seq, "name": name}})


def _put_node(store, key, seq, name):
    if key in set(store.collection_keys("Item")):
        store.update_node(key, {"seq": seq, "name": name})
    else:
        store.create_node("Item", {"seq": seq, "name": name}, node_id=key)


NATIVE = {
    "relational": (
        _relational,
        _put_row,
        lambda store, key: store.sql(f"DELETE FROM items WHERE id = '{key}'"),
    ),
    "document": (
        _document,
        _put_document,
        lambda store, key: store.delete_one("items", key),
    ),
    "graph": (
        GraphStore,
        _put_node,
        lambda store, key: store.delete_node(key),
    ),
    "keyvalue": (
        lambda: KeyValueStore(keyspace="drop"),
        lambda store, key, seq, name: store.command(f"SET {key} {name}:{seq}"),
        lambda store, key: store.command(f"DEL {key}"),
    ),
}

#: Per engine: a native range over ``seq`` that its ordered path serves,
#: and the same range in a form no path serves (so the store scans).
RANGES = {
    "relational": lambda low, high: (
        f"SELECT * FROM items WHERE seq >= {low} AND seq < {high}",
        f"SELECT * FROM items WHERE (seq >= {low} AND seq < {high}) "
        "OR id IS NULL",
    ),
    "document": lambda low, high: (
        {"collection": "items", "filter": {"seq": {"$gte": low, "$lt": high}}},
        {"collection": "items",
         "filter": {"$and": [{"seq": {"$gte": low, "$lt": high}}]}},
    ),
    "graph": lambda low, high: (
        f"MATCH (n:Item) WHERE n.seq >= {low} AND n.seq < {high} RETURN n",
        f"MATCH (n:Item) WHERE NOT (NOT (n.seq >= {low} AND n.seq < {high})) "
        "RETURN n",
    ),
}

MACHINE_WRAPS = {
    **WRAPS,
    # Fixed cuts: the machine starts from an empty store, nothing to fit.
    "range": lambda store: partition_store(
        store, RangeScheme(3, boundaries=[10, 20])
    ),
}


class InverseMachine(RuleBasedStateMachine):
    """Native writes as rules; after every step, replaying the captured
    feed into ``empty_like()`` reproduces ``dump_state()`` exactly.

    A plain engine is written natively and captures its own feed. A
    wrapper has no native write language, so a plain *shadow* engine
    takes the native writes and every event it captures is landed on
    the wrapper through the routed ``apply_change`` — which makes the
    shadow the oracle for the wrapper's objects as well.
    """

    engine = "relational"
    wrap = "plain"

    def __init__(self):
        super().__init__()
        new, self.put_native, self.drop_native = NATIVE[self.engine]
        self.shadow = self.store = new()
        self.shadow.changes = ChangeFeed("shadow")
        if self.wrap != "plain":
            self.store = MACHINE_WRAPS[self.wrap](new())
            self.store.changes = ChangeFeed("db")

    def _forward(self):
        if self.store is self.shadow:
            return
        for event in self.shadow.changes.read_since():
            self.store.apply_change(
                event.op, event.collection, event.key, event.value
            )
            self.shadow.changes.ack(event.seq)

    @rule(key=KEYS, seq=SEQS, name=NAMES)
    def put(self, key, seq, name):
        self.put_native(self.shadow, key, seq, name)
        self._forward()

    @rule(key=KEYS)
    def drop(self, key):
        self.drop_native(self.shadow, key)
        self._forward()

    @rule(a=KEYS, b=KEYS)
    def link(self, a, b):
        if self.engine == "graph" and {a, b} <= set(
            self.shadow.collection_keys("Item")
        ):
            self.shadow.create_edge(a, "SIMILAR", b, {"weight": 0.5})
            self._forward()

    @rule(low=SEQS, high=SEQS)
    def a_range_reads_the_scans_rows(self, low, high):
        """The ordered path answers as the scan does, in the scan's order,
        and holds exactly the shadow's objects in the window — through
        every wrapper, whose shards each derive their own paths."""
        if self.engine not in RANGES:
            return
        served, scanned = RANGES[self.engine](low, high)
        got = [obj.key.key for obj in self.store.execute(served)]
        assert got == [obj.key.key for obj in self.store.execute(scanned)]
        assert sorted(got) == sorted(
            key for (__, key), value in objects(self.shadow).items()
            if low <= value["seq"] < high
        )

    @invariant()
    def replaying_the_feed_reproduces_the_dump(self):
        replayed = self.store.empty_like()
        for event in self.store.changes:  # never acked: the whole history
            replayed.apply_change(
                event.op, event.collection, event.key, event.value
            )
        assert replayed.dump_state() == self.store.dump_state()

    @invariant()
    def every_object_is_held_once_and_is_the_shadows(self):
        held = [
            (collection, key)
            for shard in getattr(self.store, "shards", ())
            for collection, key, __ in shard.records()
            if collection != "_edge"
        ]
        assert len(held) == len(set(held))
        assert objects(self.store) == objects(self.shadow)


def _machine_case(engine: str, wrap: str):
    machine = type(
        f"Machine_{engine}_{wrap}", (InverseMachine,),
        {"engine": engine, "wrap": wrap},
    )
    machine.TestCase.settings = settings(
        max_examples=12, stateful_step_count=30, deadline=None
    )
    return machine.TestCase


TestInverseRelational = _machine_case("relational", "plain")
TestInverseDocument = _machine_case("document", "plain")
TestInverseGraph = _machine_case("graph", "plain")
TestInverseKeyValue = _machine_case("keyvalue", "plain")
TestInverseShardedHashRelational = _machine_case("relational", "hash")
TestInverseShardedHashGraph = _machine_case("graph", "hash")
TestInverseShardedRangeDocument = _machine_case("document", "range")
TestInverseShardedRangeGraph = _machine_case("graph", "range")
TestInverseFlakyKeyValue = _machine_case("keyvalue", "flaky")
TestInverseFlakyRelational = _machine_case("relational", "flaky")


# -- the payload is pinned ---------------------------------------------------

#: sha256 of every ``db_*.json`` of ``build_polyphony(stores=4,
#: n_albums=60, seed=7)``, computed at the parent commit (the per-engine
#: ``_dump_*`` functions in ``persistence/snapshot.py``) under
#: ``PYTHONHASHSEED=0``. ``workloads/music.py`` derives ``artist_id``
#: from the salted ``hash()``, so ``db_catalogue.json`` is only
#: reproducible under a fixed hash seed — hence the subprocess.
PINNED = {
    "db_catalogue.json":
        "1998781bad2d667b792927154aecb4b59236c443caf1a18712a242bc1fd52b18",
    "db_discount.json":
        "ee7e2ba8d619b85e8347030f38894f275f2863c2f996bcc4667a038c510799dd",
    "db_similar.json":
        "2e5509806fe54c446cb4c4bb3f7809b56da1778d8a477fdcb0f503d68f00d0da",
    "db_transactions.json":
        "7067be5e6164f4b9c595c2b7e429e77b62072b71b0d0a6dd6839aa08f13d78e1",
}

_PIN_SCRIPT = """
import hashlib, json, sys, tempfile
from pathlib import Path
from repro.persistence import save_snapshot
from repro.workloads import PolystoreScale, build_polyphony

bundle = build_polyphony(stores=4, scale=PolystoreScale(n_albums=60), seed=7)
with tempfile.TemporaryDirectory() as directory:
    save_snapshot(directory, bundle.polystore, bundle.aindex)
    print(json.dumps({
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(directory).glob("db_*.json"))
    }))
"""


def test_snapshot_payload_bytes_are_the_parents():
    env = {
        **os.environ,
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": str(ROOT / "src"),
    }
    result = subprocess.run(
        [sys.executable, "-c", _PIN_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(result.stdout) == PINNED


# -- structural guard --------------------------------------------------------

PRIVATE = {
    "_nodes", "_edges", "_indexes", "_rows", "_tables", "_collections",
    "_data", "_by_label",
}
ENGINE_CLASSES = {cls.__name__ for cls in ENGINES.values()}
PER_ENGINE = re.compile(
    r"_(dump|load|apply|split)_(relational|document|graph|keyvalue)$"
)


def _outside_modules():
    """Every module under ``src/repro`` that must not know an engine's
    insides: all but ``repro/stores/`` itself and ``repro/workloads/``
    (which *builds* stores through their public native APIs)."""
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if not relative.startswith(("stores/", "workloads/")):
            yield relative, ast.parse(path.read_text())


class TestEnginesOwnTheirState:
    """Structural guard, in the style of
    ``tests/test_reports.py::TestOneBuilder``: an engine's layout is
    known inside ``repro/stores/`` and nowhere else."""

    def test_no_private_store_attribute_is_read_outside_stores(self):
        offenders = [
            f"{module}:{node.lineno} .{node.attr}"
            for module, tree in _outside_modules()
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in PRIVATE
            # A class's own ``self._data`` is its own business.
            and not (isinstance(node.value, ast.Name)
                     and node.value.id in ("self", "cls"))
        ]
        assert offenders == []

    def test_no_per_engine_state_function_outside_stores(self):
        offenders = [
            f"{module}:{node.name}"
            for module, tree in _outside_modules()
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and PER_ENGINE.search(node.name)
        ]
        assert offenders == []
        for gone in ("_DUMPERS", "_LOADERS"):
            assert gone not in (SRC / "persistence/snapshot.py").read_text()

    def test_no_concrete_engine_class_is_imported_outside_stores(self):
        def imports(tree, skip=()):
            for node in ast.walk(tree):
                if node in skip:
                    continue
                if isinstance(node, ast.ImportFrom):
                    module = node.module or ""
                    for alias in node.names:
                        if alias.name in ENGINE_CLASSES or re.match(
                            r"repro\.stores\.(relational\.engine|"
                            r"(document|graph|keyvalue)\.store)$", module
                        ):
                            yield f"{module}.{alias.name}"

        offenders = []
        for module, tree in _outside_modules():
            skip = set()
            if module == "cli.py":  # ``repro demo`` hand-builds Fig 1
                demo = next(
                    node for node in tree.body
                    if isinstance(node, ast.FunctionDef)
                    and node.name == "_demo"
                )
                skip = set(ast.walk(demo))
            offenders += [f"{module}: {name}" for name in imports(tree, skip)]
        assert offenders == []

    def test_nothing_outside_stores_compiles_a_native_expression(self):
        """ISSUE 22: a native expression is compiled and evaluated in
        ``repro/stores/`` and nowhere else. The validator may *parse*
        SQL (``parse_sql``); the compile entry points and the executor
        module stay inside."""
        entry_points = {
            "compile_statement", "compile_expr", "prepare_sql",
            "compile_filter", "matches_filter",
        }
        offenders = [
            f"{module}: {node.module}.{alias.name}"
            for module, tree in _outside_modules()
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if alias.name in entry_points
            or (node.module or "").endswith(
                ("relational.executor", "document.query")
            )
        ]
        assert offenders == []

    def test_state_dispatch_is_the_engines_table(self):
        """``persistence/`` and ``sharding/`` hold no engine ladder: no
        string comparison against ``engine`` names there, for state or
        for queries, and ``sharding/`` imports no store parser or
        compiler. ``core/validator.py`` is out of scope: the paper's
        augmentability rules it applies are per engine family by
        definition."""
        for module in ("persistence/snapshot.py", "persistence/wal.py"):
            source = (SRC / module).read_text()
            assert "engine ==" not in source, module

        def names_engine(node):
            return (isinstance(node, ast.Name) and node.id == "engine") or (
                isinstance(node, ast.Attribute) and node.attr == "engine"
            )

        def literal(node):
            if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                return any(literal(item) for item in node.elts)
            return isinstance(node, ast.Constant) and isinstance(node.value, str)

        offenders = []
        for path in sorted((SRC / "sharding").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                operands = (
                    [node.left, *node.comparators]
                    if isinstance(node, ast.Compare) else []
                )
                if any(map(names_engine, operands)) and any(map(literal, operands)):
                    offenders.append(f"{path.name}: {ast.unparse(node)}")
                module = getattr(node, "module", None) or ""
                if isinstance(node, ast.ImportFrom) and module.startswith(
                    "repro.stores."
                ) and module != "repro.stores.base":
                    offenders.append(f"{path.name}: imports {module}")
        # Every native language stays with the engine's scatter() / merge().
        assert offenders == []
        tree = ast.parse((SRC / "sharding/store.py").read_text())
        partition = next(
            node for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and node.name == "partition_store"
        )
        assert not any(
            isinstance(node, ast.If)
            and "engine" in ast.unparse(node.test)
            for node in ast.walk(partition)
        )
