"""Compiled native queries ≡ the interpreters they replaced, and stay cheap.

Three differential suites (SQL expressions, whole SQL statements, Mongo
filters) compare the closures of ``repro.stores.relational.executor`` /
``repro.stores.document.query`` against the tree walkers kept in
``tests/reference_interpreters.py``: same value (``is`` for ``None`` /
``True`` / ``False``), or :class:`QueryError` exactly when the reference
raises it. Then the guards: the cost of a scan is counted in call events
per scanned row (not timed), a repeated text compiles nothing, and the
compiled artifact is safe to share between stores and threads.
"""

from __future__ import annotations

import gc
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryError
from repro.stores import DocumentStore, RelationalStore
from repro.stores.document import query as document_query
from repro.stores.document.query import matches_filter
from repro.stores.querycache import clear_parse_caches, parse_cache_stats
from repro.stores.relational import executor as sql_executor
from repro.stores.relational.ast import (
    BetweenOp,
    BinaryOp,
    ColumnRef,
    FuncCall,
    InOp,
    IsNullOp,
    LikeOp,
    Literal,
    UnaryOp,
)
from repro.stores.relational.executor import bind, compile_expr
from repro.stores.relational.parser import parse_sql
from repro.stores.relational.types import Column, ColumnType, TableSchema
from repro.workloads import PolystoreScale, QueryWorkload, build_polyphony
from tests.reference_interpreters import (
    Evaluator,
    SelectExecutor,
    reference_matches,
    run_delete,
    run_update,
)


def outcome(thunk):
    """``("value", v)`` or ``("refused",)``; anything but a QueryError
    (a raw TypeError, a KeyError from a bad bind) fails the test."""
    try:
        return ("value", thunk())
    except QueryError:
        return ("refused",)


def same(left, right) -> bool:
    if left is None or left is True or left is False:
        return left is right
    return type(left) is type(right) and left == right


# ---------------------------------------------------------------------------
# SQL expressions: compile_expr(...)(row) vs Evaluator.value(expr, env)
# ---------------------------------------------------------------------------

_SCHEMA = TableSchema(
    columns=[
        Column("x", ColumnType.INTEGER),
        Column("y", ColumnType.FLOAT),
        Column("z", ColumnType.TEXT),
    ],
    primary_key="x",
)

# Values are small on purpose: ``text * int`` repeats the text, and a
# product of many large integers would build a string of gigabytes.
_VALUES = st.one_of(
    st.none(),
    st.integers(-4, 4),
    st.sampled_from([0.5, -1.5, 2.0, 0.0]),
    st.sampled_from(["", "a", "Ab", "b%", "10"]),
    st.booleans(),
)
# The expression suite bypasses schema validation: any column may hold
# any type, so every operator meets NULLs and mismatched operands.
_ROWS = st.fixed_dictionaries({"x": _VALUES, "y": _VALUES, "z": _VALUES})

_LITERALS = st.builds(Literal, _VALUES)
_COLUMNS = st.builds(
    ColumnRef, st.sampled_from(["x", "y", "z"]), st.sampled_from([None, "t"])
)
_PATTERNS = st.builds(Literal, st.sampled_from(["a%", "%b", "_", "%", "A_", "1%"]))


def _extend(children):
    return st.one_of(
        st.builds(
            BinaryOp,
            st.sampled_from(
                ["AND", "OR", "=", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/"]
            ),
            children,
            children,
        ),
        st.builds(UnaryOp, st.sampled_from(["NOT", "-"]), children),
        st.builds(
            InOp,
            children,
            st.lists(_LITERALS, min_size=1, max_size=4).map(tuple),
            st.booleans(),
        ),
        st.builds(
            InOp,
            children,
            st.lists(children, min_size=1, max_size=3).map(tuple),
            st.booleans(),
        ),
        st.builds(BetweenOp, children, children, children, st.booleans()),
        st.builds(
            LikeOp, children, st.one_of(_PATTERNS, children), st.booleans()
        ),
        st.builds(IsNullOp, children, st.booleans()),
        st.builds(
            FuncCall,
            st.sampled_from(["COALESCE", "UPPER", "LOWER", "LENGTH", "ABS", "ROUND"]),
            st.lists(children, min_size=0, max_size=3).map(tuple),
        ),
    )


_EXPRESSIONS = st.recursive(
    st.one_of(_LITERALS, _COLUMNS), _extend, max_leaves=8
)


class TestExpressionsVersusInterpreter:
    @given(_EXPRESSIONS, st.lists(_ROWS, min_size=1, max_size=4))
    @settings(max_examples=400, deadline=None)
    def test_closure_returns_what_the_tree_walk_returns(self, expr, rows):
        refs: list[ColumnRef] = []
        closure = compile_expr(expr, refs)
        bind(tuple(refs), {"t": _SCHEMA})
        reference = Evaluator()
        for row in rows:
            got = outcome(lambda: closure(row))
            want = outcome(lambda: reference.value(expr, {"t": row}))
            assert got[0] == want[0], (expr, row, got, want)
            if got[0] == "value":
                assert same(got[1], want[1]), (expr, row, got, want)

    @given(_EXPRESSIONS, _ROWS, _ROWS)
    @settings(max_examples=200, deadline=None)
    def test_join_environment_closures_agree_too(self, expr, left, right):
        """The same expression compiled for a join environment: ``t``'s
        columns under binding ``t``, beside an unrelated binding."""
        refs: list[ColumnRef] = []
        closure = compile_expr(expr, refs, joined=True)
        other = TableSchema(
            columns=[Column("k", ColumnType.TEXT)], primary_key="k"
        )
        schemas = {"t": _SCHEMA, "o": other}
        bind(tuple(refs), schemas)
        env = {"t": left, "o": {"k": "k"}, None: sql_executor._owners(schemas)}
        got = outcome(lambda: closure(env))
        want = outcome(
            lambda: Evaluator().value(expr, {"t": left, "o": {"k": "k"}})
        )
        assert got[0] == want[0], (expr, left, got, want)
        if got[0] == "value":
            assert same(got[1], want[1]), (expr, left, got, want)


# ---------------------------------------------------------------------------
# Whole statements: store.sql_rows(text) vs the old SelectExecutor
# ---------------------------------------------------------------------------

_T_ROWS = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(-3, 6)),          # a
        st.one_of(st.none(), st.sampled_from([0.5, 2.0, -1.0, 3.5])),  # b
        st.one_of(st.none(), st.sampled_from(["ab", "Ba", "c", "3"])),  # s
        st.one_of(st.none(), st.sampled_from(["g1", "g2", "g3"])),     # g
    ),
    max_size=12,
)
_U_ROWS = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(-3, 6)),          # n
        st.sampled_from(["one", "two", None]),             # label
    ),
    max_size=6,
)


def build_tables(t_rows, u_rows, index: bool = False) -> RelationalStore:
    store = RelationalStore()
    store.database_name = "db"
    store.sql(
        "CREATE TABLE t (id TEXT PRIMARY KEY, a INTEGER, b FLOAT, "
        "s TEXT, g TEXT)"
    )
    store.sql("CREATE TABLE u (k TEXT PRIMARY KEY, n INTEGER, label TEXT)")
    for i, (a, b, s, g) in enumerate(t_rows):
        store.insert_row("t", {"id": f"r{i}", "a": a, "b": b, "s": s, "g": g})
    for i, (n, label) in enumerate(u_rows):
        store.insert_row("u", {"k": f"k{i}", "n": n, "label": label})
    if index:
        store.table("t").create_index("g")
    return store


_K = st.integers(-2, 5)
_ATOMS = st.one_of(
    st.builds("a > {}".format, _K),
    st.builds("a <= {}".format, _K),
    st.builds("t.a = {}".format, _K),
    st.builds("a != {} + 1".format, _K),
    st.builds("b BETWEEN {} AND a".format, _K),
    st.builds("a NOT BETWEEN {} AND 4".format, _K),
    st.builds("a IN ({}, 2, NULL)".format, _K),
    st.builds("a NOT IN ({}, 3)".format, _K),
    st.builds("g IN ('g1', '{}')".format, st.sampled_from(["g2", "zz"])),
    st.builds("g = '{}'".format, st.sampled_from(["g1", "g3"])),
    st.builds("s LIKE '{}'".format, st.sampled_from(["a%", "%a", "_", "%"])),
    st.builds("s NOT LIKE '{}'".format, st.sampled_from(["a%", "%"])),
    st.just("s IS NULL"),
    st.just("b IS NOT NULL"),
    st.builds("COALESCE(a, {}) * 2 > b".format, _K),
    st.builds("LENGTH(s) = {}".format, _K),
    st.just("UPPER(s) = 'AB'"),
    st.builds("-a < {}".format, _K),
    st.builds("a / {} > 1".format, _K),
    # Properties of the data, refused per row by both sides:
    st.just("a < s"),
    st.just("s BETWEEN 1 AND 2"),
    st.just("-s = 1"),
)
_PREDICATES = st.recursive(
    _ATOMS,
    lambda children: st.one_of(
        st.builds("({} AND {})".format, children, children),
        st.builds("({} OR {})".format, children, children),
        st.builds("NOT ({})".format, children),
    ),
    max_leaves=5,
)

_SELECTS = st.one_of(
    st.builds("SELECT * FROM t WHERE {}".format, _PREDICATES),
    st.builds("SELECT * FROM t WHERE g = 'g1' AND {}".format, _PREDICATES),
    st.builds(
        "SELECT id, a + 1 AS nxt, UPPER(s) FROM t WHERE {} "
        "ORDER BY nxt DESC, id".format,
        _PREDICATES,
    ),
    st.builds(
        "SELECT id FROM t x WHERE {} ORDER BY x.a * 2 DESC, id "
        "LIMIT {} OFFSET {}".format,
        _PREDICATES.map(lambda p: p.replace("t.a", "x.a")),
        st.integers(0, 6),
        st.integers(0, 3),
    ),
    st.builds("SELECT DISTINCT g, a FROM t WHERE {} ORDER BY g, a".format, _PREDICATES),
    st.builds(
        "SELECT g, COUNT(*) AS n, SUM(a) AS total, MAX(b) - MIN(b) AS spread, "
        "COUNT(DISTINCT s) AS kinds FROM t WHERE {} GROUP BY g "
        "HAVING COUNT(*) > {} ORDER BY g".format,
        _PREDICATES,
        st.integers(0, 2),
    ),
    st.builds(
        "SELECT COUNT(a) AS n, AVG(a) AS mean, MIN(s) AS lo FROM t "
        "WHERE {}".format,
        _PREDICATES,
    ),
    # Hash join (ON left = right.column), inner and LEFT:
    st.builds(
        "SELECT t.id, u.label, n FROM t {} u ON t.a = u.n WHERE {} "
        "ORDER BY t.id, u.k".format,
        st.sampled_from(["JOIN", "LEFT JOIN"]),
        _PREDICATES,
    ),
    # Nested-loop join (ON is not an equality on a bare right column):
    st.builds(
        "SELECT * FROM t {} u ON t.a < u.n + {} WHERE {}".format,
        st.sampled_from(["JOIN", "LEFT JOIN"]),
        _K,
        _PREDICATES,
    ),
)


def _rows_of(result):
    return [(row.values, row.pk, row.table) for row in result]


class TestStatementsVersusInterpreter:
    @given(_T_ROWS, _U_ROWS, _SELECTS, st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_select_answers_row_for_row(self, t_rows, u_rows, sql, index):
        store = build_tables(t_rows, u_rows, index)
        got = outcome(lambda: _rows_of(store.sql_rows(sql)))
        want = outcome(
            lambda: _rows_of(SelectExecutor(store).run(parse_sql(sql)))
        )
        assert got == want, sql
        if got[0] == "value":
            for (values, __, ___), (expected, ____, _____) in zip(got[1], want[1]):
                assert list(values) == list(expected)  # column order too
                assert all(same(values[k], expected[k]) for k in values)

    @given(
        _T_ROWS,
        st.one_of(
            st.builds("UPDATE t SET a = a + 1 WHERE {}".format, _PREDICATES),
            st.builds(
                "UPDATE t SET a = COALESCE(a, 0) * 2, s = UPPER(s) "
                "WHERE {}".format,
                _PREDICATES,
            ),
            st.just("UPDATE t SET b = b + a"),
            st.builds("DELETE FROM t WHERE {}".format, _PREDICATES),
            st.just("DELETE FROM t"),
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_update_and_delete_leave_the_same_table(self, t_rows, sql):
        compiled, reference = build_tables(t_rows, []), build_tables(t_rows, [])
        statement = parse_sql(sql)
        run = run_update if sql.startswith("UPDATE") else run_delete
        got = outcome(lambda: compiled.sql(sql))
        want = outcome(lambda: run(reference, statement))
        assert got[0] == want[0], sql
        assert compiled.dump_state() == reference.dump_state(), sql

    def test_insert_values_are_compiled_expressions(self):
        store = build_tables([], [])
        store.sql("INSERT INTO t (id, a, s) VALUES ('n', 1 + 2 * 3, UPPER('x'))")
        assert store.sql("SELECT a, s FROM t") == [{"a": 7, "s": "X"}]
        with pytest.raises(QueryError, match="unknown column 'a'"):
            store.sql("INSERT INTO t (id, a) VALUES ('m', a + 1)")


# ---------------------------------------------------------------------------
# Mongo filters: matches_filter vs the per-document interpreter
# ---------------------------------------------------------------------------

_SCALARS = st.one_of(
    st.integers(0, 4), st.sampled_from(["a", "b", "rock", "pop"]), st.none(),
    st.booleans(), st.just(1.5),
)
_ITEMS = st.fixed_dictionaries(
    {}, optional={"q": st.integers(0, 4), "r": st.sampled_from(["a", "b"])}
)
_DOCUMENTS = st.fixed_dictionaries(
    {"_id": st.just("d")},
    optional={
        "n": st.integers(0, 4),
        "s": st.sampled_from(["a", "b", "rock"]),
        "tags": st.lists(st.sampled_from(["a", "b", "rock", "pop"]), max_size=3),
        "sub": st.fixed_dictionaries(
            {},
            optional={
                "k": st.integers(0, 4),
                "arr": st.lists(
                    st.fixed_dictionaries({"v": st.integers(0, 4)}), max_size=3
                ),
            },
        ),
        "items": st.lists(_ITEMS, max_size=3),
        "mixed": st.one_of(_SCALARS, st.lists(st.integers(0, 4), max_size=3)),
    },
)
_PATHS = st.sampled_from(
    ["n", "s", "tags", "sub", "sub.k", "sub.arr.v", "sub.arr.0.v", "items.q",
     "items.1.r", "mixed", "zz", "zz.deep"]
)
_LISTS = st.lists(_SCALARS, max_size=3)


def _operator_docs(filters):
    one = st.one_of(
        st.tuples(
            st.sampled_from(["$eq", "$ne", "$gt", "$gte", "$lt", "$lte"]),
            st.one_of(_SCALARS, _LISTS),
        ),
        st.tuples(st.sampled_from(["$in", "$nin", "$all"]), _LISTS),
        st.tuples(st.just("$exists"), st.booleans()),
        st.tuples(
            st.just("$type"),
            st.sampled_from(
                ["double", "string", "object", "array", "bool", "int", "null"]
            ),
        ),
        st.tuples(st.just("$size"), st.integers(0, 3)),
        st.tuples(st.just("$regex"), st.sampled_from(["^a", "o", "b$", "."])),
        st.tuples(
            st.just("$elemMatch"),
            st.one_of(
                filters,
                st.fixed_dictionaries(
                    {},
                    optional={
                        "q": st.one_of(
                            st.integers(0, 4),
                            st.builds(lambda k: {"$gte": k}, st.integers(0, 4)),
                        ),
                        "r": st.sampled_from(["a", "b"]),
                        "v": st.builds(lambda k: {"$ne": k}, st.integers(0, 4)),
                    },
                ),
            ),
        ),
    )
    flat = st.lists(one, min_size=1, max_size=3).map(dict)
    negated = st.builds(lambda inner: {"$not": inner}, st.one_of(flat, _SCALARS))
    return st.one_of(flat, negated, st.builds(lambda a, b: {**a, **b}, flat, negated))


def _extend_filters(filters):
    conditions = st.one_of(_SCALARS, _LISTS, _operator_docs(filters))
    fields = st.dictionaries(_PATHS, conditions, min_size=1, max_size=3)
    logical = st.builds(
        lambda op, subs: {op: subs},
        st.sampled_from(["$and", "$or", "$nor"]),
        st.lists(filters, max_size=3),
    )
    return st.one_of(
        fields, logical, st.builds(lambda a, b: {**a, **b}, fields, logical)
    )


_FILTERS = st.recursive(st.just({}), _extend_filters, max_leaves=6)


class TestFiltersVersusInterpreter:
    @given(_FILTERS, st.lists(_DOCUMENTS, min_size=1, max_size=4))
    @settings(max_examples=500, deadline=None)
    def test_matcher_decides_what_the_interpreter_decides(self, query, documents):
        for document in documents:
            got = outcome(lambda: matches_filter(document, query))
            want = outcome(lambda: reference_matches(document, query))
            assert got == want, (query, document)

    @given(_FILTERS, st.lists(_DOCUMENTS, max_size=6), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_find_returns_the_interpreters_documents(self, query, documents, index):
        store = DocumentStore()
        store.create_collection("c")
        for i, document in enumerate(documents):
            store.insert("c", {**document, "_id": f"d{i}"})
        if index:
            store.create_index("c", "s")
        got = sorted(d["_id"] for d in store.find("c", query))
        want = sorted(
            f"d{i}"
            for i, document in enumerate(documents)
            if reference_matches({**document, "_id": f"d{i}"}, query)
        )
        assert got == want, query


# ---------------------------------------------------------------------------
# Guards: cost in call events, nothing compiled twice, safe to share
# ---------------------------------------------------------------------------


def call_events(thunk, entered: list | None = None):
    """Run ``thunk`` counting ``call`` + ``c_call`` profile events; the
    names of the Python functions entered are appended to ``entered``."""
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1
            if event == "call" and entered is not None:
                entered.append(frame.f_code.co_name)

    gc.disable()  # a collection would run (and count) Hypothesis's gc callback
    sys.setprofile(hook)
    try:
        result = thunk()
    finally:
        sys.setprofile(None)
        gc.enable()
    return count - 1, result  # minus the c_call of sys.setprofile(None)


@pytest.fixture(scope="module")
def polyphony():
    return build_polyphony(stores=4, scale=PolystoreScale(n_albums=1000), seed=3)


#: Function names that only run when a statement / filter is compiled.
_COMPILE_ENTRY_POINTS = {
    "compile_statement", "compile_expr", "_compile_select", "_binary",
    "_compile", "_compile_field", "_compile_condition", "parse_statement",
}


class TestScanCostGuard:
    """ISSUE 22: a scan costs a closure call or two per row whatever the
    answer's size — 39 call events per scanned row before, at most 14
    now — counted, so the guard does not flake with the host's load.
    The spine's own range queries no longer scan (their ordered path
    reads the rows they return), so the scan is guarded on the same
    window written as a predicate no path serves."""

    @pytest.mark.parametrize("database", ["transactions", "catalogue"])
    def test_events_per_scanned_row_and_per_returned_row(self, polyphony, database):
        store = polyphony.polystore.databases[database]
        counts = {}
        for window in (10, 105, 200):
            # The spine's range window, from one fixed low bound, under a
            # top-level OR / a second operator: how many rows pass the
            # first comparison is part of the scan.
            query = {
                "transactions": "SELECT * FROM inventory "
                f"WHERE seq >= 100 AND seq < {100 + window} OR id IS NULL",
                "catalogue": {
                    "collection": "albums",
                    "filter": {"seq": {
                        "$gte": 100, "$lt": 100 + window, "$exists": True,
                    }},
                },
            }[database]
            store.execute(query)  # the first execution compiles
            store.stats.reset()
            counts[window], answer = call_events(lambda: store.execute(query))
            assert len(answer) == window
            assert store.stats.rows_examined == 1000  # a full scan
            assert store.stats.objects_returned == window
        assert counts[200] / 1000 <= 14, counts
        # The answer's cost is a constant per returned row on top of a
        # scan cost that does not depend on the answer at all.
        per_row, remainder = divmod(counts[200] - counts[10], 190)
        assert remainder == 0, counts
        assert counts[105] == counts[10] + 95 * per_row, counts
        assert per_row <= 8, counts

    @pytest.mark.parametrize("database", ["transactions", "catalogue", "similar"])
    def test_a_range_examines_only_the_rows_it_returns(self, polyphony, database):
        """The spine's range queries read their field's ordered path: each
        examines exactly the rows it returns, and costs a constant per
        row on top of a constant that does not grow with the collection."""
        store = polyphony.polystore.databases[database]
        counts = {}
        for window in (10, 105, 200):
            query = {
                "transactions": "SELECT * FROM inventory "
                f"WHERE seq >= 100 AND seq < {100 + window}",
                "catalogue": {
                    "collection": "albums",
                    "filter": {"seq": {"$gte": 100, "$lt": 100 + window}},
                },
                "similar": f"MATCH (n:Item) WHERE n.seq >= 100 "
                f"AND n.seq < {100 + window} RETURN n",
            }[database]
            store.execute(query)  # compiles, and builds the path
            store.stats.reset()
            counts[window], answer = call_events(lambda: store.execute(query))
            assert [obj.value["seq"] for obj in answer] == list(
                range(100, 100 + window)
            )
            assert store.stats.rows_examined == window
            assert store.stats.objects_returned == window
        per_row, remainder = divmod(counts[200] - counts[10], 190)
        assert remainder == 0, counts
        assert counts[105] == counts[10] + 95 * per_row, counts
        # Cypher binds, tests and deduplicates each match row in Python.
        assert per_row <= (40 if database == "similar" else 14), counts
        # What is left does not depend on the collection: scanning its
        # 1 000 rows would cost at least 5 000 events.
        assert counts[10] - 10 * per_row < 200, counts

    def test_index_probe_examines_the_probed_rows_only(self, polyphony):
        store = polyphony.polystore.databases["transactions"]
        store.stats.reset()
        rows = store.execute(
            "SELECT * FROM inventory WHERE id IN ('a1', 'a2', 'a3', 'nope')"
        )
        assert len(rows) == 3
        assert store.stats.rows_examined == 3

    def test_all_four_engines_report_rows_examined(self, polyphony):
        workload = QueryWorkload(polyphony)
        for database, expected in (
            ("transactions", 10), ("catalogue", 10),
            ("similar", 10), ("discount", 10),
        ):
            store = polyphony.polystore.databases[database]
            store.stats.reset()
            store.execute(workload.query(database, 10).query)
            assert store.stats.rows_examined == expected, database


    def test_wrappers_route_the_counter(self, polyphony):
        """``ShardedStore`` sums what its shards examined; ``FlakyStore``
        shows the wrapped engine's counters; ``GET /stats`` rows carry it."""
        from repro.core.system import Quepa
        from repro.sharding import shard_polystore
        from repro.testing import FlakyStore
        from repro.ui import reports

        query = "SELECT * FROM inventory WHERE seq >= 100 AND seq < 110"
        sharded = shard_polystore(polyphony.polystore, shards=2)
        facade = sharded.databases["transactions"]
        assert len(facade.execute(query)) == 10
        assert facade.stats.rows_examined == 10  # each shard's own path
        assert sum(s.stats.rows_examined for s in facade.shards) == 10

        inner = polyphony.polystore.databases["transactions"]
        flaky = FlakyStore(inner, fail_every=1000)
        inner.stats.reset()
        flaky.execute(query)
        assert flaky.stats.rows_examined == 10

        quepa = Quepa(sharded, polyphony.aindex)
        quepa.augmented_search("transactions", query, level=0)
        rows = {
            row["database"]: row
            for row in reports.call("stats", reports.Subject(quepa))["stores"]
        }
        assert rows["transactions"]["rows_examined"] == 20


class TestCompiledOnce:
    @pytest.mark.parametrize("database", ["transactions", "catalogue"])
    def test_second_execution_compiles_nothing(self, polyphony, database):
        store = polyphony.polystore.databases[database]
        query = QueryWorkload(polyphony).query(database, 7).query
        cache = {"transactions": "sql_statements", "catalogue": "document_filters"}
        clear_parse_caches()
        first: list[str] = []
        call_events(lambda: store.execute(query), first)
        assert _COMPILE_ENTRY_POINTS & set(first)

        def stats():
            return next(
                e for e in parse_cache_stats() if e["name"] == cache[database]
            )

        assert (stats()["misses"], stats()["hits"]) == (1, 0)
        again: list[str] = []
        call_events(lambda: store.execute(query), again)
        assert not _COMPILE_ENTRY_POINTS & set(again), again
        assert (stats()["misses"], stats()["hits"]) == (1, 1)

    def test_the_compile_entry_points_exist(self):
        """The names the guard above looks for are real functions."""
        for name in ("compile_statement", "compile_expr", "_compile_select", "_binary"):
            assert callable(getattr(sql_executor, name))
        for name in ("_compile", "_compile_field", "_compile_condition"):
            assert callable(getattr(document_query, name))


class TestSharedArtifact:
    def test_one_text_two_schemas_each_gets_its_own_answer(self):
        """The plan is a function of the text alone; what depends on
        the store is bound per execution, so one cache entry serves two
        stores whose table ``t`` differs."""
        narrow, wide = RelationalStore(), RelationalStore()
        narrow.sql("CREATE TABLE IF NOT EXISTS t (id TEXT PRIMARY KEY, n INTEGER)")
        wide.create_table(
            "t",
            TableSchema(
                columns=[
                    Column("id", ColumnType.TEXT, nullable=False),
                    Column("n", ColumnType.TEXT),
                    Column("extra", ColumnType.INTEGER),
                ],
                primary_key="id",
            ),
        )
        narrow.insert_row("t", {"id": "a", "n": 5})
        wide.insert_row("t", {"id": "a", "n": "five", "extra": 1})
        clear_parse_caches()
        text = "SELECT * FROM t WHERE extra = 1"
        for __ in range(2):  # miss, then hit: same verdicts
            with pytest.raises(QueryError, match="unknown column 'extra'"):
                narrow.sql(text)
            assert wide.sql(text) == [{"id": "a", "n": "five", "extra": 1}]
        text = "SELECT id FROM t WHERE n > 3"
        for __ in range(2):
            assert narrow.sql(text) == [{"id": "a"}]
            with pytest.raises(QueryError, match="type error in >"):
                wide.sql(text)

    def test_threads_share_closures_and_agree_with_the_sequential_run(self, polyphony):
        workload = QueryWorkload(polyphony)
        jobs = [
            (polyphony.polystore.databases[database],
             workload.query(database, size, variant).query)
            for database in ("transactions", "catalogue")
            for size in (5, 50)
            for variant in (0, 1)
        ]
        expected = [
            [obj.key for obj in store.execute(query)] for store, query in jobs
        ]
        workers, rounds = 6, 5
        barrier = threading.Barrier(workers)
        failures: list = []

        def worker():
            barrier.wait(timeout=30)
            for __ in range(rounds):
                for (store, query), want in zip(jobs, expected):
                    with store.lock:
                        got = [obj.key for obj in store.execute(query)]
                    if got != want:
                        failures.append((query, got))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for __ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
