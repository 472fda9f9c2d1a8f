"""A Cypher-like query language for the graph store.

The paper's marketing department talks to Neo4j in Neo4j's language;
this module gives the graph substrate the same kind of native surface.
Supported grammar (a practical Cypher subset):

.. code-block:: text

    query   := MATCH pattern [WHERE expr] RETURN items
               [ORDER BY order (',' order)*] [LIMIT n]
    pattern := node (edge node)*
    node    := '(' [var] [':' Label] [props] ')'
    edge    := '-[' [var] [':' TYPE] ']->'     outgoing
             | '<-[' [var] [':' TYPE] ']-'     incoming
             | '-[' [var] [':' TYPE] ']-'      undirected
    props   := '{' key ':' literal (',' key ':' literal)* '}'
    expr    := disjunctions/conjunctions/NOT over comparisons
               (var.prop (=|<>|<|<=|>|>=) literal, var.prop IS [NOT] NULL)
    items   := item (',' item)*;  item := var | var.prop [AS name]
    order   := var.prop [ASC|DESC]

Pattern matching is standard backtracking over the adjacency lists,
with distinct-edge semantics (the same relationship is not reused
within one match, as in Cypher). ``RETURN`` of a bare variable yields
whole nodes; mixed item lists yield rows. The de-dup of matches, ORDER
BY (NULLs first, SQL's order) and LIMIT are the row operators of
:mod:`repro.stores.operators`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Optional

from repro.errors import QueryError
from repro.stores.base import range_bounds
from repro.stores.operators import null_first, unique, window
from repro.stores.querycache import QueryCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.stores.graph.store import Edge, GraphStore, Node

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodePattern:
    variable: Optional[str]
    label: Optional[str]
    properties: tuple[tuple[str, Any], ...] = ()


@dataclass(frozen=True)
class EdgePattern:
    variable: Optional[str]
    rel_type: Optional[str]
    direction: str  # "out" | "in" | "both"


@dataclass(frozen=True)
class Comparison:
    variable: str
    prop: str
    op: str  # = <> < <= > >= isnull notnull
    literal: Any = None


@dataclass(frozen=True)
class BoolExpr:
    op: str  # AND | OR | NOT | LEAF
    left: "BoolExpr | Comparison | None" = None
    right: "BoolExpr | Comparison | None" = None
    leaf: Comparison | None = None


@dataclass(frozen=True)
class ReturnItem:
    variable: str
    prop: Optional[str] = None
    alias: Optional[str] = None

    @property
    def name(self) -> str:
        if self.alias:
            return self.alias
        if self.prop:
            return f"{self.variable}.{self.prop}"
        return self.variable


@dataclass(frozen=True)
class OrderItem:
    variable: str
    prop: str
    ascending: bool = True


@dataclass(frozen=True)
class CypherQuery:
    nodes: tuple[NodePattern, ...]
    edges: tuple[EdgePattern, ...]
    where: Optional[BoolExpr]
    items: tuple[ReturnItem, ...]
    order: tuple[OrderItem, ...] = ()
    limit: Optional[int] = None


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>-?\d+(\.\d+)?)
  | (?P<string>'(?:[^']|'')*'|"(?:[^"]|"")*")
  | (?P<arrow><-\[|\]->|-\[|\]-)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><>|<=|>=|=|<|>|\(|\)|\{|\}|:|,|\.|\*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "MATCH", "WHERE", "RETURN", "ORDER", "BY", "LIMIT", "AND", "OR", "NOT",
    "AS", "ASC", "DESC", "IS", "NULL", "TRUE", "FALSE",
}


class _Token:
    __slots__ = ("kind", "text")

    def __init__(self, kind: str, text: str):
        self.kind = kind
        self.text = text


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise QueryError(
                f"cypher: unexpected character {text[position]!r} "
                f"at {position}"
            )
        position = match.end()
        kind = match.lastgroup or "op"
        if kind == "ws":
            continue
        value = match.group()
        if kind == "ident" and value.upper() in _KEYWORDS:
            tokens.append(_Token("keyword", value.upper()))
        else:
            tokens.append(_Token(kind, value))
    tokens.append(_Token("end", ""))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.current
        if token.kind != "end":
            self.index += 1
        return token

    def accept(self, kind: str, text: str | None = None) -> bool:
        token = self.current
        if token.kind == kind and (text is None or token.text == text):
            self.advance()
            return True
        return False

    def expect(self, kind: str, text: str | None = None) -> _Token:
        token = self.current
        if token.kind != kind or (text is not None and token.text != text):
            raise QueryError(
                f"cypher: expected {text or kind}, got {token.text!r}"
            )
        return self.advance()

    # -- grammar ------------------------------------------------------------

    def parse(self) -> CypherQuery:
        self.expect("keyword", "MATCH")
        nodes = [self.parse_node()]
        edges: list[EdgePattern] = []
        while self.current.kind == "arrow":
            edges.append(self.parse_edge())
            nodes.append(self.parse_node())
        where = None
        if self.accept("keyword", "WHERE"):
            where = self.parse_or()
        self.expect("keyword", "RETURN")
        items = [self.parse_item()]
        while self.accept("op", ","):
            items.append(self.parse_item())
        order: list[OrderItem] = []
        if self.accept("keyword", "ORDER"):
            self.expect("keyword", "BY")
            order.append(self.parse_order())
            while self.accept("op", ","):
                order.append(self.parse_order())
        limit = None
        if self.accept("keyword", "LIMIT"):
            token = self.expect("number")
            limit = int(float(token.text))
        if self.current.kind != "end":
            raise QueryError(
                f"cypher: trailing input {self.current.text!r}"
            )
        return CypherQuery(
            tuple(nodes), tuple(edges), where, tuple(items),
            tuple(order), limit,
        )

    def parse_node(self) -> NodePattern:
        self.expect("op", "(")
        variable = None
        if self.current.kind == "ident":
            variable = self.advance().text
        label = None
        if self.accept("op", ":"):
            label = self.expect("ident").text
        properties: list[tuple[str, Any]] = []
        if self.accept("op", "{"):
            while True:
                key = self.expect("ident").text
                self.expect("op", ":")
                properties.append((key, self.parse_literal()))
                if not self.accept("op", ","):
                    break
            self.expect("op", "}")
        self.expect("op", ")")
        return NodePattern(variable, label, tuple(properties))

    def parse_edge(self) -> EdgePattern:
        opener = self.expect("arrow").text
        if opener == "<-[":
            direction = "in"
        elif opener == "-[":
            direction = None  # decided by the closer
        else:
            raise QueryError(f"cypher: unexpected {opener!r}")
        variable = None
        if self.current.kind == "ident":
            variable = self.advance().text
        rel_type = None
        if self.accept("op", ":"):
            rel_type = self.expect("ident").text
        closer = self.expect("arrow").text
        if direction == "in":
            if closer != "]-":
                raise QueryError("cypher: incoming edge must close with ]-")
        elif closer == "]->":
            direction = "out"
        elif closer == "]-":
            direction = "both"
        else:
            raise QueryError(f"cypher: unexpected {closer!r}")
        return EdgePattern(variable, rel_type, direction)

    def parse_literal(self) -> Any:
        token = self.current
        if token.kind == "number":
            self.advance()
            return float(token.text) if "." in token.text else int(token.text)
        if token.kind == "string":
            self.advance()
            quote = token.text[0]
            return token.text[1:-1].replace(quote * 2, quote)
        if self.accept("keyword", "TRUE"):
            return True
        if self.accept("keyword", "FALSE"):
            return False
        if self.accept("keyword", "NULL"):
            return None
        raise QueryError(f"cypher: expected a literal, got {token.text!r}")

    def parse_or(self) -> BoolExpr:
        left = self.parse_and()
        while self.accept("keyword", "OR"):
            left = BoolExpr("OR", left, self.parse_and())
        return left

    def parse_and(self) -> BoolExpr:
        left = self.parse_not()
        while self.accept("keyword", "AND"):
            left = BoolExpr("AND", left, self.parse_not())
        return left

    def parse_not(self) -> BoolExpr:
        if self.accept("keyword", "NOT"):
            return BoolExpr("NOT", self.parse_not())
        if self.accept("op", "("):
            inner = self.parse_or()
            self.expect("op", ")")
            return inner
        return BoolExpr("LEAF", leaf=self.parse_comparison())

    def parse_comparison(self) -> Comparison:
        variable = self.expect("ident").text
        self.expect("op", ".")
        prop = self.expect("ident").text
        if self.accept("keyword", "IS"):
            negated = self.accept("keyword", "NOT")
            self.expect("keyword", "NULL")
            return Comparison(variable, prop, "notnull" if negated else "isnull")
        op_token = self.current
        if op_token.kind != "op" or op_token.text not in (
            "=", "<>", "<", "<=", ">", ">=",
        ):
            raise QueryError(
                f"cypher: expected a comparison operator, got "
                f"{op_token.text!r}"
            )
        self.advance()
        return Comparison(variable, prop, op_token.text, self.parse_literal())

    def parse_item(self) -> ReturnItem:
        variable = self.expect("ident").text
        prop = None
        if self.accept("op", "."):
            prop = self.expect("ident").text
        alias = None
        if self.accept("keyword", "AS"):
            alias = self.expect("ident").text
        return ReturnItem(variable, prop, alias)

    def parse_order(self) -> OrderItem:
        variable = self.expect("ident").text
        self.expect("op", ".")
        prop = self.expect("ident").text
        ascending = True
        if self.accept("keyword", "DESC"):
            ascending = False
        else:
            self.accept("keyword", "ASC")
        return OrderItem(variable, prop, ascending)


#: Pattern cache: ``CypherQuery`` and its components are frozen, so one
#: parsed query is safely shared by every execution of the same text.
_PATTERN_CACHE = QueryCache("cypher_patterns")


def parse_cypher(text: str) -> CypherQuery:
    """Parse one Cypher-subset query (cached by query text)."""
    return _PATTERN_CACHE.get_or_compute(text, lambda: _Parser(text).parse())


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass
class MatchRow:
    """One pattern match: variable bindings to nodes."""

    bindings: dict[str, "Node"] = field(default_factory=dict)


def start_access(query: CypherQuery) -> tuple[Optional[str], tuple]:
    """``(label, ranges)`` the first node pattern is read by
    (:meth:`GraphStore.access_path`): a single-node pattern offers the
    top-level ``AND`` comparisons of its variable's properties. A WHERE
    that names another variable raises on the first row it reads, so it
    reads them all, as before."""
    first = query.nodes[0]
    ranges: tuple = ()
    if not query.edges and first.variable is not None and all(
        leaf.variable == first.variable for leaf in _leaves(query.where)
    ):
        ranges = tuple(range_bounds(_comparisons(query.where, first.variable)))
    return first.label, ranges


def _leaves(expr: "BoolExpr | Comparison | None") -> Iterator[Comparison]:
    if isinstance(expr, Comparison):
        yield expr
    elif expr is not None:
        yield from _leaves(expr.leaf or expr.left)
        yield from _leaves(expr.right)


def _comparisons(expr: Optional[BoolExpr], variable: str):
    """``(prop, op, literal)`` of each top-level ``AND`` comparison on
    ``variable``."""
    if expr is None:
        return
    if expr.op == "AND":
        yield from _comparisons(expr.left, variable)  # type: ignore[arg-type]
        yield from _comparisons(expr.right, variable)  # type: ignore[arg-type]
    elif expr.op == "LEAF" and expr.leaf.variable == variable:  # type: ignore[union-attr]
        yield expr.leaf.prop, expr.leaf.op, expr.leaf.literal  # type: ignore[union-attr]


def _node_candidates(store: "GraphStore", query: CypherQuery) -> list["Node"]:
    """The first pattern's nodes, read by the store's access path; each
    one read counts as examined."""
    nodes = store.access_path(*start_access(query))[2]
    store.stats.rows_examined += len(nodes)
    first = query.nodes[0]
    return [node for node in nodes if _satisfies(node, first)]


def _satisfies(node: "Node", pattern: NodePattern) -> bool:
    if pattern.label is not None and pattern.label not in node.labels:
        return False
    for key, value in pattern.properties:
        if node.properties.get(key) != value:
            return False
    return True


def _edges_from(
    store: "GraphStore", node_id: str, pattern: EdgePattern
) -> Iterator[tuple["Edge", str]]:
    """Edges leaving ``node_id`` per the pattern; yields (edge, other)."""
    if pattern.direction in ("out", "both"):
        for edge_id in store._outgoing.get(node_id, ()):
            edge = store._edges[edge_id]
            if pattern.rel_type is None or edge.type == pattern.rel_type:
                yield edge, edge.end
    if pattern.direction in ("in", "both"):
        for edge_id in store._incoming.get(node_id, ()):
            edge = store._edges[edge_id]
            if pattern.rel_type is None or edge.type == pattern.rel_type:
                yield edge, edge.start


def _match_pattern(store: "GraphStore", query: CypherQuery) -> list[MatchRow]:
    rows: list[MatchRow] = []
    first = query.nodes[0]

    def bind(row: dict[str, "Node"], pattern: NodePattern, node: "Node") -> bool:
        if pattern.variable is None:
            return True
        bound = row.get(pattern.variable)
        if bound is not None:
            return bound.id == node.id
        row[pattern.variable] = node
        return True

    def backtrack(
        position: int,
        current: "Node",
        row: dict[str, "Node"],
        used_edges: set[str],
    ) -> None:
        if position == len(query.edges):
            rows.append(MatchRow(dict(row)))
            return
        edge_pattern = query.edges[position]
        next_pattern = query.nodes[position + 1]
        for edge, other_id in _edges_from(store, current.id, edge_pattern):
            if edge.id in used_edges:
                continue  # distinct-edge semantics, as in Cypher
            other = store._nodes[other_id]
            if not _satisfies(other, next_pattern):
                continue
            snapshot = dict(row)
            if not bind(row, next_pattern, other):
                row = snapshot
                continue
            used_edges.add(edge.id)
            backtrack(position + 1, other, row, used_edges)
            used_edges.discard(edge.id)
            row.clear()
            row.update(snapshot)

    for start in _node_candidates(store, query):
        row: dict[str, "Node"] = {}
        if bind(row, first, start):
            backtrack(0, start, row, set())
    return rows


def _eval_where(expr: BoolExpr, row: MatchRow) -> bool:
    if expr.op == "LEAF":
        assert expr.leaf is not None
        return _eval_comparison(expr.leaf, row)
    if expr.op == "NOT":
        assert isinstance(expr.left, BoolExpr)
        return not _eval_where(expr.left, row)
    assert isinstance(expr.left, BoolExpr)
    assert isinstance(expr.right, BoolExpr)
    if expr.op == "AND":
        return _eval_where(expr.left, row) and _eval_where(expr.right, row)
    if expr.op == "OR":
        return _eval_where(expr.left, row) or _eval_where(expr.right, row)
    raise QueryError(f"cypher: unknown boolean operator {expr.op!r}")


def _eval_comparison(comparison: Comparison, row: MatchRow) -> bool:
    node = row.bindings.get(comparison.variable)
    if node is None:
        raise QueryError(
            f"cypher: unbound variable {comparison.variable!r} in WHERE"
        )
    value = node.properties.get(comparison.prop)
    if comparison.op == "isnull":
        return value is None
    if comparison.op == "notnull":
        return value is not None
    if value is None:
        return False
    literal = comparison.literal
    try:
        if comparison.op == "=":
            return value == literal
        if comparison.op == "<>":
            return value != literal
        if comparison.op == "<":
            return value < literal
        if comparison.op == "<=":
            return value <= literal
        if comparison.op == ">":
            return value > literal
        if comparison.op == ">=":
            return value >= literal
    except TypeError:
        return False
    raise QueryError(f"cypher: unknown comparison {comparison.op!r}")


@dataclass
class CypherResult:
    """Rows plus, for whole-node items, the returned nodes."""

    columns: list[str]
    rows: list[dict[str, Any]]
    #: Nodes returned by bare-variable items, aligned with rows; used by
    #: the store to produce data objects.
    nodes: list["Node"]


def execute_cypher(store: "GraphStore", text: str) -> CypherResult:
    """Parse and run a Cypher-subset query against ``store``."""
    query = parse_cypher(text)
    matches = _match_pattern(store, query)
    if query.edges:  # the WHERE reads each expanded path as well
        store.stats.rows_examined += len(matches)
    if query.where is not None:
        matches = [row for row in matches if _eval_where(query.where, row)]

    if query.edges:
        # The same nodes bound to the same variables through different
        # edges are one match; a node pattern binds each node once.
        matches = unique(matches, lambda row: tuple(
            (name, node.id) for name, node in sorted(row.bindings.items())
        ))

    if query.order:
        def sort_key(row: MatchRow):
            key = []
            for order in query.order:
                node = row.bindings.get(order.variable)
                value = node.properties.get(order.prop) if node else None
                key.append(null_first(value, order.ascending))
            return tuple(key)

        matches.sort(key=sort_key)
    matches = window(matches, 0, query.limit)

    columns = [item.name for item in query.items]
    rows: list[dict[str, Any]] = []
    nodes: list["Node"] = []
    node_item = next(
        (item for item in query.items if item.prop is None), None
    )
    for row in matches:
        output: dict[str, Any] = {}
        for item in query.items:
            node = row.bindings.get(item.variable)
            if node is None:
                raise QueryError(
                    f"cypher: unbound variable {item.variable!r} in RETURN"
                )
            if item.prop is None:
                output[item.name] = node.payload()
            else:
                output[item.name] = node.properties.get(item.prop)
        rows.append(output)
        if node_item is not None:
            node = row.bindings[node_item.variable]
            nodes.append(node)
    return CypherResult(columns, rows, nodes)
