"""Tokenizer and recursive-descent parser for the SQL subset.

Grammar (roughly):

.. code-block:: text

    select   := SELECT [DISTINCT] items FROM table_ref join* [WHERE expr]
                [GROUP BY expr_list] [HAVING expr]
                [ORDER BY order_list] [LIMIT n [OFFSET m]]
    insert   := INSERT INTO name ['(' cols ')'] VALUES tuple (',' tuple)*
    update   := UPDATE name SET assign (',' assign)* [WHERE expr]
    delete   := DELETE FROM name [WHERE expr]

    expr     := or_expr
    or_expr  := and_expr (OR and_expr)*
    and_expr := not_expr (AND not_expr)*
    not_expr := [NOT] predicate
    predicate:= additive [comparison | LIKE | IN | BETWEEN | IS [NOT] NULL]
    additive := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := literal | column | function '(' args ')' | '(' expr ')' | '-' factor

Strings use single quotes with ``''`` escaping, as in MySQL.
"""

from __future__ import annotations

import re
from typing import Any, Optional

from repro.errors import SqlSyntaxError
from repro.stores.querycache import QueryCache
from repro.stores.relational.ast import (
    AGGREGATE_FUNCTIONS,
    Assignment,
    BetweenOp,
    BinaryOp,
    ColumnDef,
    ColumnRef,
    CreateIndex,
    CreateTable,
    Delete,
    DropTable,
    Expr,
    FuncCall,
    InOp,
    Insert,
    IsNullOp,
    Join,
    LikeOp,
    Literal,
    OrderItem,
    SCALAR_FUNCTIONS,
    Select,
    SelectItem,
    Star,
    Statement,
    TableRef,
    UnaryOp,
    Update,
)
from repro.stores.relational.executor import compile_statement

KEYWORDS = {
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER",
    "LIMIT", "OFFSET", "ASC", "DESC", "AND", "OR", "NOT", "LIKE", "IN",
    "BETWEEN", "IS", "NULL", "TRUE", "FALSE", "AS", "JOIN", "INNER", "LEFT",
    "OUTER", "ON", "INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE",
    "CREATE", "TABLE", "INDEX", "DROP", "PRIMARY", "KEY", "IF", "EXISTS",
    "INTEGER", "INT", "FLOAT", "REAL", "TEXT", "VARCHAR", "BOOLEAN", "BOOL",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+(\.\d+)?([eE][+-]?\d+)?)
  | (?P<string>'(?:[^']|'')*')
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><>|!=|<=|>=|=|<|>|\+|-|\*|/|\(|\)|,|\.|;)
    """,
    re.VERBOSE,
)


class Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind  # number | string | ident | keyword | op | end
        self.text = text
        self.pos = pos

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.text!r})"


def tokenize(sql: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    while pos < len(sql):
        match = _TOKEN_RE.match(sql, pos)
        if match is None:
            raise SqlSyntaxError(f"unexpected character {sql[pos]!r} at {pos}")
        pos = match.end()
        if match.lastgroup == "ws":
            continue
        text = match.group()
        kind = match.lastgroup or "op"
        if kind == "ident" and text.upper() in KEYWORDS:
            tokens.append(Token("keyword", text.upper(), match.start()))
        else:
            tokens.append(Token(kind, text, match.start()))
    tokens.append(Token("end", "", len(sql)))
    return tokens


class Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, sql: str) -> None:
        self.sql = sql
        self.tokens = tokenize(sql)
        self.index = 0

    # -- token helpers -------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        if token.kind != "end":
            self.index += 1
        return token

    def check_keyword(self, *words: str) -> bool:
        return self.current.kind == "keyword" and self.current.text in words

    def accept_keyword(self, *words: str) -> bool:
        if self.check_keyword(*words):
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            raise SqlSyntaxError(
                f"expected {word} at position {self.current.pos} "
                f"(got {self.current.text!r})"
            )

    def accept_op(self, op: str) -> bool:
        if self.current.kind == "op" and self.current.text == op:
            self.advance()
            return True
        return False

    def expect_op(self, op: str) -> None:
        if not self.accept_op(op):
            raise SqlSyntaxError(
                f"expected {op!r} at position {self.current.pos} "
                f"(got {self.current.text!r})"
            )

    def expect_ident(self) -> str:
        if self.current.kind != "ident":
            raise SqlSyntaxError(
                f"expected identifier at position {self.current.pos} "
                f"(got {self.current.text!r})"
            )
        return self.advance().text

    # -- statements -----------------------------------------------------------

    def parse_statement(self) -> Statement:
        if self.check_keyword("SELECT"):
            statement: Statement = self.parse_select()
        elif self.check_keyword("INSERT"):
            statement = self.parse_insert()
        elif self.check_keyword("UPDATE"):
            statement = self.parse_update()
        elif self.check_keyword("DELETE"):
            statement = self.parse_delete()
        elif self.check_keyword("CREATE"):
            statement = self.parse_create()
        elif self.check_keyword("DROP"):
            statement = self.parse_drop()
        else:
            raise SqlSyntaxError(
                f"statement must start with SELECT/INSERT/UPDATE/DELETE/"
                f"CREATE/DROP, got {self.current.text!r}"
            )
        self.accept_op(";")
        if self.current.kind != "end":
            raise SqlSyntaxError(
                f"trailing input at position {self.current.pos}: "
                f"{self.current.text!r}"
            )
        return statement

    def parse_select(self) -> Select:
        self.expect_keyword("SELECT")
        distinct = self.accept_keyword("DISTINCT")
        items = [self.parse_select_item()]
        while self.accept_op(","):
            items.append(self.parse_select_item())
        self.expect_keyword("FROM")
        table = self.parse_table_ref()
        joins: list[Join] = []
        while self.check_keyword("JOIN", "INNER", "LEFT"):
            joins.append(self.parse_join())
        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        group_by: list[Expr] = []
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self.parse_expr())
            while self.accept_op(","):
                group_by.append(self.parse_expr())
        having = self.parse_expr() if self.accept_keyword("HAVING") else None
        order_by: list[OrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by.append(self.parse_order_item())
            while self.accept_op(","):
                order_by.append(self.parse_order_item())
        limit: Optional[int] = None
        offset = 0
        if self.accept_keyword("LIMIT"):
            limit = self.parse_int()
            if self.accept_keyword("OFFSET"):
                offset = self.parse_int()
            elif self.accept_op(","):
                # MySQL's LIMIT offset, count form.
                offset, limit = limit, self.parse_int()
        return Select(
            items=tuple(items),
            table=table,
            joins=tuple(joins),
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def parse_select_item(self) -> SelectItem:
        if self.accept_op("*"):
            return SelectItem(Star())
        # alias.* form
        if (
            self.current.kind == "ident"
            and self.tokens[self.index + 1].text == "."
            and self.tokens[self.index + 2].text == "*"
        ):
            table = self.advance().text
            self.advance()  # .
            self.advance()  # *
            return SelectItem(Star(table))
        expr = self.parse_expr()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident()
        elif self.current.kind == "ident":
            alias = self.advance().text
        return SelectItem(expr, alias)

    def parse_table_ref(self) -> TableRef:
        name = self.expect_ident()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident()
        elif self.current.kind == "ident":
            alias = self.advance().text
        return TableRef(name, alias)

    def parse_join(self) -> Join:
        kind = "INNER"
        if self.accept_keyword("LEFT"):
            self.accept_keyword("OUTER")
            kind = "LEFT"
        else:
            self.accept_keyword("INNER")
        self.expect_keyword("JOIN")
        table = self.parse_table_ref()
        self.expect_keyword("ON")
        on = self.parse_expr()
        return Join(table, on, kind)

    def parse_order_item(self) -> OrderItem:
        expr = self.parse_expr()
        ascending = True
        if self.accept_keyword("DESC"):
            ascending = False
        else:
            self.accept_keyword("ASC")
        return OrderItem(expr, ascending)

    def parse_int(self) -> int:
        token = self.current
        if token.kind != "number" or "." in token.text:
            raise SqlSyntaxError(f"expected integer at position {token.pos}")
        self.advance()
        return int(token.text)

    def parse_insert(self) -> Insert:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_ident()
        columns: list[str] = []
        if self.accept_op("("):
            columns.append(self.expect_ident())
            while self.accept_op(","):
                columns.append(self.expect_ident())
            self.expect_op(")")
        self.expect_keyword("VALUES")
        rows = [self.parse_value_tuple()]
        while self.accept_op(","):
            rows.append(self.parse_value_tuple())
        return Insert(table, tuple(columns), tuple(rows))

    def parse_value_tuple(self) -> tuple[Expr, ...]:
        self.expect_op("(")
        values = [self.parse_expr()]
        while self.accept_op(","):
            values.append(self.parse_expr())
        self.expect_op(")")
        return tuple(values)

    def parse_update(self) -> Update:
        self.expect_keyword("UPDATE")
        table = self.expect_ident()
        self.expect_keyword("SET")
        assignments = [self.parse_assignment()]
        while self.accept_op(","):
            assignments.append(self.parse_assignment())
        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        return Update(table, tuple(assignments), where)

    def parse_assignment(self) -> Assignment:
        column = self.expect_ident()
        self.expect_op("=")
        return Assignment(column, self.parse_expr())

    def parse_delete(self) -> Delete:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.expect_ident()
        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        return Delete(table, where)

    # -- DDL --------------------------------------------------------------------

    _TYPE_KEYWORDS = {
        "INTEGER": "integer", "INT": "integer",
        "FLOAT": "float", "REAL": "float",
        "TEXT": "text", "VARCHAR": "text",
        "BOOLEAN": "boolean", "BOOL": "boolean",
    }

    def parse_create(self) -> Statement:
        self.expect_keyword("CREATE")
        if self.accept_keyword("TABLE"):
            return self.parse_create_table()
        if self.accept_keyword("INDEX"):
            return self.parse_create_index()
        raise SqlSyntaxError(
            f"CREATE must be followed by TABLE or INDEX, "
            f"got {self.current.text!r}"
        )

    def parse_create_table(self) -> CreateTable:
        if_not_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("NOT")
            self.expect_keyword("EXISTS")
            if_not_exists = True
        table = self.expect_ident()
        self.expect_op("(")
        columns: list[ColumnDef] = []
        primary_key: str | None = None
        while True:
            if self.accept_keyword("PRIMARY"):
                self.expect_keyword("KEY")
                self.expect_op("(")
                primary_key = self.expect_ident()
                self.expect_op(")")
            else:
                column, is_pk = self.parse_column_def()
                columns.append(column)
                if is_pk:
                    primary_key = column.name
            if not self.accept_op(","):
                break
        self.expect_op(")")
        if not columns:
            raise SqlSyntaxError("CREATE TABLE needs at least one column")
        if primary_key is None:
            raise SqlSyntaxError("CREATE TABLE needs a PRIMARY KEY")
        return CreateTable(table, tuple(columns), primary_key, if_not_exists)

    def parse_column_def(self) -> tuple[ColumnDef, bool]:
        name = self.expect_ident()
        token = self.current
        if token.kind != "keyword" or token.text not in self._TYPE_KEYWORDS:
            raise SqlSyntaxError(
                f"expected a column type at position {token.pos}, "
                f"got {token.text!r}"
            )
        type_name = self._TYPE_KEYWORDS[self.advance().text]
        if self.accept_op("("):
            self.parse_int()  # VARCHAR(n): the size is accepted, unused
            self.expect_op(")")
        nullable = True
        is_pk = False
        while True:
            if self.accept_keyword("NOT"):
                self.expect_keyword("NULL")
                nullable = False
            elif self.accept_keyword("PRIMARY"):
                self.expect_keyword("KEY")
                is_pk = True
                nullable = False
            else:
                break
        return ColumnDef(name, type_name, nullable), is_pk

    def parse_create_index(self) -> CreateIndex:
        # Optional index name (accepted, unused).
        if self.current.kind == "ident":
            self.advance()
        self.expect_keyword("ON")
        table = self.expect_ident()
        self.expect_op("(")
        column = self.expect_ident()
        self.expect_op(")")
        return CreateIndex(table, column)

    def parse_drop(self) -> DropTable:
        self.expect_keyword("DROP")
        self.expect_keyword("TABLE")
        if_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("EXISTS")
            if_exists = True
        return DropTable(self.expect_ident(), if_exists)

    # -- expressions -------------------------------------------------------------

    def parse_expr(self) -> Expr:
        return self.parse_or()

    def parse_or(self) -> Expr:
        left = self.parse_and()
        while self.accept_keyword("OR"):
            left = BinaryOp("OR", left, self.parse_and())
        return left

    def parse_and(self) -> Expr:
        left = self.parse_not()
        while self.accept_keyword("AND"):
            left = BinaryOp("AND", left, self.parse_not())
        return left

    def parse_not(self) -> Expr:
        if self.accept_keyword("NOT"):
            return UnaryOp("NOT", self.parse_not())
        return self.parse_predicate()

    def parse_predicate(self) -> Expr:
        left = self.parse_additive()
        if self.current.kind == "op" and self.current.text in (
            "=", "!=", "<>", "<", "<=", ">", ">=",
        ):
            op = self.advance().text
            if op == "<>":
                op = "!="
            return BinaryOp(op, left, self.parse_additive())
        negated = False
        if self.check_keyword("NOT"):
            following = self.tokens[self.index + 1]
            if following.kind == "keyword" and following.text in (
                "LIKE", "IN", "BETWEEN",
            ):
                self.advance()
                negated = True
        if self.accept_keyword("LIKE"):
            return LikeOp(left, self.parse_additive(), negated)
        if self.accept_keyword("IN"):
            self.expect_op("(")
            items = [self.parse_expr()]
            while self.accept_op(","):
                items.append(self.parse_expr())
            self.expect_op(")")
            return InOp(left, tuple(items), negated)
        if self.accept_keyword("BETWEEN"):
            low = self.parse_additive()
            self.expect_keyword("AND")
            return BetweenOp(left, low, self.parse_additive(), negated)
        if self.accept_keyword("IS"):
            is_negated = self.accept_keyword("NOT")
            self.expect_keyword("NULL")
            return IsNullOp(left, is_negated)
        if negated:
            raise SqlSyntaxError(
                f"dangling NOT at position {self.current.pos}"
            )
        return left

    def parse_additive(self) -> Expr:
        left = self.parse_term()
        while self.current.kind == "op" and self.current.text in ("+", "-"):
            op = self.advance().text
            left = BinaryOp(op, left, self.parse_term())
        return left

    def parse_term(self) -> Expr:
        left = self.parse_factor()
        while self.current.kind == "op" and self.current.text in ("*", "/"):
            op = self.advance().text
            left = BinaryOp(op, left, self.parse_factor())
        return left

    def parse_factor(self) -> Expr:
        token = self.current
        if token.kind == "number":
            self.advance()
            if "." in token.text or "e" in token.text or "E" in token.text:
                return Literal(float(token.text))
            return Literal(int(token.text))
        if token.kind == "string":
            self.advance()
            return Literal(token.text[1:-1].replace("''", "'"))
        if self.accept_keyword("NULL"):
            return Literal(None)
        if self.accept_keyword("TRUE"):
            return Literal(True)
        if self.accept_keyword("FALSE"):
            return Literal(False)
        if self.accept_op("-"):
            return UnaryOp("-", self.parse_factor())
        if self.accept_op("("):
            expr = self.parse_expr()
            self.expect_op(")")
            return expr
        if token.kind == "ident":
            name = self.advance().text
            if self.accept_op("("):
                return self.parse_function_args(name)
            if self.accept_op("."):
                column = self.expect_ident()
                return ColumnRef(column, table=name)
            return ColumnRef(name)
        raise SqlSyntaxError(
            f"unexpected token {token.text!r} at position {token.pos}"
        )

    def parse_function_args(self, name: str) -> Expr:
        upper = name.upper()
        if upper not in AGGREGATE_FUNCTIONS and upper not in SCALAR_FUNCTIONS:
            raise SqlSyntaxError(f"unknown function {name!r}")
        distinct = False
        args: list[Expr] = []
        if self.accept_op(")"):
            return FuncCall(upper, ())
        if self.accept_op("*"):
            self.expect_op(")")
            return FuncCall(upper, (Star(),))
        if self.accept_keyword("DISTINCT"):
            distinct = True
        args.append(self.parse_expr())
        while self.accept_op(","):
            args.append(self.parse_expr())
        self.expect_op(")")
        return FuncCall(upper, tuple(args), distinct)


#: Statement cache: text -> ``(statement, compiled plan)``. The AST is
#: frozen dataclasses and the plan a tree of stateless closures, both
#: functions of the text alone, so one entry is safely shared by every
#: execution of the same text on any store and any thread.
_STATEMENT_CACHE = QueryCache("sql_statements")


def _prepare(sql: str) -> tuple[Statement, Any]:
    statement = Parser(sql).parse_statement()
    return statement, compile_statement(statement)


def prepare_sql(sql: str) -> tuple[Statement, Any]:
    """Parse and compile one SQL statement (cached by query text)."""
    return _STATEMENT_CACHE.get_or_compute(sql, lambda: _prepare(sql))


def parse_sql(sql: str) -> Statement:
    """Parse one SQL statement into its AST (cached by query text).

    The first half of :func:`prepare_sql`'s entry (not a call to it: the
    validator parses on every search, and a frame there is measurable).
    """
    return _STATEMENT_CACHE.get_or_compute(sql, lambda: _prepare(sql))[0]
