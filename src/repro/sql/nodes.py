"""SQL abstract syntax tree.

These are *unbound* nodes produced by :mod:`repro.sql.parser`; the plan
builder (:mod:`repro.plan.builder`) binds names and types against the
catalog, producing logical plans over bound expressions.

The node set covers everything needed for the paper:

* Listing 1's queries (joins, variant paths, casts, ``date_trunc``,
  ``count_if``, ``GROUP BY ALL``),
* the incrementally supported operator classes of section 3.3.2
  (projections, filters, union-all, inner/outer joins, LATERAL FLATTEN,
  distinct and grouped aggregation, partitioned window functions),
* the full-refresh-only constructs (ORDER BY / LIMIT at the top level),
* the DDL/DML surface (CREATE [DYNAMIC] TABLE / VIEW, INSERT, DELETE,
  UPDATE, DROP/UNDROP, ALTER DYNAMIC TABLE ... SUSPEND/RESUME/REFRESH).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

# ---------------------------------------------------------------------------
# Source spans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    """The 1-based source position of an AST node's first token.

    Spans ride *outside* dataclass equality: the parser attaches them to
    frozen nodes via :func:`set_span` (``object.__setattr__``), so two
    structurally identical expressions from different source positions
    still compare equal — the builder's substitution machinery depends on
    that.
    """

    line: int
    column: int

    def describe(self) -> str:
        return f"line {self.line}, column {self.column}"


def set_span(node: object, span: "Optional[Span]") -> None:
    """Attach a source span to a (possibly frozen) AST node."""
    if span is not None:
        object.__setattr__(node, "span", span)


def span_of(node: object) -> "Optional[Span]":
    """The source span attached to an AST node, or None."""
    return getattr(node, "span", None)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class for AST expressions.

    ``span`` is the position of the node's first token when the node came
    from the parser (None for synthesized nodes); see :class:`Span`.
    """

    span: Optional[Span] = None


@dataclass(frozen=True)
class Lit(Expr):
    """A literal: int, float, str, bool, or None."""

    value: object


@dataclass(frozen=True)
class Name(Expr):
    """A possibly-qualified column reference (``a`` or ``t.a``)."""

    name: str
    table: Optional[str] = None

    def display(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star(Expr):
    """``*`` or ``t.*`` in a select list (or ``COUNT(*)``)."""

    table: Optional[str] = None


@dataclass(frozen=True)
class Parameter(Expr):
    """A bind parameter: positional ``?`` (``index`` is the 0-based order
    of appearance) or named ``:name``. Values are supplied at execution
    time through the prepared-statement API; plans bind these to
    :class:`repro.engine.expressions.BoundParameter` slots."""

    index: Optional[int] = None
    name: Optional[str] = None

    def display(self) -> str:
        if self.name is not None:
            return f":{self.name}"
        return f"?{(self.index or 0) + 1}"


@dataclass(frozen=True)
class BinOp(Expr):
    """Binary operator: arithmetic, comparison, AND/OR, ``||``."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnOp(Expr):
    """Unary operator: ``-`` or NOT."""

    op: str
    operand: Expr


@dataclass(frozen=True)
class IsNullExpr(Expr):
    operand: Expr
    negated: bool = False


@dataclass(frozen=True)
class InListExpr(Expr):
    operand: Expr
    items: tuple[Expr, ...]
    negated: bool = False


@dataclass(frozen=True)
class BetweenExpr(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass(frozen=True)
class LikeExpr(Expr):
    operand: Expr
    pattern: Expr
    negated: bool = False


@dataclass(frozen=True)
class CaseExpr(Expr):
    """Searched or simple CASE (simple form carries ``operand``)."""

    whens: tuple[tuple[Expr, Expr], ...]
    otherwise: Optional[Expr] = None
    operand: Optional[Expr] = None


@dataclass(frozen=True)
class CastExpr(Expr):
    """``CAST(x AS type)`` or the postfix ``x::type``."""

    operand: Expr
    type_name: str


@dataclass(frozen=True)
class PathExpr(Expr):
    """VARIANT path access ``expr:key1.key2`` (Listing 1 uses
    ``e.payload:time``)."""

    operand: Expr
    path: tuple[str, ...]


@dataclass(frozen=True)
class WindowSpec:
    """``OVER (PARTITION BY ... [ORDER BY ...])``."""

    partition_by: tuple[Expr, ...] = ()
    order_by: tuple[tuple[Expr, bool], ...] = ()  # (expr, descending)


@dataclass(frozen=True)
class FnCall(Expr):
    """A function call; covers scalar functions, aggregates, and window
    functions (``window`` is set when an OVER clause is present)."""

    name: str
    args: tuple[Expr, ...] = ()
    distinct: bool = False
    window: Optional[WindowSpec] = None


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


class TableRef:
    """Base class for FROM-clause items."""

    span: Optional[Span] = None


@dataclass(frozen=True)
class NamedTable(TableRef):
    name: str
    alias: Optional[str] = None

    @property
    def binding_name(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class SubqueryRef(TableRef):
    query: "Select"
    alias: str


@dataclass(frozen=True)
class JoinRef(TableRef):
    """A join between two table references.

    ``kind`` is one of ``inner``, ``left``, ``right``, ``full``, ``cross``.
    ``condition`` is None only for cross joins.
    """

    kind: str
    left: TableRef
    right: TableRef
    condition: Optional[Expr] = None


@dataclass(frozen=True)
class FlattenRef(TableRef):
    """``<ref>, LATERAL FLATTEN(input => expr) [AS alias]``.

    Produces one output row per element of the flattened array, exposing
    ``value`` (and ``index``) columns under ``alias``.
    """

    source: TableRef
    input: Expr
    alias: str = "f"


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: Optional[str] = None


@dataclass(frozen=True)
class GroupByAll:
    """Marker for ``GROUP BY ALL`` (group by every non-aggregate select
    item), as used in the paper's Listing 1."""


@dataclass(frozen=True)
class Select:
    """One SELECT block, or a UNION ALL chain (``union_all`` non-empty)."""

    items: tuple[SelectItem, ...] = ()
    from_: Optional[TableRef] = None
    where: Optional[Expr] = None
    group_by: Union[tuple[Expr, ...], GroupByAll, None] = None
    having: Optional[Expr] = None
    qualify: Optional[Expr] = None
    distinct: bool = False
    union_all: tuple["Select", ...] = ()
    order_by: tuple[tuple[Expr, bool], ...] = ()
    limit: Optional[int] = None


# ---------------------------------------------------------------------------
# Walking
# ---------------------------------------------------------------------------


def children(expr: Expr) -> Iterator[Expr]:
    """The direct sub-expressions of ``expr``, in source order (an OVER
    clause's PARTITION BY and ORDER BY keys included)."""
    if isinstance(expr, BinOp):
        yield expr.left
        yield expr.right
    elif isinstance(expr, (UnOp, IsNullExpr, CastExpr, PathExpr)):
        yield expr.operand
    elif isinstance(expr, InListExpr):
        yield expr.operand
        yield from expr.items
    elif isinstance(expr, BetweenExpr):
        yield expr.operand
        yield expr.low
        yield expr.high
    elif isinstance(expr, LikeExpr):
        yield expr.operand
        yield expr.pattern
    elif isinstance(expr, CaseExpr):
        if expr.operand is not None:
            yield expr.operand
        for when, then in expr.whens:
            yield when
            yield then
        if expr.otherwise is not None:
            yield expr.otherwise
    elif isinstance(expr, FnCall):
        yield from expr.args
        if expr.window is not None:
            yield from expr.window.partition_by
            for order_expr, __ in expr.window.order_by:
                yield order_expr


def walk(expr: Expr) -> Iterator[Expr]:
    """``expr`` and every sub-expression of it, pre-order."""
    yield expr
    for child in children(expr):
        yield from walk(child)


def table_refs(ref: Optional[TableRef]) -> Iterator[TableRef]:
    """``ref`` and every FROM item nested in it (join sides, a FLATTEN's
    source), pre-order; a subquery is yielded but not entered."""
    if ref is None:
        return
    yield ref
    if isinstance(ref, JoinRef):
        yield from table_refs(ref.left)
        yield from table_refs(ref.right)
    elif isinstance(ref, FlattenRef):
        yield from table_refs(ref.source)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Statement:
    """Base class for top-level statements."""

    span: Optional[Span] = None


@dataclass(frozen=True)
class Query(Statement):
    select: Select


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_name: str


@dataclass(frozen=True)
class CreateTable(Statement):
    name: str
    columns: tuple[ColumnDef, ...]
    or_replace: bool = False
    if_not_exists: bool = False


@dataclass(frozen=True)
class CreateView(Statement):
    name: str
    query: Select
    or_replace: bool = False


@dataclass(frozen=True)
class CreateDynamicTable(Statement):
    """``CREATE [OR REPLACE] DYNAMIC TABLE name TARGET_LAG = ...
    WAREHOUSE = ... [REFRESH_MODE = ...] [INITIALIZE = ...] AS query``.

    ``target_lag`` is either a duration string (e.g. ``'1 minute'``) or the
    literal ``"downstream"``. ``warehouse`` may be None, in which case the
    executing session must supply a default warehouse. ``refresh_mode`` is
    ``auto`` (default), ``full``, or ``incremental``. ``initialize`` is
    ``on_create`` (default, synchronous) or ``on_schedule`` (section 3.1).
    """

    name: str
    query: Select
    target_lag: str
    warehouse: Optional[str]
    refresh_mode: str = "auto"
    initialize: str = "on_create"
    or_replace: bool = False


@dataclass(frozen=True)
class Insert(Statement):
    table: str
    columns: tuple[str, ...] = ()
    rows: tuple[tuple[Expr, ...], ...] = ()
    query: Optional[Select] = None


@dataclass(frozen=True)
class Delete(Statement):
    table: str
    where: Optional[Expr] = None


@dataclass(frozen=True)
class Update(Statement):
    table: str
    assignments: tuple[tuple[str, Expr], ...] = ()
    where: Optional[Expr] = None


@dataclass(frozen=True)
class Drop(Statement):
    kind: str  # "table" | "view" | "dynamic table"
    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class Undrop(Statement):
    kind: str
    name: str


@dataclass(frozen=True)
class AlterDynamicTable(Statement):
    """``ALTER DYNAMIC TABLE name SUSPEND | RESUME | REFRESH`` or
    ``... SET key = value [, ...]`` (failure-policy options: RETRIES,
    BACKOFF, BACKOFF_FACTOR, ERROR_THRESHOLD)."""

    name: str
    action: str  # "suspend" | "resume" | "refresh" | "set"
    #: ``(key, value)`` pairs for the "set" action; empty otherwise.
    options: tuple = ()


@dataclass(frozen=True)
class AlterTableRename(Statement):
    name: str
    new_name: str


@dataclass(frozen=True)
class CloneEntity(Statement):
    """``CREATE [DYNAMIC] TABLE name CLONE source`` — zero-copy cloning
    (section 3.4): the new entity is created "by copying only its
    metadata"; cloned DTs "can avoid reinitialization in many cases"."""

    kind: str  # "table" | "dynamic table"
    name: str
    source: str


@dataclass(frozen=True)
class BeginTransaction(Statement):
    """``BEGIN [TRANSACTION | WORK]`` — open an explicit multi-statement
    transaction on the executing session. Reads inside it see the
    snapshot taken at BEGIN plus the transaction's own staged writes;
    nothing is visible to other sessions until COMMIT."""


@dataclass(frozen=True)
class CommitTransaction(Statement):
    """``COMMIT [TRANSACTION | WORK]`` — atomically apply the open
    transaction's staged writes under one HLC commit timestamp."""


@dataclass(frozen=True)
class RollbackTransaction(Statement):
    """``ROLLBACK [TRANSACTION | WORK]`` or ``ROLLBACK TO [SAVEPOINT]
    <name>``. Without a savepoint the open transaction is discarded
    wholesale; with one, staged writes are restored to the savepoint and
    the transaction stays open."""

    savepoint: Optional[str] = None


@dataclass(frozen=True)
class Savepoint(Statement):
    """``SAVEPOINT <name>`` — capture the open transaction's staged-write
    state so a later ``ROLLBACK TO <name>`` can restore it."""

    name: str


@dataclass(frozen=True)
class Recluster(Statement):
    """``ALTER TABLE name RECLUSTER`` — a data-equivalent maintenance
    operation (section 5.5.2): rewrites partitions without changing logical
    contents."""

    name: str
