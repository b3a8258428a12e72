"""AST → logical plan: name binding, aggregation lowering, windows.

The builder resolves names against a :class:`SchemaProvider` (the catalog,
or a plain dict in tests), expands views (section 5.4: "Identifiers in this
tree are bound and nested views are expanded"), lowers GROUP BY / GROUP BY
ALL / HAVING into :class:`~repro.plan.logical.Aggregate` + Filter, lowers
OVER clauses into stacked :class:`~repro.plan.logical.Window` nodes (one
per distinct partition key set), and lowers QUALIFY into a Filter above the
windows.

The result is a fully bound plan: every column reference is positional and
every expression carries its type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol, Sequence

from repro.engine import expressions as e
from repro.engine.expressions import DEFAULT_REGISTRY, FunctionRegistry
from repro.engine.schema import Column, Schema
from repro.engine.types import SqlType, type_from_name, unify_types
from repro.errors import BindError, SqlError, TypeError_, UserError
from repro.plan import logical as lp
from repro.plan.rewrite import optimize, substitute
from repro.sql import nodes as n


def _locate(exc: UserError, node: object) -> None:
    """Attach ``node``'s source span to an escaping binder error.

    :class:`SqlError` subclasses (bind/type errors) fold the position into
    their message; other user errors (e.g. the catalog's EntityNotFound
    for an unknown table) just gain ``line``/``column`` attributes so the
    analyzer can still point at the offending token.
    """
    span = n.span_of(node)
    if span is None:
        return
    if isinstance(exc, SqlError):
        exc.with_location(span.line, span.column)
    elif getattr(exc, "line", None) is None:
        exc.line = span.line
        exc.column = span.column

#: Functions treated as aggregates when no OVER clause is present.
AGGREGATE_FUNCTIONS = frozenset({
    "count", "count_if", "sum", "avg", "min", "max", "any_value",
    "median", "stddev", "variance", "listagg",
})

#: Functions valid only with an OVER clause.
RANKING_FUNCTIONS = frozenset({"row_number", "rank", "dense_rank"})

#: Aggregates usable as window functions too.
WINDOW_AGGREGATES = frozenset({"sum", "count", "avg", "min", "max", "count_if"})

OFFSET_FUNCTIONS = frozenset({"lag", "lead"})

OTHER_WINDOW_FUNCTIONS = frozenset({"first_value", "last_value"})

WINDOW_FUNCTIONS = (RANKING_FUNCTIONS | WINDOW_AGGREGATES
                    | OFFSET_FUNCTIONS | OTHER_WINDOW_FUNCTIONS)

#: Functions whose first argument is a bare date-part name (``hour`` in
#: ``date_trunc(hour, ts)`` in the paper's Listing 1).
DATE_PART_FUNCTIONS = frozenset({"date_trunc"})


class SchemaProvider(Protocol):
    """What the builder needs from the catalog."""

    def table_schema(self, name: str) -> Schema:
        """Schema of a base/dynamic table, or raise EntityNotFound."""
        ...

    def view_definition(self, name: str) -> Optional[n.Select]:
        """The defining query of a view, or None if ``name`` is not a view."""
        ...


class DictSchemaProvider:
    """A SchemaProvider over a plain ``{name: Schema}`` dict (for tests)."""

    def __init__(self, schemas: dict[str, Schema],
                 views: dict[str, n.Select] | None = None) -> None:
        self._schemas = schemas
        self._views = views or {}

    def table_schema(self, name: str) -> Schema:
        if name not in self._schemas:
            raise BindError(f"unknown table: {name}")
        return self._schemas[name]

    def view_definition(self, name: str) -> Optional[n.Select]:
        return self._views.get(name)


class ParameterSlots(Protocol):
    """What the binder needs to bind an AST :class:`~repro.sql.nodes.Parameter`
    to a :class:`~repro.engine.expressions.BoundParameter` slot. Implemented
    by :class:`repro.api.prepared.ParameterSpec`."""

    def slot_of(self, parameter: n.Parameter) -> int:
        ...


#: Types a parameter may assume from an arithmetic context.
_ARITHMETIC_TYPES = frozenset({SqlType.INT, SqlType.FLOAT, SqlType.TIMESTAMP})


def build_plan(select: n.Select, provider: SchemaProvider,
               registry: FunctionRegistry = DEFAULT_REGISTRY,
               parameters: Optional[ParameterSlots] = None) -> lp.PlanNode:
    """Build a bound logical plan for a query.

    ``parameters`` enables bind parameters (``?`` / ``:name``): each AST
    Parameter binds to the slot the spec assigns it, typed by its
    comparison or arithmetic context; a slot whose contexts conflict —
    say compared against both an INT and a TEXT column — raises
    ``TypeError_``. Without a spec, parameters raise BindError — a DT
    defining query, for example, can never contain one.
    """
    return _Builder(provider, registry, parameters).build_query(select)


def bind_expression(ast: n.Expr, schema: Schema,
                    registry: FunctionRegistry = DEFAULT_REGISTRY,
                    parameters: Optional[ParameterSlots] = None,
                    slot_types: Optional[dict[int, SqlType]] = None,
                    ) -> e.Expression:
    """Bind a standalone AST expression against a schema (the DML paths:
    VALUES rows, UPDATE assignments, WHERE predicates). ``slot_types`` is
    the slot -> type map shared by every expression of one statement, so
    conflicting parameter contexts across them are caught."""
    return _ExprBinder(registry, parameters, slot_types).bind(
        ast, _Scope(schema))


def build_write(statement: n.Insert | n.Update | n.Delete,
                provider: SchemaProvider,
                registry: FunctionRegistry = DEFAULT_REGISTRY,
                parameters: Optional[ParameterSlots] = None) -> lp.Write:
    """Bind an INSERT, UPDATE or DELETE into one :class:`~repro.plan.
    logical.Write` — the one binding every consumer of a DML statement
    (execution, ``prepare()``, the plan cache, the analyzer) reads.

    An UPDATE's source is ``Project(Filter(Scan))``: each assigned column
    is its expression cast to the column type, every other column passes
    through. A DELETE's is ``Filter(Scan)``. Both go through the
    executor's one Filter kernel (zone-map pruned, row ids carried).
    """
    schema = provider.table_schema(statement.table)
    slot_types: dict[int, SqlType] = {}
    source: lp.PlanNode
    if isinstance(statement, n.Insert):
        if statement.query is None:
            positions: tuple[Optional[int], ...] = ()
            for row in statement.rows:
                positions = target_positions(schema, statement.columns,
                                             len(row))
            no_columns = Schema(())
            values = tuple(
                tuple(bind_expression(expr, no_columns, registry, parameters,
                                      slot_types)
                      for expr in row)
                for row in statement.rows)
            return lp.Write("insert", statement.table, schema, None,
                            positions, values)
        source = build_plan(statement.query, provider, registry, parameters)
        positions = target_positions(schema, statement.columns,
                                     len(source.schema))
        return lp.Write("insert", statement.table, schema, optimize(source),
                        positions)
    scan_schema = schema.requalified(statement.table)
    source = lp.Scan(statement.table, scan_schema)
    if statement.where is not None:
        source = lp.Filter(source, bind_expression(
            statement.where, scan_schema, registry, parameters, slot_types))
    if isinstance(statement, n.Update):
        exprs: list[e.Expression] = [
            e.ColumnRef(index, column.type, column.name)
            for index, column in enumerate(scan_schema)]
        assigned: set[int] = set()
        for column_name, expr in statement.assignments:
            index = scan_schema.resolve(column_name)
            if index in assigned:
                raise UserError(f"column {column_name!r} is assigned more "
                                f"than once in UPDATE")
            assigned.add(index)
            exprs[index] = e.Cast(
                bind_expression(expr, scan_schema, registry, parameters,
                                slot_types),
                scan_schema[index].type)
        source = lp.Project(source, tuple(exprs), scan_schema)
    kind = "update" if isinstance(statement, n.Update) else "delete"
    return lp.Write(kind, statement.table, schema, optimize(source))


def target_positions(schema: Schema, names: Sequence[str],
                     width: int) -> tuple[Optional[int], ...]:
    """For each column of ``schema``, the position of the value that fills
    it in an INSERT row of ``width`` values, or None where it takes NULL.
    ``names`` is the INSERT's column list (empty: every column, in order),
    each resolved through :meth:`Schema.resolve` — an unknown name raises
    ``BindError`` and a repeated one ``UserError``."""
    if not names:
        if width != len(schema):
            raise UserError(
                f"INSERT arity mismatch: expected {len(schema)} values, "
                f"got {width}")
        return tuple(range(width))
    targets = [schema.resolve(name) for name in names]
    for position, target in enumerate(targets):
        if target in targets[:position]:
            raise UserError(
                f"column {names[position]!r} is listed more than once in "
                f"INSERT")
    if width != len(names):
        raise UserError(
            f"INSERT arity mismatch: expected {len(names)} values, "
            f"got {width}")
    source = {target: position for position, target in enumerate(targets)}
    return tuple(source.get(index) for index in range(len(schema)))


# ---------------------------------------------------------------------------
# Expression binding
# ---------------------------------------------------------------------------

@dataclass
class _Scope:
    """Binding environment for expressions.

    ``substitutions`` maps AST sub-expressions (by structural equality) to
    pre-bound expressions; aggregation and window lowering register their
    outputs here so post-aggregation expressions bind against them.
    ``group_strict`` enforces the SQL rule that, under aggregation, any
    column reference must come from a GROUP BY expression.
    """

    schema: Schema
    substitutions: list[tuple[n.Expr, e.Expression]] = field(default_factory=list)
    group_strict: bool = False
    allow_aggregates: bool = False

    def lookup_substitution(self, ast: n.Expr) -> Optional[e.Expression]:
        for candidate, bound in self.substitutions:
            if candidate == ast:
                return bound
        return None


class _ExprBinder:
    def __init__(self, registry: FunctionRegistry,
                 parameters: "Optional[ParameterSlots]" = None,
                 slot_types: Optional[dict[int, SqlType]] = None) -> None:
        self._registry = registry
        self._parameters = parameters
        #: Bind slot -> the type its contexts so far imply, one map per
        #: bound statement.
        self._slot_types: dict[int, SqlType] = (
            {} if slot_types is None else slot_types)

    def bind(self, ast: n.Expr, scope: _Scope) -> e.Expression:
        try:
            return self._bind_inner(ast, scope)
        except (BindError, TypeError_) as exc:
            # The innermost failing node raises first, so the position
            # reported is the most specific one available.
            _locate(exc, ast)
            raise

    def _bind_inner(self, ast: n.Expr, scope: _Scope) -> e.Expression:
        substituted = scope.lookup_substitution(ast)
        if substituted is not None:
            return substituted

        if isinstance(ast, n.Lit):
            return e.Literal(ast.value)
        if isinstance(ast, n.Parameter):
            if self._parameters is None:
                raise BindError(
                    f"bind parameter {ast.display()} is not allowed here "
                    "(use a prepared statement)")
            return e.BoundParameter(self._parameters.slot_of(ast),
                                    ast.display())
        if isinstance(ast, n.Name):
            return self._bind_name(ast, scope)
        if isinstance(ast, n.Star):
            raise BindError("'*' is only valid in a select list or COUNT(*)")
        if isinstance(ast, n.BinOp):
            return self._bind_binop(ast, scope)
        if isinstance(ast, n.UnOp):
            if ast.op == "not":
                return e.Not(self.bind(ast.operand, scope))
            if ast.op == "-":
                operand = self.bind(ast.operand, scope)
                return e.Arithmetic("-", e.Literal(0), operand)
            raise BindError(f"unknown unary operator {ast.op!r}")
        if isinstance(ast, n.IsNullExpr):
            return e.IsNull(self.bind(ast.operand, scope), ast.negated)
        if isinstance(ast, n.InListExpr):
            operand = self.bind(ast.operand, scope)
            items = tuple(self.bind(item, scope) for item in ast.items)
            item_type = next((item.type for item in items
                              if item.type != SqlType.NULL), SqlType.NULL)
            operand = self._typed_parameter(operand, item_type)
            items = tuple(self._typed_parameter(item, operand.type)
                          for item in items)
            return e.InList(operand, items, ast.negated)
        if isinstance(ast, n.LikeExpr):
            # LIKE is a TEXT context for both operand and pattern.
            operand = self._typed_parameter(self.bind(ast.operand, scope),
                                            SqlType.TEXT)
            pattern = self._typed_parameter(self.bind(ast.pattern, scope),
                                            SqlType.TEXT)
            return e.Like(operand, pattern, ast.negated)
        if isinstance(ast, n.BetweenExpr):
            operand = self.bind(ast.operand, scope)
            low = self.bind(ast.low, scope)
            high = self.bind(ast.high, scope)
            bound_type = (low.type if low.type != SqlType.NULL
                          else high.type)
            operand = self._typed_parameter(operand, bound_type)
            low = self._typed_parameter(low, operand.type)
            high = self._typed_parameter(high, operand.type)
            between = e.BooleanOp("and", (
                e.Comparison(">=", operand, low),
                e.Comparison("<=", operand, high)))
            return e.Not(between) if ast.negated else between
        if isinstance(ast, n.CaseExpr):
            return self._bind_case(ast, scope)
        if isinstance(ast, n.CastExpr):
            return e.Cast(self.bind(ast.operand, scope),
                          type_from_name(ast.type_name))
        if isinstance(ast, n.PathExpr):
            return e.VariantPath(self.bind(ast.operand, scope), ast.path)
        if isinstance(ast, n.FnCall):
            return self._bind_function(ast, scope)
        raise BindError(f"cannot bind expression {ast!r}")

    def _bind_name(self, ast: n.Name, scope: _Scope) -> e.Expression:
        if scope.group_strict:
            # Under aggregation every legitimate reference arrives through
            # a substitution; a bare name is an ungrouped column.
            raise BindError(
                f"column {ast.display()!r} must appear in GROUP BY "
                "or be used in an aggregate function")
        index = scope.schema.resolve(ast.name, ast.table)
        column = scope.schema[index]
        return e.ColumnRef(index, column.type, column.name)

    def _typed_parameter(self, expr: e.Expression, context_type: SqlType,
                         allowed: "frozenset[SqlType] | None" = None,
                         ) -> e.Expression:
        """Pin an untyped bind parameter to the type its context implies.

        When ``expr`` is a NULL-typed :class:`~repro.engine.expressions.
        BoundParameter` and the surrounding comparison/arithmetic context
        supplies a concrete type, return a re-typed parameter. A slot
        whose contexts in one statement conflict raises ``TypeError_``.
        Anything else passes through untouched.
        """
        if (not isinstance(expr, e.BoundParameter)
                or expr.type != SqlType.NULL
                or context_type in (SqlType.NULL, SqlType.VARIANT)):
            return expr
        if allowed is not None and context_type not in allowed:
            return expr
        existing = self._slot_types.get(expr.slot)
        try:
            self._slot_types[expr.slot] = (
                context_type if existing is None
                else unify_types(existing, context_type))
        except TypeError_:
            raise TypeError_(
                f"bind parameter {expr.label} is used in conflicting type "
                f"contexts: {existing} vs {context_type}") from None
        return e.BoundParameter(expr.slot, expr.label, context_type)

    def _bind_binop(self, ast: n.BinOp, scope: _Scope) -> e.Expression:
        if ast.op in ("and", "or"):
            return e.BooleanOp(ast.op, (self.bind(ast.left, scope),
                                        self.bind(ast.right, scope)))
        left = self.bind(ast.left, scope)
        right = self.bind(ast.right, scope)
        if ast.op in ("=", "!=", "<>", "<", "<=", ">", ">="):
            left = self._typed_parameter(left, right.type)
            right = self._typed_parameter(right, left.type)
            return e.Comparison(ast.op, left, right)
        if ast.op in ("+", "-", "*", "/", "%"):
            left = self._typed_parameter(left, right.type,
                                         allowed=_ARITHMETIC_TYPES)
            right = self._typed_parameter(right, left.type,
                                          allowed=_ARITHMETIC_TYPES)
            return e.Arithmetic(ast.op, left, right)
        if ast.op == "||":
            concat = self._registry.lookup("concat")
            return e.FunctionCall(concat, (left, right))
        raise BindError(f"unknown operator {ast.op!r}")

    def _bind_case(self, ast: n.CaseExpr, scope: _Scope) -> e.Expression:
        whens: list[tuple[e.Expression, e.Expression]] = []
        if ast.operand is not None:
            operand = self.bind(ast.operand, scope)
            for condition, value in ast.whens:
                whens.append((e.Comparison("=", operand, self.bind(condition, scope)),
                              self.bind(value, scope)))
        else:
            for condition, value in ast.whens:
                whens.append((self.bind(condition, scope),
                              self.bind(value, scope)))
        otherwise = (self.bind(ast.otherwise, scope)
                     if ast.otherwise is not None else e.Literal(None))
        return e.Case(tuple(whens), otherwise)

    def _bind_function(self, ast: n.FnCall, scope: _Scope) -> e.Expression:
        if ast.window is not None:
            raise BindError(
                f"window function {ast.name}(...) OVER (...) is not allowed here")
        if ast.name in AGGREGATE_FUNCTIONS:
            raise BindError(f"aggregate function {ast.name} is not allowed here")
        if ast.name in RANKING_FUNCTIONS:
            raise BindError(f"{ast.name} requires an OVER clause")
        if ast.name in ("current_timestamp", "current_role"):
            if ast.args:
                raise BindError(f"{ast.name} takes no arguments")
            return e.ContextFunction(ast.name)
        if ast.name == "iff":
            # IFF is CASE, not a function: only the selected branch is
            # evaluated (``iff(b <> 0, 10 / b, 0)`` must not divide by 0).
            if len(ast.args) != 3:
                raise BindError("iff takes 3 arguments (condition, then, else)")
            condition, then, otherwise = (self.bind(arg, scope)
                                          for arg in ast.args)
            return e.Case(((condition, then),), otherwise)
        args = list(ast.args)
        if ast.name in DATE_PART_FUNCTIONS and args:
            # Bare date-part names (``date_trunc(hour, ts)``) become strings.
            first = args[0]
            if isinstance(first, n.Name) and first.table is None:
                args[0] = n.Lit(first.name)
        function = self._registry.lookup(ast.name)
        return e.FunctionCall(function,
                              tuple(self.bind(arg, scope) for arg in args))


# ---------------------------------------------------------------------------
# Aggregate / window analysis over the AST
# ---------------------------------------------------------------------------

def _aggregate_calls(ast: n.Expr) -> list[n.FnCall]:
    """All aggregate FnCalls (without OVER) in an AST expression."""
    return [node for node in n.walk(ast)
            if isinstance(node, n.FnCall)
            and node.window is None
            and node.name in AGGREGATE_FUNCTIONS]


def _window_calls(ast: n.Expr) -> list[n.FnCall]:
    return [node for node in n.walk(ast)
            if isinstance(node, n.FnCall) and node.window is not None]


def _contains_aggregate(ast: n.Expr) -> bool:
    return bool(_aggregate_calls(ast))


_AGG_RESULT_TYPES: dict[str, Callable[[SqlType], SqlType]] = {
    "count": lambda arg: SqlType.INT,
    "count_if": lambda arg: SqlType.INT,
    "sum": lambda arg: arg if arg in (SqlType.INT, SqlType.FLOAT) else SqlType.FLOAT,
    "avg": lambda arg: SqlType.FLOAT,
    "min": lambda arg: arg,
    "max": lambda arg: arg,
    "any_value": lambda arg: arg,
    "median": lambda arg: SqlType.FLOAT,
    "stddev": lambda arg: SqlType.FLOAT,
    "variance": lambda arg: SqlType.FLOAT,
    "listagg": lambda arg: SqlType.TEXT,
}


def _dedupe(asts: Sequence[n.FnCall]) -> list[n.FnCall]:
    unique: list[n.FnCall] = []
    for ast in asts:
        if ast not in unique:
            unique.append(ast)
    return unique


# ---------------------------------------------------------------------------
# The builder
# ---------------------------------------------------------------------------

class _Builder:
    def __init__(self, provider: SchemaProvider, registry: FunctionRegistry,
                 parameters: "Optional[ParameterSlots]" = None) -> None:
        self._provider = provider
        self._registry = registry
        self._binder = _ExprBinder(registry, parameters)
        self._view_stack: list[str] = []

    # -- entry points --------------------------------------------------------

    def build_query(self, select: n.Select) -> lp.PlanNode:
        plan = self._build_core(select)
        if select.union_all:
            inputs = [plan] + [self._build_core(core) for core in select.union_all]
            first = inputs[0].schema
            for other in inputs[1:]:
                if len(other.schema) != len(first):
                    raise BindError("UNION ALL inputs must have the same arity")
                for left_col, right_col in zip(first, other.schema):
                    unify_types(left_col.type, right_col.type)
            plan = lp.UnionAll(tuple(inputs))
        if select.order_by:
            plan = self._apply_order_by(plan, select)
        if select.limit is not None:
            plan = lp.Limit(plan, select.limit)
        return plan

    def _apply_order_by(self, plan: lp.PlanNode,
                        select: n.Select) -> lp.PlanNode:
        """Bind ORDER BY keys: against the output schema (aliases and
        ordinals), or — when the root is a Project over a single core —
        against the *input* columns, so ``SELECT id ... ORDER BY amt``
        works even though ``amt`` is not projected."""
        if isinstance(plan, lp.Project) and not select.union_all:
            child = plan.child
            bindings = dict(enumerate(plan.exprs))
            keys: list[tuple[e.Expression, bool]] = []
            for ast, descending in select.order_by:
                if isinstance(ast, n.Lit):
                    # Ordinals always target the output list (no fallback).
                    bound = substitute(
                        self._bind_order_key(ast, plan.schema), bindings)
                else:
                    try:
                        bound = substitute(
                            self._bind_order_key(ast, plan.schema), bindings)
                    except BindError:
                        bound = self._binder.bind(ast, _Scope(child.schema))
                keys.append((bound, descending))
            return lp.Project(lp.Sort(child, tuple(keys)),
                              plan.exprs, plan.schema)
        keys = tuple((self._bind_order_key(ast, plan.schema), descending)
                     for ast, descending in select.order_by)
        return lp.Sort(plan, keys)

    def _bind_order_key(self, ast: n.Expr, schema: Schema) -> e.Expression:
        # ORDER BY <ordinal> refers to an output column.
        if isinstance(ast, n.Lit) and isinstance(ast.value, int):
            index = ast.value - 1
            if not 0 <= index < len(schema):
                raise BindError(f"ORDER BY position {ast.value} is out of range")
            column = schema[index]
            return e.ColumnRef(index, column.type, column.name)
        return self._binder.bind(ast, _Scope(schema))

    # -- FROM clause ---------------------------------------------------------

    def _build_from(self, ref: n.TableRef) -> lp.PlanNode:
        if isinstance(ref, n.NamedTable):
            return self._build_named(ref)
        if isinstance(ref, n.SubqueryRef):
            plan = self.build_query(ref.query)
            return _requalify(plan, ref.alias)
        if isinstance(ref, n.JoinRef):
            left = self._build_from(ref.left)
            right = self._build_from(ref.right)
            condition = None
            if ref.condition is not None:
                joined_schema = left.schema.concat(right.schema)
                condition = self._binder.bind(ref.condition, _Scope(joined_schema))
            return lp.Join(ref.kind, left, right, condition)
        if isinstance(ref, n.FlattenRef):
            source = self._build_from(ref.source)
            input_expr = self._binder.bind(ref.input, _Scope(source.schema))
            extra = Schema((
                Column("value", SqlType.VARIANT, ref.alias),
                Column("index", SqlType.INT, ref.alias),
            ))
            return lp.Flatten(source, input_expr, ref.alias,
                              source.schema.concat(extra))
        raise BindError(f"unsupported FROM item: {ref!r}")

    def _build_named(self, ref: n.NamedTable) -> lp.PlanNode:
        view_query = self._provider.view_definition(ref.name)
        if view_query is not None:
            if ref.name in self._view_stack:
                raise BindError(f"view {ref.name!r} is recursive")
            self._view_stack.append(ref.name)
            try:
                plan = self.build_query(view_query)
            finally:
                self._view_stack.pop()
            return _requalify(plan, ref.binding_name)
        try:
            schema = self._provider.table_schema(ref.name)
        except UserError as exc:
            _locate(exc, ref)
            raise
        return lp.Scan(ref.name, schema.requalified(ref.binding_name))

    # -- one SELECT core -------------------------------------------------------

    def _build_core(self, select: n.Select) -> lp.PlanNode:
        if not select.items:
            raise BindError("SELECT list is empty")

        plan: lp.PlanNode
        if select.from_ is not None:
            plan = self._build_from(select.from_)
        else:
            plan = lp.Values(Schema(()), (), 1)  # SELECT without FROM: one row

        if select.where is not None:
            if _contains_aggregate(select.where) or _window_calls(select.where):
                raise BindError("WHERE cannot contain aggregates or window functions")
            predicate = self._binder.bind(select.where, _Scope(plan.schema))
            plan = lp.Filter(plan, predicate)

        # Expand stars now; everything below works on concrete items.
        items = self._expand_stars(select.items, plan.schema)

        # ----- aggregation ----------------------------------------------------
        aggregate_asts: list[n.FnCall] = []
        for item in items:
            aggregate_asts.extend(_aggregate_calls(item.expr))
        if select.having is not None:
            aggregate_asts.extend(_aggregate_calls(select.having))
        aggregate_asts = _dedupe(aggregate_asts)

        group_asts = self._group_exprs(select, items)
        substitutions: list[tuple[n.Expr, e.Expression]] = []

        if aggregate_asts or group_asts:
            plan, substitutions = self._build_aggregate(
                plan, group_asts, aggregate_asts, items)
            if select.having is not None:
                scope = _Scope(plan.schema, substitutions, group_strict=True)
                plan = lp.Filter(plan, self._binder.bind(select.having, scope))
        elif select.having is not None:
            raise BindError("HAVING requires GROUP BY or aggregates")

        # ----- window functions -----------------------------------------------
        window_asts: list[n.FnCall] = []
        for item in items:
            window_asts.extend(_window_calls(item.expr))
        if select.qualify is not None:
            window_asts.extend(_window_calls(select.qualify))
        window_asts = _dedupe(window_asts)
        if window_asts:
            plan, substitutions = self._build_windows(
                plan, window_asts, substitutions,
                group_strict=bool(aggregate_asts or group_asts))

        if select.qualify is not None:
            if not window_asts:
                raise BindError("QUALIFY requires a window function")
            # QUALIFY may reference select-item aliases (Snowflake allows
            # ``QUALIFY rn = 1`` where rn aliases a window call).
            qualify_subs = list(substitutions)
            scope = _Scope(plan.schema, substitutions,
                           group_strict=bool(aggregate_asts or group_asts))
            for item in items:
                if item.alias:
                    try:
                        bound = self._binder.bind(item.expr, scope)
                    except BindError:
                        continue
                    qualify_subs.append((n.Name(item.alias), bound))
            qualify_scope = _Scope(plan.schema, qualify_subs,
                                   group_strict=bool(aggregate_asts
                                                     or group_asts))
            plan = lp.Filter(plan,
                             self._binder.bind(select.qualify, qualify_scope))

        # ----- final projection ------------------------------------------------
        scope = _Scope(plan.schema, substitutions,
                       group_strict=bool(aggregate_asts or group_asts))
        exprs: list[e.Expression] = []
        names: list[str] = []
        for index, item in enumerate(items):
            exprs.append(self._binder.bind(item.expr, scope))
            names.append(self._output_name(item, index))
        plan = lp.Project(plan, tuple(exprs),
                          lp.make_projection_schema(exprs, names))

        if select.distinct:
            plan = lp.Distinct(plan)
        return plan

    def _expand_stars(self, items: Sequence[n.SelectItem],
                      schema: Schema) -> list[n.SelectItem]:
        expanded: list[n.SelectItem] = []
        for item in items:
            if isinstance(item.expr, n.Star):
                for column in schema:
                    if item.expr.table is not None and column.table != item.expr.table:
                        continue
                    expanded.append(n.SelectItem(
                        n.Name(column.name, column.table), None))
                if not expanded:
                    raise BindError("'*' expanded to zero columns")
            else:
                expanded.append(item)
        return expanded

    def _group_exprs(self, select: n.Select,
                     items: Sequence[n.SelectItem]) -> list[n.Expr]:
        if select.group_by is None:
            return []
        if isinstance(select.group_by, n.GroupByAll):
            # GROUP BY ALL (Listing 1): group by every select item that
            # contains no aggregate.
            return [item.expr for item in items
                    if not _contains_aggregate(item.expr)
                    and not _window_calls(item.expr)]
        group: list[n.Expr] = []
        for expr in select.group_by:
            if isinstance(expr, n.Lit) and isinstance(expr.value, int):
                index = expr.value - 1
                if not 0 <= index < len(items):
                    raise BindError(f"GROUP BY position {expr.value} is out of range")
                group.append(items[index].expr)
            else:
                group.append(expr)
        return group

    def _build_aggregate(
        self, plan: lp.PlanNode, group_asts: list[n.Expr],
        aggregate_asts: list[n.FnCall], items: Sequence[n.SelectItem],
    ) -> tuple[lp.PlanNode, list[tuple[n.Expr, e.Expression]]]:
        input_scope = _Scope(plan.schema)
        group_bound = [self._binder.bind(ast, input_scope) for ast in group_asts]

        calls: list[lp.AggregateCall] = []
        for position, ast in enumerate(aggregate_asts):
            arg: Optional[e.Expression] = None
            if ast.name == "count" and (not ast.args or isinstance(ast.args[0], n.Star)):
                arg = None
                arg_type = SqlType.INT
            else:
                if not ast.args:
                    raise BindError(f"{ast.name} requires an argument")
                if len(ast.args) > 1:
                    raise BindError(f"{ast.name} takes a single argument")
                arg = self._binder.bind(ast.args[0], input_scope)
                arg_type = arg.type
            output_type = _AGG_RESULT_TYPES[ast.name](arg_type)
            calls.append(lp.AggregateCall(
                ast.name, arg, ast.distinct, f"agg_{position}", output_type))

        columns: list[Column] = []
        for position, (ast, bound) in enumerate(zip(group_asts, group_bound)):
            name = ast.name if isinstance(ast, n.Name) else f"group_{position}"
            columns.append(Column(name, bound.type))
        for call in calls:
            columns.append(Column(call.output_name, call.output_type))
        schema = Schema(columns)
        node = lp.Aggregate(plan, tuple(group_bound), tuple(calls), schema)

        substitutions: list[tuple[n.Expr, e.Expression]] = []
        for position, ast in enumerate(group_asts):
            column = schema[position]
            substitutions.append(
                (ast, e.ColumnRef(position, column.type, column.name)))
        offset = len(group_asts)
        for position, ast in enumerate(aggregate_asts):
            column = schema[offset + position]
            substitutions.append(
                (ast, e.ColumnRef(offset + position, column.type, column.name)))
        return node, substitutions

    def _build_windows(
        self, plan: lp.PlanNode, window_asts: list[n.FnCall],
        substitutions: list[tuple[n.Expr, e.Expression]], group_strict: bool,
    ) -> tuple[lp.PlanNode, list[tuple[n.Expr, e.Expression]]]:
        # Group calls by their PARTITION BY expression list; one Window node
        # per distinct partition set, stacked bottom-up.
        partitions: list[tuple[n.Expr, ...]] = []
        for ast in window_asts:
            key = ast.window.partition_by
            if key not in partitions:
                partitions.append(key)

        substitutions = list(substitutions)
        for partition_key in partitions:
            calls_here = [ast for ast in window_asts
                          if ast.window.partition_by == partition_key]
            scope = _Scope(plan.schema, substitutions, group_strict=group_strict)
            partition_bound = tuple(self._binder.bind(expr, scope)
                                    for expr in partition_key)
            bound_calls: list[lp.WindowCall] = []
            columns = list(plan.schema.columns)
            base = len(columns)
            for position, ast in enumerate(calls_here):
                bound_calls.append(self._bind_window_call(ast, scope, position))
                columns.append(Column(bound_calls[-1].output_name,
                                      bound_calls[-1].output_type))
            schema = Schema(columns)
            plan = lp.Window(plan, partition_bound, tuple(bound_calls), schema)
            for position, ast in enumerate(calls_here):
                column = schema[base + position]
                substitutions.append(
                    (ast, e.ColumnRef(base + position, column.type, column.name)))
        return plan, substitutions

    def _bind_window_call(self, ast: n.FnCall, scope: _Scope,
                          position: int) -> lp.WindowCall:
        name = ast.name
        if name not in WINDOW_FUNCTIONS:
            raise BindError(f"{name} is not a window function")
        order_by = tuple((self._binder.bind(expr, scope), descending)
                         for expr, descending in ast.window.order_by)
        arg: Optional[e.Expression] = None
        offset = 1
        if name in RANKING_FUNCTIONS:
            if ast.args:
                raise BindError(f"{name} takes no arguments")
            if name in ("rank", "dense_rank") and not order_by:
                raise BindError(f"{name} requires ORDER BY")
            output_type = SqlType.INT
        elif name in OFFSET_FUNCTIONS:
            if not ast.args:
                raise BindError(f"{name} requires an argument")
            arg = self._binder.bind(ast.args[0], scope)
            if len(ast.args) > 1:
                literal = ast.args[1]
                if not (isinstance(literal, n.Lit) and isinstance(literal.value, int)):
                    raise BindError(f"{name} offset must be an integer literal")
                offset = literal.value
            if not order_by:
                raise BindError(f"{name} requires ORDER BY")
            output_type = arg.type
        elif name == "count" and (not ast.args or isinstance(ast.args[0], n.Star)):
            output_type = SqlType.INT
        else:
            if not ast.args:
                raise BindError(f"{name} requires an argument")
            arg = self._binder.bind(ast.args[0], scope)
            output_type = _AGG_RESULT_TYPES.get(name, lambda t: t)(arg.type)
        return lp.WindowCall(name, arg, order_by, offset,
                             f"win_{position}", output_type)

    def _output_name(self, item: n.SelectItem, index: int) -> str:
        if item.alias:
            return item.alias
        if isinstance(item.expr, n.Name):
            return item.expr.name
        expr = item.expr
        # Peel casts/paths for a friendlier derived name.
        while isinstance(expr, (n.CastExpr, n.PathExpr)):
            if isinstance(expr, n.PathExpr):
                return expr.path[-1]
            expr = expr.operand
        if isinstance(expr, n.Name):
            return expr.name
        if isinstance(expr, n.FnCall):
            return expr.name
        return f"col_{index}"


def _requalify(plan: lp.PlanNode, alias: str) -> lp.PlanNode:
    """Requalify a subplan's output columns under ``alias``.

    Implemented as a zero-cost Project so the plan node itself stays
    immutable; the optimizer collapses adjacent projections.
    """
    schema = plan.schema.requalified(alias)
    exprs = tuple(e.ColumnRef(index, column.type, column.name)
                  for index, column in enumerate(schema))
    return lp.Project(plan, exprs, schema)
