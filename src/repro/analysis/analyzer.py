"""Semantic analysis passes over parsed statements and bound plans.

The analyzer sits between binding and optimization: it reuses the plan
builder to bind and type-check a statement (converting the resulting
:class:`~repro.errors.SqlError`/catalog errors into ``RPR00x``
diagnostics with source positions), then runs purely syntactic predicate
lints over the AST (``RPR01x``) and — when binding succeeded — the
incrementality lints over the bound plan (``RPR02x``), wiring the
FULL-refresh reasons of :func:`repro.plan.properties.incrementalizability`
and the stateful-fallback reasons of
:func:`repro.ivm.aggstate.refresh_strategy` into user-visible
diagnostics.

Entry points:

* :func:`analyze_statement` — any parsed statement (what
  ``Session.analyze`` calls after parsing);
* :func:`analyze_bound_query` — predicate + incrementality passes over a
  query whose plan is already bound (used by ``EXPLAIN``, by
  ``Database.create_dynamic_table`` and by strict mode on a SELECT, which
  have a plan in hand and must not pay a second bind);
* :func:`analyze_bound_write` — the predicate lints of a DML statement
  whose :class:`~repro.plan.logical.Write` is already bound (strict mode
  on an INSERT, UPDATE or DELETE).

Strict mode analyzes the plan or ``Write`` a statement then runs, on
every entry point, one-shot or prepared; a statement that does not bind
is rejected with :func:`diagnostic_from_error`'s diagnostic.

A DML statement is bound by the one DML binder,
:func:`~repro.plan.builder.build_write`, exactly as execution binds it,
so analysis reports an error on a statement if and only if
``Session.prepare`` refuses it.

Analysis never executes anything and never raises for problems *in the
analyzed statement* — those become diagnostics; only misuse of the
analyzer itself (e.g. an unregistered code) raises.
"""

from __future__ import annotations

import difflib
from typing import Iterable, Iterator, Optional, Union

from repro.engine.expressions import DEFAULT_REGISTRY
from repro.engine.schema import Schema
from repro.errors import (BindError, CatalogError, EntityNotFound,
                          ParseError, SqlError, TypeError_, UserError)
from repro.analysis.diagnostics import (AnalysisReport, Diagnostic,
                                        Severity, make_diagnostic)
from repro.plan import logical as lp
from repro.plan.builder import build_plan, build_write
from repro.plan.properties import incrementalizability
from repro.sql import nodes as n

#: Comparison operators participating in the predicate lints.
_COMPARISONS = ("=", "!=", "<>", "<", "<=", ">", ">=")

#: Substring → fix hint for the FULL-refresh reasons produced by
#: plan/properties.py. Keys are matched against the reason text so new
#: reasons degrade to hint-less diagnostics instead of breaking.
_FULL_REFRESH_HINTS = (
    ("ORDER BY", "drop the ORDER BY from the defining query and sort in "
                 "the reading query instead"),
    ("LIMIT", "drop the LIMIT from the defining query; a dynamic table "
              "stores the whole relation"),
    ("grouping on a FLOAT", "cast the grouping key to NUMBER before "
                            "grouping"),
    ("partitioning on a FLOAT", "cast the partition key to NUMBER before "
                                "partitioning"),
    ("joining on a FLOAT", "cast the join keys to NUMBER on both sides"),
    ("unpartitioned window", "add a PARTITION BY clause so the window "
                             "maintains per-partition state"),
    ("volatile", "volatile functions are re-evaluated per refresh; use "
                 "an IMMUTABLE function or precompute the value"),
    ("context functions", "store the context value in a base-table "
                          "column at write time instead"),
)


def _hint_for_reason(reason: str) -> Optional[str]:
    for needle, hint in _FULL_REFRESH_HINTS:
        if needle in reason:
            return hint
    return None


def _selects_of(select: n.Select) -> Iterator[n.Select]:
    """The select itself, its UNION ALL branches, and every FROM-clause
    subquery, recursively."""
    yield select
    for branch in select.union_all:
        yield from _selects_of(branch)
    for ref in n.table_refs(select.from_):
        if isinstance(ref, n.SubqueryRef):
            yield from _selects_of(ref.query)


def _is_constant(expr: n.Expr) -> bool:
    """Whether the expression references no columns, parameters, or
    function calls — i.e. it folds to the same value for every row."""
    if isinstance(expr, n.Lit):
        return True
    if isinstance(expr, (n.Name, n.Star, n.Parameter, n.FnCall)):
        return False
    children = list(n.children(expr))
    return bool(children) and all(_is_constant(c) for c in children)


# ---------------------------------------------------------------------------
# Predicate lints (RPR01x)
# ---------------------------------------------------------------------------

#: Literal value classes comparable within the interval lattice. bool is
#: excluded explicitly (it is an int subclass but TRUE/FALSE bounds make
#: no useful intervals).
def _comparable(a: object, b: object) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return False
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return True
    return isinstance(a, str) and isinstance(b, str)


class _ColumnFacts:
    """Accumulated constraints on one column across AND-ed conjuncts:
    an interval, a not-equal set, and an IS NULL assertion. Any
    comparison implies the column is non-NULL, so ``x = 5 AND x IS
    NULL`` is contradictory too."""

    def __init__(self) -> None:
        self.low: Optional[object] = None
        self.low_strict = False
        self.high: Optional[object] = None
        self.high_strict = False
        self.not_equal: set = set()
        self.asserted_null = False
        self.compared = False

    def _conflict(self) -> Optional[str]:
        if self.asserted_null and self.compared:
            return "IS NULL contradicts a comparison on the same column"
        if (self.low is not None and self.high is not None
                and _comparable(self.low, self.high)):
            lo_op = ">" if self.low_strict else ">="
            hi_op = "<" if self.high_strict else "<="
            if self.low > self.high:  # type: ignore[operator]
                return (f"requires {lo_op} {self.low!r} and {hi_op} "
                        f"{self.high!r} simultaneously")
            if (self.low == self.high
                    and (self.low_strict or self.high_strict)):
                return f"the bounds around {self.low!r} exclude it"
        if (self.low is not None and self.low == self.high
                and not self.low_strict and not self.high_strict
                and self.low in self.not_equal):
            return f"requires = {self.low!r} and != {self.low!r}"
        return None

    def narrow_low(self, value: object, strict: bool) -> None:
        self.compared = True
        if self.low is None or not _comparable(value, self.low):
            self.low, self.low_strict = value, strict
        elif value > self.low or (value == self.low and strict):  # type: ignore[operator]
            self.low, self.low_strict = value, strict

    def narrow_high(self, value: object, strict: bool) -> None:
        self.compared = True
        if self.high is None or not _comparable(value, self.high):
            self.high, self.high_strict = value, strict
        elif value < self.high or (value == self.high and strict):  # type: ignore[operator]
            self.high, self.high_strict = value, strict

    def apply(self, op: str, value: object) -> Optional[str]:
        """Apply ``column <op> value``; returns the contradiction reason
        when the constraint set became unsatisfiable."""
        if op == "=":
            self.narrow_low(value, False)
            self.narrow_high(value, False)
        elif op in ("!=", "<>"):
            self.compared = True
            self.not_equal.add(value)
        elif op == "<":
            self.narrow_high(value, True)
        elif op == "<=":
            self.narrow_high(value, False)
        elif op == ">":
            self.narrow_low(value, True)
        elif op == ">=":
            self.narrow_low(value, False)
        return self._conflict()

    def assert_null(self) -> Optional[str]:
        self.asserted_null = True
        return self._conflict()


_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=",
            "!=": "!=", "<>": "<>"}


def _conjuncts(expr: n.Expr) -> Iterator[n.Expr]:
    if isinstance(expr, n.BinOp) and expr.op == "and":
        yield from _conjuncts(expr.left)
        yield from _conjuncts(expr.right)
    else:
        yield expr


def _column_comparison(expr: n.Expr) -> Optional[tuple[n.Name, str, object]]:
    """Match ``name <op> literal`` (either orientation); returns
    (column, normalized op, value) or None."""
    if not (isinstance(expr, n.BinOp) and expr.op in _COMPARISONS):
        return None
    left, right = expr.left, expr.right
    if isinstance(left, n.Name) and isinstance(right, n.Lit):
        return left, expr.op, right.value
    if isinstance(left, n.Lit) and isinstance(right, n.Name):
        return right, _FLIPPED[expr.op], left.value
    return None


def _clause_diagnostics(clause: str, expr: n.Expr) -> Iterator[Diagnostic]:
    """The RPR01x lints over one WHERE/HAVING/QUALIFY predicate."""
    if _is_constant(expr):
        yield make_diagnostic(
            "RPR012",
            f"{clause} predicate references no columns; it keeps or "
            "drops every row",
            span=n.span_of(expr),
            hint="remove the constant predicate or reference a column")
    for node in n.walk(expr):
        if (isinstance(node, n.BinOp) and node.op in _COMPARISONS
                and (isinstance(node.left, n.Lit)
                     and node.left.value is None
                     or isinstance(node.right, n.Lit)
                     and node.right.value is None)):
            yield make_diagnostic(
                "RPR013",
                f"comparison with NULL in {clause} is never TRUE "
                "(three-valued logic)",
                span=n.span_of(node),
                hint="use IS NULL / IS NOT NULL")
    facts: dict[tuple[Optional[str], str], _ColumnFacts] = {}
    reported: set[tuple[Optional[str], str]] = set()
    for conjunct in _conjuncts(expr):
        column: Optional[n.Name] = None
        reason: Optional[str] = None
        match = _column_comparison(conjunct)
        if match is not None:
            column, op, value = match
            if value is None:  # NULL comparison: RPR013's business
                continue
            reason = facts.setdefault(
                (column.table, column.name), _ColumnFacts()).apply(op, value)
        elif (isinstance(conjunct, n.BetweenExpr) and not conjunct.negated
                and isinstance(conjunct.operand, n.Name)
                and isinstance(conjunct.low, n.Lit)
                and isinstance(conjunct.high, n.Lit)):
            column = conjunct.operand
            state = facts.setdefault((column.table, column.name),
                                     _ColumnFacts())
            if conjunct.low.value is not None:
                reason = state.apply(">=", conjunct.low.value)
            if reason is None and conjunct.high.value is not None:
                reason = state.apply("<=", conjunct.high.value)
        elif (isinstance(conjunct, n.IsNullExpr) and not conjunct.negated
                and isinstance(conjunct.operand, n.Name)):
            column = conjunct.operand
            reason = facts.setdefault((column.table, column.name),
                                      _ColumnFacts()).assert_null()
        if reason is not None and column is not None:
            key = (column.table, column.name)
            if key not in reported:
                reported.add(key)
                yield make_diagnostic(
                    "RPR011",
                    f"contradictory constraints on {column.display()} in "
                    f"{clause}: {reason}; no row can satisfy them",
                    span=n.span_of(conjunct) or n.span_of(expr),
                    hint="the predicate is unsatisfiable; the query "
                         "always returns zero rows")


def _predicate_pass(select: n.Select) -> Iterator[Diagnostic]:
    for block in _selects_of(select):
        for clause, expr in (("WHERE", block.where),
                             ("HAVING", block.having),
                             ("QUALIFY", block.qualify)):
            if expr is not None:
                yield from _clause_diagnostics(clause, expr)


# ---------------------------------------------------------------------------
# Binding pass (RPR00x)
# ---------------------------------------------------------------------------


def _suggest_table(name: str, provider: object) -> Optional[str]:
    entries = getattr(provider, "entries", None)
    if entries is None:
        return None
    known = [entry.name for entry in entries()]
    close = difflib.get_close_matches(name, known, n=1)
    return f"did you mean {close[0]!r}?" if close else None


def diagnostic_from_error(exc: UserError,
                          provider: object = None) -> Diagnostic:
    """Classify a frontend/catalog error raised while binding into its
    stable diagnostic code."""
    message = str(exc.args[0]) if exc.args else str(exc)
    line = getattr(exc, "line", None)
    column = getattr(exc, "column", None)
    hint: Optional[str] = None
    if isinstance(exc, ParseError):
        code = "RPR001"
    elif isinstance(exc, EntityNotFound):
        code = "RPR002"
        prefix = message.split(":", 1)[-1].strip().strip("'\"")
        if provider is not None:
            hint = _suggest_table(prefix, provider)
    elif isinstance(exc, BindError):
        if "column" in message:
            code = "RPR003"
            if "ambiguous" in message:
                hint = "qualify the column with its table alias"
        elif "unknown table" in message or "unknown view" in message:
            code = "RPR002"
        else:
            code = "RPR005"
    elif isinstance(exc, TypeError_):
        code = "RPR004"
    else:
        code = "RPR005"
    # SqlError embeds "at line L, column C" in the message once located;
    # the structured span makes that suffix redundant in a Diagnostic.
    if isinstance(exc, SqlError) and line is not None:
        suffix = f" at line {line}, column {column}"
        if message.endswith(suffix):
            message = message[:-len(suffix)]
    return make_diagnostic(code, message, line=line, column=column,
                           hint=hint)


def _bind_select(select: n.Select, provider: object, registry: object,
                 parameters: object,
                 ) -> tuple[Optional[lp.PlanNode], Optional[Diagnostic]]:
    try:
        return build_plan(select, provider, registry or DEFAULT_REGISTRY,
                          parameters=parameters), None
    except UserError as exc:
        return None, diagnostic_from_error(exc, provider)


# ---------------------------------------------------------------------------
# Incrementality lints (RPR02x)
# ---------------------------------------------------------------------------


def _incrementality_pass(plan: lp.PlanNode, refresh_mode: Optional[str],
                         span: Optional[n.Span]) -> Iterator[Diagnostic]:
    """Explain FULL-refresh resolution (RPR021) and stateful-maintenance
    fallbacks (RPR022) for a bound defining query.

    ``refresh_mode`` is the requested mode for a dynamic-table
    definition (``auto`` / ``full`` / ``incremental``) or None when the
    statement is a plain query being pre-checked — then the lints fire
    at INFO severity, describing what *would* happen.
    """
    from repro.ivm.aggstate import refresh_strategy

    check = incrementalizability(plan)
    if not check.supported:
        if refresh_mode == "incremental":
            severity = Severity.ERROR
            outcome = ("refresh_mode=incremental will be rejected "
                       "(NotIncrementalizableError)")
        elif refresh_mode in ("auto", "full"):
            severity = (Severity.WARNING if refresh_mode == "auto"
                        else Severity.INFO)
            outcome = "the dynamic table resolves to FULL refresh"
        else:
            severity = Severity.INFO
            outcome = ("as a dynamic table this query would resolve to "
                       "FULL refresh")
        seen: set[str] = set()
        for reason in check.reasons:
            if reason in seen:
                continue
            seen.add(reason)
            yield make_diagnostic("RPR021", f"{outcome}: {reason}",
                                  severity=severity, span=span,
                                  hint=_hint_for_reason(reason))
        return
    severity = (Severity.WARNING if refresh_mode in ("auto", "incremental")
                else Severity.INFO)
    for node, strategy, reason in refresh_strategy(plan):
        if strategy == "stateful":
            continue
        yield make_diagnostic(
            "RPR022",
            f"{node._describe()} cannot keep O(|delta|) accumulator "
            f"state ({reason}); incremental refresh falls back to "
            "affected-group endpoint recomputation",
            severity=severity, span=span,
            hint="exact, retractable aggregates (COUNT/SUM/AVG over "
                 "non-FLOAT inputs) maintain state in O(|delta|)")


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def analyze_bound_query(select: n.Select, plan: Optional[lp.PlanNode], *,
                        refresh_mode: Optional[str] = None, sql: str = "",
                        schema: Optional[Schema] = None) -> AnalysisReport:
    """Predicate + incrementality passes over an already-bound query
    (no second bind); ``plan`` may be None when binding failed."""
    diagnostics = list(_predicate_pass(select))
    if plan is not None:
        diagnostics.extend(_incrementality_pass(
            plan, refresh_mode, n.span_of(select)))
        if schema is None:
            schema = plan.schema
    return AnalysisReport(sql, diagnostics, schema=schema)


def _analyze_select_statement(select: n.Select, provider: object,
                              registry: object, parameters: object,
                              refresh_mode: Optional[str], sql: str,
                              span: Optional[n.Span]) -> AnalysisReport:
    plan, bind_diag = _bind_select(select, provider, registry, parameters)
    diagnostics: list[Diagnostic] = []
    if bind_diag is not None:
        diagnostics.append(bind_diag)
    diagnostics.extend(_predicate_pass(select))
    if plan is not None:
        diagnostics.extend(_incrementality_pass(
            plan, refresh_mode, span or n.span_of(select)))
    return AnalysisReport(sql, diagnostics,
                          schema=plan.schema if plan is not None else None)


def _analyze_dml(statement: Union[n.Insert, n.Delete, n.Update],
                 provider: object, registry: object, parameters: object,
                 sql: str) -> AnalysisReport:
    diagnostics: list[Diagnostic] = []
    try:
        build_write(statement, provider, registry or DEFAULT_REGISTRY,
                    parameters)
    except UserError as exc:
        diagnostics.append(diagnostic_from_error(exc, provider))
    diagnostics.extend(analyze_bound_write(statement).diagnostics)
    return AnalysisReport(sql, diagnostics)


def analyze_bound_write(statement: Union[n.Insert, n.Delete, n.Update],
                        ) -> AnalysisReport:
    """The predicate lints of a DML statement whose
    :class:`~repro.plan.logical.Write` is already bound (no second
    bind): its WHERE clause's ``RPR01x``."""
    where = getattr(statement, "where", None)
    diagnostics = (list(_clause_diagnostics("WHERE", where))
                   if where is not None else [])
    return AnalysisReport("", diagnostics)


def analyze_statement(statement: n.Statement, provider: object,
                      registry: object = None, *, parameters: object = None,
                      sql: str = "") -> AnalysisReport:
    """Analyze one parsed statement against the catalog; never raises
    for problems in the statement itself."""
    span = n.span_of(statement)
    if isinstance(statement, n.Query):
        return _analyze_select_statement(
            statement.select, provider, registry, parameters, None, sql,
            span)
    if isinstance(statement, n.CreateDynamicTable):
        return _analyze_select_statement(
            statement.query, provider, registry, parameters,
            statement.refresh_mode.lower(), sql, span)
    if isinstance(statement, n.CreateView):
        return _analyze_select_statement(
            statement.query, provider, registry, parameters, None, sql,
            span)
    if isinstance(statement, (n.Insert, n.Delete, n.Update)):
        return _analyze_dml(statement, provider, registry, parameters, sql)
    # DDL / lifecycle / transaction-control statements have no
    # expression surface to analyze.
    return AnalysisReport(sql, ())


def analyze_sql(sql: str, provider: object, registry: object = None,
                ) -> AnalysisReport:
    """Parse and analyze one SQL statement (no session state needed)."""
    from repro.sql.parser import parse_prepared

    try:
        statement, parameter_nodes = parse_prepared(sql)
    except ParseError as exc:
        return AnalysisReport(sql, (diagnostic_from_error(exc),))
    parameters = None
    if parameter_nodes:
        from repro.api.prepared import ParameterSpec

        parameters = ParameterSpec(parameter_nodes)
    return analyze_statement(statement, provider, registry,
                             parameters=parameters, sql=sql)
