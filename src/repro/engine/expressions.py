"""Bound scalar expressions.

The SQL frontend produces *AST* expressions (:mod:`repro.sql.nodes`); the
plan builder binds names against schemas and produces the *bound*
expressions defined here. Bound expressions reference columns by position
(:class:`ColumnRef` holds an index), so evaluation over a row is a direct
tuple lookup with no name resolution on the hot path.

Every expression knows:

* ``type`` — its static :class:`~repro.engine.types.SqlType`;
* ``eval(row, ctx)`` — its value for a row under an
  :class:`EvalContext` (which carries the query's data timestamp and role,
  for context functions per section 3.4 of the paper);
* ``is_deterministic`` — whether repeated evaluation yields identical
  results given the same row *and context*. Context functions are
  deterministic given the context; volatile UDFs are not, and make a query
  non-incrementalizable (section 3.4: truly nondeterministic operations
  "are usually expected to be run only when a row is inserted"; DTs "do not
  yet support incremental refreshes in this case");
* ``column_indices()`` — the set of input positions it reads (used by the
  optimizer for pushdown/pruning);
* ``remap(mapping)`` — a copy with column indices translated (used when
  expressions move across operators).
"""

from __future__ import annotations

import decimal
import math
import operator as _operator
import re
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Sequence

from repro.engine import types as t
from repro.engine.types import SqlType, Value
from repro.errors import EvaluationError, TypeError_
from repro.util.timeutil import DAY, HOUR, MINUTE, SECOND, Timestamp


@dataclass(frozen=True)
class EvalContext:
    """Ambient state for expression evaluation.

    ``timestamp`` is the query's data timestamp: for a dynamic-table
    refresh, the refresh's data timestamp, so that ``CURRENT_TIMESTAMP`` is
    stable across retries of the same refresh (the paper handles context
    functions "on a case-by-case basis"; pinning them to the data timestamp
    is the choice that keeps delayed view semantics exact).

    ``params`` carries the bind-parameter values of the executing prepared
    statement, indexed by :class:`BoundParameter` slot. Like the timestamp,
    they are pinned for the duration of one execution, so a cached plan can
    be re-executed under a fresh context with new binds.
    """

    timestamp: Timestamp = 0
    role: str = "sysadmin"
    params: tuple = ()


DEFAULT_CONTEXT = EvalContext()


class Expression:
    """Base class of bound expressions. Subclasses are frozen dataclasses."""

    type: SqlType

    def eval(self, row: tuple, ctx: EvalContext) -> Value:
        raise NotImplementedError

    @property
    def is_deterministic(self) -> bool:
        return all(child.is_deterministic for child in self.children())

    @property
    def uses_context(self) -> bool:
        """Whether the expression reads the evaluation context (context
        functions)."""
        return any(child.uses_context for child in self.children())

    def children(self) -> Sequence["Expression"]:
        return ()

    def column_indices(self) -> set[int]:
        # Cached per node: expression trees are immutable and live inside
        # cached plans, but the compilers re-analyze them on every
        # execution — without the cache, tree walks dominate the cost of
        # compiling evaluators for small queries. (Frozen dataclasses
        # still carry a __dict__; object.__setattr__ bypasses the
        # frozen guard.)
        cached = self.__dict__.get("_column_indices")
        if cached is None:
            indices: set[int] = set()
            for child in self.children():
                indices |= child.column_indices()
            cached = frozenset(indices)
            object.__setattr__(self, "_column_indices", cached)
        return cached

    def remap(self, mapping: dict[int, int]) -> "Expression":
        raise NotImplementedError


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value."""

    value: Value
    type: SqlType = field(default=SqlType.NULL)

    def __post_init__(self):
        if self.type == SqlType.NULL and self.value is not None:
            object.__setattr__(self, "type", t.type_of_value(self.value))

    def eval(self, row: tuple, ctx: EvalContext) -> Value:
        return self.value

    def remap(self, mapping: dict[int, int]) -> "Expression":
        return self


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A positional reference into the input row."""

    index: int
    type: SqlType
    name: str = ""

    def eval(self, row: tuple, ctx: EvalContext) -> Value:
        return row[self.index]

    def column_indices(self) -> set[int]:
        return {self.index}

    def remap(self, mapping: dict[int, int]) -> "Expression":
        return ColumnRef(mapping[self.index], self.type, self.name)


_ARITH_RESULT = {SqlType.INT: SqlType.INT, SqlType.FLOAT: SqlType.FLOAT}


@dataclass(frozen=True)
class Arithmetic(Expression):
    """``+ - * / %`` over numerics (and ``+``/``-`` over timestamps)."""

    op: str
    left: Expression
    right: Expression
    type: SqlType = field(default=SqlType.NULL)

    def __post_init__(self):
        left_type, right_type = self.left.type, self.right.type
        for operand in (left_type, right_type):
            if operand not in (SqlType.INT, SqlType.FLOAT, SqlType.TIMESTAMP,
                               SqlType.NULL, SqlType.VARIANT):
                raise TypeError_(f"operator {self.op} not defined for {operand}")
        if self.op == "/":
            result = SqlType.FLOAT
        elif SqlType.TIMESTAMP in (left_type, right_type):
            # timestamp - timestamp -> INT duration; timestamp +- int -> timestamp
            result = SqlType.INT if self.op == "-" and left_type == right_type else SqlType.TIMESTAMP
        elif SqlType.FLOAT in (left_type, right_type):
            result = SqlType.FLOAT
        else:
            result = SqlType.INT
        object.__setattr__(self, "type", result)

    def children(self) -> Sequence[Expression]:
        return (self.left, self.right)

    def eval(self, row: tuple, ctx: EvalContext) -> Value:
        left = self.left.eval(row, ctx)
        right = self.right.eval(row, ctx)
        if left is None or right is None:
            return None
        try:
            if self.op == "+":
                return left + right
            if self.op == "-":
                return left - right
            if self.op == "*":
                return left * right
            if self.op == "/":
                if right == 0:
                    raise EvaluationError("division by zero")
                return left / right
            if self.op == "%":
                if right == 0:
                    raise EvaluationError("division by zero")
                return left % right
        except TypeError as exc:
            raise EvaluationError(f"bad operands for {self.op}: {left!r}, {right!r}") from exc
        raise EvaluationError(f"unknown arithmetic operator {self.op}")

    def remap(self, mapping: dict[int, int]) -> "Expression":
        return Arithmetic(self.op, self.left.remap(mapping), self.right.remap(mapping))


@dataclass(frozen=True)
class Comparison(Expression):
    """``= != < <= > >=`` with SQL NULL semantics."""

    op: str
    left: Expression
    right: Expression
    type: SqlType = SqlType.BOOL

    def __post_init__(self):
        if not t.is_comparable(self.left.type, self.right.type):
            raise TypeError_(
                f"cannot compare {self.left.type} with {self.right.type}")

    def children(self) -> Sequence[Expression]:
        return (self.left, self.right)

    def eval(self, row: tuple, ctx: EvalContext) -> Value:
        result = t.compare(self.left.eval(row, ctx), self.right.eval(row, ctx))
        if result is None:
            return None
        if self.op == "=":
            return result == 0
        if self.op in ("!=", "<>"):
            return result != 0
        if self.op == "<":
            return result < 0
        if self.op == "<=":
            return result <= 0
        if self.op == ">":
            return result > 0
        if self.op == ">=":
            return result >= 0
        raise EvaluationError(f"unknown comparison operator {self.op}")

    def remap(self, mapping: dict[int, int]) -> "Expression":
        return Comparison(self.op, self.left.remap(mapping), self.right.remap(mapping))


@dataclass(frozen=True)
class BooleanOp(Expression):
    """N-ary AND / OR with three-valued logic."""

    op: str  # "and" | "or"
    operands: tuple[Expression, ...]
    type: SqlType = SqlType.BOOL

    def children(self) -> Sequence[Expression]:
        return self.operands

    def eval(self, row: tuple, ctx: EvalContext) -> Value:
        combine = t.sql_and if self.op == "and" else t.sql_or
        result: Value = (self.op == "and")
        for operand in self.operands:
            result = combine(result, operand.eval(row, ctx))
            # Short-circuit on the dominating value.
            if self.op == "and" and result is False:
                return False
            if self.op == "or" and result is True:
                return True
        return result

    def remap(self, mapping: dict[int, int]) -> "Expression":
        return BooleanOp(self.op, tuple(op.remap(mapping) for op in self.operands))


@dataclass(frozen=True)
class Not(Expression):
    operand: Expression
    type: SqlType = SqlType.BOOL

    def children(self) -> Sequence[Expression]:
        return (self.operand,)

    def eval(self, row: tuple, ctx: EvalContext) -> Value:
        return t.sql_not(self.operand.eval(row, ctx))

    def remap(self, mapping: dict[int, int]) -> "Expression":
        return Not(self.operand.remap(mapping))


@dataclass(frozen=True)
class IsNull(Expression):
    operand: Expression
    negated: bool = False
    type: SqlType = SqlType.BOOL

    def children(self) -> Sequence[Expression]:
        return (self.operand,)

    def eval(self, row: tuple, ctx: EvalContext) -> Value:
        is_null = self.operand.eval(row, ctx) is None
        return not is_null if self.negated else is_null

    def remap(self, mapping: dict[int, int]) -> "Expression":
        return IsNull(self.operand.remap(mapping), self.negated)


@dataclass(frozen=True)
class InList(Expression):
    """``expr [NOT] IN (literal, ...)`` with SQL NULL semantics."""

    operand: Expression
    items: tuple[Expression, ...]
    negated: bool = False
    type: SqlType = SqlType.BOOL

    def children(self) -> Sequence[Expression]:
        return (self.operand, *self.items)

    def eval(self, row: tuple, ctx: EvalContext) -> Value:
        needle = self.operand.eval(row, ctx)
        if needle is None:
            return None
        saw_null = False
        for item in self.items:
            value = item.eval(row, ctx)
            if value is None:
                saw_null = True
                continue
            if t.compare(needle, value) == 0:
                return not self.negated
        if saw_null:
            return None
        return self.negated

    def remap(self, mapping: dict[int, int]) -> "Expression":
        return InList(self.operand.remap(mapping),
                      tuple(item.remap(mapping) for item in self.items),
                      self.negated)


def _like_regex(pattern: str) -> str:
    """Translate a SQL LIKE pattern to a regex (``%`` → ``.*``, ``_`` →
    ``.``). Single source of truth for interpreted and compiled LIKE."""
    return re.escape(pattern).replace("%", ".*").replace("_", ".")


@dataclass(frozen=True)
class Like(Expression):
    """``expr [NOT] LIKE pattern`` with ``%`` and ``_`` wildcards."""

    operand: Expression
    pattern: Expression
    negated: bool = False
    type: SqlType = SqlType.BOOL

    def children(self) -> Sequence[Expression]:
        return (self.operand, self.pattern)

    def eval(self, row: tuple, ctx: EvalContext) -> Value:
        text = self.operand.eval(row, ctx)
        pattern = self.pattern.eval(row, ctx)
        if text is None or pattern is None:
            return None
        if not isinstance(text, str) or not isinstance(pattern, str):
            raise EvaluationError("LIKE requires text operands")
        matched = re.fullmatch(_like_regex(pattern), text,
                               flags=re.DOTALL) is not None
        return not matched if self.negated else matched

    def remap(self, mapping: dict[int, int]) -> "Expression":
        return Like(self.operand.remap(mapping), self.pattern.remap(mapping), self.negated)


@dataclass(frozen=True)
class Case(Expression):
    """Searched CASE: ``CASE WHEN cond THEN value ... [ELSE value] END``."""

    whens: tuple[tuple[Expression, Expression], ...]
    otherwise: Expression
    type: SqlType = field(default=SqlType.NULL)

    def __post_init__(self):
        result = self.otherwise.type
        for __, value in self.whens:
            result = t.unify_types(result, value.type)
        object.__setattr__(self, "type", result)

    def children(self) -> Sequence[Expression]:
        flattened: list[Expression] = []
        for condition, value in self.whens:
            flattened.extend((condition, value))
        flattened.append(self.otherwise)
        return flattened

    def eval(self, row: tuple, ctx: EvalContext) -> Value:
        for condition, value in self.whens:
            if t.is_true(condition.eval(row, ctx)):
                return value.eval(row, ctx)
        return self.otherwise.eval(row, ctx)

    def remap(self, mapping: dict[int, int]) -> "Expression":
        return Case(
            tuple((cond.remap(mapping), val.remap(mapping)) for cond, val in self.whens),
            self.otherwise.remap(mapping),
        )


@dataclass(frozen=True)
class Cast(Expression):
    operand: Expression
    target: SqlType
    type: SqlType = field(default=SqlType.NULL)

    def __post_init__(self):
        object.__setattr__(self, "type", self.target)

    def children(self) -> Sequence[Expression]:
        return (self.operand,)

    def eval(self, row: tuple, ctx: EvalContext) -> Value:
        return t.cast_value(self.operand.eval(row, ctx), self.target)

    def remap(self, mapping: dict[int, int]) -> "Expression":
        return Cast(self.operand.remap(mapping), self.target)


@dataclass(frozen=True)
class VariantPath(Expression):
    """Path access into a VARIANT value: ``payload:train_id`` or
    ``payload:a.b`` (section 3's Listing 1 uses this throughout)."""

    operand: Expression
    path: tuple[str, ...]
    type: SqlType = SqlType.VARIANT

    def children(self) -> Sequence[Expression]:
        return (self.operand,)

    def eval(self, row: tuple, ctx: EvalContext) -> Value:
        value = self.operand.eval(row, ctx)
        for key in self.path:
            if value is None:
                return None
            if isinstance(value, dict):
                value = value.get(key)
            elif isinstance(value, list):
                try:
                    value = value[int(key)]
                except (ValueError, IndexError):
                    return None
            else:
                return None
        return value

    def remap(self, mapping: dict[int, int]) -> "Expression":
        return VariantPath(self.operand.remap(mapping), self.path)


# ---------------------------------------------------------------------------
# Scalar functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarFunction:
    """A registered scalar function.

    ``immutable`` mirrors the Snowpark IMMUTABLE annotation (section 3.4):
    only immutable functions are allowed in incrementally refreshed dynamic
    tables.
    """

    name: str
    impl: Callable[..., Value]
    return_type: Callable[[Sequence[SqlType]], SqlType]
    immutable: bool = True
    null_on_null: bool = True  # return NULL if any argument is NULL


def _fixed(sql_type: SqlType) -> Callable[[Sequence[SqlType]], SqlType]:
    return lambda args: sql_type


def _same_as_arg(index: int) -> Callable[[Sequence[SqlType]], SqlType]:
    return lambda args: args[index] if index < len(args) else SqlType.NULL


def _unify_args(args: Sequence[SqlType]) -> SqlType:
    result = SqlType.NULL
    for arg in args:
        result = t.unify_types(result, arg)
    return result


def _date_trunc(unit: str, timestamp: Timestamp) -> Timestamp:
    unit_ns = {
        "second": SECOND, "minute": MINUTE, "hour": HOUR, "day": DAY,
    }.get(unit.lower())
    if unit_ns is None:
        raise EvaluationError(f"unsupported date_trunc unit: {unit!r}")
    return (timestamp // unit_ns) * unit_ns


def _substr(text: str, start: int, length: int | None = None) -> str:
    begin = max(start - 1, 0)  # SQL is 1-based
    if length is None:
        return text[begin:]
    return text[begin:begin + max(length, 0)]


#: Wide enough to quantize any finite float (|x| < 10**309) at any
#: sensible scale without overflowing the context precision.
_ROUND_CONTEXT = decimal.Context(prec=400, rounding=decimal.ROUND_HALF_UP)


def _round(x, digits: int = 0):
    """SQL ``ROUND``: ties round away from zero (Python's ``round`` rounds
    them to even), decided on the value's shortest decimal form so
    ``round(2.675, 2)`` is 2.68 rather than its binary neighbour's 2.67."""
    if isinstance(x, float) and not math.isfinite(x):
        return x
    quantum = decimal.Decimal(1).scaleb(-digits)
    return type(x)(decimal.Decimal(repr(x)).quantize(quantum,
                                                     context=_ROUND_CONTEXT))


_BUILTIN_FUNCTIONS: dict[str, ScalarFunction] = {}


def _register(name: str, impl: Callable[..., Value],
              return_type: Callable[[Sequence[SqlType]], SqlType],
              immutable: bool = True, null_on_null: bool = True) -> None:
    _BUILTIN_FUNCTIONS[name] = ScalarFunction(name, impl, return_type,
                                              immutable, null_on_null)


_register("abs", abs, _same_as_arg(0))
_register("length", len, _fixed(SqlType.INT))
_register("upper", str.upper, _fixed(SqlType.TEXT))
_register("lower", str.lower, _fixed(SqlType.TEXT))
_register("trim", str.strip, _fixed(SqlType.TEXT))
_register("concat", lambda *parts: "".join(str(p) for p in parts), _fixed(SqlType.TEXT))
_register("substr", _substr, _fixed(SqlType.TEXT))
_register("round", _round, _same_as_arg(0))
_register("floor", lambda x: int(x // 1), _fixed(SqlType.INT))
_register("ceil", lambda x: int(-(-x // 1)), _fixed(SqlType.INT))
_register("mod", lambda a, b: a % b, _same_as_arg(0))
_register("sign", lambda x: (x > 0) - (x < 0), _fixed(SqlType.INT))
_register("greatest", max, _unify_args)
_register("least", min, _unify_args)
_register("date_trunc", _date_trunc, _fixed(SqlType.TIMESTAMP))
_register("to_number", lambda x: int(x), _fixed(SqlType.INT))
_register("to_char", lambda x: t.cast_value(x, SqlType.TEXT), _fixed(SqlType.TEXT))
# NULL-handling functions evaluate their own NULL semantics.
_register("coalesce", lambda *args: next((a for a in args if a is not None), None),
          _unify_args, null_on_null=False)
_register("nvl", lambda a, b: b if a is None else a, _unify_args, null_on_null=False)
_register("nullif", lambda a, b: None if (a is not None and b is not None
                                          and t.compare(a, b) == 0) else a,
          _same_as_arg(0), null_on_null=False)
_register("equal_null", lambda a, b: (a is None and b is None) or
          (a is not None and b is not None and t.compare(a, b) == 0),
          _fixed(SqlType.BOOL), null_on_null=False)


class FunctionRegistry:
    """Scalar-function lookup: builtins plus user-defined functions.

    UDFs model Snowpark UDFs (section 3.4). A UDF registered with
    ``immutable=False`` is *volatile*; plans containing it are rejected for
    incremental refresh by :mod:`repro.plan.properties`.
    """

    def __init__(self):
        self._functions: dict[str, ScalarFunction] = dict(_BUILTIN_FUNCTIONS)
        self._version = 0

    @property
    def version(self) -> int:
        """Bumped on every UDF (re-)registration. Plans bind ScalarFunction
        objects at build time, so plan caches must key on this."""
        return self._version

    def register_udf(self, name: str, impl: Callable[..., Value],
                     return_type: SqlType = SqlType.VARIANT,
                     immutable: bool = True) -> None:
        lowered = name.lower()
        if lowered in _BUILTIN_FUNCTIONS:
            raise TypeError_(f"cannot shadow builtin function {name!r}")
        self._functions[lowered] = ScalarFunction(
            lowered, impl, _fixed(return_type), immutable, null_on_null=False)
        self._version += 1

    def lookup(self, name: str) -> ScalarFunction:
        function = self._functions.get(name.lower())
        if function is None:
            raise TypeError_(f"unknown function: {name}")
        return function


#: Registry used when none is supplied (builtins only).
DEFAULT_REGISTRY = FunctionRegistry()


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A bound scalar function application."""

    function: ScalarFunction
    args: tuple[Expression, ...]
    type: SqlType = field(default=SqlType.NULL)

    def __post_init__(self):
        object.__setattr__(
            self, "type", self.function.return_type([a.type for a in self.args]))

    @property
    def is_deterministic(self) -> bool:
        return self.function.immutable and all(a.is_deterministic for a in self.args)

    def children(self) -> Sequence[Expression]:
        return self.args

    def eval(self, row: tuple, ctx: EvalContext) -> Value:
        values = [arg.eval(row, ctx) for arg in self.args]
        if self.function.null_on_null and any(v is None for v in values):
            return None
        try:
            return self.function.impl(*values)
        except EvaluationError:
            raise
        except Exception as exc:
            raise EvaluationError(
                f"error in function {self.function.name}: {exc}") from exc

    def remap(self, mapping: dict[int, int]) -> "Expression":
        return FunctionCall(self.function, tuple(a.remap(mapping) for a in self.args))


@dataclass(frozen=True)
class ContextFunction(Expression):
    """``CURRENT_TIMESTAMP`` / ``CURRENT_ROLE``.

    Deterministic *given the evaluation context*: a refresh pins the
    context to its data timestamp, so re-running the same refresh yields
    identical results (how the paper suggests handling "predictable"
    nondeterminism).
    """

    name: str  # "current_timestamp" | "current_role"
    type: SqlType = field(default=SqlType.NULL)

    def __post_init__(self):
        result = SqlType.TIMESTAMP if self.name == "current_timestamp" else SqlType.TEXT
        object.__setattr__(self, "type", result)

    @property
    def uses_context(self) -> bool:
        return True

    def eval(self, row: tuple, ctx: EvalContext) -> Value:
        if self.name == "current_timestamp":
            return ctx.timestamp
        if self.name == "current_role":
            return ctx.role
        raise EvaluationError(f"unknown context function {self.name}")

    def remap(self, mapping: dict[int, int]) -> "Expression":
        return self


@dataclass(frozen=True)
class BoundParameter(Expression):
    """A bind-parameter slot, filled at execution time from
    :attr:`EvalContext.params`.

    The parser types a parameter as NULL ("unknown"), which unifies with
    any operand type; the binder then *re-types* it from its comparison or
    arithmetic context where one exists (``a = ?`` with ``a INT`` yields an
    INT-typed slot), letting the prepared-statement layer reject
    wrongly-typed bind values up front instead of failing mid-execution.
    Slots with no informative context stay NULL-typed and behave exactly
    like a literal of the bound value. Like a context function, the
    expression is deterministic *given the context* but reads it, so the
    optimizer never folds it into the (cached, bind-independent) plan.
    """

    slot: int
    label: str = "?"
    type: SqlType = SqlType.NULL

    @property
    def uses_context(self) -> bool:
        return True

    def eval(self, row: tuple, ctx: EvalContext) -> Value:
        params = ctx.params
        if self.slot >= len(params):
            raise EvaluationError(
                f"no value bound for parameter {self.label}")
        return params[self.slot]

    def remap(self, mapping: dict[int, int]) -> "Expression":
        return self


def conjuncts(predicate: Expression) -> list[Expression]:
    """Flatten a predicate into its top-level AND-ed conjuncts."""
    if isinstance(predicate, BooleanOp) and predicate.op == "and":
        parts: list[Expression] = []
        for operand in predicate.operands:
            parts.extend(conjuncts(operand))
        return parts
    return [predicate]


def conjoin(parts: Sequence[Expression]) -> Expression:
    """Combine conjuncts back into a single predicate."""
    if not parts:
        return Literal(True, SqlType.BOOL)
    if len(parts) == 1:
        return parts[0]
    return BooleanOp("and", tuple(parts))


def parameters_as_columns(expr: Expression) -> Expression:
    """``expr`` with every bind-parameter slot ``i`` read as input column
    ``i`` (a :class:`ColumnRef` of the parameter's type), so the
    vectorized compiler evaluates it once over a block of bind columns —
    one array per slot — rather than once per bind set."""
    if isinstance(expr, BoundParameter):
        return ColumnRef(expr.slot, expr.type, expr.label)
    changes = {}
    for spec in fields(expr):
        if spec.init:
            value = getattr(expr, spec.name)
            substituted = _parameters_as_columns(value)
            if substituted is not value:
                changes[spec.name] = substituted
    return replace(expr, **changes) if changes else expr


def _parameters_as_columns(value):
    if isinstance(value, Expression):
        return parameters_as_columns(value)
    if isinstance(value, tuple):
        items = tuple(map(_parameters_as_columns, value))
        if any(new is not old for new, old in zip(items, value)):
            return items
    return value


# ---------------------------------------------------------------------------
# The vectorized compiler
# ---------------------------------------------------------------------------
#
# ``eval`` is a recursive interpreter: every node pays a bound-method call,
# an attribute load per child, and a string compare for operator dispatch —
# *per row*. The vectorized compiler pays those costs once per expression
# node *per column batch*: a compiled ``ColumnEvaluator`` takes the input's
# per-column value arrays (plus the row count) and returns one output
# array, evaluating each node with a single tight loop over its children's
# arrays. Operator dispatch happens while compiling, a ``ColumnRef`` just
# returns the input array, and any sub-expression that reads no columns
# and is deterministic is folded to a constant (the context is pinned, so
# context functions and bind parameters fold too). It is the only compiled
# form: every operator and every derivative rule evaluates through it,
# once per input relation or delta.
#
# Invariant (load-bearing for the repro): for every input, the vectorized
# evaluator returns exactly what ``eval`` would return row by row — same
# values, same NULL semantics, same error types — and evaluates a
# sub-expression on a row only if ``eval`` would. ``force_interpreted``
# degrades every evaluator to ``eval`` applied per row, which is what lets
# the equivalence properties pin production output to the interpreter's.
#
# Laziness rule: ``CASE`` only evaluates the branch its condition selects,
# ``AND``/``OR`` stop at the first dominating value, and ``IN`` stops at
# the first matching item — the guard idioms ``b != 0 AND 10 / b > 1`` and
# ``CASE WHEN b <> 0 THEN 10 / b ELSE 0 END`` rely on the skipped rows
# never being evaluated. Those nodes evaluate with *selection vectors*:
# the first condition / operand / item runs over the whole batch, and each
# later one only over the rows still undecided (gather their columns,
# evaluate, scatter the results back). ``AND``/``OR`` whose operands are
# all statically *total* (provably cannot raise on any row — see
# ``_never_raises``) skip that bookkeeping and evaluate every operand over
# the whole batch. A node type with no vectorized form, or an operator the
# compiler does not know, defers to ``eval`` per row — the oracle, never a
# second compiler.

#: A compiled columnar evaluator: ``(columns, row_count) -> value array``.
#: ``columns`` are the input's per-column arrays (list or tuple each);
#: the result is a fresh array of ``row_count`` values (a ``ColumnRef``
#: may return the input array itself — callers must not mutate results).
ColumnEvaluator = Callable[[Sequence[Sequence], int], Sequence]

_FORCE_INTERPRET = False


@contextmanager
def force_interpreted():
    """Make :func:`compile_expression_columnar` return interpreter shims,
    so callers can diff production output against the reference
    interpreter."""
    global _FORCE_INTERPRET
    saved = _FORCE_INTERPRET
    _FORCE_INTERPRET = True
    try:
        yield
    finally:
        _FORCE_INTERPRET = saved


def _interpreted(expr: Expression, ctx: EvalContext) -> ColumnEvaluator:
    """``expr.eval`` applied to each row of the block — the oracle."""
    def run(columns, count):
        rows = zip(*columns) if columns else iter([()] * count)
        return [expr.eval(row, ctx) for row in rows]
    return run


def _constant_of(expr: Expression, ctx: EvalContext):
    """``(True, value)`` when ``expr`` folds to a constant, else
    ``(False, None)``. An always-erroring constant (``1/0``) does not
    fold: it compiles normally so the error still surfaces at run time,
    per row, like ``eval``. Also used to specialize binary operators whose
    one side is constant — the overwhelmingly common shape of filter
    predicates."""
    if not expr.column_indices() and expr.is_deterministic:
        try:
            return True, expr.eval((), ctx)
        except EvaluationError:
            pass
    return False, None


_COMPILE_DISPATCH: dict[type, Callable[..., ColumnEvaluator]] = {}


def _compiles_columnar(cls: type):
    def register(fn):
        _COMPILE_DISPATCH[cls] = fn
        return fn
    return register


def compile_expression_columnar(expr: Expression,
                                ctx: EvalContext = DEFAULT_CONTEXT,
                                ) -> ColumnEvaluator:
    """Compile ``expr`` into a ``(columns, n) -> array`` evaluator."""
    if _FORCE_INTERPRET:
        return _interpreted(expr, ctx)
    is_const, value = _constant_of(expr, ctx)
    if is_const:
        return lambda columns, count: [value] * count
    compiler = _COMPILE_DISPATCH.get(type(expr))
    if compiler is None:
        # Only nodes that read no columns get here (an erroring context
        # function, an unbound parameter): every row raises what eval
        # raises.
        return _interpreted(expr, ctx)
    return compiler(expr, ctx)


def compile_row_columnar(exprs: Sequence[Expression],
                         ctx: EvalContext = DEFAULT_CONTEXT,
                         ) -> Callable[[Sequence[Sequence], int], list]:
    """Compile a projection list into a ``(columns, n) -> output columns``
    closure."""
    fns = [compile_expression_columnar(expr, ctx) for expr in exprs]
    return lambda columns, count: [fn(columns, count) for fn in fns]


def compile_group_key_columnar(exprs: Sequence[Expression],
                               ctx: EvalContext = DEFAULT_CONTEXT,
                               ) -> Callable[[Sequence[Sequence], int], list]:
    """Compile grouping expressions into a ``(columns, n) -> [group_key]``
    closure (NULL-safe hashable keys, per
    :func:`repro.engine.types.group_key_columns`)."""
    values = compile_row_columnar(exprs, ctx)
    key_columns = t.group_key_columns
    return lambda columns, count: key_columns(values(columns, count), count)


def gather_columns(columns: Sequence[Sequence], needed,
                   indices: Sequence[int]) -> list:
    """The rows at ``indices`` of a column block. Only the columns whose
    position is in ``needed`` (the ones the consumer reads) are gathered;
    the rest are NULL-filled so the block keeps its shape."""
    blank = [None] * len(indices)
    return [list(map(column.__getitem__, indices)) if position in needed
            else blank for position, column in enumerate(columns)]


def _compile_selective(expr: Expression, ctx: EvalContext):
    """``expr`` compiled for selection-vector evaluation:
    ``(columns, count, indices) -> values`` evaluates it only over the
    rows at ``indices`` (ascending positions into the ``count``-row
    block) and returns values parallel to ``indices``."""
    fn = compile_expression_columnar(expr, ctx)
    needed = expr.column_indices()

    def run(columns, count, indices):
        if len(indices) == count:
            return fn(columns, count)  # every row selected: nothing to gather
        return fn(gather_columns(columns, needed, indices), len(indices))
    return run


#: Types whose runtime values are guaranteed same-kind comparable (ints /
#: floats for the numeric group; exact-type match otherwise), so
#: ``t.compare`` cannot raise on them.
_NUMERIC_KINDS = (SqlType.INT, SqlType.FLOAT, SqlType.TIMESTAMP)


def _comparison_total(expr: Comparison) -> bool:
    left_type, right_type = expr.left.type, expr.right.type
    if isinstance(expr.left, Literal) and expr.left.value is None:
        return True
    if isinstance(expr.right, Literal) and expr.right.value is None:
        return True
    if left_type in _NUMERIC_KINDS and right_type in _NUMERIC_KINDS:
        return True
    return left_type == right_type and left_type in (SqlType.TEXT,
                                                     SqlType.BOOL)


def emits_tristate(expr: Expression) -> bool:
    """Whether every evaluation path of ``expr`` (interpreted,
    vectorized) yields exactly ``True`` / ``False`` / ``None`` — never a
    merely truthy value. Lets the filter kernel feed the predicate mask
    straight into C-level compression without normalizing it first."""
    return isinstance(expr, (Comparison, BooleanOp, Not, IsNull, Like,
                             InList))


def _never_raises(expr: Expression) -> bool:
    """Statically total: evaluation provably cannot raise on any row.

    Used to decide whether AND/OR may evaluate an operand over the whole
    array — which evaluates it on rows ``eval`` would have short-circuited
    past. Deliberately conservative: anything not recognized is treated
    as possibly raising.
    """
    if isinstance(expr, (Literal, ColumnRef, BoundParameter,
                         ContextFunction)):
        return True
    if isinstance(expr, (IsNull, Not)):
        return _never_raises(expr.operand)
    if isinstance(expr, BooleanOp):
        return all(_never_raises(op) for op in expr.operands)
    if isinstance(expr, Comparison):
        return (_never_raises(expr.left) and _never_raises(expr.right)
                and _comparison_total(expr))
    return False


@_compiles_columnar(ColumnRef)
def _columnar_column(expr: ColumnRef, ctx: EvalContext) -> ColumnEvaluator:
    index = expr.index
    return lambda columns, count: columns[index]


_ARITH_APPLY = {"+": _operator.add, "-": _operator.sub, "*": _operator.mul}


@_compiles_columnar(Arithmetic)
def _columnar_arithmetic(expr: Arithmetic,
                         ctx: EvalContext) -> ColumnEvaluator:
    left = compile_expression_columnar(expr.left, ctx)
    op = expr.op

    apply = _ARITH_APPLY.get(op)
    if apply is not None:
        is_const, const = _constant_of(expr.right, ctx)
        if is_const and const is not None:
            def run(columns, count):
                values = left(columns, count)
                try:
                    return [None if a is None else apply(a, const)
                            for a in values]
                except TypeError:
                    # Re-raise as eval would, at the first offending row.
                    for a in values:
                        if a is None:
                            continue
                        try:
                            apply(a, const)
                        except TypeError as exc:
                            raise EvaluationError(
                                f"bad operands for {op}: {a!r}, "
                                f"{const!r}") from exc
                    raise  # pragma: no cover - unreachable
            return run

        right = compile_expression_columnar(expr.right, ctx)

        def run(columns, count):
            left_values = left(columns, count)
            right_values = right(columns, count)
            try:
                return [None if a is None or b is None else apply(a, b)
                        for a, b in zip(left_values, right_values)]
            except TypeError:
                for a, b in zip(left_values, right_values):
                    if a is None or b is None:
                        continue
                    try:
                        apply(a, b)
                    except TypeError as exc:
                        raise EvaluationError(
                            f"bad operands for {op}: {a!r}, {b!r}") from exc
                raise  # pragma: no cover - unreachable
        return run

    if op in ("/", "%"):
        right = compile_expression_columnar(expr.right, ctx)
        divide = op == "/"

        def run(columns, count):
            left_values = left(columns, count)
            right_values = right(columns, count)
            output = []
            append = output.append
            for a, b in zip(left_values, right_values):
                if a is None or b is None:
                    append(None)
                    continue
                if b == 0:
                    raise EvaluationError("division by zero")
                try:
                    append(a / b if divide else a % b)
                except TypeError as exc:
                    raise EvaluationError(
                        f"bad operands for {op}: {a!r}, {b!r}") from exc
            return output
        return run

    return _interpreted(expr, ctx)  # unknown operator: eval's error


_COMPARISON_TESTS = {
    "=": lambda c: c == 0,
    "!=": lambda c: c != 0,
    "<>": lambda c: c != 0,
    "<": lambda c: c < 0,
    "<=": lambda c: c <= 0,
    ">": lambda c: c > 0,
    ">=": lambda c: c >= 0,
}


#: Python source of the vectorized column-vs-constant comparison, built
#: once per (operator, operand kind) at import time. Splicing the operator
#: symbol into the comprehension (instead of calling ``operator.ge`` & co.
#: per element) keeps the comparison a single COMPARE_OP instruction — the
#: first, deliberately tiny, step toward the ROADMAP's codegen direction.
def _specialize_const_compare(symbol: str, kind_check: str):
    source = (
        "lambda left, const, slow: lambda columns, count: "
        "[None if a is None else "
        f"(a {symbol} const if {kind_check} else slow(a)) "
        "for a in left(columns, count)]")
    return eval(source)  # noqa: S307 - fixed template, no runtime input


_NUM_KIND_CHECK = "type(a) is int or (type(a) is float and a == a)"
_STR_KIND_CHECK = "type(a) is str"
_CONST_COMPARE_NUM = {
    op: _specialize_const_compare(symbol, _NUM_KIND_CHECK)
    for op, symbol in (("=", "=="), ("!=", "!="), ("<>", "!="), ("<", "<"),
                       ("<=", "<="), (">", ">"), (">=", ">="))}
_CONST_COMPARE_STR = {
    op: _specialize_const_compare(symbol, _STR_KIND_CHECK)
    for op, symbol in (("=", "=="), ("!=", "!="), ("<>", "!="), ("<", "<"),
                       ("<=", "<="), (">", ">"), (">=", ">="))}


@_compiles_columnar(Comparison)
def _columnar_comparison(expr: Comparison,
                         ctx: EvalContext) -> ColumnEvaluator:
    test = _COMPARISON_TESTS.get(expr.op)
    if test is None:
        return _interpreted(expr, ctx)  # unknown operator: eval's error
    left = compile_expression_columnar(expr.left, ctx)
    compare = t.compare

    # Constant right operand of a uniform scalar kind: compare directly,
    # falling back to t.compare (which may raise, matching eval) whenever
    # the row value is not of the same kind.
    is_const, const = _constant_of(expr.right, ctx)
    if is_const and const is not None:

        def slow(a):  # off-kind value: full SQL comparison (may raise)
            result = compare(a, const)
            return None if result is None else test(result)

        if (isinstance(const, (int, float)) and not isinstance(const, bool)
                and const == const):  # NaN keeps t.compare's odd semantics
            return _CONST_COMPARE_NUM[expr.op](left, const, slow)
        if isinstance(const, str):
            return _CONST_COMPARE_STR[expr.op](left, const, slow)

    right = compile_expression_columnar(expr.right, ctx)

    def pair(a, b):
        result = compare(a, b)
        return None if result is None else test(result)

    def run(columns, count):
        return [None if a is None or b is None else pair(a, b)
                for a, b in zip(left(columns, count), right(columns, count))]
    return run


@_compiles_columnar(BooleanOp)
def _columnar_boolean(expr: BooleanOp, ctx: EvalContext) -> ColumnEvaluator:
    if not all(_never_raises(operand) for operand in expr.operands):
        return _lazy_boolean(expr, ctx)
    conjunction = expr.op == "and"
    fns = [compile_expression_columnar(operand, ctx)
           for operand in expr.operands]

    if len(fns) == 2:
        # The overwhelmingly common shape (two conjuncts): a single
        # comprehension over the zipped operand arrays.
        first, second = fns
        if conjunction:
            def run(columns, count):
                return [False if (a is False or b is False) else
                        (None if (a is None or b is None) else True)
                        for a, b in zip(first(columns, count),
                                        second(columns, count))]
        else:
            def run(columns, count):
                return [True if (a is True or b is True) else
                        (None if (a is None or b is None) else False)
                        for a, b in zip(first(columns, count),
                                        second(columns, count))]
        return run

    def run(columns, count):
        arrays = [fn(columns, count) for fn in fns]
        if len(arrays) == 1:
            only, = arrays
            if conjunction:
                return [False if value is False else
                        (None if value is None else True) for value in only]
            return [True if value is True else
                    (None if value is None else False) for value in only]
        output = []
        append = output.append
        if conjunction:
            for values in zip(*arrays):
                result = True
                for value in values:
                    if value is False:
                        result = False
                        break
                    if value is None:
                        result = None
                append(result)
        else:
            for values in zip(*arrays):
                result = False
                for value in values:
                    if value is True:
                        result = True
                        break
                    if value is None:
                        result = None
                append(result)
        return output
    return run


def _lazy_boolean(expr: BooleanOp, ctx: EvalContext) -> ColumnEvaluator:
    """AND/OR with an operand that might raise on rows an earlier operand
    already decided (the ``b != 0 AND 10 / b > 1`` guard idiom): each
    operand is evaluated only over the rows no earlier operand dominated."""
    operands = [_compile_selective(operand, ctx) for operand in expr.operands]
    conjunction = expr.op == "and"
    dominant = not conjunction  # FALSE decides an AND, TRUE an OR

    def run(columns, count):
        output = [conjunction] * count
        pending: Sequence[int] = range(count)
        for operand in operands:
            undecided = []
            for index, value in zip(pending,
                                    operand(columns, count, pending)):
                if value is dominant:
                    output[index] = dominant
                    continue
                if value is None:
                    output[index] = None
                undecided.append(index)
            pending = undecided
            if not pending:
                break
        return output
    return run


@_compiles_columnar(Not)
def _columnar_not(expr: Not, ctx: EvalContext) -> ColumnEvaluator:
    operand = compile_expression_columnar(expr.operand, ctx)

    def run(columns, count):
        return [None if value is None else not value
                for value in operand(columns, count)]
    return run


@_compiles_columnar(IsNull)
def _columnar_is_null(expr: IsNull, ctx: EvalContext) -> ColumnEvaluator:
    operand = compile_expression_columnar(expr.operand, ctx)
    if expr.negated:
        return lambda columns, count: [value is not None
                                       for value in operand(columns, count)]
    return lambda columns, count: [value is None
                                   for value in operand(columns, count)]


@_compiles_columnar(InList)
def _columnar_in_list(expr: InList, ctx: EvalContext) -> ColumnEvaluator:
    operand = compile_expression_columnar(expr.operand, ctx)
    items = [_compile_selective(item, ctx) for item in expr.items]
    negated = expr.negated
    compare = t.compare

    def run(columns, count):
        needles = operand(columns, count)
        # No match is the default; a NULL needle or a NULL item seen
        # before any match makes the row NULL.
        output = [None if needle is None else negated for needle in needles]
        pending = [index for index, needle in enumerate(needles)
                   if needle is not None]
        for item in items:
            if not pending:
                break
            unmatched = []
            for index, value in zip(pending, item(columns, count, pending)):
                if value is None:
                    output[index] = None
                elif compare(needles[index], value) == 0:
                    output[index] = not negated
                    continue
                unmatched.append(index)
            pending = unmatched
        return output
    return run


@_compiles_columnar(Like)
def _columnar_like(expr: Like, ctx: EvalContext) -> ColumnEvaluator:
    operand = compile_expression_columnar(expr.operand, ctx)
    pattern = compile_expression_columnar(expr.pattern, ctx)
    negated = expr.negated

    def run(columns, count):
        # Each distinct pattern (one, for the common constant pattern) is
        # translated and compiled once per batch, not per row.
        matchers: dict[str, Callable] = {}
        output = []
        append = output.append
        for text, like in zip(operand(columns, count),
                              pattern(columns, count)):
            if text is None or like is None:
                append(None)
                continue
            if not isinstance(text, str) or not isinstance(like, str):
                raise EvaluationError("LIKE requires text operands")
            matcher = matchers.get(like)
            if matcher is None:
                matcher = matchers[like] = re.compile(
                    _like_regex(like), re.DOTALL).fullmatch
            matched = matcher(text) is not None
            append(not matched if negated else matched)
        return output
    return run


@_compiles_columnar(Case)
def _columnar_case(expr: Case, ctx: EvalContext) -> ColumnEvaluator:
    whens = [(_compile_selective(condition, ctx),
              _compile_selective(value, ctx))
             for condition, value in expr.whens]
    otherwise = _compile_selective(expr.otherwise, ctx)

    def run(columns, count):
        output = [None] * count
        pending: Sequence[int] = range(count)
        for condition, value in whens:
            if not pending:
                return output
            mask = condition(columns, count, pending)
            taken = [index for index, hit in zip(pending, mask)
                     if hit is True]
            if taken:
                for index, result in zip(taken,
                                         value(columns, count, taken)):
                    output[index] = result
                pending = [index for index, hit in zip(pending, mask)
                           if hit is not True]
        if pending:
            for index, result in zip(pending,
                                     otherwise(columns, count, pending)):
                output[index] = result
        return output
    return run


@_compiles_columnar(Cast)
def _columnar_cast(expr: Cast, ctx: EvalContext) -> ColumnEvaluator:
    operand = compile_expression_columnar(expr.operand, ctx)
    target = expr.target
    cast = t.cast_value
    return lambda columns, count: [cast(value, target)
                                   for value in operand(columns, count)]


@_compiles_columnar(VariantPath)
def _columnar_variant_path(expr: VariantPath,
                           ctx: EvalContext) -> ColumnEvaluator:
    operand = compile_expression_columnar(expr.operand, ctx)
    path = expr.path

    def run(columns, count):
        output = []
        append = output.append
        for value in operand(columns, count):
            for key in path:
                if value is None:
                    break
                if isinstance(value, dict):
                    value = value.get(key)
                elif isinstance(value, list):
                    try:
                        value = value[int(key)]
                    except (ValueError, IndexError):
                        value = None
                        break
                else:
                    value = None
                    break
            append(value)
        return output
    return run


@_compiles_columnar(FunctionCall)
def _columnar_function_call(expr: FunctionCall,
                            ctx: EvalContext) -> ColumnEvaluator:
    arg_fns = [compile_expression_columnar(arg, ctx) for arg in expr.args]
    impl = expr.function.impl
    name = expr.function.name
    null_on_null = expr.function.null_on_null

    def run(columns, count):
        if not arg_fns:
            # Zero-arg (necessarily volatile, else it folded): one call
            # per row, like eval.
            output = []
            for __ in range(count):
                try:
                    output.append(impl())
                except EvaluationError:
                    raise
                except Exception as exc:
                    raise EvaluationError(
                        f"error in function {name}: {exc}") from exc
            return output
        arrays = [fn(columns, count) for fn in arg_fns]
        output = []
        append = output.append
        for values in zip(*arrays):
            if null_on_null and None in values:
                append(None)
                continue
            try:
                append(impl(*values))
            except EvaluationError:
                raise
            except Exception as exc:
                raise EvaluationError(
                    f"error in function {name}: {exc}") from exc
        return output
    return run
