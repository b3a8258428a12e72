"""Prepared statements: parse once, plan once, execute many times.

A :class:`PreparedStatement` is created by ``Session.prepare(sql)``. The
SQL is parsed exactly once; its bind parameters (``?`` positional or
``:name`` named) are collected into a :class:`ParameterSpec` that assigns
each a slot. A SELECT binds to its optimized plan and an INSERT, UPDATE or
DELETE to one :class:`~repro.plan.logical.Write`
(:func:`~repro.plan.builder.build_write`), both at prepare time and both
through the database-wide :class:`~repro.plan.cache.PlanCache` under a
parameter-aware key — the statement *text* with markers left in place,
plus the catalog epoch and function-registry version. Re-executing with
new binds performs **zero parse, bind or optimize work**, re-preparing the
same text in another session reuses the binding, and any DDL or UDF
change re-binds the stored AST on the next use. A one-shot statement
(``Session.execute``) is the same object, bound fresh on its one
execution instead of through the cache.

Each bind slot's type is a pure function of the bound plan: the type
its comparison or arithmetic context gave the slot's
:class:`~repro.engine.expressions.BoundParameter`, derived once per plan
object (:func:`_parameter_types`) and replaced, never merged, when a DDL
change re-binds. Bind values are checked against the slot types of the
plan that then runs, so a value of the wrong type is refused before the
statement runs — on the first execution too.

Bind values travel to execution inside the
:class:`~repro.engine.expressions.EvalContext` (``ctx.params``), where
each :class:`~repro.engine.expressions.BoundParameter` slot reads — and
the vectorized compiler folds to a constant — the value for that one
execution. ``executemany`` of an INSERT ... VALUES hands the batch to
:meth:`ParameterSpec.bind_columns`, which transposes the bind sets —
positional or named — into one array per slot and type-checks each slot
with one dispatch; the rest of the insert is column at a time
(:mod:`repro.api.insert`).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from repro.engine import expressions as e
from repro.engine import types as t
from repro.engine.types import Value
from repro.errors import BindParameterError, TypeError_, UserError
from repro.plan import logical as lp
from repro.plan.builder import build_plan, build_write
from repro.plan.rewrite import optimize
from repro.sql import nodes as n

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.cursor import Cursor
    from repro.api.results import QueryResult
    from repro.api.session import Session


#: Bind slot -> the type its contexts in the bound plan give it; a slot
#: they say nothing about (a bare projection, a VARIANT path) is absent.
SlotTypes = Mapping[int, t.SqlType]


class ParameterSpec:
    """The bind parameters of one statement, with their slot assignment.

    Positional parameters occupy slots ``0 .. count-1`` in order of
    appearance; named parameters occupy one slot per distinct name, in
    first-appearance order. Mixing the two styles in one statement is
    rejected (DB-API style).
    """

    def __init__(self, parameters: Sequence[n.Parameter] = ()):
        positional = [p for p in parameters if p.name is None]
        names: list[str] = []
        for parameter in parameters:
            if parameter.name is not None and parameter.name not in names:
                names.append(parameter.name)
        if positional and names:
            raise BindParameterError(
                "cannot mix positional (?) and named (:name) parameters "
                "in one statement")
        self.positional_count = len(positional)
        self.names: tuple[str, ...] = tuple(names)
        self._name_slots = {name: slot for slot, name in enumerate(names)}

    @property
    def slot_count(self) -> int:
        return self.positional_count or len(self.names)

    @property
    def is_empty(self) -> bool:
        return self.slot_count == 0

    def slot_of(self, parameter: n.Parameter) -> int:
        """The value slot of one AST parameter (the builder's hook)."""
        if parameter.name is not None:
            return self._name_slots[parameter.name]
        assert parameter.index is not None
        return parameter.index

    _NUMERIC = frozenset({t.SqlType.INT, t.SqlType.FLOAT})

    @classmethod
    def _value_matches(cls, expected: t.SqlType, actual: t.SqlType) -> bool:
        if expected == actual:
            return True
        if expected in cls._NUMERIC and actual in cls._NUMERIC:
            return True  # INT and FLOAT are mutually comparable, as literals
        if expected == t.SqlType.TIMESTAMP and actual == t.SqlType.INT:
            return True  # timestamps are nanosecond ints
        return False

    def bind(self, binds: object, types: SlotTypes) -> tuple[Value, ...]:
        """Validate user-supplied binds into a slot-ordered value tuple,
        each value checked against its slot's type in ``types``."""
        if self.is_empty:
            if binds:
                raise BindParameterError(
                    "statement takes no bind parameters")
            return ()
        if self.names:
            return self._bind_named(binds, types)
        return self._bind_positional(binds, types)

    def _bind_positional(self, binds: object,
                         types: SlotTypes) -> tuple[Value, ...]:
        if binds is None or isinstance(binds, (str, bytes, Mapping)):
            raise BindParameterError(
                f"expected a sequence of {self.positional_count} "
                f"positional bind values, got {binds!r}")
        values = tuple(binds)  # type: ignore[arg-type]
        if len(values) != self.positional_count:
            raise BindParameterError(
                f"statement takes {self.positional_count} positional "
                f"parameters, got {len(values)} values")
        return tuple(self._check_value(value, f"?{slot + 1}", types.get(slot))
                     for slot, value in enumerate(values))

    def _bind_named(self, binds: object,
                    types: SlotTypes) -> tuple[Value, ...]:
        if not isinstance(binds, Mapping):
            raise BindParameterError(
                f"expected a mapping of named bind values for "
                f"{', '.join(':' + name for name in self.names)}, "
                f"got {binds!r}")
        missing = [name for name in self.names if name not in binds]
        if missing:
            raise BindParameterError(
                "missing bind values for "
                + ", ".join(f":{name}" for name in missing))
        extra = [key for key in binds if key not in self._name_slots]
        if extra:
            raise BindParameterError(
                "unknown bind names: "
                + ", ".join(f":{key}" for key in extra))
        return tuple(self._check_value(binds[name], f":{name}",
                                       types.get(self._name_slots[name]))
                     for name in self.names)

    def bind_columns(self, bind_sets: Iterable[object], types: SlotTypes,
                     ) -> tuple[int, list[Sequence[Value]]]:
        """Validate a batch of bind sets into ``(count, slot columns)``:
        the bind sets transposed once into one array per slot, in slot
        order, each checked against its type in ``types`` with one type
        dispatch. Every error is the one :meth:`bind` raises for the
        offending bind set, prefixed with the set's index in the batch."""
        sets = bind_sets if isinstance(bind_sets, list) else list(bind_sets)
        if not sets:
            return 0, [[] for __ in range(self.slot_count)]
        if self.is_empty:
            for index, binds in enumerate(sets):
                self._bind_one(index, binds, types)
            return len(sets), []
        if self.names:
            columns = self._named_columns(sets, types)
        else:
            columns = self._positional_columns(sets, types)
        labels = ([f":{name}" for name in self.names] if self.names
                  else [f"?{slot + 1}" for slot in range(self.slot_count)])
        for slot, (column, label) in enumerate(zip(columns, labels)):
            self._check_column(column, label, types.get(slot))
        return len(sets), columns

    def _bind_one(self, index: int, binds: object,
                  types: SlotTypes) -> tuple[Value, ...]:
        try:
            return self.bind(binds, types)
        except BindParameterError as exc:
            raise BindParameterError(f"bind set {index}: {exc}") from None

    def _positional_columns(self, sets: list,
                            types: SlotTypes) -> list[Sequence[Value]]:
        if (set(map(type, sets)) <= {tuple, list}
                and set(map(len, sets)) == {self.positional_count}):
            return list(zip(*sets))
        # Something off in the batch: validate set by set, so the error
        # names the first bad one.
        return list(zip(*(self._bind_one(index, binds, types)
                          for index, binds in enumerate(sets))))

    def _named_columns(self, sets: list,
                       types: SlotTypes) -> list[Sequence[Value]]:
        names = set(self.names)
        if not (set(map(type, sets)) <= {dict}
                and all(binds.keys() == names for binds in sets)):
            sets = [dict(zip(self.names, self._bind_one(index, binds, types)))
                    for index, binds in enumerate(sets)]
        return [[binds[name] for binds in sets] for name in self.names]

    #: Python type -> SQL type of every bind value type that is checked
    #: with one dispatch per column; any other type is checked per value.
    _PLAIN_TYPES = {type(None): t.SqlType.NULL, bool: t.SqlType.BOOL,
                    int: t.SqlType.INT, float: t.SqlType.FLOAT,
                    str: t.SqlType.TEXT, dict: t.SqlType.VARIANT,
                    list: t.SqlType.VARIANT}

    def _check_column(self, column: Sequence[object], label: str,
                      expected: Optional[t.SqlType]) -> None:
        """:meth:`_check_value` over one slot's column: the set of its
        values' types is checked once, and a column holding anything
        unusual is checked value by value, so the error is exact."""
        kinds = set(map(type, column))
        plain = self._PLAIN_TYPES
        if kinds <= plain.keys() and (
                expected is None
                or all(self._value_matches(expected, plain[kind])
                       for kind in kinds if kind is not type(None))):
            return
        for index, value in enumerate(column):
            try:
                self._check_value(value, label, expected)
            except BindParameterError as exc:
                raise BindParameterError(
                    f"bind set {index}: {exc}") from None

    def _check_value(self, value: object, label: str,
                     expected: Optional[t.SqlType]) -> Value:
        try:
            actual = t.type_of_value(value)
        except TypeError_ as exc:
            raise BindParameterError(
                f"bind value for {label} has no SQL type: {exc}") from None
        if (expected is not None and value is not None
                and not self._value_matches(expected, actual)):
            raise BindParameterError(
                f"bind value for {label} should be {expected} "
                f"(inferred from the statement), got {actual}: {value!r}")
        return value


def _parameter_types(plan: lp.PlanNode) -> dict[int, t.SqlType]:
    """The slot types of a bound plan: for each slot, the type of its
    context-typed :class:`~repro.engine.expressions.BoundParameter`
    nodes. The binder refused conflicting contexts, so each slot's types
    unify."""
    found: list[tuple[int, t.SqlType]] = []
    for node in plan.walk():
        for value in vars(node).values():
            _collect_parameters(value, found)
    types: dict[int, t.SqlType] = {}
    for slot, sql_type in found:
        existing = types.get(slot)
        types[slot] = (sql_type if existing is None
                       else t.unify_types(existing, sql_type))
    return types


def _collect_parameters(value: object,
                        found: list[tuple[int, t.SqlType]]) -> None:
    if isinstance(value, e.Expression):
        if (isinstance(value, e.BoundParameter)
                and value.type != t.SqlType.NULL):
            found.append((value.slot, value.type))
        for child in value.children():
            _collect_parameters(child, found)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _collect_parameters(item, found)
    elif (dataclasses.is_dataclass(value) and not isinstance(value, type)
            and not isinstance(value, lp.PlanNode)):
        # Aggregate/window call wrappers carry expressions one level deep.
        for field_value in vars(value).values():
            _collect_parameters(field_value, found)


class PreparedStatement:
    """A statement parsed (and, for SELECT and DML, bound) once for
    repeated execution with varying binds. ``cached=False`` makes the
    one-shot form: bound fresh, its plan never entering the plan cache."""

    def __init__(self, session: "Session", sql: str,
                 statement: n.Statement, spec: ParameterSpec,
                 cached: bool = True):
        self._session = session
        self.sql = sql
        self.statement = statement
        self.spec = spec
        self._cached = cached
        #: The plan last bound and the slot types derived from it.
        self._plan: Optional[lp.PlanNode] = None
        self._slot_types: SlotTypes = {}

    @property
    def is_query(self) -> bool:
        return isinstance(self.statement, n.Query)

    @property
    def parameter_count(self) -> int:
        return self.spec.slot_count

    def bound(self) -> tuple[Optional[lp.PlanNode], SlotTypes]:
        """The bound plan — a SELECT's optimized plan or the
        :class:`~repro.plan.logical.Write` of an INSERT, UPDATE or DELETE,
        None for other statements — and the slot types derived from it.

        The plan cache key carries the statement text (bind markers
        included), the catalog DDL epoch and the function-registry
        version: repeated executions hit, and any DDL or UDF change
        re-binds the stored AST (no re-parse, ever). The slot types are
        derived once per plan object, so a cache hit walks nothing.
        """
        statement = self.statement
        if not isinstance(statement, (n.Query, n.Insert, n.Update,
                                      n.Delete)):
            return None, {}
        db = self._session.database
        key = ("prepared", self.sql, db.catalog.epoch, db.registry.version)
        plan = db.plan_cache.get(key) if self._cached else None
        if plan is None:
            if isinstance(statement, n.Query):
                plan = optimize(build_plan(statement.select, db.catalog,
                                           db.registry, parameters=self.spec))
            else:
                plan = build_write(statement, db.catalog, db.registry,
                                   self.spec)
            if self._cached:
                db.plan_cache.put(key, plan)
        if plan is not self._plan:
            self._plan = plan
            self._slot_types = ({} if self.spec.is_empty
                                else _parameter_types(plan))
        return plan, self._slot_types

    def plan(self) -> lp.PlanNode:
        """The bound plan of a SELECT, INSERT, UPDATE or DELETE (see
        :meth:`bound`)."""
        plan, __ = self.bound()
        if plan is None:
            raise UserError(
                "only SELECT, INSERT, UPDATE and DELETE statements have a "
                "plan")
        return plan

    # -- execution -----------------------------------------------------------

    def execute(self, binds: object = None) -> "Optional[QueryResult]":
        """Execute with the given binds; rows for SELECTs, else None."""
        result, __ = self._session._execute_prepared(self, binds)
        return result

    def query(self, binds: object = None) -> "QueryResult":
        result = self.execute(binds)
        if result is None:
            raise UserError("statement did not return rows")
        return result

    def executemany(self, bind_sets: Iterable[object]) -> int:
        """Execute once per bind set; returns total rows affected.

        INSERT ... VALUES runs column at a time: the bind sets are
        transposed once into one array per slot, each slot checked and
        each table column cast with one type dispatch, and the resulting
        column block staged by reference and committed in a **single
        transaction** (one new table version) — a bad value anywhere
        rolls the whole batch back, and its error names the bind set.
        Other statements run once per bind set, in one transaction too.
        """
        return self._session._executemany_prepared(self, bind_sets)

    def cursor(self) -> "Cursor":
        """A fresh cursor over this statement's session."""
        return self._session.cursor()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = type(self.statement).__name__
        return (f"PreparedStatement({kind}, params={self.parameter_count}, "
                f"sql={self.sql.strip()[:40]!r})")
