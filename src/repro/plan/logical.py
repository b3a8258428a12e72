"""Logical query plans.

A plan is an immutable tree of operators over bound expressions
(:mod:`repro.engine.expressions`). The operator set is exactly the one the
paper's differentiation framework is defined over (section 3.3.2 lists the
incrementally supported classes):

* :class:`Scan`, :class:`Values`
* :class:`Project`, :class:`Filter`
* :class:`Join` (inner / left / right / full / cross)
* :class:`UnionAll`
* :class:`Aggregate` (grouped aggregation), :class:`Distinct`
* :class:`Window` (partitioned window functions)
* :class:`Flatten` (LATERAL FLATTEN)
* :class:`Sort`, :class:`Limit` — full-refresh-only operators.

Each node carries its output :class:`~repro.engine.schema.Schema`. Join
conditions are bound over the concatenation of the input schemas (left
columns first).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Iterator, Optional, Sequence

from repro.engine.expressions import (ColumnRef, Comparison, Expression,
                                      conjoin, conjuncts)
from repro.engine.schema import Column, Schema
from repro.engine.types import SqlType


class PlanNode:
    """Base class of logical plan operators."""

    schema: Schema

    def children(self) -> tuple["PlanNode", ...]:
        return ()

    def with_children(self, children: Sequence["PlanNode"]) -> "PlanNode":
        """A structural copy with the given children (same arity)."""
        raise NotImplementedError

    def walk(self) -> Iterator["PlanNode"]:
        """Pre-order traversal of the plan tree."""
        yield self
        for child in self.children():
            yield from child.walk()

    @property
    def operator_name(self) -> str:
        return type(self).__name__

    def pretty(self, indent: int = 0) -> str:
        """A readable multi-line rendering, for debugging and docs."""
        line = "  " * indent + self._describe()
        parts = [line]
        parts.extend(child.pretty(indent + 1) for child in self.children())
        return "\n".join(parts)

    def _describe(self) -> str:
        return self.operator_name


@dataclass(frozen=True)
class Scan(PlanNode):
    """A scan of a named catalog entity (base table or dynamic table).

    The schema is resolved against the catalog at plan-build time;
    :mod:`repro.core.evolution` re-checks it at refresh time to detect
    upstream DDL (section 5.4, query evolution).
    """

    table: str
    schema: Schema

    def with_children(self, children: Sequence[PlanNode]) -> PlanNode:
        assert not children
        return self

    def _describe(self) -> str:
        return f"Scan({self.table})"


@dataclass(frozen=True)
class Values(PlanNode):
    """Literal rows (used for INSERT ... VALUES and in tests)."""

    schema: Schema
    rows: tuple[tuple, ...]

    def with_children(self, children: Sequence[PlanNode]) -> PlanNode:
        assert not children
        return self

    def _describe(self) -> str:
        return f"Values({len(self.rows)} rows)"


@dataclass(frozen=True)
class Project(PlanNode):
    """Computes one output column per expression over each input row."""

    child: PlanNode
    exprs: tuple[Expression, ...]
    schema: Schema

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[PlanNode]) -> PlanNode:
        (child,) = children
        return Project(child, self.exprs, self.schema)

    def _describe(self) -> str:
        return f"Project({', '.join(self.schema.names)})"


@dataclass(frozen=True)
class Filter(PlanNode):
    child: PlanNode
    predicate: Expression

    @property
    def schema(self) -> Schema:  # type: ignore[override]
        return self.child.schema

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[PlanNode]) -> PlanNode:
        (child,) = children
        return Filter(child, self.predicate)

    def _describe(self) -> str:
        return f"Filter({self.predicate})"


#: Join kinds, matching section 3.3.2 ("inner and outer joins").
JOIN_KINDS = ("inner", "left", "right", "full", "cross")


@dataclass(frozen=True)
class Join(PlanNode):
    """A join. ``condition`` is bound over left-columns ++ right-columns;
    it is None only for cross joins."""

    kind: str
    left: PlanNode
    right: PlanNode
    condition: Optional[Expression]
    schema: Schema = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.kind not in JOIN_KINDS:
            raise ValueError(f"unknown join kind {self.kind!r}")
        if self.schema is None:
            left_schema = self.left.schema
            right_schema = self.right.schema
            columns = list(left_schema.columns) + list(right_schema.columns)
            # Outer joins make the non-preserved side nullable; the type
            # system models nullability implicitly (every type admits NULL),
            # so the schema is a plain concatenation.
            object.__setattr__(self, "schema", Schema(columns))

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[PlanNode]) -> PlanNode:
        left, right = children
        return Join(self.kind, left, right, self.condition)

    def _describe(self) -> str:
        return f"Join({self.kind}, on={self.condition})"


@dataclass(frozen=True)
class UnionAll(PlanNode):
    """Bag union of inputs with positionally compatible schemas."""

    inputs: tuple[PlanNode, ...]

    @property
    def schema(self) -> Schema:  # type: ignore[override]
        return self.inputs[0].schema

    def children(self) -> tuple[PlanNode, ...]:
        return self.inputs

    def with_children(self, children: Sequence[PlanNode]) -> PlanNode:
        return UnionAll(tuple(children))

    def _describe(self) -> str:
        return f"UnionAll({len(self.inputs)} inputs)"


@dataclass(frozen=True)
class AggregateCall:
    """One aggregate in an Aggregate node. ``arg`` is None for COUNT(*)."""

    function: str  # count, count_if, sum, avg, min, max, any_value
    arg: Optional[Expression]
    distinct: bool = False
    output_name: str = ""
    output_type: SqlType = SqlType.VARIANT

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = "*" if self.arg is None else repr(self.arg)
        prefix = "distinct " if self.distinct else ""
        return f"{self.function}({prefix}{inner})"


@dataclass(frozen=True)
class Aggregate(PlanNode):
    """Grouped aggregation. Output = group columns then aggregate columns.

    With no group keys this is a scalar aggregate — the paper's section
    3.3.2 excludes those from incremental refresh, but the stateful
    aggregate rule maintains them as a single implicit group, so the
    properties checker no longer flags them.
    """

    child: PlanNode
    group_exprs: tuple[Expression, ...]
    aggregates: tuple[AggregateCall, ...]
    schema: Schema

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[PlanNode]) -> PlanNode:
        (child,) = children
        return Aggregate(child, self.group_exprs, self.aggregates, self.schema)

    @property
    def is_scalar(self) -> bool:
        return not self.group_exprs

    def _describe(self) -> str:
        return (f"Aggregate(keys={len(self.group_exprs)}, "
                f"aggs=[{', '.join(map(repr, self.aggregates))}])")


@dataclass(frozen=True)
class Distinct(PlanNode):
    """SELECT DISTINCT: set semantics over the whole row."""

    child: PlanNode

    @property
    def schema(self) -> Schema:  # type: ignore[override]
        return self.child.schema

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[PlanNode]) -> PlanNode:
        (child,) = children
        return Distinct(child)


@dataclass(frozen=True)
class WindowCall:
    """One window function application.

    All calls in a single :class:`Window` node share the partition keys
    (the builder splits differing partitions into stacked Window nodes).
    ``order_by`` uses bound expressions over the child schema; ``arg`` is
    None for ranking functions and COUNT(*).
    """

    function: str  # row_number, rank, dense_rank, sum, count, avg, min, max, lag, lead
    arg: Optional[Expression]
    order_by: tuple[tuple[Expression, bool], ...]
    offset: int = 1  # for lag/lead
    output_name: str = ""
    output_type: SqlType = SqlType.VARIANT
    #: Window aggregates take no DISTINCT; read by ``make_accumulator``
    #: as on an :class:`AggregateCall`.
    distinct: ClassVar[bool] = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.function}(...) over(...)"


@dataclass(frozen=True)
class Window(PlanNode):
    """Partitioned window functions: output schema = child schema plus one
    column per call. Section 3.3.2: only *partitioned* window functions are
    incrementally supported; empty ``partition_exprs`` marks the
    unpartitioned case, which the properties checker rejects for
    incremental mode."""

    child: PlanNode
    partition_exprs: tuple[Expression, ...]
    calls: tuple[WindowCall, ...]
    schema: Schema

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[PlanNode]) -> PlanNode:
        (child,) = children
        return Window(child, self.partition_exprs, self.calls, self.schema)

    def _describe(self) -> str:
        return (f"Window(partitions={len(self.partition_exprs)}, "
                f"calls={[c.function for c in self.calls]})")


@dataclass(frozen=True)
class Flatten(PlanNode):
    """LATERAL FLATTEN: one output row per element of the array-valued
    ``input_expr``, appending ``<alias>.value`` and ``<alias>.index``."""

    child: PlanNode
    input_expr: Expression
    alias: str
    schema: Schema

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[PlanNode]) -> PlanNode:
        (child,) = children
        return Flatten(child, self.input_expr, self.alias, self.schema)

    def _describe(self) -> str:
        return f"Flatten({self.alias})"


@dataclass(frozen=True)
class Sort(PlanNode):
    """ORDER BY. Only meaningful at the top of a plan; not differentiable."""

    child: PlanNode
    keys: tuple[tuple[Expression, bool], ...]  # (expr, descending)

    @property
    def schema(self) -> Schema:  # type: ignore[override]
        return self.child.schema

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[PlanNode]) -> PlanNode:
        (child,) = children
        return Sort(child, self.keys)


@dataclass(frozen=True)
class Limit(PlanNode):
    child: PlanNode
    count: int

    @property
    def schema(self) -> Schema:  # type: ignore[override]
        return self.child.schema

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[PlanNode]) -> PlanNode:
        (child,) = children
        return Limit(child, self.count)


# ---------------------------------------------------------------------------
# Join analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquiJoinKeys:
    """The equi-join decomposition of a join condition.

    ``left_keys[i]`` (bound over the left schema) must equal
    ``right_keys[i]`` (bound over the right schema); ``residual`` is the
    remaining predicate bound over the concatenated schema (or None).
    """

    left_keys: tuple[Expression, ...]
    right_keys: tuple[Expression, ...]
    residual: Optional[Expression]


def extract_equi_keys(join: Join) -> EquiJoinKeys:
    """Split a join condition into hashable equi-key pairs and a residual.

    A conjunct qualifies when it is an ``=`` whose two sides each reference
    columns from exactly one (distinct) input. Sides referencing the right
    input are rebased to right-schema positions.
    """
    left_width = len(join.left.schema)
    total_width = left_width + len(join.right.schema)
    right_rebase = {index: index - left_width
                    for index in range(left_width, total_width)}

    left_keys: list[Expression] = []
    right_keys: list[Expression] = []
    residual_parts: list[Expression] = []

    condition = join.condition
    if condition is None:
        return EquiJoinKeys((), (), None)

    for part in conjuncts(condition):
        if isinstance(part, Comparison) and part.op == "=":
            left_refs = part.left.column_indices()
            right_refs = part.right.column_indices()
            left_side_left = left_refs and all(i < left_width for i in left_refs)
            left_side_right = left_refs and all(i >= left_width for i in left_refs)
            right_side_left = right_refs and all(i < left_width for i in right_refs)
            right_side_right = right_refs and all(i >= left_width for i in right_refs)
            if left_side_left and right_side_right:
                left_keys.append(part.left)
                right_keys.append(part.right.remap(right_rebase))
                continue
            if left_side_right and right_side_left:
                left_keys.append(part.right)
                right_keys.append(part.left.remap(right_rebase))
                continue
        residual_parts.append(part)

    residual = conjoin(residual_parts) if residual_parts else None
    return EquiJoinKeys(tuple(left_keys), tuple(right_keys), residual)


def scans_of(plan: PlanNode) -> list[str]:
    """The names of all tables scanned by a plan, in traversal order."""
    return [node.table for node in plan.walk() if isinstance(node, Scan)]


def make_projection_schema(exprs: Sequence[Expression],
                           names: Sequence[str]) -> Schema:
    """Schema for a Project given expressions and output names."""
    return Schema(Column(name, expr.type)
                  for name, expr in zip(names, exprs))
