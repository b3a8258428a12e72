"""Plan properties: incrementalizability, determinism, operator inventory.

Section 3.3.2 of the paper defines the operator coverage of incremental
refresh: "Incremental mode is currently supported for projections,
filters, union-all, inner and outer joins, LATERAL FLATTEN, distinct and
grouped aggregations, and partitioned window functions. It is not yet
supported for scalar subqueries, [NOT] (IN | EXISTS), scalar aggregates,
or various specialized operators." We go one step further than the paper:
scalar aggregates ARE incrementally maintainable here — the stateful
aggregate rule treats them as a single implicit group that never vanishes
(:mod:`repro.ivm.aggstate`), and the endpoint-recompute fallback
recomputes that one group — so they no longer force FULL refresh mode.

:func:`incrementalizability` reproduces that check, plus the
nondeterminism rules of section 3.4:

* volatile (non-IMMUTABLE) UDFs block incremental refresh;
* context functions (CURRENT_TIMESTAMP, ...) block incremental refresh:
  their value changes with the data timestamp, so rows computed by earlier
  refreshes would disagree with the defining query evaluated at the
  current data timestamp — a DVS violation. FULL mode recomputes every
  row at each refresh's timestamp, keeping DVS exact (the paper handles
  context functions "on a case-by-case basis"; this is the conservative
  case);
* float-typed join keys and grouping keys are rejected ("we prohibit their
  use only when the nondeterminism would interfere with view maintenance,
  such as joining on a float aggregate key").

:func:`operator_inventory` counts operator classes in a plan using the
category names of the paper's Figure 6; the Figure 6 benchmark aggregates
these over the synthetic DT population.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.expressions import Expression
from repro.engine.types import SqlType
from repro.plan import logical as lp


@dataclass
class Incrementalizability:
    """The result of checking a plan for incremental support."""

    supported: bool
    reasons: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.supported


def _expressions_of(node: lp.PlanNode) -> list[Expression]:
    exprs: list[Expression] = []
    if isinstance(node, lp.Project):
        exprs.extend(node.exprs)
    elif isinstance(node, lp.Filter):
        exprs.append(node.predicate)
    elif isinstance(node, lp.Join) and node.condition is not None:
        exprs.append(node.condition)
    elif isinstance(node, lp.Aggregate):
        exprs.extend(node.group_exprs)
        for call in node.aggregates:
            if call.arg is not None:
                exprs.append(call.arg)
    elif isinstance(node, lp.Window):
        exprs.extend(node.partition_exprs)
        for call in node.calls:
            if call.arg is not None:
                exprs.append(call.arg)
            exprs.extend(expr for expr, __ in call.order_by)
    elif isinstance(node, lp.Flatten):
        exprs.append(node.input_expr)
    elif isinstance(node, lp.Sort):
        exprs.extend(expr for expr, __ in node.keys)
    return exprs


def incrementalizability(plan: lp.PlanNode) -> Incrementalizability:
    """Check whether every operator and expression in ``plan`` is
    incrementally maintainable."""
    reasons: list[str] = []
    for node in plan.walk():
        if isinstance(node, lp.Sort):
            reasons.append("ORDER BY is not incrementally supported")
        elif isinstance(node, lp.Limit):
            reasons.append("LIMIT is not incrementally supported")
        elif isinstance(node, lp.Aggregate):
            for expr in node.group_exprs:
                if expr.type == SqlType.FLOAT:
                    reasons.append(
                        "grouping on a FLOAT key interferes with view "
                        "maintenance (section 3.4)")
        elif isinstance(node, lp.Window):
            if not node.partition_exprs:
                reasons.append(
                    "unpartitioned window functions are not incrementally "
                    "supported (section 3.3.2)")
            for expr in node.partition_exprs:
                if expr.type == SqlType.FLOAT:
                    reasons.append(
                        "partitioning on a FLOAT key interferes with view "
                        "maintenance (section 3.4)")
        elif isinstance(node, lp.Join) and node.condition is not None:
            keys = lp.extract_equi_keys(node)
            for left_key, right_key in zip(keys.left_keys, keys.right_keys):
                if SqlType.FLOAT in (left_key.type, right_key.type):
                    reasons.append(
                        "joining on a FLOAT key interferes with view "
                        "maintenance (section 3.4)")
        for expr in _expressions_of(node):
            if not expr.is_deterministic:
                reasons.append(
                    "volatile (non-IMMUTABLE) functions block incremental "
                    "refresh (section 3.4)")
            if expr.uses_context:
                reasons.append(
                    "context functions (CURRENT_TIMESTAMP, ...) change "
                    "with the data timestamp; incremental refresh would "
                    "leave stale rows (section 3.4)")
    return Incrementalizability(not reasons, reasons)


def is_append_only_plan(plan: lp.PlanNode) -> bool:
    """True when the plan maps insert-only input deltas to insert-only,
    id-unique output deltas, permitting the consolidation skip of section
    5.5.2. That holds for the linear operators plus inner joins;
    aggregation, DISTINCT, windows, and outer joins all convert inserts
    into updates or retractions."""
    for node in plan.walk():
        if isinstance(node, (lp.Scan, lp.Values, lp.Project, lp.Filter,
                             lp.UnionAll, lp.Flatten)):
            continue
        if isinstance(node, lp.Join) and node.kind in ("inner", "cross"):
            continue
        return False
    return True


#: Figure 6 operator category names.
OPERATOR_CATEGORIES = (
    "filter", "project", "inner_join", "outer_join", "union_all",
    "grouped_aggregate", "distinct", "window_function", "lateral_flatten",
    "scalar_aggregate", "sort_limit",
)


def operator_inventory(plan: lp.PlanNode) -> dict[str, int]:
    """Count operator occurrences by the category names of Figure 6."""
    counts = {category: 0 for category in OPERATOR_CATEGORIES}
    for node in plan.walk():
        if isinstance(node, lp.Filter):
            counts["filter"] += 1
        elif isinstance(node, lp.Project):
            counts["project"] += 1
        elif isinstance(node, lp.Join):
            if node.kind in ("inner", "cross"):
                counts["inner_join"] += 1
            else:
                counts["outer_join"] += 1
        elif isinstance(node, lp.UnionAll):
            counts["union_all"] += 1
        elif isinstance(node, lp.Aggregate):
            if node.is_scalar:
                counts["scalar_aggregate"] += 1
            else:
                counts["grouped_aggregate"] += 1
        elif isinstance(node, lp.Distinct):
            counts["distinct"] += 1
        elif isinstance(node, lp.Window):
            counts["window_function"] += 1
        elif isinstance(node, lp.Flatten):
            counts["lateral_flatten"] += 1
        elif isinstance(node, (lp.Sort, lp.Limit)):
            counts["sort_limit"] += 1
    return counts
