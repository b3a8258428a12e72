"""Query evolution: detecting and compensating for upstream DDL.

Section 5.4 of the paper: "When a DT is created, we track all of its
dependencies and store them as metadata for the DT. ... During a refresh,
the DT may have different columns (e.g., for a top-level SELECT *) or
altogether different semantics (e.g., changing a filter or reading from a
different table) due to DDLs on objects upstream. Query evolution
determines how to compensate for the changes, whether via DDL actions or
overriding the refresh action. Our approach is currently conservative,
choosing to reinitialize in some cases where it is not necessary."

Decisions:

* every recorded dependency still exists, same generation, same schema →
  proceed normally;
* a dependency was **replaced** (generation bump) or its schema changed →
  **REINITIALIZE** (conservative, like the paper);
* a dependency is missing or dropped → the refresh **fails** — and
  recovers automatically once the entity is UNDROPped or recreated under
  the same name (section 3.4's two principles: upstream precedence,
  automatic recovery).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.dynamic_table import DependencyRecord
from repro.errors import EntityNotFound
from repro.sql import nodes as n
from repro.storage.catalog import Catalog


class EvolutionOutcome(enum.Enum):
    PROCEED = "proceed"
    REINITIALIZE = "reinitialize"
    FAIL = "fail"


@dataclass
class EvolutionDecision:
    outcome: EvolutionOutcome
    reasons: list[str] = field(default_factory=list)


def collect_source_names(query: n.Select, catalog: Catalog,
                         _seen: set[str] | None = None) -> set[str]:
    """All catalog entities a query reads: tables, dynamic tables, and
    views (views recursively contribute their own sources *and* appear as
    dependencies themselves — replacing a view must reinitialize
    downstream DTs)."""
    seen = _seen if _seen is not None else set()
    names: set[str] = set()

    def from_select(select: n.Select) -> None:
        for ref in n.table_refs(select.from_):
            if isinstance(ref, n.NamedTable):
                names.add(ref.name)
                if ref.name not in seen:
                    seen.add(ref.name)
                    view_query = catalog.view_definition(ref.name)
                    if view_query is not None:
                        names.update(
                            collect_source_names(view_query, catalog, seen))
            elif isinstance(ref, n.SubqueryRef):
                names.update(collect_source_names(ref.query, catalog, seen))
        for core in select.union_all:
            from_select(core)

    from_select(query)
    return names


def record_dependencies(query: n.Select,
                        catalog: Catalog) -> dict[str, DependencyRecord]:
    """Capture the dependency metadata stored on a DT at creation (and
    re-captured after INITIAL / REINITIALIZE refreshes)."""
    records: dict[str, DependencyRecord] = {}
    for name in sorted(collect_source_names(query, catalog)):
        entry = catalog.get(name)  # raises if missing — creation must fail
        if entry.kind == "view":
            schema = None
        else:
            schema = catalog.versioned_table(name).schema
        used = tuple(schema.names) if schema is not None else ()
        records[name] = DependencyRecord(
            name=name, kind=entry.kind, entity_id=entry.entity_id,
            schema=schema, used_columns=used)
    return records


def check_evolution(dependencies: dict[str, DependencyRecord],
                    catalog: Catalog) -> EvolutionDecision:
    """Compare recorded dependencies against the current catalog."""
    reasons: list[str] = []
    outcome = EvolutionOutcome.PROCEED
    for name, record in dependencies.items():
        try:
            entry = catalog.get(name)
        except EntityNotFound as exc:
            return EvolutionDecision(EvolutionOutcome.FAIL, [str(exc)])
        if entry.kind != record.kind:
            return EvolutionDecision(
                EvolutionOutcome.FAIL,
                [f"dependency {name!r} changed kind: "
                 f"{record.kind} -> {entry.kind}"])
        if entry.entity_id != record.entity_id:
            outcome = EvolutionOutcome.REINITIALIZE
            reasons.append(f"dependency {name!r} was replaced or "
                           "recreated under the same name")
            continue
        if record.schema is not None:
            current = catalog.versioned_table(name).schema
            if current.names != list(record.schema.names) or (
                    current.types != list(record.schema.types)):
                outcome = EvolutionOutcome.REINITIALIZE
                reasons.append(f"dependency {name!r} changed schema")
    return EvolutionDecision(outcome, reasons)
