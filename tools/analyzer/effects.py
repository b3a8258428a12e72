"""Transitive effect inference over the call graph.

Direct effects (a ``time.time()`` read, an ``os.fsync``, a ``.pairs()``
materialization, a condition wait) are recorded per function by the
facts pass in :mod:`.callgraph`. This module closes them over the call
graph: a function *has* an effect if it performs it directly or calls —
at any depth, through any resolved edge — a function that has it. Each
propagated label keeps one representative :class:`Origin` (where the
effect actually happens), so a finding three frames up can still point
at the fsync call it is about.

The same fixpoint also computes ``may_take``: the set of lock ids a
function may acquire transitively, which the lock-order analysis turns
into interprocedural acquired-before edges.
"""

from __future__ import annotations

from dataclasses import dataclass

from .callgraph import Program


@dataclass(frozen=True)
class Origin:
    """Where an effect is actually performed."""

    qualname: str
    path: str
    line: int
    what: str

    def describe(self) -> str:
        return f"{self.what} at {self.path}:{self.line}"


def transitive_effects(program: Program) -> dict[str, dict[str, Origin]]:
    """label -> representative origin, per function, closed over calls."""
    effects: dict[str, dict[str, Origin]] = {}
    for qualname, info in program.functions.items():
        direct: dict[str, Origin] = {}
        for eff in program.facts[qualname].effects:
            direct.setdefault(eff.label, Origin(
                qualname, info.rel_path, eff.line, eff.what))
        effects[qualname] = direct

    edges = program.call_edges
    changed = True
    while changed:
        changed = False
        for caller, callees in edges.items():
            mine = effects[caller]
            for callee in callees:
                for label, origin in effects.get(callee, {}).items():
                    if label not in mine:
                        mine[label] = origin
                        changed = True
    return effects


def may_take(program: Program) -> dict[str, set]:
    """Lock ids a function may acquire, directly or transitively."""
    taken: dict[str, set] = {}
    for qualname in program.functions:
        taken[qualname] = {acq.lock
                           for acq in program.facts[qualname].acquisitions}
    edges = program.call_edges
    changed = True
    while changed:
        changed = False
        for caller, callees in edges.items():
            mine = taken[caller]
            before = len(mine)
            for callee in callees:
                mine |= taken.get(callee, set())
            if len(mine) != before:
                changed = True
    return taken


def exit_holds(program: Program) -> dict[str, set]:
    """Lock ids a function may still hold when it returns: explicit
    (non-``with``) acquisitions, closed over calls. ``with`` blocks
    release on exit and are excluded."""
    holds: dict[str, set] = {}
    for qualname in program.functions:
        holds[qualname] = {acq.lock
                           for acq in program.facts[qualname].acquisitions
                           if not acq.via_with}
    edges = program.call_edges
    changed = True
    while changed:
        changed = False
        for caller, callees in edges.items():
            mine = holds[caller]
            before = len(mine)
            for callee in callees:
                mine |= holds.get(callee, set())
            if len(mine) != before:
                changed = True
    return holds


def materialize_findings(program: Program,
                         effects: dict[str, dict[str, Origin]]) -> list:
    """ENG105: row materialization reachable from a streaming hot-path
    root — the point of partition-granular cursors is *not* to build the
    full row list, so a ``.pairs()``/``.rows`` in their closure defeats
    them. ``effects`` is :func:`transitive_effects` of ``program``."""
    from .callgraph import MATERIALIZE
    from .diagnostics import Finding

    findings = []
    for root in program.config.hot_path_roots:
        info = program.functions.get(root)
        if info is None:
            continue
        origin = effects[root].get(MATERIALIZE)
        if origin is None:
            continue
        findings.append(Finding(
            code="ENG105",
            path=info.rel_path,
            line=info.lineno,
            function=root,
            message=(f"row materialization ({origin.describe()}) "
                     f"reachable from streaming hot path {root}"),
            hint=("stream partitions instead of materializing, or "
                  "justify the overlay copy with a pragma/baseline "
                  "entry"),
            detail=f"{origin.qualname}|{origin.what}",
        ))
    return findings


def reachable_from(program: Program, roots: tuple) -> set:
    """Function qualnames reachable from ``roots`` via resolved edges."""
    edges = program.call_edges
    seen: set = set()
    stack = [root for root in roots if root in program.functions]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        stack.extend(edges.get(current, ()))
    return seen
