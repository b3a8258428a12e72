"""Interprocedural lock-state analysis.

Two diagnostics come out of the lock facts:

**ENG101 — lock-order inversion.** Every acquisition contributes edges
``held → acquired`` to one global *acquired-before* relation:

* *intra* edges from the facts pass: the locks held (via enclosing
  ``with`` blocks and earlier explicit acquisitions) when a function
  acquires another lock — augmented with the locks still held by
  earlier calls in the same function (``exit_holds``), which is how
  ``Transaction.commit``'s table locks (taken by ``self.lock(...)``
  helper calls) order before the commit mutex;
* *inter* edges from call sites: holding ``H`` while calling a function
  that may transitively take ``L`` orders every ``h ∈ H`` before ``L``.

A cycle in that relation is two code paths that can each hold one lock
of the cycle while waiting for the next — a deadlock recipe. Self-edges
on the abstract table-lock id are excluded: all table locks share one
node, and ordering *within* the family is the sorted-acquisition rule
(ENG002).

**ENG102 — blocking under the commit mutex.** A blocking effect (sleep,
file I/O, fsync, condition wait) performed or reachable while a
configured commit lock is held stalls every concurrent committer and
snapshot acquisition. Plain nested ``with <mutex>`` is not counted here
(see ENG101); the finding is about unbounded or slow waits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .callgraph import BLOCKING_LABELS, Program
from .diagnostics import Finding
from .effects import Origin, exit_holds, may_take


@dataclass
class LockGraph:
    """The global acquired-before relation, with one example site per
    edge for reporting."""

    #: lock -> set of locks acquired while it is held
    edges: dict[str, set] = field(default_factory=dict)
    #: (held, acquired) -> (qualname, rel_path, line) example
    examples: dict[tuple, tuple] = field(default_factory=dict)

    def add(self, held: str, acquired: str, qualname: str, rel_path: str,
            line: int) -> None:
        if held == acquired:
            return  # self-edge: the abstract table-lock family
        self.edges.setdefault(held, set()).add(acquired)
        self.edges.setdefault(acquired, set())
        self.examples.setdefault((held, acquired),
                                 (qualname, rel_path, line))

    def cycles(self) -> list[list[str]]:
        """Elementary cycles found by DFS (deduplicated by rotation)."""
        found: dict[tuple, list[str]] = {}
        for start in sorted(self.edges):
            stack = [(start, [start])]
            while stack:
                node, path = stack.pop()
                for succ in sorted(self.edges.get(node, ())):
                    if succ == start and len(path) > 1:
                        # Canonical rotation: start at the least lock.
                        pivot = path.index(min(path))
                        cycle = path[pivot:] + path[:pivot]
                        found.setdefault(tuple(cycle), cycle)
                    elif succ not in path and succ > start:
                        # Only explore nodes above the start: every
                        # cycle is found from its least node.
                        stack.append((succ, path + [succ]))
        return [cycle for __, cycle in sorted(found.items())]


def build_lock_graph(program: Program) -> LockGraph:
    graph = LockGraph()
    takes = may_take(program)
    carried = exit_holds(program)
    for qualname, info in program.functions.items():
        facts = program.facts[qualname]
        # Events in source order: explicit acquisitions made by earlier
        # calls (e.g. self.lock(...)) are held at later acquisitions.
        events: list[tuple] = [("acq", acq.line, acq) for acq in
                               facts.acquisitions]
        events += [("call", site.line, site) for site in facts.calls
                   if site.callee is not None]
        extra: set = set()
        for kind, __, event in sorted(events, key=lambda item: item[1]):
            if kind == "acq":
                for held in set(event.held) | extra:
                    graph.add(held, event.lock, qualname, info.rel_path,
                              event.line)
            else:
                held_here = set(event.held) | extra
                for taken in takes.get(event.callee, ()):
                    for held in held_here:
                        graph.add(held, taken, qualname, info.rel_path,
                                  event.line)
                extra |= carried.get(event.callee, set())
    return graph


def lock_order_findings(program: Program,
                        graph: LockGraph) -> list[Finding]:
    findings = []
    for cycle in graph.cycles():
        pairs = list(zip(cycle, cycle[1:] + cycle[:1]))
        sites = []
        for held, acquired in pairs:
            qualname, rel_path, line = graph.examples[(held, acquired)]
            sites.append(f"{held}->{acquired} in {qualname} "
                         f"({rel_path}:{line})")
        qualname, rel_path, line = graph.examples[pairs[0]]
        findings.append(Finding(
            code="ENG101",
            path=rel_path,
            line=line,
            function=qualname,
            message=("lock-order inversion: "
                     + " -> ".join(cycle + [cycle[0]])
                     + "; " + "; ".join(sites)),
            hint=("pick one global order for these locks and acquire "
                  "them in it on every path"),
            detail="->".join(cycle),
        ))
    return findings


def blocking_findings(program: Program,
                      effects: dict[str, dict[str, Origin]],
                      ) -> list[Finding]:
    """ENG102: blocking effects performed or reachable while a commit
    lock is held. ``effects`` is :func:`transitive_effects` of
    ``program``."""
    commit_locks = program.config.commit_locks
    if not commit_locks:
        return []
    findings: list[Finding] = []
    seen: set = set()

    def report(qualname: str, rel_path: str, line: int, origin: Origin,
               held: frozenset) -> None:
        lock = sorted(commit_locks & set(held))[0]
        key = (qualname, origin.path, origin.what, origin.qualname)
        if key in seen:
            return
        seen.add(key)
        findings.append(Finding(
            code="ENG102",
            path=rel_path,
            line=line,
            function=qualname,
            message=(f"blocking operation ({origin.describe()}) "
                     f"reachable while holding {lock}"),
            hint=("move the blocking work outside the commit critical "
                  "section, or justify with an eng pragma at this line"),
            detail=f"{origin.qualname}|{origin.what}",
        ))

    for qualname, info in program.functions.items():
        facts = program.facts[qualname]
        for eff in facts.effects:
            if eff.label in BLOCKING_LABELS and commit_locks & set(eff.held):
                report(qualname, info.rel_path, eff.line,
                       Origin(qualname, info.rel_path, eff.line, eff.what),
                       eff.held)
        for site in facts.calls:
            if site.callee is None or not commit_locks & set(site.held):
                continue
            callee_effects = effects.get(site.callee, {})
            for label in sorted(BLOCKING_LABELS & set(callee_effects)):
                report(qualname, info.rel_path, site.line,
                       callee_effects[label], site.held)
    return findings
