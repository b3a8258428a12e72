"""Static race detection (ENG104).

The model: each configured *thread* (server pool worker, background
checkpointer, scheduler loop) enters the program at its entry-point
functions. A class is **shared** when methods of it are reachable from
two different threads' closures — its instances may be touched
concurrently. A ``self.attr = ...`` write in a shared class's method is
a race candidate unless some known lock is held on *every* path to it:

* locks held locally (enclosing ``with`` blocks in the method), plus
* locks held at every call site leading to the method — the
  *must-hold-at-entry* set, computed as an intersection fixpoint over
  the call graph: ``H(f) = ⋂ over call sites s of f (held(s) ∪
  H(caller(s)))``, with ``H(entry) = ∅``.

Escapes, in decreasing specificity: a ``# eng: allow-ENG104 (reason)``
pragma on the write line; a ``race_allow`` config entry for the
attribute; the class being configured *thread-confined* (per-statement
/ per-transaction objects a serialization lock already protects); the
write sitting in a lifecycle method (``__init__``/``open``/``close``),
which runs before or after the object is shared.

This is deliberately a *may*-analysis on sharing and a *must*-analysis
on protection: it over-reports rather than under-reports, and the
baseline plus pragmas absorb the audited remainder.
"""

from __future__ import annotations

from .callgraph import Program
from .diagnostics import Finding
from .effects import reachable_from


def must_held_at_entry(program: Program,
                       entries: set) -> dict[str, frozenset]:
    """Intersection-over-call-sites fixpoint of locks held on every
    path into each function. Functions not yet reached are ⊤ (absent)."""
    held: dict[str, frozenset] = {entry: frozenset() for entry in entries
                                  if entry in program.functions}
    sites_by_callee: dict[str, list] = {}
    for site in program.resolved_edges():
        sites_by_callee.setdefault(site.callee, []).append(site)
    changed = True
    while changed:
        changed = False
        for callee, sites in sites_by_callee.items():
            incoming = None
            for site in sites:
                caller_held = held.get(site.caller)
                if caller_held is None:
                    continue  # caller not reached yet: no constraint
                path_held = frozenset(site.held) | caller_held
                incoming = (path_held if incoming is None
                            else incoming & path_held)
            if incoming is None:
                continue
            if callee in entries:
                # An entry point is entered lock-free by its thread no
                # matter what internal callers also hold.
                incoming = frozenset()
            old = held.get(callee)
            merged = incoming if old is None else old & incoming
            if merged != old:
                held[callee] = merged
                changed = True
    return held


def race_findings(program: Program) -> list[Finding]:
    config = program.config
    if not config.entry_points:
        return []
    # Which threads reach which functions.
    closures = {thread: reachable_from(program, entries)
                for thread, entries in config.entry_points.items()}
    all_entries = {entry for entries in config.entry_points.values()
                   for entry in entries}
    reached = set().union(*closures.values()) if closures else set()

    # A class is shared when ≥ 2 threads reach methods of it.
    classes_by_thread: dict[str, set] = {}
    for thread, closure in closures.items():
        classes_by_thread[thread] = {
            program.functions[q].cls for q in closure
            if program.functions[q].cls is not None}
    confined = program.expand_classes(config.thread_confined)
    shared: set = set()
    for cls_name in set().union(*classes_by_thread.values()) \
            if classes_by_thread else set():
        threads = [thread for thread, classes in classes_by_thread.items()
                   if cls_name in classes]
        if len(threads) >= 2 and cls_name not in confined:
            shared.add(cls_name)

    held_at_entry = must_held_at_entry(program, all_entries)
    findings: list[Finding] = []
    for qualname in sorted(reached):
        info = program.functions[qualname]
        if info.cls is None or info.cls not in shared:
            continue
        # Lifecycle methods run before/after the object is shared.
        leaf = info.name.split(".")[-1]
        if leaf in config.init_methods:
            continue
        entry_held = held_at_entry.get(qualname, frozenset())
        for write in program.facts[qualname].writes:
            attr_key = f"{write.cls}.{write.attr}"
            if attr_key in config.race_allow:
                continue
            if program.pragmas[info.rel_path].suppresses(write.line,
                                                         "ENG104"):
                continue
            if set(write.held) | set(entry_held):
                continue  # some known lock protects every path
            threads = sorted(thread
                             for thread, closure in closures.items()
                             if qualname in closure)
            findings.append(Finding(
                code="ENG104",
                path=info.rel_path,
                line=write.line,
                function=qualname,
                message=(f"unsynchronized write to shared attribute "
                         f"{attr_key} (class reachable from threads: "
                         f"{', '.join(threads)}) with no lock held on "
                         f"any path"),
                hint=("guard the write with the owning object's mutex, "
                      "mark the class thread-confined in the analyzer "
                      "config, or justify with "
                      "'# eng: allow-ENG104 (reason)'"),
                detail=attr_key,
            ))
    return findings
