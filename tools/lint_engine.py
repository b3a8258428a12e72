#!/usr/bin/env python3
"""Engine-invariant linter: AST-based checks over the repro codebase.

The runtime engine relies on a handful of invariants that Python cannot
express in types; this tool makes them CI-enforced instead of
convention-enforced:

``wall-clock``
    All time comes from the simulated clock (``scheduler/clock.py``).
    Wall-clock reads anywhere else (``time.time()``, ``time.monotonic()``,
    ``datetime.now()``, ...) would desynchronize refresh scheduling from
    the HLC and make tests nondeterministic.

``lock-order``
    Lock acquisitions in ``server/`` and the transaction manager must
    happen in sorted order: every loop body that acquires locks must
    iterate a ``sorted(...)`` sequence (directly or through a variable
    assigned from one), and no function may contain more than one
    standalone acquisition site. Unordered multi-lock acquisition is the
    classic deadlock recipe under first-committer-wins commits.

``materialize``
    The whole refresh path (``engine/executor.py``, ``ivm/``,
    ``streams/``, ``storage/``, ``core/refresh.py``) and the
    transaction's read-your-writes overlay (``txn/``) stay columnar:
    ``.rows`` / ``.pairs()`` materialization there defeats the columnar
    data plane and is only allowed at sites recorded in the baseline
    allowlist below (each a deliberate row-shaped boundary) or marked
    with a pragma.

``accumulator-protocol``
    Every class deriving from ``Accumulator`` must implement (or
    inherit a real implementation of) the full
    ``insert``/``retract``/``finalize`` protocol; a partial
    accumulator would break retraction-based incremental aggregation at
    runtime, in whatever query shape first exercises the missing method.

``durability-io``
    All file I/O goes through ``repro/durability/`` — the one subsystem
    that knows the fsync/``os.replace`` discipline that makes writes
    crash-atomic. A bare ``open()`` / ``os.*`` file call anywhere else
    is state the recovery path cannot see and will not restore.

``wal-commit-mutex``
    Every ``.log_commit(...)`` call must sit lexically inside a
    ``with`` block whose context expression mentions ``commit_mutex``.
    WAL commit records replay in sequence order on recovery; logging
    outside the commit critical section would let the on-disk record
    order diverge from the in-memory apply order.

``bare-except``
    ``except Exception:`` (or a bare ``except:``) whose handler never
    re-raises swallows errors silently — the bug class behind refresh
    failures that vanished instead of being recorded. A catch-all that
    re-raises (cleanup boundaries) is fine; a genuine swallow is only
    allowed at boundaries recorded in the allowlist below (places whose
    *contract* is to convert exceptions into recorded state) or marked
    with a pragma.

``unused-pragma``
    A ``# lint: allow-<rule>`` pragma on a line that no longer violates
    that rule is a stale justification — it reads as "this line is
    exempt" while exempting nothing, and it would silently re-arm if
    the violation ever came back under a different rule. Delete it.

A violating line can be suppressed with an inline pragma comment::

    deadline = time.monotonic() + t  # lint: allow-wall-clock (reason)

Usage::

    python tools/lint_engine.py              # lint src/repro, exit 1 on findings
    python tools/lint_engine.py --self-test  # prove each rule fires on its fixture
    python tools/lint_engine.py --dump-allowlist  # print the allowlist block

Violations print as ``path:line: [rule] message``. The violation shape
and the pragma grammar are shared with the whole-program analyzer
(``tools/analyzer``) via ``tools.analyzer.diagnostics``.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Iterator, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"
FIXTURE_DIR = Path(__file__).resolve().parent / "lint_fixtures"

try:
    from tools.analyzer.diagnostics import PragmaIndex, Violation
except ImportError:  # run as a script: repo root not on sys.path yet
    sys.path.insert(0, str(REPO_ROOT))
    from tools.analyzer.diagnostics import PragmaIndex, Violation

#: Wall-clock reads banned outside scheduler/clock.py.
_CLOCK_MODULES = ("time", "datetime")
_CLOCK_CALLS = {
    "time": {"time", "monotonic", "sleep", "perf_counter", "localtime",
             "gmtime", "process_time"},
    "datetime": {"now", "utcnow", "today"},
}
_CLOCK_EXEMPT = ("scheduler/clock.py",)

#: Modules whose loops/locks must acquire in sorted order.
_LOCK_SCOPE = ("server/", "txn/manager.py")
_LOCK_METHODS = {"lock", "acquire"}

#: Modules that must stay columnar: the refresh path, partition to delta
#: to partition, and the transaction's read-your-writes overlay.
_MATERIALIZE_SCOPE = ("engine/executor.py", "ivm/", "streams/", "storage/",
                      "core/refresh.py", "txn/")

#: Baseline allowlist for the materialize rule: (module path, enclosing
#: scope) pairs for the row-shaped boundaries that predate the linter.
#: Additions to this list need review — new hot-path code is expected to
#: stay columnar or carry an inline pragma with a justification.
MATERIALIZE_ALLOWLIST: set[tuple[str, str]] = {
    ("storage/table.py", "rows_by_id"),
}

#: Boundaries whose contract is converting exceptions into recorded
#: state — the only scopes where a non-re-raising ``except Exception``
#: is allowed. (path, enclosing scope) pairs; additions need review.
BARE_EXCEPT_ALLOWLIST: set[tuple[str, str]] = {
    # The scheduler's skip gate: an upstream probe error is recorded on
    # the DT as a failed attempt (counted toward auto-suspension), never
    # propagated into the tick loop.
    ("scheduler/scheduler.py", "_skip_or_upstream_ends"),
    # Wave isolation: with return_exceptions=True a crashed worker task
    # returns its exception as the result so siblings complete.
    ("util/parallel.py", "task"),
}

#: The accumulator protocol every concrete accumulator must provide.
_ACCUMULATOR_PROTOCOL = ("insert", "retract", "finalize")
_ACCUMULATOR_ROOT = "Accumulator"

#: The only subtree allowed to do direct file I/O.
_DURABILITY_EXEMPT = ("durability/",)
#: ``os.<attr>(...)`` calls that touch the filesystem.
_IO_OS_CALLS = {"open", "fdopen", "write", "replace", "truncate", "fsync",
                "unlink", "remove", "rename", "makedirs"}
#: ``Path``-style convenience I/O methods.
_IO_PATH_METHODS = {"write_text", "write_bytes", "read_text", "read_bytes"}


def _scope_stack(tree: ast.Module) -> dict[ast.AST, str]:
    """Map every node to the name of its innermost enclosing function or
    class ('<module>' at top level)."""
    scopes: dict[ast.AST, str] = {}

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            child_scope = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                child_scope = child.name
            scopes[child] = child_scope
            visit(child, child_scope)

    scopes[tree] = "<module>"
    visit(tree, "<module>")
    return scopes


# ---------------------------------------------------------------------------
# Rule: wall-clock
# ---------------------------------------------------------------------------


def check_wall_clock(tree: ast.Module, rel_path: str,
                     pragmas: PragmaIndex) -> Iterator[Violation]:
    if any(rel_path.endswith(exempt) for exempt in _CLOCK_EXEMPT):
        return
    for node in ast.walk(tree):
        call: Optional[tuple[int, str]] = None
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in _CLOCK_CALLS
                and node.func.attr in _CLOCK_CALLS[node.func.value.id]):
            call = (node.lineno,
                    f"{node.func.value.id}.{node.func.attr}()")
        elif (isinstance(node, ast.ImportFrom)
                and node.module in _CLOCK_CALLS):
            banned = [alias.name for alias in node.names
                      if alias.name in _CLOCK_CALLS[node.module]]
            if banned:
                call = (node.lineno,
                        f"from {node.module} import {', '.join(banned)}")
        if call is None:
            continue
        line, description = call
        if pragmas.suppresses(line, "wall-clock"):
            continue
        yield Violation(
            rel_path, line, "wall-clock",
            f"{description} reads the wall clock; all engine time must "
            "come from scheduler/clock.py (SimClock)")


# ---------------------------------------------------------------------------
# Rule: lock-order
# ---------------------------------------------------------------------------


def _is_sorted_expr(expr: ast.expr, sorted_names: set[str]) -> bool:
    if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
            and expr.func.id == "sorted"):
        return True
    return isinstance(expr, ast.Name) and expr.id in sorted_names


def _sorted_names_of(func: ast.AST) -> set[str]:
    """Names assigned from a ``sorted(...)`` call anywhere in ``func``."""
    names: set[str] = set()
    for node in ast.walk(func):
        if (isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                and node.value.func.id == "sorted"):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def check_lock_order(tree: ast.Module, rel_path: str,
                     pragmas: PragmaIndex,
                     force: bool = False) -> Iterator[Violation]:
    if not force and not any(marker in rel_path for marker in _LOCK_SCOPE):
        return
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef,
                                      ast.AsyncFunctionDef))]
    for func in functions:
        sorted_names = _sorted_names_of(func)
        loops: list[ast.For] = []
        loose_sites: list[int] = []

        def scan(node: ast.AST, loop: Optional[ast.For]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    continue  # nested defs get their own pass
                child_loop = loop
                if isinstance(child, ast.For):
                    child_loop = child
                    loops.append(child)
                if (isinstance(child, ast.Call)
                        and isinstance(child.func, ast.Attribute)
                        and child.func.attr in _LOCK_METHODS):
                    if pragmas.suppresses(child.lineno, "lock-order"):
                        pass
                    elif child_loop is not None:
                        if not _is_sorted_expr(child_loop.iter,
                                               sorted_names):
                            yield_to.append(Violation(
                                rel_path, child.lineno, "lock-order",
                                f"lock acquisition inside a loop over an "
                                f"unsorted iterable (in {func.name}); "
                                "iterate sorted(...) so every "
                                "transaction locks in the same global "
                                "order"))
                    else:
                        loose_sites.append(child.lineno)
                scan(child, child_loop)

        yield_to: list[Violation] = []
        scan(func, None)
        yield from yield_to
        if len(loose_sites) > 1:
            yield Violation(
                rel_path, loose_sites[1], "lock-order",
                f"{func.name} acquires multiple locks outside a "
                "sorted(...) loop; acquire them in one loop over a "
                "sorted sequence to keep the global lock order")


# ---------------------------------------------------------------------------
# Rule: materialize
# ---------------------------------------------------------------------------


def _in_materialize_scope(rel_path: str) -> bool:
    return any(rel_path.startswith(scope) or scope in rel_path
               for scope in _MATERIALIZE_SCOPE)


def check_materialize(tree: ast.Module, rel_path: str,
                      pragmas: PragmaIndex,
                      force: bool = False) -> Iterator[Violation]:
    if not force and not _in_materialize_scope(rel_path):
        return
    scopes = _scope_stack(tree)
    for node in ast.walk(tree):
        site: Optional[tuple[int, str]] = None
        if (isinstance(node, ast.Attribute) and node.attr == "rows"
                and isinstance(node.ctx, ast.Load)):
            site = (node.lineno, ".rows")
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "pairs"):
            site = (node.lineno, ".pairs()")
        if site is None:
            continue
        line, what = site
        scope = scopes.get(node, "<module>")
        if pragmas.suppresses(line, "materialize"):
            continue
        if (rel_path, scope) in MATERIALIZE_ALLOWLIST and not force:
            continue
        yield Violation(
            rel_path, line, "materialize",
            f"{what} materializes row tuples in hot-path scope "
            f"{scope!r}; stay columnar (Relation.columns / "
            "ChangeSet.columns / Partition.columns) or add the site to "
            "the allowlist with a justification")


# ---------------------------------------------------------------------------
# Rule: accumulator-protocol
# ---------------------------------------------------------------------------


def _is_stub(method: ast.FunctionDef) -> bool:
    """A method whose body is only ``raise NotImplementedError`` (a
    docstring is permitted)."""
    body = [stmt for stmt in method.body
            if not (isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant))]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    name = exc.func if isinstance(exc, ast.Call) else exc
    return isinstance(name, ast.Name) and name.id == "NotImplementedError"


def check_accumulator_protocol(tree: ast.Module, rel_path: str,
                               pragmas: PragmaIndex,
                               ) -> Iterator[Violation]:
    classes: dict[str, ast.ClassDef] = {
        node.name: node for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)}
    if not classes:
        return

    def base_names(cls: ast.ClassDef) -> list[str]:
        return [base.id for base in cls.bases
                if isinstance(base, ast.Name)]

    def derives_from_root(cls: ast.ClassDef,
                          seen: frozenset = frozenset()) -> bool:
        for base in base_names(cls):
            if base == _ACCUMULATOR_ROOT:
                return True
            if base in classes and base not in seen:
                if derives_from_root(classes[base], seen | {base}):
                    return True
        return False

    def implemented(cls: ast.ClassDef,
                    seen: frozenset = frozenset()) -> set[str]:
        """Protocol methods with a real (non-stub) body in ``cls`` or an
        ancestor defined in this file (the root's stubs don't count)."""
        methods = {stmt.name for stmt in cls.body
                   if isinstance(stmt, ast.FunctionDef)
                   and stmt.name in _ACCUMULATOR_PROTOCOL
                   and not _is_stub(stmt)}
        for base in base_names(cls):
            if (base in classes and base != _ACCUMULATOR_ROOT
                    and base not in seen):
                methods |= implemented(classes[base], seen | {base})
        return methods

    for cls in classes.values():
        if cls.name == _ACCUMULATOR_ROOT or not derives_from_root(cls):
            continue
        if pragmas.suppresses(cls.lineno, "accumulator-protocol"):
            continue
        missing = [method for method in _ACCUMULATOR_PROTOCOL
                   if method not in implemented(cls)]
        if missing:
            yield Violation(
                rel_path, cls.lineno, "accumulator-protocol",
                f"{cls.name} does not implement "
                f"{'/'.join(missing)}; a partial accumulator breaks "
                "retraction-based incremental aggregation at runtime")


# ---------------------------------------------------------------------------
# Rule: durability-io
# ---------------------------------------------------------------------------


def check_durability_io(tree: ast.Module, rel_path: str,
                        pragmas: PragmaIndex) -> Iterator[Violation]:
    if any(rel_path.startswith(exempt) or f"/{exempt}" in rel_path
           for exempt in _DURABILITY_EXEMPT):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        what: Optional[str] = None
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            what = "open()"
        elif (isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "os"
                and node.func.attr in _IO_OS_CALLS):
            what = f"os.{node.func.attr}()"
        elif (isinstance(node.func, ast.Attribute)
                and node.func.attr in _IO_PATH_METHODS):
            what = f".{node.func.attr}()"
        if what is None:
            continue
        if pragmas.suppresses(node.lineno, "durability-io"):
            continue
        yield Violation(
            rel_path, node.lineno, "durability-io",
            f"{what} does direct file I/O outside repro/durability/; "
            "route persistence through the durability subsystem so the "
            "write is crash-atomic and visible to recovery")


# ---------------------------------------------------------------------------
# Rule: bare-except
# ---------------------------------------------------------------------------


def _is_catch_all(handler: ast.ExceptHandler) -> bool:
    """Bare ``except:``, ``except Exception``, ``except BaseException``,
    or a tuple containing either."""
    if handler.type is None:
        return True

    def broad(expr: ast.expr) -> bool:
        return (isinstance(expr, ast.Name)
                and expr.id in ("Exception", "BaseException"))

    if broad(handler.type):
        return True
    return (isinstance(handler.type, ast.Tuple)
            and any(broad(elt) for elt in handler.type.elts))


def check_bare_except(tree: ast.Module, rel_path: str,
                      pragmas: PragmaIndex,
                      force: bool = False) -> Iterator[Violation]:
    scopes = _scope_stack(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not _is_catch_all(node):
            continue
        if any(isinstance(inner, ast.Raise)
               for inner in ast.walk(node)):
            continue  # cleanup boundary: catches broadly but re-raises
        if pragmas.suppresses(node.lineno, "bare-except"):
            continue
        scope = scopes.get(node, "<module>")
        if (rel_path, scope) in BARE_EXCEPT_ALLOWLIST and not force:
            continue
        what = ("bare except:" if node.type is None
                else f"except {ast.unparse(node.type)}:")
        yield Violation(
            rel_path, node.lineno, "bare-except",
            f"{what} in scope {scope!r} swallows the exception (no "
            "raise in the handler); record the error or re-raise — "
            "silent swallows are only allowed at allowlisted "
            "error-recording boundaries")


# ---------------------------------------------------------------------------
# Rule: wal-commit-mutex
# ---------------------------------------------------------------------------


def _mentions_commit_mutex(expr: ast.expr) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute) and node.attr == "commit_mutex":
            return True
        if isinstance(node, ast.Name) and node.id == "commit_mutex":
            return True
    return False


def check_wal_commit_mutex(tree: ast.Module, rel_path: str,
                           pragmas: PragmaIndex,
                           ) -> Iterator[Violation]:
    found: list[Violation] = []

    def scan(node: ast.AST, held: bool) -> None:
        for child in ast.iter_child_nodes(node):
            child_held = held
            if isinstance(child, (ast.With, ast.AsyncWith)):
                if any(_mentions_commit_mutex(item.context_expr)
                       for item in child.items):
                    child_held = True
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "log_commit"
                    and not child_held
                    and not pragmas.suppresses(child.lineno,
                                               "wal-commit-mutex")):
                found.append(Violation(
                    rel_path, child.lineno, "wal-commit-mutex",
                    ".log_commit(...) outside a `with ... commit_mutex:` "
                    "block; the WAL record order must match the commit "
                    "apply order, which only the commit mutex guarantees"))
            scan(child, child_held)

    scan(tree, False)
    yield from found


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

RULES = ("wall-clock", "lock-order", "materialize", "accumulator-protocol",
         "durability-io", "bare-except", "wal-commit-mutex",
         "unused-pragma")


def check_file(path: Path, root: Path,
               force_all: bool = False) -> list[Violation]:
    rel_path = path.relative_to(root).as_posix()
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [Violation(rel_path, exc.lineno or 0, "parse",
                          f"could not parse: {exc.msg}")]
    # The index records which pragmas actually suppressed something, so
    # stale justifications surface as their own violations below.
    pragmas = PragmaIndex(source.splitlines(), tag="lint")
    violations: list[Violation] = []
    violations.extend(check_wall_clock(tree, rel_path, pragmas))
    violations.extend(check_lock_order(tree, rel_path, pragmas,
                                       force=force_all))
    violations.extend(check_materialize(tree, rel_path, pragmas,
                                        force=force_all))
    violations.extend(check_accumulator_protocol(tree, rel_path, pragmas))
    violations.extend(check_durability_io(tree, rel_path, pragmas))
    violations.extend(check_bare_except(tree, rel_path, pragmas,
                                        force=force_all))
    violations.extend(check_wal_commit_mutex(tree, rel_path, pragmas))
    for line, rule in pragmas.unused():
        violations.append(Violation(
            rel_path, line, "unused-pragma",
            f"'# lint: allow-{rule}' suppresses nothing on this line "
            f"(the {rule!r} violation it justified is gone"
            + ("" if rule in RULES else ", and no such rule exists")
            + "); delete the stale pragma"))
    return violations


def lint_tree(root: Path) -> list[Violation]:
    violations: list[Violation] = []
    for path in sorted(root.rglob("*.py")):
        violations.extend(check_file(path, root))
    return violations


def live_allowlist(root: Path) -> set[tuple[str, str]]:
    """The (path, scope) pairs the materialize rule hits on the current
    tree with the allowlist disabled — i.e. what the allowlist *should*
    contain (pragma-suppressed sites excluded)."""
    saved = set(MATERIALIZE_ALLOWLIST)
    MATERIALIZE_ALLOWLIST.clear()
    try:
        return {(v.path, v.message.split("scope ")[1].split(";")[0]
                 .strip("'\""))
                for v in lint_tree(root) if v.rule == "materialize"}
    finally:
        MATERIALIZE_ALLOWLIST.update(saved)


def dump_allowlist(root: Path) -> int:
    """Print the current materialize sites as a complete assignment
    block, directly pasteable over MATERIALIZE_ALLOWLIST above."""
    print("MATERIALIZE_ALLOWLIST: set[tuple[str, str]] = {")
    for path, scope in sorted(live_allowlist(root)):
        print(f'    ("{path}", "{scope}"),')
    print("}")
    return 0


#: Fixture file → the rule it must trip (self-test contract).
FIXTURE_EXPECTATIONS = {
    "bad_wallclock.py": "wall-clock",
    "bad_lock_order.py": "lock-order",
    "bad_materialize.py": "materialize",
    "bad_accumulator.py": "accumulator-protocol",
    "bad_durability_io.py": "durability-io",
    "bad_bare_except.py": "bare-except",
    "bad_wal_mutex.py": "wal-commit-mutex",
    "bad_unused_pragma.py": "unused-pragma",
}


def self_test() -> int:
    """Prove every rule fires: each fixture must produce at least one
    violation of its designated rule (and the rule must also stay quiet
    on the real tree — checked by the normal run in CI)."""
    failures = 0
    for name, rule in sorted(FIXTURE_EXPECTATIONS.items()):
        path = FIXTURE_DIR / name
        if not path.exists():
            print(f"self-test FAIL: missing fixture {path}")
            failures += 1
            continue
        violations = check_file(path, FIXTURE_DIR, force_all=True)
        fired = [v for v in violations if v.rule == rule]
        if fired:
            print(f"self-test ok: {name} -> {len(fired)} x [{rule}]")
        else:
            print(f"self-test FAIL: {name} did not trip [{rule}] "
                  f"(got: {[v.rule for v in violations]})")
            failures += 1
    return 1 if failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", default=str(SRC_ROOT),
                        help="directory tree to lint (default: src/repro)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify each rule fires on its fixture")
    parser.add_argument("--dump-allowlist", action="store_true",
                        help="print current materialize sites")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    root = Path(args.root).resolve()
    if args.dump_allowlist:
        return dump_allowlist(root)
    violations = lint_tree(root)
    for violation in violations:
        print(violation.render())
    if violations:
        print(f"{len(violations)} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
