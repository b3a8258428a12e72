"""Engine invariants (``ENG001``-``ENG009``): rules judging one site.

The runtime engine relies on invariants Python cannot express in types.
These rules read the same :class:`~.callgraph.Program` as the
whole-program rules: the direct effects and call sites its facts pass
records (for every function, plus each module's code outside any
function), its class index, and its module ASTs.

``ENG001`` wall-clock
    All time comes from the simulated clock (``clock_exempt_paths``,
    ``scheduler/clock.py`` in the real tree). A wall-clock read anywhere
    else (``time.time()``, ``time.monotonic()``, ``datetime.now()``, a
    ``from time import monotonic``) desynchronizes refresh scheduling
    from the HLC and makes tests nondeterministic.
``ENG002`` lock-order
    In ``server/`` and the transaction manager, a loop that acquires
    locks iterates a ``sorted(...)`` sequence (directly or through a
    name assigned from one), and no function makes more than one
    acquisition outside such a loop: unordered multi-lock acquisition is
    the classic deadlock recipe under first-committer-wins commits.
``ENG003`` materialize
    The refresh path (``engine/executor.py``, ``ivm/``, ``streams/``,
    ``storage/``, ``core/refresh.py``) and the transaction's
    read-your-writes overlay (``txn/``) stay columnar: a ``.rows`` or
    ``.pairs()`` there defeats the columnar data plane.
``ENG004`` accumulator-protocol
    Every ``Accumulator`` subclass implements (or inherits a real
    implementation of) ``insert`` / ``retract`` / ``finalize``; a
    partial accumulator breaks retraction-based incremental aggregation
    in whatever query shape first exercises the missing method.
``ENG005`` durability-io
    File I/O happens only in ``durability/``, the one subsystem that
    knows the fsync / ``os.replace`` discipline that makes writes
    crash-atomic; a write anywhere else is state recovery cannot see.
``ENG006`` bare-except
    A catch-all handler (bare ``except:``, ``except Exception`` or
    ``BaseException``) that never re-raises swallows the error — the bug
    class behind refresh failures that vanished instead of being
    recorded. Boundaries whose contract is to turn exceptions into
    recorded state carry a pragma.
``ENG007`` wal-commit-mutex
    Every ``.log_commit(...)`` runs with a commit lock held: WAL commit
    records replay in sequence order, so logging outside the commit
    critical section lets the on-disk order diverge from the apply
    order.
``ENG008`` unused-pragma
    A pragma that suppressed nothing — its finding is gone, or it names
    no rule — reads as an exemption while exempting nothing. Delete it.
``ENG009`` untyped-def
    In the packages the mypy configuration (``mypy_config``) checks with
    ``disallow_untyped_defs``, every def — nested ones included —
    annotates each parameter but a leading ``self`` / ``cls``, and its
    return (an ``__init__`` with an annotated parameter may omit
    ``-> None``, as mypy allows). It is the stdlib stand-in for the
    strict mypy gate wherever mypy is not installed.
"""

from __future__ import annotations

import ast
import configparser
from pathlib import Path
from typing import Iterator, Optional

from .callgraph import FSYNC, IO, MATERIALIZE, WALL_CLOCK, Program
from .diagnostics import RULES, Finding

#: ENG002: the modules whose lock acquisitions must be sorted.
LOCK_SCOPE = ("server/", "txn/manager.py")
LOCK_METHODS = frozenset({"lock", "acquire"})

#: ENG003: the modules that must stay columnar.
MATERIALIZE_SCOPE = ("engine/executor.py", "ivm/", "streams/", "storage/",
                     "core/refresh.py", "txn/")

#: ENG004: the protocol every concrete accumulator provides.
ACCUMULATOR_ROOT = "Accumulator"
ACCUMULATOR_PROTOCOL = ("insert", "retract", "finalize")

#: ENG005: the only subtree allowed to do file I/O.
DURABILITY_PATHS = ("durability/",)

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def invariant_findings(program: Program) -> list[Finding]:
    """ENG001-ENG007 and ENG009 (ENG008 runs after suppression, in the
    driver)."""
    return (effect_findings(program) + lock_order_findings(program)
            + accumulator_findings(program) + bare_except_findings(program)
            + wal_commit_findings(program) + untyped_def_findings(program))


def effect_findings(program: Program) -> list[Finding]:
    """ENG001, ENG003 and ENG005 from the facts pass's direct effects."""
    findings = []
    for info, facts in program.all_facts():
        path = info.rel_path
        for eff in facts.effects:
            if eff.label == WALL_CLOCK:
                code, message = "ENG001", (
                    f"{eff.what} reads the wall clock; all engine time "
                    "must come from scheduler/clock.py (SimClock)")
            elif eff.label == MATERIALIZE \
                    and path.startswith(MATERIALIZE_SCOPE):
                code, message = "ENG003", (
                    f"{eff.what} materializes row tuples in hot-path "
                    f"scope {info.qualname}; stay columnar "
                    "(Relation.columns / ChangeSet.columns / "
                    "Partition.columns)")
            elif eff.label in (IO, FSYNC) \
                    and not path.startswith(DURABILITY_PATHS):
                code, message = "ENG005", (
                    f"{eff.what} does direct file I/O outside "
                    "durability/; route persistence through the "
                    "durability subsystem so the write is crash-atomic "
                    "and visible to recovery")
            else:
                continue
            findings.append(Finding(code, path, eff.line, info.qualname,
                                    message, detail=eff.what))
    return findings


def _scoped_nodes(program: Program, paths: tuple = ("",),
                  ) -> Iterator[tuple[str, str, ast.AST]]:
    """``(rel_path, scope, node)`` for every AST node of the modules under
    ``paths``; ``scope`` is the qualname of the innermost enclosing
    definition (a definition's own, for a def or class node)."""
    for module, tree in program.modules.items():
        path = program.module_paths[module]
        if not path.startswith(paths):
            continue
        stack: list[tuple[ast.AST, str]] = [(tree, module)]
        while stack:
            node, scope = stack.pop()
            for child in ast.iter_child_nodes(node):
                inner = (f"{scope}.{child.name}"
                         if isinstance(child, _DEFS) else scope)
                yield path, inner, child
                stack.append((child, inner))


def _is_sorted_expr(expr: ast.expr, sorted_names: set[str]) -> bool:
    if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
            and expr.func.id == "sorted"):
        return True
    return isinstance(expr, ast.Name) and expr.id in sorted_names


def lock_order_findings(program: Program) -> list[Finding]:
    """ENG002, per function of the lock scope (nested defs apart)."""
    findings = []
    for path, qualname, func in _scoped_nodes(program, LOCK_SCOPE):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        pragmas = program.pragmas[path]
        sorted_names = {target.id for node in ast.walk(func)
                        if isinstance(node, ast.Assign)
                        and _is_sorted_expr(node.value, set())
                        for target in node.targets
                        if isinstance(target, ast.Name)}
        loose_sites: list[int] = []

        def scan(node: ast.AST, loop: ast.For | None) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    continue  # nested defs get their own pass
                child_loop = child if isinstance(child, ast.For) else loop
                if (isinstance(child, ast.Call)
                        and isinstance(child.func, ast.Attribute)
                        and child.func.attr in LOCK_METHODS
                        and not pragmas.suppresses(child.lineno, "ENG002")):
                    if child_loop is None:
                        loose_sites.append(child.lineno)
                    elif not _is_sorted_expr(child_loop.iter, sorted_names):
                        findings.append(Finding(
                            "ENG002", path, child.lineno, qualname,
                            f"lock acquisition inside a loop over an "
                            f"unsorted iterable (in {func.name}); iterate "
                            "sorted(...) so every transaction locks in "
                            "the same global order",
                            detail="unsorted-loop"))
                scan(child, child_loop)

        scan(func, None)
        if len(loose_sites) > 1:
            findings.append(Finding(
                "ENG002", path, loose_sites[1], qualname,
                f"{func.name} acquires multiple locks outside a "
                "sorted(...) loop; acquire them in one loop over a sorted "
                "sequence to keep the global lock order",
                detail="loose-acquisitions"))
    return findings


def _is_stub(method: ast.AST) -> bool:
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


def accumulator_findings(program: Program) -> list[Finding]:
    """ENG004 over every transitive subclass of the accumulator root."""
    findings = []
    for name in sorted(program.expand_classes(
            [f"subclasses-of:{ACCUMULATOR_ROOT}"])):
        cls = program.classes[name]
        missing = []
        for method in ACCUMULATOR_PROTOCOL:
            info = program.method_of(name, method)
            if info is None or info.cls == ACCUMULATOR_ROOT \
                    or _is_stub(info.node):
                missing.append(method)
        if missing:
            findings.append(Finding(
                "ENG004", cls.rel_path, cls.node.lineno, cls.qualname,
                f"{name} does not implement {'/'.join(missing)}; a partial "
                "accumulator breaks retraction-based incremental "
                "aggregation at runtime", detail="/".join(missing)))
    return findings


def _is_catch_all(handler: ast.ExceptHandler) -> bool:
    """Bare ``except:``, ``except Exception``, ``except BaseException``,
    or a tuple containing either."""
    if handler.type is None:
        return True
    types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    return any(isinstance(expr, ast.Name)
               and expr.id in ("Exception", "BaseException")
               for expr in types)


def bare_except_findings(program: Program) -> list[Finding]:
    """ENG006: catch-all handlers with no ``raise`` inside."""
    findings = []
    for path, scope, node in _scoped_nodes(program):
        if not (isinstance(node, ast.ExceptHandler) and _is_catch_all(node)):
            continue
        if any(isinstance(inner, ast.Raise) for inner in ast.walk(node)):
            continue  # cleanup boundary: catches broadly but re-raises
        what = ("bare except:" if node.type is None
                else f"except {ast.unparse(node.type)}:")
        findings.append(Finding(
            "ENG006", path, node.lineno, scope,
            f"{what} in {scope} swallows the exception (no raise in the "
            "handler); record the error or re-raise",
            hint=("a boundary whose contract is to record the error "
                  "carries '# eng: allow-ENG006 (reason)'"),
            detail=what))
    return findings


def wal_commit_findings(program: Program) -> list[Finding]:
    """ENG007: ``.log_commit(...)`` call sites holding no commit lock."""
    commit_locks = program.config.commit_locks
    findings = []
    for info, facts in program.all_facts():
        lines = sorted({site.line for site in facts.calls
                        if site.raw.endswith(".log_commit")
                        and not commit_locks & site.held})
        findings += [Finding(
            "ENG007", info.rel_path, line, info.qualname,
            ".log_commit(...) without the commit mutex held; the WAL "
            "record order must match the commit apply order, which only "
            "the commit mutex guarantees", detail="log_commit")
            for line in lines]
    return findings


def typed_def_scope(mypy_config: Optional[Path]) -> tuple[str, ...]:
    """The rel-path prefixes of the modules ``mypy_config`` checks with
    ``disallow_untyped_defs``: ``[mypy-repro.plan.*]`` is ``plan/`` (the
    root package is the analysis root), ``[mypy]`` every module."""
    if mypy_config is None:
        return ()
    parser = configparser.ConfigParser()
    parser.read(mypy_config)
    prefixes = []
    for section in parser.sections():
        if not parser.getboolean(section, "disallow_untyped_defs",
                                 fallback=False):
            continue
        if section == "mypy":
            return ("",)
        for pattern in section.removeprefix("mypy-").split(","):
            parts = pattern.strip().split(".")[1:]
            prefixes.append("/".join(parts[:-1]) + "/" if parts[-1:] == ["*"]
                            else "/".join(parts) + ".py")
    return tuple(prefixes)


def _unannotated(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    """What ``func`` leaves unannotated, as mypy's
    ``disallow_untyped_defs`` judges it."""
    args = func.args
    positional = [*args.posonlyargs, *args.args]
    if positional and positional[0].arg in ("self", "cls"):
        positional = positional[1:]
    params = [*positional, *args.kwonlyargs,
              *filter(None, (args.vararg, args.kwarg))]
    missing = [param.arg for param in params if param.annotation is None]
    if func.returns is None and not (
            func.name == "__init__"
            and any(param.annotation is not None for param in params)):
        missing.append("return")
    return missing


def untyped_def_findings(program: Program) -> list[Finding]:
    """ENG009 over the modules in :func:`typed_def_scope`."""
    scope = typed_def_scope(program.config.mypy_config)
    findings = []
    for path, qualname, node in _scoped_nodes(program, scope):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        missing = _unannotated(node)
        if missing:
            findings.append(Finding(
                "ENG009", path, node.lineno, qualname,
                f"{node.name} leaves {', '.join(missing)} unannotated in "
                "a package mypy checks with disallow_untyped_defs",
                hint="annotate every parameter and the return",
                detail=",".join(missing)))
    return findings


def unused_pragma_findings(program: Program) -> list[Finding]:
    """ENG008: pragmas no rule consulted and found a finding for. Run
    after every rule and the suppression pass."""
    return [Finding(
        "ENG008", path, line, "",
        f"'# eng: allow-{code}' suppresses nothing on this line ("
        + (f"the {RULES[code]} finding it justified is gone"
           if code in RULES else "no such rule exists")
        + "); delete the stale pragma", detail=f"allow-{code}")
        for path, pragmas in program.pragmas.items()
        for line, code in pragmas.unused()]
