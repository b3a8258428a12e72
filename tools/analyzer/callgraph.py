"""Call-graph construction with class-method resolution.

The whole-program analyses (lock-state dataflow, effect inference, race
detection) all run over one shared program model built here:

* every module under the analysis root is parsed and indexed: classes
  (with their base classes, ``__init__``-inferred attribute types, and
  lock attributes), functions and methods (nested functions included,
  as ``outer.<name>``), and per-module import aliases;
* a lightweight flow-insensitive **type environment** per function maps
  names to classes: parameter annotations (``Optional``/``"quoted"``/
  ``X | None`` unwrapped), ``self``, constructor-call assignments,
  attribute loads through known attribute types, and call results
  through return annotations;
* attribute calls resolve through the inferred receiver type and its
  base-class chain. Receivers the types cannot reach fall back to the
  config's **polymorphic seam table** (``scan`` → every snapshot
  resolver, accumulator protocol → every Accumulator subclass) and,
  last, to a unique-definer rule: if exactly one known class defines
  the method and the name is not a common built-in collision
  (``append``, ``get``, ...), the call binds to it.

Alongside the edges, one sequential abstract-interpretation pass per
function records the **facts** the dataflow analyses consume: call
sites with the set of locks held at each, lock acquisitions (``with``
blocks exactly scoped; explicit ``LockManager.acquire``-style calls
held to function end, a documented over-approximation), ``self.attr``
writes, and direct effects (wall-clock reads, sleeps, file I/O, fsync,
condition waits, row materialization) with their source lines. The same
pass runs once more per module over the code outside any function
(module and class bodies, decorators, defaults), so a rule reading the
facts sees every site of the module. A wall-clock read or a
materialization whose line carries that rule's pragma is *not*
recorded — a justified source does not taint its callers.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

from .config import AnalyzerConfig
from .diagnostics import PragmaIndex

#: Method names too generic for unique-definer fallback resolution: a
#: receiver of unknown type calling one of these is far more likely a
#: builtin container/file/executor than the one engine class defining it.
GENERIC_METHOD_NAMES = frozenset({
    "append", "extend", "add", "get", "pop", "items", "keys", "values",
    "update", "copy", "clear", "sort", "join", "split", "strip", "close",
    "read", "write", "flush", "submit", "result", "acquire", "release",
    "wait", "notify", "notify_all", "put", "setdefault", "remove",
    "index", "count", "format", "encode", "decode", "open", "send",
    "commit", "rollback", "begin", "execute", "run", "next", "reset",
})

#: Wall-clock reads: ``<module>.<name>()`` or an imported ``<name>()``.
CLOCK_CALLS = {
    "time": {"time", "monotonic", "sleep", "perf_counter", "localtime",
             "gmtime", "process_time"},
    "datetime": {"now", "utcnow", "today"},
}

#: ``os.<attr>(...)`` calls that touch the filesystem.
IO_OS_CALLS = {"open", "fdopen", "write", "replace", "truncate", "fsync",
               "unlink", "remove", "rename", "makedirs", "listdir"}
IO_PATH_METHODS = {"write_text", "write_bytes", "read_text", "read_bytes"}

#: Effect labels.
WALL_CLOCK = "wall-clock"
SLEEP = "sleep"
IO = "io"
FSYNC = "fsync"
LOCK_WAIT = "lock-wait"
MATERIALIZE = "materialize"

#: Labels that can stall a thread (the ENG102 blocking set). A plain
#: ``with mutex:`` is deliberately *not* here — mutex-vs-mutex waiting
#: is the acquired-before graph's concern (ENG101), not a blocking
#: effect; counting it would flag every nested critical section.
BLOCKING_LABELS = frozenset({SLEEP, IO, FSYNC, LOCK_WAIT})

#: Effects a pragma justifies at their source: the pragma of the rule
#: reporting the site (ENG001 wall-clock, ENG003 materialize) also keeps
#: the effect from tainting callers.
JUSTIFYING_CODES = {WALL_CLOCK: "ENG001", MATERIALIZE: "ENG003"}


@dataclass
class FunctionInfo:
    qualname: str               # "txn.manager.Transaction.commit"
    module: str                 # "txn.manager"
    rel_path: str               # "txn/manager.py"
    cls: Optional[str]          # bare class name, None for free functions
    name: str                   # "commit"
    node: ast.AST               # (Async)FunctionDef; Module for "<module>"
    lineno: int
    returns: Optional[str] = None   # bare class name of return annotation


@dataclass
class ClassInfo:
    name: str                   # bare name
    qualname: str               # "txn.manager.Transaction"
    module: str
    rel_path: str
    node: ast.ClassDef
    bases: list[str]
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: attribute name -> bare class name (from __init__ assignments and
    #: annotated ``self.x: T`` statements)
    attr_types: dict[str, str] = field(default_factory=dict)
    #: attribute name -> lock id ("Class.attr") for threading.Lock /
    #: RLock / Condition attributes
    locks: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class CallSite:
    caller: str
    callee: Optional[str]       # resolved qualname, None if unresolved
    raw: str                    # source-ish spelling ("relation.pairs")
    line: int
    held: frozenset             # lock ids held at the call


@dataclass(frozen=True)
class Acquisition:
    lock: str                   # lock id
    line: int
    held: frozenset             # lock ids already held when acquiring
    via_with: bool              # with-block (scoped) vs. explicit call


@dataclass(frozen=True)
class AttrWrite:
    cls: str                    # bare class name of ``self``
    attr: str
    line: int
    held: frozenset


@dataclass(frozen=True)
class DirectEffect:
    label: str
    line: int
    held: frozenset
    what: str                   # human-readable source ("time.sleep()")


@dataclass
class FunctionFacts:
    calls: list[CallSite] = field(default_factory=list)
    acquisitions: list[Acquisition] = field(default_factory=list)
    writes: list[AttrWrite] = field(default_factory=list)
    effects: list[DirectEffect] = field(default_factory=list)


class Program:
    """The indexed program: modules, classes, functions, and facts."""

    def __init__(self, root: Path, config: AnalyzerConfig):
        self.root = root
        self.config = config
        self.modules: dict[str, ast.Module] = {}
        self.module_paths: dict[str, str] = {}      # module -> rel_path
        self.pragmas: dict[str, PragmaIndex] = {}   # rel_path -> pragmas
        self.functions: dict[str, FunctionInfo] = {}
        #: module -> (pseudo-function "<module>", facts of the code
        #: outside every function)
        self.module_facts: dict[str, tuple[FunctionInfo, FunctionFacts]] = {}
        self.classes: dict[str, ClassInfo] = {}     # by bare name
        self.imports: dict[str, dict[str, str]] = {}  # mod -> alias -> target
        self.facts: dict[str, FunctionFacts] = {}
        self._load()
        self._infer_class_attributes()
        self._resolve_seams()
        self._compute_facts()
        #: caller -> callee of every resolved call site, in site order:
        #: built once here, walked by every fixpoint over the call graph.
        self.call_edges: dict[str, list[str]] = {
            qualname: [] for qualname in self.functions}
        for site in self.resolved_edges():
            self.call_edges[site.caller].append(site.callee)

    # -- loading and indexing ------------------------------------------------

    def _load(self) -> None:
        for path in sorted(self.root.rglob("*.py")):
            rel_path = path.relative_to(self.root).as_posix()
            module = rel_path[:-3].replace("/", ".")
            if module.endswith(".__init__"):
                module = module[:-len(".__init__")]
            # A module that does not parse fails the run loudly: skipping
            # it would hide every site in it from every rule.
            source = path.read_text()
            tree = ast.parse(source, filename=str(path))
            self.modules[module] = tree
            self.module_paths[module] = rel_path
            self.pragmas[rel_path] = PragmaIndex(source.splitlines())
            self.imports[module] = self._index_imports(tree)
            self._index_module(module, rel_path, tree)

    @staticmethod
    def _index_imports(tree: ast.Module) -> dict[str, str]:
        aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    aliases[alias.asname or alias.name.split(".")[0]] = \
                        alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    aliases[alias.asname or alias.name] = \
                        f"{node.module}.{alias.name}"
        return aliases

    def _index_module(self, module: str, rel_path: str,
                      tree: ast.Module) -> None:
        def add_function(node: ast.AST, cls: Optional[ClassInfo],
                         prefix: str) -> None:
            name = f"{prefix}{node.name}" if prefix else node.name
            qualname = (f"{module}.{cls.name}.{name}" if cls
                        else f"{module}.{name}")
            info = FunctionInfo(
                qualname=qualname, module=module, rel_path=rel_path,
                cls=cls.name if cls else None, name=name, node=node,
                lineno=node.lineno,
                returns=_annotation_class(node.returns))
            self.functions[qualname] = info
            if cls is not None and not prefix:
                cls.methods[node.name] = info
            # Nested defs get their own entry ("outer.<inner>"); the
            # facts pass adds an implicit call edge outer -> inner, so
            # closures handed to pools/schedulers stay reachable.
            for child in _nested_defs(node.body):
                add_function(child, cls, f"{name}.")

        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add_function(node, None, "")
            elif isinstance(node, ast.ClassDef):
                info = ClassInfo(
                    name=node.name, qualname=f"{module}.{node.name}",
                    module=module, rel_path=rel_path, node=node,
                    bases=[base.id for base in node.bases
                           if isinstance(base, ast.Name)])
                # First definition wins on bare-name collisions; the
                # engine's class names are unique in practice.
                self.classes.setdefault(node.name, info)
                for child in node.body:
                    if isinstance(child, (ast.FunctionDef,
                                          ast.AsyncFunctionDef)):
                        add_function(child, info, "")

    # -- class attribute / lock inference -------------------------------------

    def _infer_class_attributes(self) -> None:
        for cls in self.classes.values():
            for method_name in ("__init__", "open"):
                method = cls.methods.get(method_name)
                if method is None:
                    continue
                env = self._parameter_env(method)
                for node in ast.walk(method.node):
                    target: Optional[ast.expr] = None
                    value: Optional[ast.expr] = None
                    annotation: Optional[str] = None
                    if isinstance(node, ast.Assign) and len(node.targets) == 1:
                        target, value = node.targets[0], node.value
                    elif isinstance(node, ast.AnnAssign):
                        target, value = node.target, node.value
                        annotation = _annotation_class(node.annotation)
                    if not (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        continue
                    attr = target.attr
                    lock_kind = _lock_constructor(value)
                    if lock_kind is not None:
                        cls.locks[attr] = f"{cls.name}.{attr}"
                        continue
                    inferred = annotation or self._infer_expr_type(
                        value, env, cls)
                    if inferred is not None:
                        cls.attr_types.setdefault(attr, inferred)

    def _parameter_env(self, func: FunctionInfo) -> dict[str, str]:
        env: dict[str, str] = {}
        if isinstance(func.node, ast.Module):
            return env
        node = func.node
        args = list(node.args.posonlyargs) + list(node.args.args) \
            + list(node.args.kwonlyargs)
        for arg in args:
            inferred = _annotation_class(arg.annotation)
            if inferred is not None:
                env[arg.arg] = inferred
        if func.cls is not None and args and args[0].arg == "self":
            env["self"] = func.cls
        return env

    # -- type resolution --------------------------------------------------------

    def class_of(self, name: Optional[str]) -> Optional[ClassInfo]:
        if name is None:
            return None
        return self.classes.get(name)

    def attr_type(self, cls_name: str, attr: str) -> Optional[str]:
        """Type of ``<instance of cls>.<attr>``, through the base chain
        and the config's manual binding table."""
        binding = self.config.attr_bindings.get(f"{cls_name}.{attr}")
        if binding is not None:
            return binding
        seen: set[str] = set()
        stack = [cls_name]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if attr in info.attr_types:
                return info.attr_types[attr]
            stack.extend(info.bases)
        return None

    def lock_of(self, cls_name: str, attr: str) -> Optional[str]:
        seen: set[str] = set()
        stack = [cls_name]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if attr in info.locks:
                return info.locks[attr]
            stack.extend(info.bases)
        return None

    def method_of(self, cls_name: str, method: str) -> Optional[FunctionInfo]:
        seen: set[str] = set()
        stack = [cls_name]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if method in info.methods:
                return info.methods[method]
            stack.extend(info.bases)
        return None

    def _infer_expr_type(self, expr: Optional[ast.expr],
                         env: dict[str, str],
                         cls: Optional[ClassInfo]) -> Optional[str]:
        """Bare class name of ``expr``, or None."""
        if expr is None:
            return None
        if isinstance(expr, ast.Name):
            if expr.id in env:
                return env[expr.id]
            if expr.id in self.classes:
                return None  # the class object itself, not an instance
            return None
        if isinstance(expr, ast.Attribute):
            base = self._infer_expr_type(expr.value, env, cls)
            if base is not None:
                return self.attr_type(base, expr.attr)
            return None
        if isinstance(expr, ast.Call):
            # Constructor call -> instance of the class.
            if isinstance(expr.func, ast.Name) and expr.func.id in self.classes:
                return expr.func.id
            # Resolved call -> return annotation.
            resolved = self._resolve_call_target(expr, env, cls)
            if resolved is not None:
                info = self.functions.get(resolved)
                if info is not None:
                    return info.returns
            return None
        return None

    def _resolve_module_name(self, module: str, name: str) -> Optional[str]:
        """Resolve a bare name in ``module`` to a function qualname."""
        if f"{module}.{name}" in self.functions:
            return f"{module}.{name}"
        target = self.imports.get(module, {}).get(name)
        if target is not None:
            # "pkg.mod.func" — normalize against the analysis root's
            # module namespace by trying progressively shorter prefixes.
            candidates = [target]
            parts = target.split(".")
            for start in range(1, len(parts)):
                candidates.append(".".join(parts[start:]))
            for candidate in candidates:
                if candidate in self.functions:
                    return candidate
        return None

    def _resolve_call_target(self, call: ast.Call, env: dict[str, str],
                             cls: Optional[ClassInfo]) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            # Module is carried via env["__module__"] (set by the walker).
            module_name = env.get("__module__")
            if module_name is not None:
                resolved = self._resolve_module_name(module_name, func.id)
                if resolved is not None:
                    return resolved
            if func.id in self.classes:
                ctor = self.method_of(func.id, "__init__")
                return ctor.qualname if ctor is not None else None
            return None
        if isinstance(func, ast.Attribute):
            receiver = self._infer_expr_type(func.value, env, cls)
            if receiver is not None:
                method = self.method_of(receiver, func.attr)
                if method is not None:
                    return method.qualname
            # Module-attribute call: ``codec.encode(...)``.
            if isinstance(func.value, ast.Name):
                module_name = env.get("__module__")
                alias = self.imports.get(module_name or "", {}) \
                    .get(func.value.id)
                if alias is not None:
                    parts = alias.split(".")
                    for start in range(len(parts)):
                        candidate = ".".join(parts[start:] + [func.attr])
                        if candidate in self.functions:
                            return candidate
            return None
        return None

    # -- polymorphic seams -------------------------------------------------------

    def expand_classes(self, names) -> set[str]:
        """Bare class names, with each ``subclasses-of:X`` entry
        replaced by every known transitive subclass of ``X``."""
        expanded: set[str] = set()
        for cls_name in names:
            root = cls_name.removeprefix("subclasses-of:")
            if root == cls_name:
                expanded.add(cls_name)
            else:
                expanded.update(name for name in self.classes
                                if name != root
                                and self._derives_from(name, root))
        return expanded

    def _resolve_seams(self) -> None:
        """Expand the config's seam table into concrete qualnames."""
        self.seams: dict[str, list[str]] = {}
        for method, classes in self.config.method_seams.items():
            targets = set()
            for cls_name in self.expand_classes(classes):
                method_info = self.method_of(cls_name, method)
                if method_info is not None:
                    targets.add(method_info.qualname)
            if targets:
                self.seams[method] = sorted(targets)

    def _derives_from(self, cls_name: str, root: str) -> bool:
        seen: set[str] = set()
        stack = [cls_name]
        while stack:
            current = stack.pop()
            if current == root:
                return True
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is not None:
                stack.extend(info.bases)
        return False

    def _fallback_targets(self, method: str) -> list[str]:
        """Seam table first; then the unique-definer rule."""
        if method in self.seams:
            return self.seams[method]
        if method in GENERIC_METHOD_NAMES:
            return []
        definers = [info.methods[method].qualname
                    for info in self.classes.values()
                    if method in info.methods]
        # Bare-name class index dedups already; require a unique definer.
        return definers if len(definers) == 1 else []

    # -- the facts pass -----------------------------------------------------------

    def _compute_facts(self) -> None:
        self._indexed_defs = {info.node for info in self.functions.values()}
        for qualname, info in self.functions.items():
            self.facts[qualname] = self._function_facts(info)
        for module, tree in self.modules.items():
            info = FunctionInfo(
                qualname=f"{module}.<module>", module=module,
                rel_path=self.module_paths[module], cls=None,
                name="<module>", node=tree, lineno=1)
            self.module_facts[module] = (info, self._function_facts(info))

    def _function_facts(self, info: FunctionInfo) -> FunctionFacts:
        facts = FunctionFacts()
        env = self._parameter_env(info)
        env["__module__"] = info.module
        cls = self.classes.get(info.cls) if info.cls else None
        pragmas = self.pragmas[info.rel_path]
        config = self.config

        def effect(label: str, line: int, held: frozenset,
                   what: str) -> None:
            # The clock abstraction is where wall time is *supposed* to
            # be read; its reads are not leaks.
            if label == WALL_CLOCK \
                    and info.rel_path.startswith(config.clock_exempt_paths):
                return
            # A pragma at the source line justifies the effect for the
            # whole program: it neither fires locally nor taints
            # callers transitively.
            code = JUSTIFYING_CODES.get(label)
            if code is not None and pragmas.suppresses(line, code):
                return
            facts.effects.append(DirectEffect(label, line, held, what))

        def lock_of_expr(expr: ast.expr) -> Optional[str]:
            if isinstance(expr, ast.Attribute):
                base = self._infer_expr_type(expr.value, env, cls)
                if base is not None:
                    return self.lock_of(base, expr.attr)
                # Unqualified fallback: a terminal attribute that is a
                # configured global lock name (e.g. ``commit_mutex``)
                # identifies the lock even when the receiver chain is
                # not typeable.
                if expr.attr in config.global_lock_attrs:
                    return config.global_lock_attrs[expr.attr]
            return None

        def visit_expr(node: ast.AST, held: frozenset) -> None:
            """Record calls/effects/writes in an expression subtree."""
            for child in ast.walk(node):
                if isinstance(child, ast.Call):
                    self._record_call(child, env, cls, info, held, facts,
                                      effect)
                elif (isinstance(child, ast.Attribute)
                        and isinstance(child.ctx, ast.Load)
                        and child.attr == "rows"):
                    receiver = self._infer_expr_type(child.value, env, cls)
                    effect(MATERIALIZE, child.lineno, held,
                           f"{receiver or ''}.rows")

        def record_write(target: ast.expr, line: int,
                         held: frozenset) -> None:
            if (info.cls is not None
                    and isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                facts.writes.append(AttrWrite(info.cls, target.attr, line,
                                              held))

        def bind_assignment(stmt: ast.stmt) -> None:
            """Flow-insensitive local type bindings."""
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                inferred = self._infer_expr_type(stmt.value, env, cls)
                if inferred is not None:
                    env[stmt.targets[0].id] = inferred
            elif isinstance(stmt, ast.AnnAssign) \
                    and isinstance(stmt.target, ast.Name):
                inferred = _annotation_class(stmt.annotation)
                if inferred is not None:
                    env[stmt.target.id] = inferred

        def walk(stmts: list[ast.stmt], held: frozenset) -> frozenset:
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    # Decorators, defaults and bases run where the
                    # definition stands, and so does a class body.
                    for part in _definition_parts(stmt):
                        visit_expr(part, held)
                    if isinstance(stmt, ast.ClassDef):
                        walk(stmt.body, held)
                        continue
                    # Nested def: implicit call edge (the closure is
                    # invoked by whoever receives it, charged here). A
                    # def the index skipped (a method of a class nested
                    # in a function, a def inside a module-level block)
                    # is charged here outright.
                    nested = f"{info.qualname}.{stmt.name}"
                    if nested in self.functions:
                        facts.calls.append(CallSite(
                            info.qualname, nested, f"<def {stmt.name}>",
                            stmt.lineno, held))
                    elif stmt not in self._indexed_defs:
                        walk(stmt.body, held)
                    continue
                if isinstance(stmt, ast.ImportFrom):
                    banned = [alias.name for alias in stmt.names
                              if alias.name in CLOCK_CALLS.get(stmt.module,
                                                               ())]
                    if banned:
                        effect(WALL_CLOCK, stmt.lineno, held,
                               f"from {stmt.module} import "
                               f"{', '.join(banned)}")
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    inner = held
                    for item in stmt.items:
                        visit_expr(item.context_expr, held)
                        lock = lock_of_expr(item.context_expr)
                        if lock is not None:
                            facts.acquisitions.append(Acquisition(
                                lock, stmt.lineno, inner, True))
                            inner = inner | {lock}
                    walk(stmt.body, inner)
                    continue
                bind_assignment(stmt)
                # Expression-bearing parts of the statement itself.
                for expr in _statement_expressions(stmt):
                    visit_expr(expr, held)
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        record_write(target, stmt.lineno, held)
                elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
                    record_write(stmt.target, stmt.lineno, held)
                # Acquire-style calls extend the held set for the rest
                # of the function (may-hold; releases are not modeled).
                for expr in _statement_expressions(stmt):
                    for call in (c for c in ast.walk(expr)
                                 if isinstance(c, ast.Call)):
                        acquired = self._acquired_lock(call, env, cls)
                        if acquired is not None:
                            facts.acquisitions.append(Acquisition(
                                acquired, call.lineno, held, False))
                            held = held | {acquired}
                # Recurse into compound statements.
                for body in _statement_bodies(stmt):
                    held = walk(body, held)
            return held

        walk(list(info.node.body), frozenset())
        return facts

    def _record_call(self, call: ast.Call, env: dict[str, str],
                     cls: Optional[ClassInfo], info: FunctionInfo,
                     held: frozenset, facts: FunctionFacts,
                     effect) -> None:
        func = call.func
        raw = _call_repr(func)
        line = call.lineno
        # Direct effects first (they are calls too). A clock read or an
        # I/O call is a library call, not an edge; ``.pairs()`` is also
        # a method call on an engine class.
        direct = _call_effects(call, self.imports[info.module])
        for label, what in direct:
            effect(label, line, held, what)
        if any(label != MATERIALIZE for label, __ in direct):
            return
        if isinstance(func, ast.Attribute):
            if func.attr == "wait" and isinstance(func.value,
                                                  ast.Attribute):
                # ``self._condition.wait(...)``: a wait on a known lock
                # attribute (Condition) is a blocking point.
                base = self._infer_expr_type(func.value.value, env, cls)
                if base is not None \
                        and self.lock_of(base, func.value.attr) is not None:
                    effect(LOCK_WAIT, line, held, ".wait()")
                    return
        resolved = self._resolve_call_target(call, env, cls)
        if resolved is None and isinstance(func, ast.Attribute):
            targets = self._fallback_targets(func.attr)
            if targets:
                for target in targets:
                    facts.calls.append(CallSite(info.qualname, target,
                                                raw, line, held))
                return
        facts.calls.append(CallSite(info.qualname, resolved, raw, line,
                                    held))

    def _acquired_lock(self, call: ast.Call, env: dict[str, str],
                       cls: Optional[ClassInfo]) -> Optional[str]:
        """Lock id acquired by an explicit call (LockManager.acquire, a
        configured wrapper, or ``.acquire()`` on a known lock
        attribute), else None."""
        func = call.func
        if not isinstance(func, ast.Attribute):
            return None
        if func.attr in self.config.table_lock_methods:
            receiver = self._infer_expr_type(func.value, env, cls)
            if receiver in self.config.table_lock_classes:
                return self.config.table_lock_id
        if func.attr == "acquire" and isinstance(func.value, ast.Attribute):
            base = self._infer_expr_type(func.value.value, env, cls)
            if base is not None:
                return self.lock_of(base, func.value.attr)
        return None

    # -- public helpers -------------------------------------------------------

    def resolved_edges(self) -> Iterator[CallSite]:
        for facts in self.facts.values():
            for site in facts.calls:
                if site.callee is not None:
                    yield site

    def all_facts(self) -> Iterator[tuple[FunctionInfo, FunctionFacts]]:
        """Every function's facts, then each module's ``<module>``
        facts: together they cover every site of every module."""
        for qualname, info in self.functions.items():
            yield info, self.facts[qualname]
        yield from self.module_facts.values()


def _call_effects(call: ast.Call,
                 imports: dict[str, str]) -> list[tuple[str, str]]:
    """The direct effects a call's syntax shows, as ``(label, what)``
    pairs; ``imports`` maps the module's import aliases to targets."""
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        module, attr = func.value.id, func.attr
        if attr in CLOCK_CALLS.get(module, ()):
            what = f"{module}.{attr}()"
            return [(WALL_CLOCK, what)] + ([(SLEEP, what)]
                                           if attr == "sleep" else [])
        if module == "os" and attr in IO_OS_CALLS:
            return [(FSYNC if attr == "fsync" else IO, f"os.{attr}()")]
    if isinstance(func, ast.Name):
        if func.id == "open":
            return [(IO, "open()")]
        module, __, name = imports.get(func.id, "").rpartition(".")
        if name in CLOCK_CALLS.get(module, ()):
            return [(WALL_CLOCK, f"{func.id}()")]
    if isinstance(func, ast.Attribute):
        if func.attr in IO_PATH_METHODS:
            return [(IO, f".{func.attr}()")]
        if func.attr == "pairs":
            return [(MATERIALIZE, ".pairs()")]
    return []


# ---------------------------------------------------------------------------
# Small AST helpers
# ---------------------------------------------------------------------------


def _annotation_class(annotation: Optional[ast.expr]) -> Optional[str]:
    """Bare class name of an annotation: unwraps Optional[X], "X",
    X | None, and dotted names (keeping the terminal name)."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) \
            and isinstance(annotation.value, str):
        text = annotation.value.strip().strip('"\'')
        try:
            annotation = ast.parse(text, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.Subscript):
        base = annotation.value
        if isinstance(base, ast.Name) and base.id == "Optional":
            return _annotation_class(annotation.slice)
        return None
    if isinstance(annotation, ast.BinOp) \
            and isinstance(annotation.op, ast.BitOr):
        for side in (annotation.left, annotation.right):
            if not (isinstance(side, ast.Constant) and side.value is None):
                resolved = _annotation_class(side)
                if resolved is not None:
                    return resolved
    return None


def _lock_constructor(value: Optional[ast.expr]) -> Optional[str]:
    """'Lock'/'RLock'/'Condition' when ``value`` constructs one."""
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    name = None
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
            and func.value.id == "threading":
        name = func.attr
    elif isinstance(func, ast.Name):
        name = func.id
    return name if name in ("Lock", "RLock", "Condition") else None


def _call_repr(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        base = _call_repr(func.value) if isinstance(
            func.value, (ast.Name, ast.Attribute)) else "?"
        return f"{base}.{func.attr}"
    return "<dynamic>"


def _statement_expressions(stmt: ast.stmt) -> list[ast.expr]:
    """The expression parts of a statement (excluding nested statement
    bodies, which the walker handles with their own held sets)."""
    exprs = [child for child in ast.iter_child_nodes(stmt)
             if isinstance(child, ast.expr)]
    exprs += [handler.type for handler in getattr(stmt, "handlers", ())
              if handler.type is not None]
    exprs += [case.guard for case in getattr(stmt, "cases", ())
              if case.guard is not None]
    return exprs


def _statement_bodies(stmt: ast.stmt) -> list[list[ast.stmt]]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return []
    bodies = [getattr(stmt, attr) for attr in ("body", "orelse", "finalbody")
              if getattr(stmt, attr, None)]
    bodies += [clause.body for clause in (*getattr(stmt, "handlers", ()),
                                          *getattr(stmt, "cases", ()))]
    return bodies


def _nested_defs(stmts: list[ast.stmt]) -> Iterator[ast.AST]:
    """The function definitions among ``stmts`` and inside their
    compound statements (not inside other definitions)."""
    for stmt in stmts:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield stmt
        for body in _statement_bodies(stmt):
            yield from _nested_defs(body)


def _definition_parts(stmt: ast.stmt) -> list[ast.AST]:
    """The parts of a def or class statement evaluated where it stands:
    decorators, then arguments (defaults, annotations) and the return
    annotation, or bases and keywords."""
    if isinstance(stmt, ast.ClassDef):
        return [*stmt.decorator_list, *stmt.bases, *stmt.keywords]
    return [*stmt.decorator_list, stmt.args,
            *([stmt.returns] if stmt.returns is not None else [])]
