"""Tests for the static analyzer (``tools/analyzer/``): call-graph
construction (method resolution, the binding and seam tables), the
lock-state transfer function, the must-hold fixpoint, every rule firing
on its fixture, mutation regressions over fixture and real-tree copies
(including stale pragmas), the CLI, and the real-tree contracts the CI
gate relies on (clean gated run, acyclic acquired-before relation with
the documented discipline edges). Also hosts the (CI-only, skipped
when mypy is absent) strict-typing gate over ``repro.plan``,
``repro.analysis``, ``repro.durability``, and ``repro.server``.
"""

import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from tools.analyzer import driver  # noqa: E402
from tools.analyzer.callgraph import Program  # noqa: E402
from tools.analyzer.config import REPRO_CONFIG, AnalyzerConfig  # noqa: E402
from tools.analyzer.effects import (may_take,  # noqa: E402
                                    transitive_effects)
from tools.analyzer.lockstate import build_lock_graph  # noqa: E402
from tools.analyzer.races import (must_held_at_entry,  # noqa: E402
                                  race_findings)

SRC_ROOT = REPO_ROOT / "src" / "repro"


def _program(tmp_path, sources: dict, config=None) -> Program:
    for rel_name, text in sources.items():
        target = tmp_path / rel_name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text))
    return Program(tmp_path, config or AnalyzerConfig())


def _edges(program: Program) -> set:
    return {(site.caller, site.callee)
            for site in program.resolved_edges()}


# ---------------------------------------------------------------------------
# Call graph: resolution through annotations, constructors, attributes
# ---------------------------------------------------------------------------


def test_resolves_annotated_parameter_method_call(tmp_path):
    program = _program(tmp_path, {"mod.py": """
        class Engine:
            def run(self):
                pass

        def drive(engine: Engine):
            engine.run()
    """})
    assert ("mod.drive", "mod.Engine.run") in _edges(program)


def test_resolves_optional_annotation(tmp_path):
    program = _program(tmp_path, {"mod.py": """
        from typing import Optional

        class Engine:
            def run(self):
                pass

        def drive(engine: Optional[Engine]):
            engine.run()

        def drive2(engine: "Engine | None"):
            engine.run()
    """})
    edges = _edges(program)
    assert ("mod.drive", "mod.Engine.run") in edges
    assert ("mod.drive2", "mod.Engine.run") in edges


def test_resolves_constructor_assignment(tmp_path):
    program = _program(tmp_path, {"mod.py": """
        class Engine:
            def run(self):
                pass

        def drive():
            engine = Engine()
            engine.run()
    """})
    assert ("mod.drive", "mod.Engine.run") in _edges(program)


def test_resolves_self_attribute_chain(tmp_path):
    program = _program(tmp_path, {"mod.py": """
        class Engine:
            def run(self):
                pass

        class Car:
            def __init__(self):
                self.engine = Engine()

            def go(self):
                self.engine.run()
    """})
    assert ("mod.Car.go", "mod.Engine.run") in _edges(program)


def test_resolves_inherited_method_through_base_chain(tmp_path):
    program = _program(tmp_path, {"mod.py": """
        class Base:
            def run(self):
                pass

        class Derived(Base):
            pass

        def drive(engine: Derived):
            engine.run()
    """})
    assert ("mod.drive", "mod.Base.run") in _edges(program)


def test_attr_binding_table_types_late_bound_attribute(tmp_path):
    # Two unrelated definers of ``fire``: the unique-definer fallback
    # stays out of it, so only the binding table can type the call.
    sources = {"mod.py": """
        class Hook:
            def fire(self):
                pass

        class Missile:
            def fire(self):
                pass

        class Owner:
            def __init__(self):
                self.hook = None

            def trigger(self):
                self.hook.fire()
    """}
    untyped = _program(tmp_path / "a", sources)
    assert ("mod.Owner.trigger", "mod.Hook.fire") not in _edges(untyped)
    bound = _program(tmp_path / "b", sources,
                     AnalyzerConfig(attr_bindings={"Owner.hook": "Hook"}))
    assert ("mod.Owner.trigger", "mod.Hook.fire") in _edges(bound)


def test_method_seam_fans_out_to_subclasses(tmp_path):
    program = _program(tmp_path, {"mod.py": """
        class Acc:
            def fold(self, row):
                raise NotImplementedError

        class SumAcc(Acc):
            def fold(self, row):
                pass

        class CountAcc(Acc):
            def fold(self, row):
                pass

        def apply(acc):
            acc.fold(1)
    """}, AnalyzerConfig(method_seams={"fold": ("subclasses-of:Acc",)}))
    edges = _edges(program)
    assert ("mod.apply", "mod.SumAcc.fold") in edges
    assert ("mod.apply", "mod.CountAcc.fold") in edges


def test_unparseable_module_fails_the_run(tmp_path):
    # Skipping it would hide every site in it from every rule.
    with pytest.raises(SyntaxError):
        _program(tmp_path, {"mod.py": "def broken(:\n    pass\n"})


def test_thread_confined_subclasses_of_covers_new_accumulator(tmp_path):
    # A new Accumulator subclass written from two thread roots: racy
    # under a config confining nothing, confined under the real tree's
    # thread_confined set, which does not name the new class.
    sources = {"aggregates.py": """
        class Accumulator:
            def insert(self, value):
                raise NotImplementedError

        class MedianAccumulator(Accumulator):
            def __init__(self):
                self.values = []

            def insert(self, value):
                self.values = self.values + [value]
    """, "threads.py": """
        from aggregates import MedianAccumulator

        def worker(acc: MedianAccumulator):
            acc.insert(1)

        def checkpointer(acc: MedianAccumulator):
            acc.insert(2)
    """}
    entry_points = {"server-worker": ("threads.worker",),
                    "checkpointer": ("threads.checkpointer",)}
    shared = _program(tmp_path / "a", sources,
                      AnalyzerConfig(entry_points=entry_points))
    assert [f.detail for f in race_findings(shared)] == [
        "MedianAccumulator.values"]
    assert "MedianAccumulator" not in REPRO_CONFIG.thread_confined
    confined = _program(tmp_path / "b", sources, AnalyzerConfig(
        entry_points=entry_points,
        thread_confined=REPRO_CONFIG.thread_confined))
    assert race_findings(confined) == []


def test_nested_def_gets_implicit_edge_from_outer(tmp_path):
    program = _program(tmp_path, {"mod.py": """
        import time

        def outer():
            def inner():
                time.sleep(1)
            return inner
    """})
    assert ("mod.outer", "mod.outer.inner") in _edges(program)
    effects = transitive_effects(program)
    assert "sleep" in effects["mod.outer"]


# ---------------------------------------------------------------------------
# Lock-state transfer function
# ---------------------------------------------------------------------------


def test_with_block_scopes_held_set_exactly(tmp_path):
    program = _program(tmp_path, {"mod.py": """
        import threading

        class Box:
            def __init__(self):
                self.mutex = threading.Lock()
                self.n = 0

            def update(self):
                with self.mutex:
                    self.n += 1
                self.n += 2
    """})
    writes = {w.line: set(w.held)
              for w in program.facts["mod.Box.update"].writes
              if w.attr == "n"}
    inside, outside = sorted(writes)
    assert writes[inside] == {"Box.mutex"}
    assert writes[outside] == set()


def test_explicit_acquire_persists_to_function_end(tmp_path):
    program = _program(tmp_path, {"mod.py": """
        import threading

        class Box:
            def __init__(self):
                self.mutex = threading.Lock()
                self.n = 0

            def update(self):
                self.mutex.acquire()
                self.n += 1
    """})
    facts = program.facts["mod.Box.update"]
    (acq,) = facts.acquisitions
    assert acq.lock == "Box.mutex" and not acq.via_with
    (write,) = [w for w in facts.writes if w.attr == "n"]
    assert "Box.mutex" in write.held


def test_nested_with_produces_acquired_before_edge(tmp_path):
    program = _program(tmp_path, {"mod.py": """
        import threading

        class Box:
            def __init__(self):
                self.a = threading.Lock()
                self.b = threading.Lock()

            def both(self):
                with self.a:
                    with self.b:
                        pass
    """})
    graph = build_lock_graph(program)
    assert "Box.b" in graph.edges.get("Box.a", set())
    assert graph.cycles() == []


def test_interprocedural_inversion_detected(tmp_path):
    program = _program(tmp_path, {"mod.py": """
        import threading

        class Box:
            def __init__(self):
                self.a = threading.Lock()
                self.b = threading.Lock()

            def forward(self):
                with self.a:
                    self.take_b()

            def take_b(self):
                with self.b:
                    pass

            def backward(self):
                with self.b:
                    with self.a:
                        pass
    """})
    graph = build_lock_graph(program)
    cycles = graph.cycles()
    assert len(cycles) == 1
    assert set(cycles[0]) == {"Box.a", "Box.b"}


def test_may_take_propagates_through_calls(tmp_path):
    program = _program(tmp_path, {"mod.py": """
        import threading

        class Box:
            def __init__(self):
                self.a = threading.Lock()

            def inner(self):
                with self.a:
                    pass

            def outer(self):
                self.inner()
    """})
    takes = may_take(program)
    assert "Box.a" in takes["mod.Box.outer"]


def test_must_held_at_entry_intersects_paths(tmp_path):
    program = _program(tmp_path, {"mod.py": """
        import threading

        class Box:
            def __init__(self):
                self.mutex = threading.Lock()

            def guarded(self):
                with self.mutex:
                    self.work()

            def unguarded(self):
                self.work()

            def always(self):
                with self.mutex:
                    self.leaf()

            def work(self):
                pass

            def leaf(self):
                pass
    """})
    held = must_held_at_entry(
        program, {"mod.Box.guarded", "mod.Box.unguarded", "mod.Box.always"})
    # work() is reached with and without the mutex: intersection empty.
    assert held["mod.Box.work"] == frozenset()
    # leaf() is only ever reached under the mutex.
    assert held["mod.Box.leaf"] == frozenset({"Box.mutex"})


# ---------------------------------------------------------------------------
# Mutation regressions over fixture copies
# ---------------------------------------------------------------------------


def _mutated_fixture(tmp_path, name: str, rel_name: str, transform):
    root = tmp_path / name
    shutil.copytree(driver.FIXTURE_ROOT / name, root)
    target = root / rel_name
    target.write_text(transform(target.read_text()))
    return driver.fixture_findings(name, root)


def test_removing_with_block_introduces_race(tmp_path):
    findings = _mutated_fixture(
        tmp_path, "shared_write", "stats.py",
        lambda text: text.replace("        with self.mutex:\n"
                                  "            self.commits += 1",
                                  "        self.commits += 1"))
    races = [f for f in findings if f.code == "ENG104"]
    assert {f.detail for f in races} == {"Stats.commits",
                                         "Stats.checkpoints"}


def test_restoring_with_block_removes_race(tmp_path):
    findings = _mutated_fixture(
        tmp_path, "shared_write", "stats.py",
        lambda text: text.replace(
            "    def count_checkpoint(self) -> None:\n"
            "        self.checkpoints += 1",
            "    def count_checkpoint(self) -> None:\n"
            "        with self.mutex:\n"
            "            self.checkpoints += 1"))
    assert [f for f in findings if f.code == "ENG104"] == []


def test_breaking_lock_order_in_clean_tree_fires(tmp_path):
    name = "lock_cycle"
    findings = _mutated_fixture(
        tmp_path, name, "use.py", lambda text: text)
    assert any(f.code == "ENG101" for f in findings)
    fixed = tmp_path / "fixed"
    shutil.copytree(driver.FIXTURE_ROOT / name, fixed)
    use = fixed / "use.py"
    # Re-nest backward in the forward order (a outer, b inner): the
    # acquired-before relation becomes acyclic and the finding clears.
    use.write_text(use.read_text().replace(
        "    with ctx.b:\n        with ctx.a:",
        "    with ctx.a:\n        with ctx.b:"))
    assert driver.fixture_findings(name, fixed) == []


def test_eng_pragma_suppresses_finding(tmp_path):
    findings = _mutated_fixture(
        tmp_path, "shared_write", "stats.py",
        lambda text: text.replace(
            "self.checkpoints += 1",
            "self.checkpoints += 1  # eng: allow-ENG104 (test)"))
    assert [f for f in findings if f.code == "ENG104"] == []


# ---------------------------------------------------------------------------
# Every rule fires on its fixture; engine-invariant mutations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fixture, code", sorted(
    (name, code) for name, (__, codes) in driver.FIXTURES.items()
    for code in codes))
def test_each_fixture_fires_its_rule(fixture, code):
    findings = driver.fixture_findings(fixture)
    assert any(f.code == code for f in findings)
    for finding in findings:
        assert f"[{finding.code}]" in finding.render()


def _analyze_file(tmp_path, source_path, rel_name, transform=lambda t: t):
    """Findings of a tree holding only ``source_path``, transformed and
    placed at ``rel_name`` (the path decides which scopes apply)."""
    target = tmp_path / rel_name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(transform(source_path.read_text()))
    __, __, findings = driver.analyze(tmp_path, AnalyzerConfig())
    return findings


def _codes(findings) -> list:
    return [finding.code for finding in findings]


def test_unsorting_commit_locks_fires(tmp_path):
    findings = _analyze_file(
        tmp_path, SRC_ROOT / "txn" / "manager.py", "txn/manager.py",
        lambda text: text.replace("written = sorted(name",
                                  "written = list(name"))
    assert "ENG002" in _codes(findings)


def test_removing_wallclock_pragma_fires(tmp_path):
    findings = _analyze_file(
        tmp_path, SRC_ROOT / "txn" / "locks.py", "txn/locks.py",
        lambda text: re.sub(r"  # eng: allow-ENG001 \([^)]*\)", "", text))
    assert _codes(findings).count("ENG001") == 2


def test_new_materialization_in_hot_path_fires(tmp_path):
    findings = _analyze_file(
        tmp_path, driver.FIXTURE_ROOT / "materialize" / "engine"
        / "executor.py", "engine/executor.py")
    assert _codes(findings) == ["ENG003", "ENG003"]


def test_materialize_pragma_suppresses(tmp_path):
    findings = _analyze_file(
        tmp_path, driver.FIXTURE_ROOT / "materialize" / "engine"
        / "executor.py", "engine/executor.py",
        lambda text: re.sub(r"(relation\.(rows|pairs\(\)).*)",
                            r"\1  # eng: allow-ENG003 (test)", text))
    assert findings == []


def test_incomplete_accumulator_fires_anywhere(tmp_path):
    findings = _analyze_file(
        tmp_path, driver.FIXTURE_ROOT / "accumulator" / "engine"
        / "aggregates.py", "engine/aggregates_extra.py")
    fired = [f for f in findings if f.code == "ENG004"]
    assert len(fired) == 1
    assert "HalfSumAccumulator" in fired[0].message
    assert "retract" in fired[0].message


def test_sorted_loop_is_accepted(tmp_path):
    source = tmp_path / "source.py"
    source.write_text(
        "def commit(manager, writes):\n"
        "    written = sorted(writes)\n"
        "    for name in written:\n"
        "        manager.lock(name)\n")
    assert _analyze_file(tmp_path / "tree", source, "txn/manager.py") == []


def test_stale_pragma_fires(tmp_path):
    findings = _analyze_file(
        tmp_path, SRC_ROOT / "txn" / "locks.py", "txn/locks.py",
        lambda text: text.replace("time.monotonic()", "0.0"))
    assert _codes(findings) == ["ENG008", "ENG008"]
    assert all("allow-ENG001" in f.message for f in findings)


def test_used_pragma_does_not_fire_unused(tmp_path):
    assert _analyze_file(tmp_path, SRC_ROOT / "txn" / "locks.py",
                         "txn/locks.py") == []


def test_untyped_def_scope_is_mypys_strict_packages():
    from tools.analyzer.invariants import typed_def_scope
    assert typed_def_scope(REPRO_CONFIG.mypy_config) == (
        "plan/", "analysis/", "durability/", "server/")


def test_dropping_an_annotation_fires_only_in_a_strict_package(tmp_path):
    # The same edit of plan/cache.py fires ENG009 under plan/ and nowhere
    # else; a pragma on the def line suppresses it.
    untyped = "    def get(self, key):\n"

    def strip(text):
        return text.replace(
            "    def get(self, key: Hashable) -> Optional[PlanNode]:\n",
            untyped)

    source = strip((SRC_ROOT / "plan" / "cache.py").read_text())
    assert untyped in source
    for rel_name in ("plan/cache.py", "engine/cache.py"):
        target = tmp_path / rel_name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    config = AnalyzerConfig(mypy_config=REPRO_CONFIG.mypy_config)
    __, __, findings = driver.analyze(tmp_path, config)
    assert [(f.code, f.path, f.detail) for f in findings] == [
        ("ENG009", "plan/cache.py", "key,return")]
    (tmp_path / "plan" / "cache.py").write_text(source.replace(
        untyped, "    def get(self, key):  # eng: allow-ENG009 (test)\n"))
    __, __, findings = driver.analyze(tmp_path, config)
    assert findings == []


def test_pragma_on_a_line_without_its_finding_fires(tmp_path):
    # An ENG104 pragma copied onto a line of the durability manager that
    # has no ENG104 finding justifies nothing: the whole-tree run reports
    # it, and nothing else beyond the baseline.
    root = tmp_path / "repro"
    shutil.copytree(SRC_ROOT, root)
    manager = root / "durability" / "manager.py"
    lines = manager.read_text().splitlines(keepends=True)
    target = next(index for index, line in enumerate(lines)
                  if "def log_commit(" in line)
    lines[target] = (lines[target].rstrip("\n")
                     + "  # eng: allow-ENG104 (copied)\n")
    manager.write_text("".join(lines))
    __, __, findings = driver.analyze(root, REPRO_CONFIG)
    new = [f for f in findings if f.code != "ENG102"]
    assert [(f.code, f.path, f.line) for f in new] == [
        ("ENG008", "durability/manager.py", target + 1)]


def test_reraising_handler_makes_its_pragma_stale(tmp_path):
    # The wave-isolation handler, changed to re-raise, is no catch-all
    # swallow any more: its ENG006 pragma is left justifying nothing.
    findings = _analyze_file(
        tmp_path, SRC_ROOT / "util" / "parallel.py", "util/parallel.py",
        lambda text: text.replace(
            "# eng: allow-ENG006 (wave isolation: siblings complete)\n"
            "                return exc\n",
            "# eng: allow-ENG006 (wave isolation: siblings complete)\n"
            "                raise\n"))
    assert _codes(findings) == ["ENG008"]
    assert "allow-ENG006" in findings[0].message


def test_cli_exit_codes():
    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "tools.analyzer", *args],
            cwd=REPO_ROOT, capture_output=True, text=True)

    clean = run()
    assert clean.returncode == 0, clean.stdout + clean.stderr
    selftest = run("--self-test")
    assert selftest.returncode == 0, selftest.stdout + selftest.stderr
    dirty = run("--root", str(driver.FIXTURE_ROOT / "lock_order"))
    assert dirty.returncode == 1, dirty.stdout + dirty.stderr
    assert "[ENG002]" in dirty.stdout


# ---------------------------------------------------------------------------
# Real tree: the contracts CI relies on
# ---------------------------------------------------------------------------


def test_self_test_passes():
    assert driver.self_test() == 0


def test_real_tree_gated_run_is_clean(capsys):
    assert driver.main([]) == 0
    assert "analyzer: clean" in capsys.readouterr().out


def test_real_tree_lock_graph_is_acyclic_with_documented_edges():
    program = Program(driver.DEFAULT_ROOT, REPRO_CONFIG)
    graph = build_lock_graph(program)
    assert graph.cycles() == []
    # The documented engine discipline: table locks before the commit
    # mutex; commit mutex before the catalog and WAL internals;
    # checkpointing nests its own mutex outermost.
    must_have = {
        ("LockManager.<table>", "TransactionManager.commit_mutex"),
        ("TransactionManager.commit_mutex", "Catalog._mutex"),
        ("TransactionManager.commit_mutex", "WriteAheadLog._mutex"),
        ("DurabilityManager._checkpoint_mutex",
         "TransactionManager.commit_mutex"),
    }
    edges = {(held, acquired) for held in graph.edges
             for acquired in graph.edges[held]}
    assert must_have <= edges, sorted(must_have - edges)


def test_real_tree_baseline_has_no_stale_entries():
    from tools.analyzer.diagnostics import load_baseline
    __, __, findings = driver.analyze(driver.DEFAULT_ROOT, REPRO_CONFIG)
    baseline = load_baseline(driver.DEFAULT_BASELINE)
    live = {finding.fingerprint for finding in findings}
    assert baseline <= live, sorted(baseline - live)
    assert live <= baseline, sorted(live - baseline)


def test_commit_path_blocking_is_fully_baselined():
    """Every baselined finding is the known fsync-under-commit-mutex
    family (a by-design durability/latency trade, documented in
    tools/README.md) — nothing else hides in the baseline."""
    from tools.analyzer.diagnostics import load_baseline
    baseline = load_baseline(driver.DEFAULT_BASELINE)
    assert baseline, "expected the fsync-under-commit-mutex family"
    for fingerprint in baseline:
        assert fingerprint.startswith("ENG102|"), fingerprint


# ---------------------------------------------------------------------------
# mypy strict gate (runs in CI where mypy is installed)
# ---------------------------------------------------------------------------


def test_mypy_clean_on_strict_packages():
    pytest.importorskip("mypy")
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "mypy.ini",
         "src/repro/plan", "src/repro/analysis",
         "src/repro/durability", "src/repro/server"],
        cwd=REPO_ROOT, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
