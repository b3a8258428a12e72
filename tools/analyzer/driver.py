"""Analyzer driver: orchestration, baselines, self-test, CLI.

Usage::

    python -m tools.analyzer                  # gated run on src/repro
    python -m tools.analyzer --all            # ignore the baseline
    python -m tools.analyzer --write-baseline # grandfather current findings
    python -m tools.analyzer --self-test      # prove every rule fires
    python -m tools.analyzer --dump-graph     # print acquired-before edges
    python -m tools.analyzer --github         # CI annotation format

The gated run builds the program model over ``src/repro`` and runs every
rule: the engine invariants ENG001-ENG007 and ENG009
(:mod:`.invariants`), ENG101 lock-order inversion, ENG102 blocking under
the commit mutex, ENG104 unsynchronized shared write and ENG105
materialization on the streaming hot path. It drops findings justified by an ``# eng: allow-<CODE>
(reason)`` pragma on their line, reports every pragma that justified
nothing (ENG008), splits the rest against the baseline file, and exits
non-zero iff any *new* finding remains.

The self-test runs the same code over the seeded mini-trees in
``tools/analyzer_fixtures/`` — one fixture per rule, plus a clean tree —
each with its own :class:`~tools.analyzer.config.AnalyzerConfig`, and
checks that exactly the expected codes fire.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .callgraph import Program
from .config import AnalyzerConfig, REPRO_CONFIG
from .diagnostics import (RULES, Finding, load_baseline, save_baseline,
                          split_by_baseline)
from .effects import materialize_findings, transitive_effects
from .invariants import invariant_findings, unused_pragma_findings
from .lockstate import (LockGraph, blocking_findings, build_lock_graph,
                        lock_order_findings)
from .races import race_findings

REPO_ROOT = Path(__file__).resolve().parents[2]
DEFAULT_ROOT = REPO_ROOT / "src" / "repro"
DEFAULT_BASELINE = REPO_ROOT / "tools" / "analyzer_baseline.txt"
FIXTURE_ROOT = REPO_ROOT / "tools" / "analyzer_fixtures"


def analyze(root: Path, config: AnalyzerConfig,
            ) -> tuple[Program, LockGraph, list[Finding]]:
    """Build the program model and run every rule. Findings justified by
    an ``# eng: allow-<code>`` pragma on their own line are dropped; the
    pragmas that justified nothing are findings."""
    program = Program(root, config)
    graph = build_lock_graph(program)
    effects = transitive_effects(program)
    findings = invariant_findings(program)
    findings += lock_order_findings(program, graph)
    findings += blocking_findings(program, effects)
    findings += race_findings(program)
    findings += materialize_findings(program, effects)
    kept = [finding for finding in findings
            if not program.pragmas[finding.path].suppresses(finding.line,
                                                            finding.code)]
    kept += unused_pragma_findings(program)
    kept.sort(key=lambda f: (f.code, f.path, f.line, f.detail))
    return program, graph, kept


# ---------------------------------------------------------------------------
# Self-test fixtures: one mini-tree per rule, each with its own config.
# ---------------------------------------------------------------------------

_SHARED_WRITE_CONFIG = AnalyzerConfig(
    entry_points={
        "server-worker": ("server.Server.worker_loop",),
        "checkpointer": ("checkpointer.Checkpointer.run",),
    },
)

FIXTURES: dict[str, tuple[AnalyzerConfig, frozenset]] = {
    "sched_clock": (AnalyzerConfig(), frozenset({"ENG001"})),
    "lock_order": (AnalyzerConfig(), frozenset({"ENG002"})),
    "materialize": (AnalyzerConfig(), frozenset({"ENG003"})),
    "accumulator": (AnalyzerConfig(), frozenset({"ENG004"})),
    "durability_io": (AnalyzerConfig(), frozenset({"ENG005"})),
    "bare_except": (AnalyzerConfig(), frozenset({"ENG006"})),
    "wal_mutex": (
        AnalyzerConfig(
            global_lock_attrs={"commit_mutex": "Manager.commit_mutex"},
            commit_locks=frozenset({"Manager.commit_mutex"})),
        frozenset({"ENG007"})),
    "unused_pragma": (AnalyzerConfig(), frozenset({"ENG008"})),
    # Untyped defs inside the mypy-strict package fire; the same defs
    # outside it, and a typed __init__ without ``-> None``, do not.
    "untyped_def": (
        AnalyzerConfig(mypy_config=FIXTURE_ROOT / "untyped_def" / "mypy.ini"),
        frozenset({"ENG009"})),
    "lock_cycle": (AnalyzerConfig(), frozenset({"ENG101"})),
    # A partition (table) lock taken inside a worker task submitted
    # under the coordinator's own mutex — the parallel-refresh deadlock
    # shape.
    "worker_lock": (
        AnalyzerConfig(table_lock_methods=frozenset({"acquire"}),
                       table_lock_classes=frozenset({"LockManager"})),
        frozenset({"ENG101"})),
    "blocking_commit": (
        AnalyzerConfig(commit_locks=frozenset({"Manager.commit_mutex"})),
        frozenset({"ENG102"})),
    "shared_write": (_SHARED_WRITE_CONFIG, frozenset({"ENG104"})),
    "hot_materialize": (
        AnalyzerConfig(hot_path_roots=("stream.stream_rows",)),
        frozenset({"ENG105"})),
    "clean": (AnalyzerConfig(commit_locks=frozenset(
        {"Manager.commit_mutex"})), frozenset()),
}


def fixture_findings(name: str,
                     root: Optional[Path] = None) -> list[Finding]:
    """Run one fixture's analysis (``root`` overrides the fixture dir,
    for mutation tests over copies)."""
    config, __ = FIXTURES[name]
    __, __, findings = analyze(root or (FIXTURE_ROOT / name), config)
    return findings


def self_test() -> int:
    """Prove every rule fires on its seeded fixture and stays quiet on
    the clean tree. Returns a process exit code."""
    failures = 0
    for name, (config, expected) in sorted(FIXTURES.items()):
        root = FIXTURE_ROOT / name
        if not root.is_dir():
            print(f"FAIL {name}: fixture directory missing: {root}")
            failures += 1
            continue
        __, __, findings = analyze(root, config)
        fired = frozenset(finding.code for finding in findings)
        if fired == expected:
            label = ", ".join(sorted(expected)) or "no findings"
            print(f"ok   {name}: {label}")
        else:
            failures += 1
            print(f"FAIL {name}: expected {sorted(expected)}, "
                  f"got {sorted(fired)}")
            for finding in findings:
                print(f"     {finding.render()}")
    missing = set(RULES) - {code for __, expected in FIXTURES.values()
                            for code in expected}
    if missing:
        failures += 1
        print(f"FAIL coverage: no fixture exercises {sorted(missing)}")
    print("self-test: " + ("PASS" if failures == 0
                           else f"{failures} failure(s)"))
    return 0 if failures == 0 else 2


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.analyzer",
        description="Static analyzer of the engine source, src/repro.")
    parser.add_argument("--root", type=Path, default=DEFAULT_ROOT,
                        help="analysis root (default: src/repro)")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        help="baseline file of grandfathered findings")
    parser.add_argument("--all", action="store_true",
                        help="report baselined findings too")
    parser.add_argument("--write-baseline", action="store_true",
                        help="grandfather the current findings and exit")
    parser.add_argument("--github", action="store_true",
                        help="emit GitHub Actions ::error annotations")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture self-test")
    parser.add_argument("--dump-graph", action="store_true",
                        help="print the global acquired-before relation")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    __, graph, findings = analyze(args.root, REPRO_CONFIG)

    if args.dump_graph:
        for held in sorted(graph.edges):
            for acquired in sorted(graph.edges[held]):
                qualname, rel_path, line = graph.examples[(held, acquired)]
                print(f"{held} -> {acquired}    "
                      f"[{qualname} @ {rel_path}:{line}]")
        cycles = graph.cycles()
        print(f"# {len(graph.examples)} edges, {len(cycles)} cycle(s)")
        return 0 if not cycles else 1

    if args.write_baseline:
        count = save_baseline(args.baseline, findings)
        print(f"wrote {count} fingerprint(s) to {args.baseline}")
        return 0

    baseline = load_baseline(args.baseline)
    new, grandfathered = split_by_baseline(findings, baseline)
    shown = findings if args.all else new
    for finding in shown:
        print(finding.render_github() if args.github
              else finding.render())
    if new:
        print(f"\n{len(new)} new finding(s) "
              f"({len(grandfathered)} baselined)", file=sys.stderr)
        return 1
    stale = baseline - {finding.fingerprint for finding in findings}
    if stale:
        print(f"note: {len(stale)} stale baseline entr"
              f"{'y' if len(stale) == 1 else 'ies'} (fixed findings); "
              f"regenerate with --write-baseline", file=sys.stderr)
    print(f"analyzer: clean ({len(grandfathered)} baselined finding(s))")
    return 0
