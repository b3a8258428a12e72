"""Static analyzer for the engine's own source (``tools/analyzer``).

Layers (see ``tools/README.md`` for the full picture):

* :mod:`.diagnostics` — findings, the pragma grammar, baselines;
* :mod:`.config` — the manual knowledge: binding table, polymorphic
  seams, lock identities, thread entry points;
* :mod:`.callgraph` — program model: modules, classes, a call graph
  with class-method resolution, and per-function lock/effect facts;
* :mod:`.invariants` — engine invariants judged one site at a time
  (ENG001-ENG008);
* :mod:`.effects` — transitive effect inference (ENG105);
* :mod:`.lockstate` — acquired-before graph, cycle detection, blocking
  under the commit mutex (ENG101, ENG102);
* :mod:`.races` — static race detection from thread entry points
  (ENG104);
* :mod:`.driver` — orchestration, baseline gate, self-test, CLI.
"""

from .callgraph import Program
from .config import AnalyzerConfig, REPRO_CONFIG
from .diagnostics import Finding
from .driver import analyze, fixture_findings, main, self_test

__all__ = [
    "AnalyzerConfig", "Finding", "Program", "REPRO_CONFIG", "analyze",
    "fixture_findings", "main", "self_test",
]
