"""The engine invariants (``ENG001``-``ENG008``, ``tools/analyzer/
invariants.py``) as a lint gate: the real tree carries none of them,
with no baseline to hide behind, and the analyzer's self-test proves
each of them live on its seeded fixture."""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from tools.analyzer import driver  # noqa: E402
from tools.analyzer.config import REPRO_CONFIG  # noqa: E402

INVARIANT_CODES = frozenset(f"ENG00{n}" for n in range(1, 9))


def test_repo_lints_clean():
    # A single-site invariant is never grandfathered: the findings are
    # checked before any baseline applies.
    __, __, findings = driver.analyze(driver.DEFAULT_ROOT, REPRO_CONFIG)
    violations = [f for f in findings if f.code in INVARIANT_CODES]
    assert violations == [], "\n".join(f.render() for f in violations)


def test_self_test_passes():
    covered = frozenset().union(
        *(codes for __, codes in driver.FIXTURES.values()))
    assert INVARIANT_CODES <= covered
    assert driver.self_test() == 0
