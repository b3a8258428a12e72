"""Findings, pragmas and the baseline of the static analyzer.

Every rule reports a :class:`Finding` under one code: ``ENG0xx`` rules
check one site at a time, ``ENG1xx`` rules follow the call graph. A
finding is suppressed in the code by one pragma grammar::

    self.x = n   # eng: allow-ENG104 (single-threaded setup phase)

A pragma suppresses exactly one code on exactly its own line. The
:class:`PragmaIndex` records which pragmas actually suppressed
something, so stale ones — a justification left behind after the
violating code was fixed — are findings themselves (ENG008). Findings
that predate a rule are grandfathered by fingerprint in a baseline
file, so CI blocks only regressions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

#: ``# eng: allow-<CODE> (optional reason)``
PRAGMA_PATTERN = re.compile(r"#\s*eng:\s*allow-(?P<code>[A-Za-z0-9_-]+)")

#: Every rule, code -> name.
RULES = {
    "ENG001": "wall-clock",
    "ENG002": "lock-order",
    "ENG003": "materialize",
    "ENG004": "accumulator-protocol",
    "ENG005": "durability-io",
    "ENG006": "bare-except",
    "ENG007": "wal-commit-mutex",
    "ENG008": "unused-pragma",
    "ENG009": "untyped-def",
    "ENG101": "lock-order-inversion",
    "ENG102": "blocking-under-commit-mutex",
    "ENG104": "unsynchronized-shared-write",
    "ENG105": "hot-path-materialize",
}


@dataclass(frozen=True)
class Finding:
    """One analyzer finding.

    ``detail`` is a short, line-number-free key describing the finding's
    subject (a lock cycle, a written attribute, a call edge); together
    with the code, path, and function it forms the :attr:`fingerprint`
    used by the baseline, so findings survive unrelated line drift.
    """

    code: str           # a key of RULES
    path: str           # repo-relative source path of the primary span
    line: int
    function: str       # qualified name of the enclosing function
    message: str
    hint: str = ""      # one-line fix suggestion
    detail: str = ""    # stable subject key (no line numbers)

    @property
    def fingerprint(self) -> str:
        return f"{self.code}|{self.path}|{self.function}|{self.detail}"

    def render(self) -> str:
        text = f"{self.path}:{self.line}: [{self.code}] {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def render_github(self) -> str:
        """GitHub Actions workflow-command annotation format."""
        message = self.message.replace("%", "%25").replace("\n", "%0A")
        return (f"::error file={self.path},line={self.line},"
                f"title={self.code}::{message}")


class PragmaIndex:
    """Inline suppression pragmas of one source file, usage-tracked.

    ``suppresses(line, code)`` is the only query: it returns whether the
    line carries an ``allow-<code>`` pragma, and marks that pragma as
    *used*. After all rules ran, :meth:`unused` lists the pragmas that
    never suppressed anything.
    """

    def __init__(self, source_lines: Sequence[str]):
        #: (line, code) -> used?
        self._pragmas: dict[tuple[int, str], bool] = {}
        for lineno, text in enumerate(source_lines, start=1):
            for match in PRAGMA_PATTERN.finditer(text):
                self._pragmas[(lineno, match.group("code"))] = False

    def suppresses(self, line: int, code: str) -> bool:
        key = (line, code)
        if key in self._pragmas:
            self._pragmas[key] = True
            return True
        return False

    def unused(self) -> list[tuple[int, str]]:
        return sorted(key for key, used in self._pragmas.items()
                      if not used)


# ---------------------------------------------------------------------------
# Baseline files
# ---------------------------------------------------------------------------

BASELINE_HEADER = """\
# Grandfathered findings of the whole-program analyzer
# (tools/analyzer). One fingerprint per line:
#
#     CODE|path|function|detail
#
# The gated run suppresses exactly these findings, so CI blocks only
# regressions. Regenerate after deliberate changes with:
#
#     python -m tools.analyzer --write-baseline
#
# Shrinking this file is progress; growing it needs review.
"""


def load_baseline(path: Path) -> set[str]:
    """Read a baseline file into a set of fingerprints (missing file =
    empty baseline)."""
    if not path.exists():
        return set()
    fingerprints: set[str] = set()
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            fingerprints.add(line)
    return fingerprints


def save_baseline(path: Path, findings: Iterable[Finding]) -> int:
    """Write the findings' fingerprints as the new baseline; returns the
    number of entries written."""
    fingerprints = sorted({finding.fingerprint for finding in findings})
    body = BASELINE_HEADER + "".join(f"{fp}\n" for fp in fingerprints)
    path.write_text(body)
    return len(fingerprints)


def split_by_baseline(findings: Sequence[Finding], baseline: set[str],
                      ) -> tuple[list[Finding], list[Finding]]:
    """(new, grandfathered) partition of ``findings``."""
    new: list[Finding] = []
    old: list[Finding] = []
    for finding in findings:
        (old if finding.fingerprint in baseline else new).append(finding)
    return new, old


__all__ = [
    "BASELINE_HEADER", "Finding", "PRAGMA_PATTERN", "PragmaIndex", "RULES",
    "load_baseline", "save_baseline", "split_by_baseline",
]
