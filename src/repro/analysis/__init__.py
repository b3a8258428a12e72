"""Static semantic analysis: typed diagnostics for every statement.

Layer 1 of the static-analysis subsystem (layer 2, the analyzer of the
engine's own source, lives in ``tools/analyzer``). See
:mod:`repro.analysis.diagnostics` for the code registry and
:mod:`repro.analysis.analyzer` for the passes.
"""

from repro.analysis.diagnostics import (AnalysisReport, CodeInfo, CODES,
                                        Diagnostic, Severity,
                                        make_diagnostic)
from repro.analysis.analyzer import (analyze_bound_query,
                                     analyze_bound_write, analyze_sql,
                                     analyze_statement,
                                     diagnostic_from_error)

__all__ = [
    "AnalysisReport", "CodeInfo", "CODES", "Diagnostic", "Severity",
    "make_diagnostic", "analyze_bound_query", "analyze_bound_write",
    "analyze_sql",
    "analyze_statement", "diagnostic_from_error",
]
