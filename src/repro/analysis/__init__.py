"""Unified static-analysis engine (docs/ANALYSIS.md).

Turns the compiler's prototype first-error-and-raise analyses
(:mod:`repro.sema.bounded`, :mod:`repro.dfa`) into a diagnostics
subsystem: a pass pipeline over a ``BoundProgram`` + DFA that
*accumulates* typed diagnostics with source spans, attaches replayable
witnesses to nondeterminism conflicts, derives static resource bounds
from the DFA, and renders text / JSON / SARIF 2.1.0 reports
(``repro lint``).  Public names resolve on first access.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".diagnostics": ("Diagnostic", "Report", "Severity"),
    ".bounds": ("ResourceBounds", "TrailBounds", "compute_bounds",
                "compute_trail_bounds"),
    ".witness": ("Witness",),
    ".engine": ("run_analysis",),
    ".incremental": ("IncrementalAnalyzer",),
    ".sarif": ("to_sarif", "sarif_json"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
