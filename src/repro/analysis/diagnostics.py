"""Diagnostic records and the accumulating report.

A :class:`Diagnostic` is one finding: a stable code (``CEU-Wddd``), a
severity, a message, a source span, optional related locations, an
optional replayable :class:`~repro.analysis.witness.Witness`, and an
optional machine-readable payload.  A :class:`Report` accumulates them
(analyses never raise past the engine) and renders deterministically —
two runs over the same input produce byte-identical output.

Diagnostic codes
================

=========  ========  ====================================================
code       severity  meaning
=========  ========  ====================================================
CEU-E001   error     lex / parse error
CEU-E002   error     binding error (names, declarations, scoping)
CEU-E003   error     ``async`` restriction violated (§2.7)
CEU-E101   error     tight loop — unbounded reaction chain (§2.5)
CEU-E201   error     concurrent variable access conflict (§2.6)
CEU-E202   error     concurrent internal-event emit conflict (§2.6)
CEU-E203   error     concurrent non-annotated C calls (§2.6)
CEU-W301   warning   unreachable statement
CEU-W302   warning   internal event awaited but never emitted
CEU-W303   warning   internal event emitted but never awaited
CEU-W304   warning   ``par/or``/``par/and`` that can never rejoin
CEU-W305   warning   trails permanently stuck (deadlocked DFA state)
CEU-W401   warning   analysis budget exceeded — results incomplete
CEU-I501   note      static resource bounds (informational)
=========  ========  ====================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from ..lang.errors import UNKNOWN_SPAN, SourceSpan

Severity = str  # "error" | "warning" | "note"

#: code → (severity, one-line description) — the rule registry shared by
#: the text renderer and the SARIF exporter
RULES: dict[str, tuple[Severity, str]] = {
    "CEU-E001": ("error", "Lex or parse error"),
    "CEU-E002": ("error", "Binding error"),
    "CEU-E003": ("error", "Async restriction violated (§2.7)"),
    "CEU-E101": ("error", "Tight loop: unbounded reaction chain (§2.5)"),
    "CEU-E201": ("error", "Concurrent variable access conflict (§2.6)"),
    "CEU-E202": ("error",
                 "Concurrent internal-event emit conflict (§2.6)"),
    "CEU-E203": ("error", "Concurrent non-annotated C calls (§2.6)"),
    "CEU-W301": ("warning", "Unreachable statement"),
    "CEU-W302": ("warning", "Internal event awaited but never emitted"),
    "CEU-W303": ("warning", "Internal event emitted but never awaited"),
    "CEU-W304": ("warning", "Parallel composition can never rejoin"),
    "CEU-W305": ("warning", "Trails permanently stuck (deadlock)"),
    "CEU-W401": ("warning", "Analysis budget exceeded; results partial"),
    "CEU-I501": ("note", "Static resource bounds"),
}

_SEV_RANK = {"error": 0, "warning": 1, "note": 2}


def span_dict(span: SourceSpan) -> Optional[dict]:
    """JSON view of a span; ``None`` for the unknown span."""
    if span.start.line == 0:
        return None
    return {
        "file": span.filename,
        "line": span.start.line,
        "col": span.start.col,
        "end_line": span.end.line,
        "end_col": span.end.col,
    }


@dataclass
class Diagnostic:
    code: str
    message: str
    span: SourceSpan = UNKNOWN_SPAN
    #: related locations: (label, span)
    notes: list[tuple[str, SourceSpan]] = field(default_factory=list)
    witness: Optional[object] = None       # analysis.witness.Witness
    data: Optional[dict] = None            # machine-readable payload

    @property
    def severity(self) -> Severity:
        return RULES[self.code][0]

    def location(self) -> str:
        if self.span.start.line == 0:
            return self.span.filename
        return f"{self.span.filename}:{self.span.start.line}:" \
               f"{self.span.start.col}"

    def render(self) -> str:
        lines = [f"{self.location()}: {self.severity}[{self.code}]: "
                 f"{self.message}"]
        for label, span in self.notes:
            where = f"{span.filename}:{span.start.line}:{span.start.col}" \
                if span.start.line else span.filename
            lines.append(f"  note: {where}: {label}")
        if self.witness is not None:
            lines.append(f"  witness: {self.witness.render()}")
        return "\n".join(lines)

    def sort_key(self) -> tuple:
        # (path, line, col, severity, code, message): fully deterministic
        # ordering, independent of pass scheduling, so incremental-vs-cold
        # comparisons and goldens are stable
        return (self.span.filename, self.span.start.line,
                self.span.start.col, _SEV_RANK[self.severity], self.code,
                self.message)

    def to_dict(self) -> dict:
        out: dict = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "span": span_dict(self.span),
        }
        if self.notes:
            out["notes"] = [{"label": label, "span": span_dict(span)}
                            for label, span in self.notes]
        if self.witness is not None:
            out["witness"] = self.witness.as_dict()
        if self.data is not None:
            out["data"] = self.data
        return out


@dataclass
class Report:
    """Accumulated findings of one analysis run over one source file."""

    filename: str = "<ceu>"
    diagnostics: list[Diagnostic] = field(default_factory=list)
    bounds: Optional[object] = None        # analysis.bounds.ResourceBounds
    #: which pipeline stages ran ("parse", "bind", "bounded", "dfa", ...)
    stages: list[str] = field(default_factory=list)
    dfa_states: Optional[int] = None
    dfa_transitions: Optional[int] = None
    #: the bound program, set by ``run_analysis`` once binding succeeded
    #: (``repro check`` prints its layout and gates without rebinding)
    bound: Optional[object] = field(default=None, repr=False,
                                    compare=False)

    def add(self, code: str, message: str,
            span: SourceSpan = UNKNOWN_SPAN, *,
            notes: Optional[list[tuple[str, SourceSpan]]] = None,
            witness=None, data: Optional[dict] = None) -> Diagnostic:
        diag = Diagnostic(code=code, message=message, span=span,
                          notes=list(notes or []), witness=witness,
                          data=data)
        self.diagnostics.append(diag)
        return diag

    # ----------------------------------------------------------- queries
    def sorted(self) -> list[Diagnostic]:
        return sorted(self.diagnostics, key=Diagnostic.sort_key)

    def count(self, severity: Severity) -> int:
        return sum(1 for d in self.diagnostics if d.severity == severity)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def exit_code(self) -> int:
        """Non-zero iff any error-severity diagnostic."""
        return 1 if self.errors else 0

    # --------------------------------------------------------- rendering
    def render_text(self) -> str:
        lines = [d.render() for d in self.sorted()]
        lines.append(
            f"{self.filename}: {self.count('error')} error(s), "
            f"{self.count('warning')} warning(s), "
            f"{self.count('note')} note(s)")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        out: dict = {
            "file": self.filename,
            "stages": list(self.stages),
            "summary": {
                "errors": self.count("error"),
                "warnings": self.count("warning"),
                "notes": self.count("note"),
            },
            "diagnostics": [d.to_dict() for d in self.sorted()],
        }
        if self.dfa_states is not None:
            out["dfa"] = {"states": self.dfa_states,
                          "transitions": self.dfa_transitions}
        if self.bounds is not None:
            out["bounds"] = self.bounds.as_dict()
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"
