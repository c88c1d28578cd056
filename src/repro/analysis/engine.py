"""The analysis driver: front end + pass pipeline → Report.

Unlike the compiling entry points (:func:`repro.core.analyze`), the
engine never raises on program defects: front-end failures become
CEU-E001/E002/E003 diagnostics, analysis-budget blow-ups become
CEU-W401, and every pass that can still run does.
"""

from __future__ import annotations

from typing import Optional

from ..dfa import build_dfa
from ..lang.ast import renumber
from ..lang.errors import (AnalysisBudgetExceeded, AsyncError, BindError,
                           CeuError, LexError, ParseError)
from ..lang.parser import parse
from ..sema import bind
from .diagnostics import Report
from .passes import (bounded_pass, bounds_pass, conflict_pass,
                     liveness_pass, stuck_pass)


def _front_end_code(err: CeuError) -> str:
    if isinstance(err, (LexError, ParseError)):
        return "CEU-E001"
    if isinstance(err, AsyncError):
        return "CEU-E003"
    if isinstance(err, BindError):
        return "CEU-E002"
    return "CEU-E002"


def front_end_error(report: Report, err: CeuError) -> None:
    """Record a lex/parse/bind failure as its CEU-E00x diagnostic."""
    report.add(_front_end_code(err), f"{err.kind}: {err.message}",
               err.span)


def dfa_stage(source: str, bound, report: Report,
              max_states: int = 20_000, witnesses: bool = True,
              verify_witnesses: bool = True) -> Optional[tuple]:
    """Build the temporal DFA and run the whole-program passes over it.

    Returns ``(dfa, conflict_entries, stuck_entries)`` — the entries are
    the structured findings each pass emitted, which the incremental
    analyzer memoizes for replay — or ``None`` when the state budget was
    exceeded (a CEU-W401 diagnostic has been reported instead).
    """
    try:
        dfa = build_dfa(bound, max_states=max_states)
    except AnalysisBudgetExceeded as err:
        report.add("CEU-W401",
                   f"{err.message} — conflict/deadlock/bounds results "
                   f"are unavailable for this program", err.span)
        return None
    report.stages.append("dfa")
    report.dfa_states = dfa.state_count()
    report.dfa_transitions = dfa.transition_count()

    conflict_entries = conflict_pass(source, bound, dfa, report,
                                     witnesses=witnesses,
                                     verify=verify_witnesses)
    stuck_entries = stuck_pass(bound, dfa, report)
    bounds_pass(bound, dfa, report)
    return dfa, conflict_entries, stuck_entries


def run_analysis(source: str, filename: str = "<ceu>",
                 max_states: int = 20_000, witnesses: bool = True,
                 verify_witnesses: bool = True) -> Report:
    """Run the full pass pipeline over one source buffer."""
    report = Report(filename=filename)

    try:
        program = parse(source, filename)
    except CeuError as err:
        front_end_error(report, err)
        return report
    renumber(program)
    report.stages.append("parse")

    try:
        bound = bind(program)
    except CeuError as err:
        front_end_error(report, err)
        return report
    report.stages.append("bind")
    report.bound = bound

    tight_loops = bounded_pass(bound, report)
    liveness_pass(bound, report)

    if tight_loops:
        # the abstract machine would not terminate on a tight loop; the
        # DFA passes only run on bounded programs
        return report

    dfa_stage(source, bound, report, max_states=max_states,
              witnesses=witnesses, verify_witnesses=verify_witnesses)
    return report
