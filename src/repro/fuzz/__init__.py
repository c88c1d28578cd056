"""Conformance fuzzing: seeded program generation, differential oracles
(VM ↔ C ↔ spec ↔ replay), and a delta-debugging shrinker
(docs/FUZZING.md).

The subsystem turns the repo's three executable semantics — the
reference VM, the §4.4 C backend, and the executable reference
semantics (:mod:`repro.semantics`) — into each other's oracles, the way
Esterel-family compilers are validated when a verified chain is out of
reach.  Entry points:

* :func:`repro.fuzz.gen.generate_case` — one seeded (program, script);
* :class:`repro.fuzz.runner.FuzzRunner` — drive N cases through the
  oracle stack, shrink failures, emit a JSONL report;
* ``python -m repro fuzz`` — the CLI front end.

Public names resolve on first access, except :func:`shrink`.  It shares
its name with the :mod:`repro.fuzz.shrink` submodule, and importing a
submodule for the first time binds the module on the package, so the
function is bound here before anything can import that submodule.
"""

from .._lazy import lazy_exports
from .shrink import shrink

_EXPORTS = {
    ".gen": ("CORPUS_PROFILES", "DIFF", "PRIO", "PROFILES", "GenCase",
             "GenConfig", "ProgramGen", "generate_case", "relay_program"),
    "..runtime.script": ("parse_script_text", "script_text"),
    ".mutate": ("INTERESTING", "ScriptMutator"),
    ".oracles": ("FAULTS", "OracleFailure", "RunResult",
                 "bounds_violations", "canon_psig", "canon_sig",
                 "check_case", "has_gcc", "run_c", "run_semantics",
                 "run_vm", "three_way_attribution"),
    ".runner": ("FuzzRunner", "FuzzStats"),
    ".shrink": ("ShrinkResult", "causal_cone_script", "shrink",
                "shrink_script"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
