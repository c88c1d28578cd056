"""Differential oracles: run one (program, script) pair on several
executable semantics and compare everything observable.

Backends and oracles:

* **VM** — the reference interpreter (:class:`repro.runtime.Program`),
  traced so :meth:`Trace.portable_signature` is available;
* **C** — the §4.4 backend compiled with ``gcc -DCEU_HOOKS``: the
  generated driver reports status/return/output on stdout and the
  portable signature (one ``==SIG``/``==EMIT`` line per reaction /
  internal emit) on stderr;
* **spec** — the executable reference semantics
  (:mod:`repro.semantics`): a pure small-step machine over the bound
  AST, sharing no scheduler machinery with the VM, compared on the
  *full* trace signature (``--oracle semantics``);
* **replay** — the VM run twice: §2.8 demands bit-identical traces,
  memory, and output;
* **bookkeeping** — after every driver call the VM's O(1) awaiting
  count must equal a full recount of its gates (a mismatch is a VM
  crash);
* **analyses** — parse/bind/§2.5 must accept every generated program,
  the §2.6 temporal analysis classifies it, and an accepted program must
  never crash the runtime.

`check_case` stacks them and returns the list of
:class:`OracleFailure` records (empty = all oracles agree).
"""

from __future__ import annotations

import re
import shutil
import subprocess
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from ..dfa import build_dfa
from ..lang import parse
from ..lang.errors import CeuError
from ..runtime.program import Program
from ..runtime.script import script_text
from ..sema import bind, check_bounded
from .gen import GenCase

Script = list  # [("E", name, value) | ("T", abs_us)]


def has_gcc() -> bool:
    """Single source of truth for gcc availability (tests and CLI)."""
    return shutil.which("gcc") is not None


# ---------------------------------------------------------------------------
# backend runs
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    """What one backend observed for one (program, script) pair."""

    backend: str                       # "vm" | "c" | "spec"
    ok: bool = True                    # the harness itself succeeded
    error: Optional[str] = None        # exception / compiler message
    done: Optional[bool] = None
    result: Optional[int] = None       # return value (when done)
    output: str = ""                   # everything _printf'ed
    signature: Optional[tuple] = None  # full VM signature (VM only)
    psig: Optional[tuple] = None       # portable cross-backend signature
    memory: Optional[dict] = None      # final memory snapshot (VM only)
    stats: Optional[dict] = None       # metrics snapshot (VM, observe=True)

    def observable(self) -> tuple:
        """The cross-backend comparison key (no-return normalises to 0)."""
        result = (self.result if self.result is not None else 0) \
            if self.done else None
        return (self.done, result, self.output, self.psig)


def _check_awaiting(program: Program, op: tuple) -> None:
    """The scheduler's O(1) awaiting count must equal the full recount
    of its gates; a mismatch is a bookkeeping bug, reported as a VM
    crash."""
    sched = program.sched
    kept, recount = sched.awaiting_count(), sched.recount_awaiting()
    if kept != recount:
        raise AssertionError(
            f"awaiting count {kept} != recount {recount} after {op!r} "
            f"(reaction {sched.reaction_count})")


def drive_vm(program: Program, script: Script) -> None:
    program.start()
    _check_awaiting(program, ("boot",))
    for item in script:
        if program.done:
            break
        if item[0] == "E":
            program.send(item[1], item[2])
        else:
            program.at(item[1])
        _check_awaiting(program, item)


def run_vm(src: str, script: Script, trace: bool = True,
           observe: bool = False,
           reverse_seeds: bool = False) -> RunResult:
    """Execute on the reference VM; any exception is the caller's bug.

    ``observe`` attaches the metrics collector and fills ``stats`` (the
    static-bounds oracle reads the high-water gauges); ``reverse_seeds``
    flips every intra-reaction seeding order the semantics leaves open
    (the schedule-independence oracle).
    """
    res = RunResult(backend="vm")
    try:
        program = Program(src, trace=trace, observe=observe,
                          reverse_seeds=reverse_seeds)
        drive_vm(program, script)
    except Exception:
        res.ok = False
        res.error = traceback.format_exc(limit=8)
        return res
    res.done = program.done
    res.result = program.result if program.done else None
    res.output = program.output()
    if trace:
        res.signature = program.trace.signature()
        res.psig = program.trace.portable_signature()
    res.memory = program.sched.memory.snapshot()
    if observe:
        res.stats = program.stats()
    return res


def run_semantics(src: str, script: Script) -> RunResult:
    """Execute on the executable reference semantics (the *spec*
    backend).  Fills the same fields as :func:`run_vm` so the two plug
    into the same comparators."""
    from ..semantics import run_script as _spec_run

    res = RunResult(backend="spec")
    try:
        machine = _spec_run(src, script)
    except Exception:
        res.ok = False
        res.error = traceback.format_exc(limit=8)
        return res
    res.done = machine.done
    res.result = machine.result if machine.done else None
    res.output = machine.output()
    res.signature = machine.signature()
    res.psig = machine.portable_signature()
    res.memory = machine.memory_snapshot()
    return res


def _parse_c_stdout(out: str) -> tuple[str, bool, int]:
    body, tail = out.rsplit("==DONE=", 1)
    done = tail.startswith("1")
    ret = int(tail.split("RET=")[1].split("==")[0])
    return body, done, ret


def _parse_c_psig(err: str) -> tuple:
    """Reassemble the portable signature from ``==SIG``/``==EMIT`` lines."""
    reactions: list[tuple[str, list[str]]] = []
    for line in err.splitlines():
        if line.startswith("==SIG "):
            reactions.append((line[len("==SIG "):].strip(), []))
        elif line.startswith("==EMIT ") and reactions:
            reactions[-1][1].append(line[len("==EMIT "):].strip())
    return tuple((trigger, tuple(emits)) for trigger, emits in reactions)


def run_c(src: str, script: Script, workdir, name: str = "prog",
          hooks: bool = True, mutate: Optional[Callable[[str], str]] = None,
          opt: str = "-O1", timeout: int = 60) -> RunResult:
    """Compile through the §4.4 backend and run the generated driver.

    ``mutate`` post-processes the generated C — the fault-injection hook
    used to prove the oracles and the shrinker catch real bugs.
    """
    from ..codegen.cemit import compile_to_c

    res = RunResult(backend="c")
    try:
        compiled = compile_to_c(bind(parse(src)), name=name)
    except CeuError as err:
        res.ok = False
        res.error = f"compile_to_c: {err}"
        return res
    code = compiled.code
    if mutate is not None:
        code = mutate(code)
    workdir = Path(workdir)
    c_path = workdir / f"{name}.c"
    c_path.write_text(code)
    exe = workdir / name
    cmd = ["gcc", opt] + (["-DCEU_HOOKS"] if hooks else []) + \
          ["-o", str(exe), str(c_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        res.ok = False
        res.error = f"gcc: {proc.stderr[:2000]}"
        return res
    try:
        run = subprocess.run([str(exe)], input=script_text(script),
                             capture_output=True, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        res.ok = False
        res.error = "generated binary timed out"
        return res
    try:
        res.output, res.done, ret = _parse_c_stdout(run.stdout)
    except (ValueError, IndexError):
        res.ok = False
        res.error = f"unparseable driver output: {run.stdout[-500:]!r}"
        return res
    res.result = ret if res.done else None
    if hooks:
        res.psig = _parse_c_psig(run.stderr)
    return res


# ---------------------------------------------------------------------------
# fault injection (to validate the pipeline end to end)
# ---------------------------------------------------------------------------

def _fault_minus_to_plus(code: str) -> str:
    """Miscompile subtraction (and timer deltas) to addition."""
    return code.replace(" - ", " + ")

def _fault_drop_emit(code: str) -> str:
    """Lose every internal-event broadcast."""
    return "\n".join(line for line in code.splitlines()
                     if not line.strip().startswith("ceu_bcast("))

def _fault_swap_join(code: str) -> str:
    """Run rejoin continuations at normal priority (§4.1 glitch)."""
    return re.sub(r"ceu_spawn\([1-9]\d*, ", "ceu_spawn(0, ", code)

FAULTS: dict[str, Callable[[str], str]] = {
    "minus-to-plus": _fault_minus_to_plus,
    "drop-emit": _fault_drop_emit,
    "flat-prio": _fault_swap_join,
}


# ---------------------------------------------------------------------------
# the oracle stack
# ---------------------------------------------------------------------------

@dataclass
class OracleFailure:
    """One oracle disagreement, with everything needed to reproduce."""

    oracle: str                 # "well-formed" | "vm-crash" | "replay"
                                # | "static-bounds" | "schedule"
                                # | "vm-vs-c" | "vm-vs-spec"
    seed: int
    src: str
    script: Script
    details: dict = field(default_factory=dict)

    def summary(self) -> str:
        keys = ", ".join(sorted(self.details))
        return f"[{self.oracle}] seed={self.seed} ({keys})"


def analyses_verdict(src: str, max_states: int = 5_000) -> str:
    """``accept`` / ``refuse`` (nondeterminism witness) / ``giveup``
    (state-space cap) for the §2.6 temporal analysis."""
    bound = bind(parse(src))
    try:
        dfa = build_dfa(bound, max_states=max_states)
    except CeuError:
        return "giveup"
    return "refuse" if dfa.conflicts else "accept"


def bounds_violations(bounds, stats: dict) -> dict:
    """Compare a run's observed high-water marks against the static
    resource bounds; returns ``{metric: {"observed", "bound"}}`` for
    every violation (empty = the bounds are sound for this run)."""
    gauges = stats.get("gauges", {})
    hists = stats.get("histograms", {})

    def hw(name: str) -> int:
        return gauges.get(name, {}).get("max", 0)

    checks = {
        "max_trails": (hw("live_trails"), bounds.max_trails),
        "max_armed_timers": (hw("armed_timers"),
                             bounds.max_armed_timers),
        "max_async_jobs": (hw("async_jobs_live"), bounds.max_async_jobs),
        "mem_slots": (hw("memory_slots"), bounds.mem_slots),
        "max_internal_emits": (hw("emits_per_reaction"),
                               bounds.max_internal_emits),
        # each nested emit pushes the §2.2 stack at most once, so the
        # per-reaction emit count also bounds the stack depth
        "emit_stack_depth": (hists.get("emit_stack_depth",
                                       {}).get("max") or 0,
                             bounds.max_internal_emits),
    }
    return {name: {"observed": observed, "bound": bound_}
            for name, (observed, bound_) in checks.items()
            if observed > bound_}


def canon_psig(psig: Optional[tuple]) -> Optional[tuple]:
    """Schedule-independent view of a portable signature: the emit *set*
    per reaction.  Concurrent trails may emit *different* internal
    events in one reaction in either order without the temporal analysis
    objecting — only the per-reaction multiset is semantics."""
    if psig is None:
        return None
    return tuple((trigger, tuple(sorted(emits)))
                 for trigger, emits in psig)


def canon_sig(sig: Optional[tuple]) -> Optional[tuple]:
    """Process-independent view of a *full* signature: ``async:N``
    triggers renumbered by first appearance.  The VM's async job counter
    is process-global (every job in a Python process gets a fresh N), so
    raw signatures of the same run differ across processes — and from
    the reference semantics, whose counter is per-machine."""
    if sig is None:
        return None
    mapping: dict[str, str] = {}
    out = []
    for trigger, steps, emits in sig:
        if trigger.startswith("async:"):
            trigger = mapping.setdefault(trigger,
                                         f"async:#{len(mapping) + 1}")
        out.append((trigger, steps, emits))
    return tuple(out)


def _diff_spec(vm: RunResult, spec: RunResult) -> dict:
    """VM ↔ reference-semantics comparison: the *full* signature (every
    step of every reaction), plus status/result/output/memory."""
    details: dict = {}
    if vm.done != spec.done:
        details["status"] = {"vm": vm.done, "spec": spec.done}
    if vm.done and spec.done and vm.result != spec.result:
        details["result"] = {"vm": vm.result, "spec": spec.result}
    if vm.output != spec.output:
        details["output"] = {"vm": vm.output, "spec": spec.output}
    a, b = canon_sig(vm.signature), canon_sig(spec.signature)
    if a is not None and b is not None and a != b:
        for i, (ra, rb) in enumerate(zip(a, b)):
            if ra != rb:
                details["signature"] = {"first_diff": i, "vm": ra,
                                        "spec": rb}
                break
        else:
            details["signature"] = {"length": {"vm": len(a),
                                               "spec": len(b)}}
    if vm.memory is not None and spec.memory is not None \
            and vm.memory != spec.memory:
        details["memory"] = {"vm": vm.memory, "spec": spec.memory}
    return details


def three_way_attribution(vm: RunResult, c: RunResult,
                          spec: RunResult) -> dict:
    """Given all three backends, vote on the portable signatures: the
    odd one out is (probably) the buggy backend.  ``odd_one_out`` is
    None when all agree, a backend name under a 2-vs-1 split, or
    ``"all"`` when no two agree."""
    pv, pc, ps = (canon_psig(vm.psig), canon_psig(c.psig),
                  canon_psig(spec.psig))
    agree = {"vm==c": pv == pc, "vm==spec": pv == ps, "c==spec": pc == ps}
    if agree["vm==c"] and agree["vm==spec"]:
        odd = None
    elif agree["vm==spec"]:
        odd = "c"
    elif agree["c==spec"]:
        odd = "vm"
    elif agree["vm==c"]:
        odd = "spec"
    else:
        odd = "all"
    return {"odd_one_out": odd, "agreement": agree}


def _diff(vm: RunResult, c: RunResult) -> dict:
    details: dict = {}
    if vm.done != c.done:
        details["status"] = {"vm": vm.done, "c": c.done}
    # a program that terminates without `return` is None on the VM but 0
    # in C (CEU_RET's initial value) — the same observable
    if (vm.done and c.done
            and (vm.result if vm.result is not None else 0) != c.result):
        details["result"] = {"vm": vm.result, "c": c.result}
    if vm.output != c.output:
        details["output"] = {"vm": vm.output, "c": c.output}
    if (vm.psig is not None and c.psig is not None
            and vm.psig != c.psig):
        for i, (a, b) in enumerate(zip(vm.psig, c.psig)):
            if a != b:
                details["psig"] = {"first_diff": i, "vm": a, "c": b}
                break
        else:
            details["psig"] = {"length": {"vm": len(vm.psig),
                                          "c": len(c.psig)}}
    return details


def check_case(case: GenCase, workdir=None, use_c: bool = True,
               mutate: Optional[Callable[[str], str]] = None,
               use_semantics: bool = False,
               stats_out: Optional[dict] = None,
               ) -> tuple[str, list[OracleFailure]]:
    """Run the full oracle stack on one case.

    Returns ``(verdict, failures)`` where ``verdict`` is the temporal
    analysis verdict ("accept"/"refuse"/"giveup"/"ill-formed").  The
    VM↔C and schedule-independence oracles only apply to accepted
    programs — the language only promises determinism for those — the
    static-bounds oracle to every program the DFA covered, and replay,
    no-crash, and (with ``use_semantics``) the VM↔spec differential to
    every well-formed program.

    ``stats_out``, when given, receives per-case coverage counters
    (``reactions`` / ``nonboot_reactions``) so the runner can reject
    trivial cases whose oracles pass vacuously.
    """
    failures: list[OracleFailure] = []

    def fail(oracle: str, **details) -> None:
        failures.append(OracleFailure(oracle=oracle, seed=case.seed,
                                      src=case.src, script=case.script,
                                      details=details))

    # 1. generated programs are well-formed by construction
    try:
        bound = bind(parse(case.src))
        check_bounded(bound)
    except CeuError as err:
        fail("well-formed", error=str(err))
        return "ill-formed", failures
    try:
        dfa = build_dfa(bound, max_states=5_000)
        verdict = "refuse" if dfa.conflicts else "accept"
    except CeuError:
        dfa = None
        verdict = "giveup"
    except Exception:
        fail("well-formed", error=traceback.format_exc(limit=8))
        return "ill-formed", failures

    # 2. the runtime never crashes on a well-formed program
    vm = run_vm(case.src, case.script)
    if stats_out is not None and vm.ok and vm.signature is not None:
        stats_out["reactions"] = len(vm.signature)
        stats_out["nonboot_reactions"] = sum(
            1 for r in vm.signature if r[0] != "boot")
    if not vm.ok:
        # a crashing program must crash the spec identically
        if use_semantics:
            spec = run_semantics(case.src, case.script)
            if spec.ok:
                fail("vm-vs-spec", error="VM crashed, spec did not",
                     vm_error=vm.error)
        fail("vm-crash", error=vm.error, verdict=verdict)
        return verdict, failures

    # 3. §2.8 replay determinism: same inputs, bit-identical behaviour
    #    (the replay run carries the metrics collector for oracle 4 —
    #    observation is passive and must not perturb the signature)
    vm2 = run_vm(case.src, case.script, observe=True)
    if not vm2.ok:
        fail("vm-crash", error=vm2.error, verdict=verdict, replay=True)
        return verdict, failures
    if (vm.signature != vm2.signature or vm.output != vm2.output
            or vm.result != vm2.result or vm.done != vm2.done
            or vm.memory != vm2.memory):
        fail("replay", first={"output": vm.output, "result": vm.result},
             second={"output": vm2.output, "result": vm2.result})

    # 4. static resource bounds dominate the observed high-water marks
    #    (sound for accepted AND refused programs: the DFA still covers
    #    every path, it merely also found a conflict)
    if dfa is not None and vm2.stats is not None:
        from ..analysis.bounds import compute_bounds

        bounds = compute_bounds(bound, dfa)
        violations = bounds_violations(bounds, vm2.stats)
        if violations:
            fail("static-bounds", violations=violations,
                 bounds=bounds.as_dict(), verdict=verdict)

    # 5. schedule independence: a statically-clean program must behave
    #    identically under every seeding order the semantics leaves open
    if verdict == "accept":
        vmr = run_vm(case.src, case.script, reverse_seeds=True)
        if not vmr.ok:
            fail("schedule", error=vmr.error, reverse_seeds=True)
        elif (vm.done != vmr.done or vm.result != vmr.result
                or vm.output != vmr.output or vm.memory != vmr.memory
                or canon_psig(vm.psig) != canon_psig(vmr.psig)):
            fail("schedule",
                 forward={"output": vm.output, "result": vm.result,
                          "psig": vm.psig},
                 reversed={"output": vmr.output, "result": vmr.result,
                           "psig": vmr.psig})

    # 6. VM ↔ spec: the executable reference semantics must reproduce
    #    the VM's *full* trace on every well-formed program (both are
    #    sequential and canonical, so this holds for refused programs
    #    too — determinism of each implementation, not of the language)
    spec = None
    if use_semantics:
        spec = run_semantics(case.src, case.script)
        if not spec.ok:
            fail("vm-vs-spec", error=spec.error)
            spec = None
        else:
            details = _diff_spec(vm, spec)
            if details:
                fail("vm-vs-spec", **details)

    # 7. VM ↔ C differential (accepted programs, gcc available), with
    #    three-way odd-one-out attribution when the spec also ran
    if use_c and verdict == "accept" and has_gcc() and workdir is not None:
        c = run_c(case.src, case.script, workdir,
                  name=f"fz{case.seed}", mutate=mutate)
        if not c.ok:
            fail("vm-vs-c", error=c.error)
        else:
            details = _diff(vm, c)
            if spec is not None and (details or any(
                    f.oracle == "vm-vs-spec" for f in failures)):
                attribution = three_way_attribution(vm, c, spec)
                if details:
                    details["three_way"] = attribution
                for f in failures:
                    if f.oracle == "vm-vs-spec":
                        f.details.setdefault("three_way", attribution)
            if details:
                fail("vm-vs-c", **details)
    return verdict, failures
