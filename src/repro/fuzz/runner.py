"""The fuzz campaign driver behind ``python -m repro fuzz``.

Generates seeded cases, stacks the oracles of
:mod:`repro.fuzz.oracles` on each, optionally shrinks every failure to
a minimal reproducer, and reports through the observability JSONL
exporter (one record per case/failure plus a summary — the same
format as ``repro run --trace-jsonl``, see docs/OBSERVABILITY.md).

Two seed-scheduling modes:

* **random** (default) — every case is a fresh draw: a generated
  (program, script) pair, or in *target* mode a fresh random script
  against a fixed program.
* **coverage-guided** (``guided=True``) — every case is additionally run
  under the hook-bus coverage subscribers
  (:class:`repro.obs.CoverageMap`, and :class:`repro.obs.DfaEdgeCoverage`
  in target mode).  Cases that light coverage bits nobody has lit before
  enter a bounded corpus; subsequent cases are drawn preferentially by
  mutating corpus scripts (:class:`repro.fuzz.mutate.ScriptMutator`),
  energy-weighted toward entries that found a lot and have been
  exploited little — the AFL loop, over event scripts.  Every coverage
  gain is recorded as a ``fuzz_cov`` JSONL record, so a campaign report
  carries its own coverage-growth curve.
"""

from __future__ import annotations

import random
import sys
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..dfa import build_dfa
from ..lang import parse
from ..obs.coverage import collect_coverage
from ..obs.export import JsonlExporter
from ..runtime.program import Program
from ..runtime.script import script_text
from ..sema import bind
from .gen import DIFF, GenCase, GenConfig, generate_case
from .mutate import ScriptMutator
from .oracles import FAULTS, OracleFailure, check_case, has_gcc, run_c, \
    run_semantics, run_vm
from .shrink import ShrinkResult, shrink


@dataclass
class FuzzStats:
    cases: int = 0
    accepted: int = 0
    refused: int = 0
    giveup: int = 0
    c_diffed: int = 0
    spec_diffed: int = 0          # cases also run on the reference semantics
    trivial: int = 0              # cases rejected: no reaction beyond boot
    mutated: int = 0              # cases drawn by corpus mutation
    coverage_total: int = 0       # unique coverage ids lit so far
    corpus_size: int = 0
    failures: list[OracleFailure] = field(default_factory=list)
    shrunk: list[ShrinkResult] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.failures


@dataclass
class _CorpusEntry:
    case: GenCase
    new: int        # coverage ids this entry lit first
    hits: int = 0   # times it has been picked for mutation

    @property
    def energy(self) -> float:
        return self.new / (1.0 + self.hits)


class FuzzRunner:
    """One fuzz campaign: ``FuzzRunner(seed=0).run(n=200)``.

    ``target`` fixes the program under test to the given source text
    (scripts become the input space); ``guided`` turns on coverage-guided
    seed scheduling (see module docstring).  Coverage is measured
    whenever either is set, so guided and random campaigns over the same
    target are directly comparable via ``stats.coverage_total``.
    """

    def __init__(self, seed: int = 0, config: GenConfig = DIFF,
                 use_c: bool = True, fault: Optional[str] = None,
                 do_shrink: bool = False, report: Optional[str] = None,
                 profile: str = "diff",
                 guided: bool = False, target: Optional[str] = None,
                 corpus_max: int = 64, mutate_ratio: float = 0.75,
                 artifact_dir: Optional[str] = None,
                 use_semantics: bool = False,
                 max_trivial_retries: int = 3,
                 log: Callable[[str], None] = lambda msg: print(
                     msg, file=sys.stderr)):
        self.seed = seed
        self.config = config
        self.profile = profile
        self.use_c = use_c and has_gcc()
        self.use_semantics = use_semantics
        self.max_trivial_retries = max_trivial_retries
        self.mutate = FAULTS[fault] if fault else None
        self.do_shrink = do_shrink
        self.report_path = report
        self.artifact_dir = artifact_dir
        self.log = log
        self.stats = FuzzStats()
        self.exporter = JsonlExporter()
        # --- coverage-guided scheduling state ---
        self.guided = guided
        self.target = target
        self.corpus_max = corpus_max
        self.mutate_ratio = mutate_ratio
        self.rng = random.Random((seed << 1) ^ 0x5EED)
        self.mutator = ScriptMutator(self.rng)
        self.coverage: set[int] = set()
        self.corpus: list[_CorpusEntry] = []
        self.target_dfa = None
        if target is not None:
            bound = bind(parse(target))
            events = tuple(e.name for e in bound.input_events()) \
                or self.mutator.events
            self.mutator = ScriptMutator(self.rng, events=events)
            try:
                self.target_dfa = build_dfa(bound)
            except Exception:
                self.target_dfa = None   # stmt/edge coverage still works

    # ------------------------------------------------------------- records
    def _record(self, ev: str, **fields) -> None:
        rec = {"ev": ev, "seq": len(self.exporter.records)}
        rec.update(fields)
        self.exporter.records.append(rec)

    # ------------------------------------------------------------ campaign
    def run(self, n: Optional[int] = None,
            minutes: Optional[float] = None) -> FuzzStats:
        """Fuzz until ``n`` cases are done or ``minutes`` have elapsed
        (whichever comes first; either may be None for "no cap" — at
        least one must be set)."""
        if n is None and minutes is None:
            raise ValueError("need a case count or a time budget")
        deadline = (time.monotonic() + minutes * 60
                    if minutes is not None else None)
        if not self.use_c:
            self._record("fuzz_config", note="C oracle disabled "
                         "(gcc unavailable or --no-c)")
        if self.guided or self.target is not None:
            self._record("fuzz_config", guided=self.guided,
                         target=self.target is not None,
                         dfa_edges=(len(self.target_dfa.edges)
                                    if self.target_dfa else 0))
        with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as tmp:
            seed = self.seed
            while True:
                if n is not None and self.stats.cases >= n:
                    break
                if deadline is not None and time.monotonic() >= deadline:
                    break
                self._one_case(self._next_case(seed), tmp)
                seed += 1
        self._record("fuzz_summary", cases=self.stats.cases,
                     accepted=self.stats.accepted,
                     refused=self.stats.refused,
                     giveup=self.stats.giveup,
                     c_diffed=self.stats.c_diffed,
                     spec_diffed=self.stats.spec_diffed,
                     trivial=self.stats.trivial,
                     failures=len(self.stats.failures),
                     gcc=self.use_c,
                     semantics=self.use_semantics,
                     guided=self.guided,
                     mutated=self.stats.mutated,
                     coverage=self.stats.coverage_total,
                     corpus=self.stats.corpus_size)
        if self.report_path:
            self.exporter.write(self.report_path)
            self.log(f"wrote {self.report_path}: "
                     f"{len(self.exporter.records)} records")
        self.log(self.summary())
        return self.stats

    # ------------------------------------------------------ seed scheduling
    def _next_case(self, seed: int) -> GenCase:
        """The seed scheduler: corpus mutation when guided (and the dice
        say exploit), a fresh draw otherwise."""
        if (self.guided and self.corpus
                and self.rng.random() < self.mutate_ratio):
            entry = self._pick_corpus()
            entry.hits += 1
            donor = self.rng.choice(self.corpus).case.script \
                if len(self.corpus) > 1 else None
            script = self.mutator.mutate(entry.case.script, donor=donor)
            self.stats.mutated += 1
            return GenCase(seed=seed, src=entry.case.src, script=script,
                           profile="mutant")
        if self.target is not None:
            script = self.mutator.random_script(
                rounds=self.rng.randrange(4, 12))
            return GenCase(seed=seed, src=self.target, script=script,
                           profile="target")
        return generate_case(seed, self.config, self.profile)

    def _pick_corpus(self) -> _CorpusEntry:
        """Energy-weighted corpus pick: prefer entries that found much
        new coverage and have been mutated little."""
        weights = [entry.energy + 0.01 for entry in self.corpus]
        return self.rng.choices(self.corpus, weights=weights)[0]

    def _coverage_of(self, case: GenCase) -> Optional[set[int]]:
        """One extra instrumented VM run; feature ids are namespaced per
        program so generated-program campaigns don't conflate line 7 of
        two different programs."""
        context = "" if self.target is not None \
            else str(zlib.crc32(case.src.encode()))
        return collect_coverage(Program, case.src, case.script,
                                dfa=self.target_dfa, context=context)

    def _observe_coverage(self, case: GenCase) -> None:
        ids = self._coverage_of(case)
        if ids is None:
            return
        new = ids - self.coverage
        if not new:
            return
        self.coverage |= new
        self.stats.coverage_total = len(self.coverage)
        self._record("fuzz_cov", case=self.stats.cases,
                     new=len(new), total=len(self.coverage),
                     corpus=len(self.corpus))
        if self.guided:
            self.corpus.append(_CorpusEntry(case=case, new=len(new)))
            if len(self.corpus) > self.corpus_max:
                self.corpus.remove(
                    min(self.corpus, key=lambda entry: entry.energy))
            self.stats.corpus_size = len(self.corpus)

    # --------------------------------------------------------------- cases
    def _one_case(self, case: GenCase, tmp: str, retry: int = 0) -> None:
        self.stats.cases += 1
        coverage: dict = {}
        verdict, failures = check_case(case, workdir=tmp,
                                       use_c=self.use_c,
                                       mutate=self.mutate,
                                       use_semantics=self.use_semantics,
                                       stats_out=coverage)
        if verdict == "accept":
            self.stats.accepted += 1
            if self.use_c:
                self.stats.c_diffed += 1
        elif verdict == "refuse":
            self.stats.refused += 1
        elif verdict == "giveup":
            self.stats.giveup += 1
        if self.use_semantics and verdict != "ill-formed":
            self.stats.spec_diffed += 1
        if self.guided or self.target is not None:
            self._observe_coverage(case)
        # non-trivial coverage: a case whose whole life is the boot
        # reaction exercises no oracle — every differential comparison
        # passes vacuously.  Reject it and re-roll a replacement.
        trivial = (not failures
                   and coverage.get("nonboot_reactions") == 0)
        self._record("fuzz_case", seed=case.seed, verdict=verdict,
                     src_lines=case.src_lines(),
                     script_len=len(case.script),
                     reactions=coverage.get("reactions"),
                     trivial=trivial,
                     ok=not failures)
        if trivial:
            self.stats.trivial += 1
            if retry < self.max_trivial_retries:
                self._one_case(self._reroll(case, retry + 1), tmp,
                               retry + 1)
            return
        for failure in failures:
            self.stats.failures.append(failure)
            self.log(f"FAIL {failure.summary()}")
            shrunk = None
            if self.do_shrink:
                shrunk = self._shrink_failure(failure)
            self._record("fuzz_failure", seed=failure.seed,
                         oracle=failure.oracle, details=failure.details,
                         src=failure.src,
                         script=script_text(failure.script),
                         shrunk_src=shrunk.src if shrunk else None,
                         shrunk_script=(script_text(shrunk.script)
                                        if shrunk else None))
            if self.artifact_dir:
                self._write_artifacts(failure, shrunk)

    def _reroll(self, case: GenCase, retry: int) -> GenCase:
        """A replacement draw for a trivial case.  Fixed-program modes
        get a fresh random script; generated modes a re-salted seed."""
        if self.target is not None or case.profile in ("target", "mutant"):
            script = self.mutator.random_script(
                rounds=self.rng.randrange(4, 12))
            return GenCase(seed=case.seed, src=case.src, script=script,
                           profile=case.profile)
        return generate_case(case.seed * 1_000_003 + retry, self.config,
                             self.profile)

    # ------------------------------------------------------------ shrinking
    def _shrink_failure(self, failure: OracleFailure) -> ShrinkResult:
        """Re-runs the failing oracle as the shrink predicate."""
        oracle = failure.oracle

        def predicate(src: str, script: list) -> bool:
            case = GenCase(seed=failure.seed, src=src, script=list(script))
            with tempfile.TemporaryDirectory(prefix="repro-shrink-") as t:
                _verdict, fails = check_case(
                    case, workdir=t, use_c=self.use_c,
                    mutate=self.mutate,
                    use_semantics=self.use_semantics)
            return any(f.oracle == oracle for f in fails)

        result = shrink(failure.src, failure.script, predicate)
        self.stats.shrunk.append(result)
        self.log(f"shrunk seed={failure.seed}: "
                 f"{len(failure.src.splitlines())} -> "
                 f"{result.src_lines()} lines, "
                 f"{len(failure.script)} -> {len(result.script)} events "
                 f"({result.tests} predicate calls)")
        self.log("--- reproducer ---\n" + result.src)
        self.log("--- script ---\n" + script_text(result.script))
        return result

    # ------------------------------------------------------------ artifacts
    def _write_artifacts(self, failure: OracleFailure,
                         shrunk: Optional[ShrinkResult]) -> None:
        """Persist one failure for CI upload: the (shrunk, if available)
        reproducer source + script, and a Perfetto trace with causal
        flow arrows from an instrumented VM replay."""
        import os

        from ..obs.export import ChromeTraceExporter

        src = shrunk.src if shrunk else failure.src
        script = list(shrunk.script) if shrunk else list(failure.script)
        os.makedirs(self.artifact_dir, exist_ok=True)
        stem = os.path.join(self.artifact_dir,
                            f"repro_{failure.seed}_{failure.oracle}")
        with open(stem + ".ceu", "w") as fh:
            fh.write(src if src.endswith("\n") else src + "\n")
        with open(stem + ".script", "w") as fh:
            fh.write(script_text(script))
        try:
            program = Program(src)
            chrome = program.observe(
                ChromeTraceExporter(flows_from=program.hooks))
            try:
                program.start()
                for item in script:
                    if program.done:
                        break
                    if item[0] == "E":
                        program.send(item[1], item[2])
                    else:
                        program.at(item[1])
            except Exception:
                pass  # a crashing replay still yields a useful trace
            chrome.write(stem + ".trace.json")
        except Exception as err:
            with open(stem + ".trace.err", "w") as fh:
                fh.write(f"trace replay unavailable: {err}\n")
        self.log(f"artifacts: {stem}.{{ceu,script,trace.json}}")

    # -------------------------------------------------------------- report
    def summary(self) -> str:
        s = self.stats
        backend = "VM+C" if self.use_c else "VM"
        if self.use_semantics:
            backend += "+spec"
        elif not self.use_c:
            backend = "VM only"
        line = (f"fuzz: {s.cases} cases ({backend}) — "
                f"{s.accepted} accepted, {s.refused} refused, "
                f"{s.giveup} gave up, {s.c_diffed} C-diffed, "
                f"{len(s.failures)} failure(s)")
        if self.use_semantics:
            line += f"; {s.spec_diffed} spec-diffed"
        if s.trivial:
            line += f"; {s.trivial} trivial rejected"
        if self.guided or self.target is not None:
            line += (f"; coverage {s.coverage_total} ids, "
                     f"corpus {s.corpus_size}, {s.mutated} mutants")
        return line


__all__ = ["FuzzRunner", "FuzzStats", "run_vm", "run_c", "run_semantics"]
