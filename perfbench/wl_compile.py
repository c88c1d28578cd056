"""``compile``: the front end and analysis do all the work.

A closed loop with one client takes every program of the suite through
``run_analysis`` (what ``repro check`` and lint run) and through
parse → bind → §2.5 bounded check → flow graph → ``compile_to_c`` (what
``repro c`` and ``repro dot`` run).  Between the compile steps it
applies one-line edits through ``IncrementalAnalyzer`` (the LSP
keystroke path) and runs cold ``python -m repro check <app>``
subprocesses one at a time.

The suite is fixed: generator seeds 0..7 of each fuzz profile plus the
10 frozen corpus programs.  Its cost is heavy-tailed (a few programs
with large DFAs or witness verification take seconds), so a seeded
draw of this size would move the mean by ~45% and p90 by ~90% between
seeds.  The run seed picks the compile order, the edit sites, the CLI
order and the gcc-checked subset.
"""

from __future__ import annotations

import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

from harness import e2e_timings, pct

PROFILES = ("diff", "deep", "emit", "timer", "prio")
GEN_SEEDS = range(8)
#: generated programs that also get edits (plus every corpus program)
EDIT_GEN_SEEDS = range(1)
#: front-end errors a generated program can never have: it is
#: well-formed by construction
FRONT_END_ERRORS = ("CEU-E001", "CEU-E002", "CEU-E003", "CEU-E101")
#: apps that are whole programs (mario_game.ceu is a fragment that
#: needs its host's declarations)
CLI_APPS = ("blink", "blink2", "client", "multihop", "ring", "sense",
            "server", "ship")
CLI_PER_ROUND = 4
MIN_ROUNDS = 2
GCC_CHECKS = 2


@dataclass
class Prog:
    name: str
    filename: str
    src: str
    golden: str | None = None          # corpus: expected report JSON
    script: list | None = None         # generated: its event script
    edits: list = field(default_factory=list)


def _comment_edit(src: str, rng: random.Random) -> str:
    lines = src.splitlines(keepends=True)
    at = rng.randrange(len(lines) + 1)
    return "".join(lines[:at]) + "// edit\n" + "".join(lines[at:])


def _literal_edit(src: str, rng: random.Random) -> str:
    """Bump one integer literal outside comments by 1..9."""
    sites = [m for m in re.finditer(r"\b(\d+)\b", src)
             if "//" not in src[:m.start()].rsplit("\n", 1)[-1]]
    if not sites:
        return _comment_edit(src, rng)
    m = rng.choice(sites)
    return (src[:m.start(1)] + str(int(m.group(1)) + rng.randint(1, 9))
            + src[m.end(1):])


def setup(ctx) -> SimpleNamespace:
    from repro.analysis import IncrementalAnalyzer
    from repro.fuzz.gen import PROFILES as GEN_PROFILES, generate_case

    rng = random.Random(ctx.seed)
    progs = []
    for profile in PROFILES:
        for seed in GEN_SEEDS:
            case = generate_case(seed, GEN_PROFILES[profile], profile)
            progs.append(Prog(f"{profile}_{seed:03d}",
                              f"gen/{profile}_{seed:03d}.ceu", case.src,
                              script=case.script))
    corpus = ctx.root / "tests" / "corpus"
    goldens = ctx.root / "tests" / "goldens"
    for path in sorted(corpus.glob("*.ceu")):
        progs.append(Prog(path.stem, f"corpus/{path.name}",
                          path.read_text(),
                          golden=(goldens / f"corpus_{path.stem}.json")
                          .read_text()))
    for prog in progs:
        if prog.golden is not None or any(
                prog.name == f"{p}_{s:03d}"
                for p in PROFILES for s in EDIT_GEN_SEEDS):
            prog.edits = [_comment_edit(prog.src, rng),
                          _literal_edit(prog.src, rng)]
    order = list(progs)
    rng.shuffle(order)
    apps = [ctx.root / "src" / "repro" / "apps" / "ceu" / f"{a}.ceu"
            for a in CLI_APPS]
    rng.shuffle(apps)
    generated = [p for p in progs if p.script is not None]
    # opening a document in the editor: one cold analysis each
    analyzers = {}
    for prog in progs:
        if prog.edits:
            analyzers[prog.name] = IncrementalAnalyzer(
                filename=prog.filename)
            analyzers[prog.name].analyze(prog.src)
    return SimpleNamespace(progs=order, apps=apps, analyzers=analyzers,
                           gcc=rng.sample(generated, GCC_CHECKS))


def _stages():
    """The repo functions one compile step calls, looked up through one
    namespace so the traced run can wrap each of them."""
    from repro.analysis import run_analysis
    from repro.codegen import compile_to_c
    from repro.flow import build_flow
    from repro.lang import parse
    from repro.sema import bind, check_bounded

    return SimpleNamespace(run_analysis=run_analysis, parse=parse,
                           bind=bind, check_bounded=check_bounded,
                           build_flow=build_flow, compile_to_c=compile_to_c)


class Runner:
    """Per-run state: samples and failures."""

    def __init__(self, ctx, state):
        self.ctx = ctx
        self.state = state
        self.S = _stages()
        # (start, seconds) samples
        self.compile_s: list[tuple] = []
        self.edit_s: list[tuple] = []
        self.cli_s: list[tuple] = []
        self.c_bytes = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.conflicting = 0
        self.rounds = 0
        self.edit_analyses = 0
        self.edit_full_runs = 0
        self.cold_edits: dict[tuple, str] = {}

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    # ---------------------------------------------------------- one step
    def compile_one(self, prog: Prog):
        S = self.S
        start = time.perf_counter()
        report = S.run_analysis(prog.src, prog.filename)
        bound = S.bind(S.parse(prog.src, prog.filename))
        S.check_bounded(bound)
        S.build_flow(bound)
        code = S.compile_to_c(bound, name=prog.name).code
        return (start, time.perf_counter() - start), report, code

    def check_compile(self, prog: Prog, report, code: str) -> None:
        self.attempted += 1
        if prog.golden is not None:
            expected = prog.golden
            if self.ctx.corrupt:
                expected = expected.replace('"errors": 0', '"errors": 9')
            if report.to_json() != expected:
                self._fail(f"{prog.filename}: report differs from golden")
        else:
            bad = [d.code for d in report.diagnostics
                   if d.code in FRONT_END_ERRORS]
            if bad or not code:
                self._fail(f"{prog.filename}: front-end errors {bad}")

    def edit_one(self, prog: Prog, k: int, edited: str) -> None:
        analyzer = self.state.analyzers[prog.name]
        before = analyzer.stats["full_runs"]
        start = time.perf_counter()
        report = analyzer.analyze(edited)
        self.edit_s.append((start, time.perf_counter() - start))
        self.edit_analyses += 1
        self.edit_full_runs += analyzer.stats["full_runs"] - before
        self.attempted += 1
        got = report.to_json()
        analyzer.analyze(prog.src)               # back to the original
        key = (prog.name, k)
        if key not in self.cold_edits:
            self.cold_edits[key] = self.S.run_analysis(
                edited, prog.filename).to_json()
        expected = self.cold_edits[key]
        if self.ctx.corrupt:
            expected += " "
        if got != expected:
            self._fail(f"{prog.filename}: edit {k} differs from cold run")

    def cli_one(self, app, cal) -> None:
        proc, sample = cal.run_cli(("check", app), self.ctx)
        self.cli_s.append(sample)
        self.attempted += 1
        verdict = "nondeterministic" if self.ctx.corrupt else "deterministic"
        if proc.returncode != 0 or f": {verdict}" not in proc.stdout:
            self._fail(f"repro check {app.name}: exit {proc.returncode}")

    # ------------------------------------------------------------- round
    def round(self, cal, with_cli: bool = True) -> None:
        """One pass over the suite, with every edit and (``with_cli``)
        ``CLI_PER_ROUND`` CLI checks spread evenly between the compile
        steps, so each kind of sample sees the host over the whole round
        rather than in one burst."""
        first = self.rounds == 0
        progs = self.state.progs
        edits = [(prog, k, edited) for prog in progs
                 for k, edited in enumerate(prog.edits)]
        apps = []
        if with_cli:
            lo = (self.rounds * CLI_PER_ROUND) % len(self.state.apps)
            apps = (self.state.apps * 2)[lo:lo + CLI_PER_ROUND]
        n = len(progs)
        for i, prog in enumerate(progs):
            cal.maybe()
            sample, report, code = self.compile_one(prog)
            self.compile_s.append(sample)
            self.check_compile(prog, report, code)
            if first:
                self.c_bytes += len(code)
                self.conflicting += any(d.code.startswith("CEU-E2")
                                        for d in report.diagnostics)
            for edit in edits[i * len(edits) // n:(i + 1) * len(edits) // n]:
                cal.maybe()
                self.edit_one(*edit)
            for app in apps[i * len(apps) // n:(i + 1) * len(apps) // n]:
                self.cli_one(app, cal)
        self.rounds += 1

    def gcc_checks(self) -> dict:
        """C output built with gcc and run on the program's script must
        match the reference semantics; skipped (not passed) without gcc."""
        import shutil

        if shutil.which("gcc") is None:
            return {"gcc": "skipped: gcc not found"}
        from repro.fuzz.oracles import run_c
        from repro.semantics import run_script

        ran = 0
        for prog in self.state.gcc:
            c = run_c(prog.src, prog.script, self.ctx.workdir,
                      name=prog.name)
            spec = run_script(prog.src, prog.script)
            want = (spec.done, (spec.result or 0) if spec.done else None,
                    spec.output(), spec.portable_signature())
            if self.ctx.corrupt:
                want = (want[0], want[1], want[2] + "x", want[3])
            self.attempted += 1
            ran += 1
            if not c.ok or c.observable() != want:
                self._fail(f"{prog.filename}: C run differs from spec "
                           f"({c.error or 'observables'})")
        return {"gcc": f"ran {ran}"}


def measure(ctx, state, seconds: float, cal) -> dict:
    cal.run_cli(("check", state.apps[0]), ctx)  # warm bytecode caches
    run = Runner(ctx, state)
    start = time.perf_counter()
    while run.rounds < MIN_ROUNDS:
        run.round(cal)
    while True:
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / run.rounds > seconds:
            break
        run.round(cal)
    extra = run.gcc_checks()
    n = len(state.progs)
    e2e, raw = e2e_timings(cal, len(run.compile_s), run.compile_s,
                           run.compile_s, run.edit_s, run.cli_s)
    return {
        "e2e": dict(e2e, c_bytes=run.c_bytes),
        "raw": raw,
        "samples": {"latency": len(run.compile_s),
                    "aux": len(run.edit_s), "cli": len(run.cli_s)},
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "checks": extra,
        "props": {
            "programs": n,
            "rounds": run.rounds,
            "conflicting_share": run.conflicting / n,
            "edits_per_round": sum(len(p.edits) for p in state.progs),
        },
    }


# ------------------------------------------------------------------ trace
def install_spans(tracer, S) -> None:
    """Spans around each front-end stage's entry points (see layers in
    ``map.json``); counts are taken outside the span."""
    import repro.analysis.engine as engine
    import repro.analysis.incremental as incremental
    import repro.analysis.passes as passes
    import repro.lang.parser as parser

    tracer.wrap(parser, "tokenize", "lang.lexer",
                lambda toks: {"lang.lexer.tokens": len(toks)})
    tracer.wrap(parser.Parser, "parse_program", "lang.parser",
                lambda prog: {"lang.parser.nodes":
                              sum(1 for _ in prog.walk())})
    for owner in (engine, incremental, S):
        tracer.wrap(owner, "bind", "sema")
    tracer.wrap(S, "check_bounded", "sema")
    tracer.wrap(passes, "analyze_bounded", "sema")
    tracer.wrap(S, "build_flow", "flow",
                lambda graph: {"flow.nodes": len(graph.nodes)})
    tracer.wrap(engine, "build_dfa", "dfa",
                lambda dfa: {"dfa.states": dfa.state_count()})
    for name in ("bounded_pass", "liveness_pass", "conflict_pass",
                 "stuck_pass", "bounds_pass"):
        tracer.wrap(engine, name, "analysis.passes")
    for name in ("bounds_pass", "liveness_pass"):
        tracer.wrap(incremental, name, "analysis.passes")
    tracer.wrap(passes, "realize", "analysis.witness",
                lambda w: {"analysis.witness.count": 1,
                           "analysis.witness.verified": int(
                               w.verified is True)})
    tracer.wrap(incremental.IncrementalAnalyzer, "analyze",
                "analysis.incremental")
    tracer.wrap(S, "compile_to_c", "codegen",
                lambda c: {"codegen.c_bytes": len(c.code)})


def import_times(ctx) -> dict:
    """``-X importtime`` cumulative microseconds of the CLI and runtime
    packages in a fresh interpreter (median of three)."""
    samples: dict[str, list] = {"repro.cli": [], "repro.runtime": []}
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
            cwd=ctx.root, env=ctx.env, capture_output=True, text=True,
            timeout=120)
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in samples:
                samples[parts[2]].append(int(parts[1]))
    return {f"{'cli' if k == 'repro.cli' else 'runtime'}.import_ms":
            pct(v, 50) / 1e3 for k, v in samples.items() if v}


def unit(ctx, state, cal) -> SimpleNamespace:
    """One suite round without the CLI, for the traced comparisons."""
    run = Runner(ctx, state)
    for prog in state.progs:        # cold references outside the work
        for k, edited in enumerate(prog.edits):
            run.cold_edits[(prog.name, k)] = run.S.run_analysis(
                edited, prog.filename).to_json()

    def extras() -> dict:
        return {
            "analysis.incremental.hit_ratio":
                1.0 - run.edit_full_runs / run.edit_analyses,
            "workload.conflicting_share":
                run.conflicting / len(state.progs),
            **import_times(ctx),
        }

    def work() -> float:
        start = time.perf_counter()
        run.round(cal, with_cli=False)
        return time.perf_counter() - start

    return SimpleNamespace(
        work=work, close=lambda: None,
        extras=extras, verify=lambda: (run.attempted, run.failed,
                                       run.failures),
        install=lambda tracer: install_spans(tracer, run.S))
