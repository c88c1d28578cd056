"""``react`` and ``idle``: one VM driven by a closed loop of one caller.

Each episode boots a fresh ``Program`` over a pre-bound program and
feeds it that program's event script through ``send`` / ``at``, timing
every ``send``/``at`` call.  The final memory, result and output of every
episode must equal the reference semantics (``repro.semantics``) on the
same script.

``react``: 9 programs, one per trail count 16, 18, ..., 32, so the mean
work per reaction does not depend on the seed.  Most trails wake on
every ``A``; they run arithmetic, §2.2 internal-emit chains, ``par/or``
races between a timer and ``B``, and value awaits.

``idle``: 3 programs of 8 active trails beside 1,000 idle ones waiting
on a never-sent event or an hours-long timer; each input wakes 1-4
active trails.  This is the §2.1 claim that trails cost almost nothing.
"""

from __future__ import annotations

import random
import time
from types import SimpleNamespace

from harness import e2e_timings

REACT_TRAILS = tuple(range(16, 33, 2))
REACT_SCRIPT = 200
IDLE_PROGRAMS = 3
IDLE_TRAILS = 1000
IDLE_ACTIVE = 8
IDLE_SCRIPT = 300
CLI_RUNS = 6


def _balanced(rng: random.Random, choices, n: int) -> list:
    """``n`` items cycling through ``choices``, in a seeded order: the
    seed moves where each kind sits, not how many there are."""
    items = [choices[i % len(choices)] for i in range(n)]
    rng.shuffle(items)
    return items


def react_program(rng: random.Random, n: int) -> str:
    n_emit = max(2, n // 6)
    kinds = ["emit"] * n_emit + _balanced(
        rng, ("arith", "cond", "paror", "recv"), n - n_emit)
    timers = iter(_balanced(rng, (10, 20, 30, 50), n))
    sources = iter(_balanced(rng, range(n_emit), n))
    body = []
    for i, kind in enumerate(kinds):
        v = f"x{i}"
        m = rng.choice((97, 101, 251, 1009))
        if kind == "emit":
            step = f"""      int v = await A;
      {v} = ({v} * 3 + v) % {m};
      emit e{i} = {v} + {i};"""
        elif kind == "recv":
            step = f"""      int v = await e{next(sources)};
      {v} = ({v} + v * {rng.randint(2, 9)}) % {m};"""
        elif kind == "arith":
            step = f"""      int v = await A;
      {v} = ({v} * {rng.randint(2, 9)} + v) % {m};
      {v} = ({v} + {rng.randint(1, 50)} - v % 7) % {m};"""
        elif kind == "cond":
            step = f"""      int v = await A;
      if v % {rng.randint(2, 5)} == 0 then
         {v} = ({v} + v) % {m};
      else
         {v} = ({v} * 2 + 1) % {m};
      end"""
        else:
            step = f"""      par/or do
         await {next(timers)}ms;
         {v} = ({v} + 1) % {m};
      with
         int v = await B;
         {v} = ({v} + v) % {m};
      end"""
        body.append(f"   loop do\n{step}\n   end")
    body.append("""   loop do
      int v = await B;
      _printf("b %d\\n", v + x0);
   end""")
    return "\n".join([
        "input int A, B;",
        "internal int " + ", ".join(f"e{k}" for k in range(n_emit)) + ";",
        "int " + ", ".join(f"x{i} = {i}" for i in range(n)) + ";",
        "par do", "\nwith\n".join(body), "end", ""])


def react_script(rng: random.Random, n: int) -> list[tuple]:
    """70% ``A``, 15% ``B``, 15% clock advances of 5, 10 or 25 ms."""
    steps = iter(_balanced(rng, (5_000, 10_000, 25_000), n))
    script, now = [], 0
    for op in _balanced(rng, ("A",) * 14 + ("B",) * 3 + ("T",) * 3, n):
        if op == "T":
            now += next(steps)
            script.append(("T", now))
        else:
            script.append(("E", op, rng.randrange(1000)))
    return script


def idle_program(rng: random.Random) -> str:
    events = [f"A{k}" for k in range(4)]
    # the events are awaited by 1, 2, 2 and 3 active trails
    fanout = [1, 2, 2, 3]
    rng.shuffle(fanout)
    owners = [e for e, k in zip(events, fanout) for _ in range(k)]
    rng.shuffle(owners)
    body = []
    for i, event in enumerate(owners):
        body.append(f"""   loop do
      int v = await {event};
      x{i} = (x{i} * 3 + v) % 1009;
   end""")
    body.append("""   loop do
      int v = await A0;
      if v % 10 == 0 then
         _printf("a %d\\n", x0);
      end
   end""")
    waits = _balanced(rng, ("Never", "timer"), IDLE_TRAILS)
    for j, wait in enumerate(waits):
        if wait == "timer":
            wait = f"{rng.randint(1, 9)}h"
        body.append(f"   await {wait};\n   y{j % 8} = {j};")
    return "\n".join([
        "input int " + ", ".join(events) + ";",
        "input void Never;",
        "int " + ", ".join(f"x{i} = {i}" for i in range(IDLE_ACTIVE)) + ";",
        "int " + ", ".join(f"y{k} = 0" for k in range(8)) + ";",
        "par do", "\nwith\n".join(body), "end", ""])


def idle_script(rng: random.Random, n: int) -> list[tuple]:
    """Each 9 items: two of every event ``A0``..``A3`` and one 10 ms
    clock advance."""
    script, now = [], 0
    for op in _balanced(rng, ("A0", "A1", "A2", "A3") * 2 + ("T",), n):
        if op == "T":
            now += 10_000
            script.append(("T", now))
        else:
            script.append(("E", op, rng.randrange(100)))
    return script


def make_setup(kind: str):
    def setup(ctx) -> SimpleNamespace:
        from repro.lang import parse
        from repro.sema import bind, check_bounded

        rng = random.Random(ctx.seed)
        progs = []
        if kind == "react":
            for n in REACT_TRAILS:
                progs.append((react_program(rng, n),
                              react_script(rng, REACT_SCRIPT), n + 1))
        else:
            for _ in range(IDLE_PROGRAMS):
                progs.append((idle_program(rng),
                              idle_script(rng, IDLE_SCRIPT),
                              IDLE_ACTIVE + 1 + IDLE_TRAILS))
        items = []
        for i, (src, script, trails) in enumerate(progs):
            bound = bind(parse(src, f"{kind}_{i}.ceu"))
            check_bounded(bound)
            items.append(SimpleNamespace(name=f"{kind}_{i}", src=src,
                                         script=script, bound=bound,
                                         trails=trails, expected=None))
        return SimpleNamespace(kind=kind, progs=items)

    return setup


def expected_of(item, corrupt: bool) -> tuple:
    """The reference semantics' final state for one program's script."""
    if item.expected is None:
        from repro.semantics import run_script

        spec = run_script(item.bound, item.script)
        item.expected = (spec.memory_snapshot(), spec.done,
                         spec.result if spec.done else None, spec.output())
    if corrupt:
        memory = dict(item.expected[0])
        memory["x0"] = memory.get("x0", 0) + 1
        return (memory,) + item.expected[1:3] + (item.expected[3] + "x",)
    return item.expected


class Episodes:
    """Runs episodes and keeps their samples and final states."""

    def __init__(self, state):
        from repro.runtime import Program

        self.Program = Program
        self.state = state
        # (start, seconds) samples
        self.call_s: list[tuple] = []
        self.boot_s: list[tuple] = []
        self.reactions = 0
        self.finals: list[tuple] = []      # (item, final state)
        self.next = 0

    def episode(self, item) -> None:
        start = time.perf_counter()
        program = self.Program(item.bound, check=False)
        program.start()
        self.boot_s.append((start, time.perf_counter() - start))
        sched = program.sched
        booted = sched.reaction_count
        calls = self.call_s
        for op, name, *value in item.script:
            if program.done:
                break
            start = time.perf_counter()
            if op == "E":
                program.send(name, value[0])
            else:
                program.at(name)
            calls.append((start, time.perf_counter() - start))
        self.reactions += sched.reaction_count - booted
        self.finals.append((item, (sched.memory.snapshot(), program.done,
                                   program.result if program.done else None,
                                   program.output())))

    def run_next(self) -> None:
        item = self.state.progs[self.next % len(self.state.progs)]
        self.next += 1
        self.episode(item)


def _cli_run(ctx, cal, item, corrupt: bool) -> tuple[tuple, bool]:
    """Cold ``repro run`` of one program on its script; its output must
    be the reference semantics' output."""
    prog = ctx.workdir / f"{item.name}.ceu"
    script = ctx.workdir / f"{item.name}.events"
    if not prog.exists():
        prog.write_text(item.src)
        script.write_text("".join(
            f"E {it[1]} {it[2]}\n" if it[0] == "E" else f"T {it[1]}\n"
            for it in item.script))
    proc, sample = cal.run_cli(("run", prog, "--inputs", script), ctx)
    return sample, (proc.returncode == 0
                    and proc.stdout == expected_of(item, corrupt)[3])


def measure(ctx, state, seconds: float, cal) -> dict:
    from repro.codegen import compile_to_c

    progs = state.progs
    _cli_run(ctx, cal, progs[0], False)           # warm bytecode caches
    eps = Episodes(state)
    cli_s: list[tuple] = []
    attempted = failed = 0
    failures: list[str] = []
    start = time.perf_counter()
    cli_every = seconds / CLI_RUNS
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and eps.next >= len(progs):
            break
        if len(cli_s) < CLI_RUNS and elapsed >= len(cli_s) * cli_every:
            item = progs[len(cli_s) % len(progs)]
            sample, ok = _cli_run(ctx, cal, item, ctx.corrupt)
            cli_s.append(sample)
            attempted += 1
            if not ok:
                failed += 1
                failures.append(f"repro run {item.name}: output differs")
        cal.maybe()
        eps.run_next()
    done, bad, why = verify(ctx, eps)
    attempted += done
    failed += bad
    failures += why
    c_bytes = sum(len(compile_to_c(item.bound, name=item.name).code)
                  for item in progs)
    e2e, raw = e2e_timings(cal, eps.reactions, eps.call_s, eps.call_s,
                           eps.boot_s, cli_s)
    return {
        "e2e": dict(e2e, c_bytes=c_bytes),
        "raw": raw,
        "samples": {"latency": len(eps.call_s),
                    "aux": len(eps.boot_s), "cli": len(cli_s)},
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "checks": {},
        "props": properties(state),
    }


def verify(ctx, eps: Episodes) -> tuple[int, int, list[str]]:
    """Every episode's final state against the reference semantics."""
    failed, failures = 0, []
    for item, final in eps.finals:
        if final != expected_of(item, ctx.corrupt):
            failed += 1
            if len(failures) < 20:
                failures.append(f"{item.name}: final state differs from "
                                f"the reference semantics")
    return len(eps.finals), failed, failures


def properties(state) -> dict:
    """Trail counts: declared, and awaiting once booted."""
    from repro.runtime import Program

    awaiting = []
    for item in state.progs:
        program = Program(item.bound, check=False)
        program.start()
        awaiting.append(program.sched.awaiting_count())
    return {"programs": len(state.progs),
            "trails": [item.trails for item in state.progs],
            "awaiting_after_boot": awaiting,
            "script_len": len(state.progs[0].script)}


# ------------------------------------------------------------------ trace
def unit(ctx, state, cal) -> SimpleNamespace:
    """Three episodes per program, for the traced comparisons."""
    eps = Episodes(state)

    def work() -> float:
        start = time.perf_counter()
        for item in state.progs:
            for _ in range(3):
                eps.episode(item)
        return time.perf_counter() - start

    return SimpleNamespace(
        work=work, close=lambda: None,
        extras=lambda: wake_counts(state),
        verify=lambda: verify(ctx, eps), install=install_spans)


def install_spans(tracer) -> None:
    from repro.runtime import Program

    for name in ("start", "send", "at"):
        tracer.wrap(Program, name, "runtime.program")


def wake_counts(state) -> dict:
    """Trails resumed over the trails awaiting before each ``send``/``at`` call,
    counted by a ``trail_resume`` hook subscriber in a separate pass, and
    statements per reaction from the scheduler's counters."""
    from repro.obs.hooks import HookSubscriber
    from repro.runtime import Program

    class Count(HookSubscriber):
        def __init__(self):
            self.resumed = 0

        def on_trail_resume(self, trail, path, time_us):
            self.resumed += 1

    count = Count()
    awaiting = reactions = steps = 0
    for item in state.progs:
        program = Program(item.bound, check=False)
        program.start()
        sched = program.sched
        program.observe(count)
        booted, steps0 = sched.reaction_count, sched.steps_executed
        for op, name, *value in item.script:
            awaiting += sched.awaiting_count()
            if op == "E":
                program.send(name, value[0])
            else:
                program.at(name)
        reactions += sched.reaction_count - booted
        steps += sched.steps_executed - steps0
    return {"runtime.wake_ratio": count.resumed / awaiting,
            "runtime.steps_per_reaction": steps / reactions,
            "workload.trails_awaiting_mean": awaiting / sum(
                len(item.script) for item in state.progs)}
