"""``farm``: a served fleet with full telemetry.

1,000 ``blink`` and 1,000 ``sense`` instances, spawned in 40 waves
over one virtual second, with per-instance metrics, a
``StreamingJsonlExporter`` and a ``FlightRecorder``.  The
main thread runs a closed loop: holding the drive lock it advances the
calendar by one 10 ms tick and injects ``ReadDone`` events into seeded
``sense`` instances, timing each from ``send`` to the return of its
calendar step.  One scraper thread runs an open loop, a GET of
``/metrics`` every 2 s from an ``AdminServer`` whose snapshot provider
takes the same lock; each scrape is timed from when it was due.
"""

from __future__ import annotations

import importlib.util
import random
import threading
import time
import urllib.request
from types import SimpleNamespace

from harness import e2e_timings, pct

BLINK = 1000
SENSE = 1000
SPAWN_WAVES = 40
TICK_US = 10_000
EVENTS_PER_TICK = 20
SCRAPE_EVERY_S = 2.0
CLI_RUNS = 6
#: ``repro farm blink.ceu -n 500 --until 2s``; the reaction count it
#: prints must be 500 times the reference semantics' count
CLI_N = 500
CLI_UNTIL_US = 2_000_000


class TimedLock:
    """The drive lock; records how long each role waited for it.  No
    tick starts while a scrape is in flight (``Fleet._quiet``), so a
    waiting scrape gets the lock when the current tick ends."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.waits: dict[str, list[float]] = {"drive": [], "scrape": []}

    def acquire_as(self, role: str, since: float = 0.0) -> None:
        """Take the lock; the wait is counted from ``since`` if given."""
        start = since or time.perf_counter()
        self._lock.acquire()
        self.waits[role].append(time.perf_counter() - start)

    def release(self) -> None:
        self._lock.release()

    # the admin server takes the lock with ``with``: that is the scrape
    def __enter__(self) -> "TimedLock":
        self.acquire_as("scrape")
        return self

    def __exit__(self, *exc) -> None:
        self.release()


def setup(ctx) -> SimpleNamespace:
    from repro.apps import load
    from repro.obs import FlightRecorder, StreamingJsonlExporter
    from repro.runtime.farm import Farm

    path = ctx.workdir / "farm.jsonl"
    stream = StreamingJsonlExporter(path, flush_every=1024)
    farm = Farm(observe=True, stream=stream,
                recorder=FlightRecorder(4096))
    farm.add_program("blink", load("blink"))
    farm.add_program("sense", load("sense"))
    # instances join over one virtual second, so their timers do not
    # all fire in the same tick
    sense = []
    for wave in range(SPAWN_WAVES):
        farm.run_until(wave * 1_000_000 // SPAWN_WAVES)
        farm.spawn(BLINK // SPAWN_WAVES, program="blink")
        sense += [inst.index for inst in
                  farm.spawn(SENSE // SPAWN_WAVES, program="sense")]
    return SimpleNamespace(farm=farm, stream=stream, path=path,
                           sense=sense, rng=random.Random(ctx.seed))


def dispose(state) -> None:
    state.stream.close()
    state.path.unlink()


def _check_prom(ctx):
    spec = importlib.util.spec_from_file_location(
        "check_prom", ctx.root / "tests" / "check_prom.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.check_prom


class Fleet:
    """The served farm: drive loop, scraper thread, admin server."""

    def __init__(self, state):
        import repro.obs.prom as prom
        from repro.obs import AdminServer

        self.state = state
        self.farm = state.farm
        self.lock = TimedLock()
        self.snapshot_s: list[float] = []
        self.render_s: list[float] = []
        # (start, seconds) samples; a scrape starts when it was due
        self.tick_s: list[tuple] = []
        self.event_s: list[tuple] = []
        self.scrape_s: list[tuple] = []
        self.late_s: list[float] = []
        self.bodies: list[str] = []
        self.scrape_errors: list[str] = []
        self.injected = 0
        self.ticks = 0
        self.busy_s = 0.0                 # drive time holding the lock

        def metrics() -> str:
            start = time.perf_counter()
            snap = self.farm.fleet_snapshot()
            mid = time.perf_counter()
            text = prom.render_prom(snap, prefix="repro_")
            self.snapshot_s.append(mid - start)
            self.render_s.append(time.perf_counter() - mid)
            return text

        self.server = AdminServer(self.farm.fleet_snapshot,
                                  metrics_fn=metrics,
                                  lock=self.lock).start()
        # set while no scrape is in flight: the drive loop does not start
        # a tick during a scrape, so the server and scraper threads never
        # take the interpreter lock from a timed event
        self._quiet = threading.Event()
        self._quiet.set()
        self._stop = threading.Event()
        self._scraper = None

    def reactions(self) -> int:
        return sum(inst.program.sched.reaction_count
                   for inst in self.farm.instances)

    def tick(self) -> None:
        farm, state = self.farm, self.state
        rng = state.rng
        begin = time.perf_counter()
        self._quiet.wait()
        self.lock.acquire_as("drive", since=begin)
        held = time.perf_counter()
        try:
            farm.run_until(farm.sim.now + TICK_US)
            for _ in range(EVENTS_PER_TICK):
                index = rng.choice(state.sense)
                start = time.perf_counter()
                farm.send(index, "ReadDone", rng.randrange(1024))
                farm.sim.run_until(farm.sim.now)
                self.event_s.append((start, time.perf_counter() - start))
            self.injected += EVENTS_PER_TICK
            self.ticks += 1
        finally:
            end = time.perf_counter()
            self.busy_s += end - held
            self.lock.release()
            self.tick_s.append((begin, end - begin))

    def _scrape_loop(self) -> None:
        url = self.server.address + "/metrics"
        due = time.perf_counter() + SCRAPE_EVERY_S
        while not self._stop.wait(max(0.0, due - time.perf_counter())):
            self.late_s.append(max(0.0, time.perf_counter() - due))
            self._quiet.clear()
            try:
                with urllib.request.urlopen(url, timeout=30) as resp:
                    body = resp.read().decode("utf-8")
                self.scrape_s.append((due, time.perf_counter() - due))
                self.bodies.append(body)
            except OSError as err:
                self.scrape_errors.append(repr(err))
            finally:
                self._quiet.set()
            due += SCRAPE_EVERY_S

    def start_scraper(self) -> None:
        self._scraper = threading.Thread(target=self._scrape_loop,
                                         name="perfbench-scraper",
                                         daemon=True)
        self._scraper.start()

    def stop(self) -> None:
        self._stop.set()
        if self._scraper is not None:
            self._scraper.join()
        self.server.close()


def cli_reactions(ctx) -> int:
    """Reactions ``repro farm blink.ceu -n CLI_N`` must report, from the
    reference semantics with the leds as no-op C functions."""
    from repro.apps import load
    from repro.runtime.cenv import CEnv
    from repro.semantics import run_script

    cenv = CEnv()
    for led in range(3):
        cenv.define(f"Leds_led{led}Toggle", lambda: 0)
    machine = run_script(load("blink"), [("T", CLI_UNTIL_US)], cenv=cenv)
    return CLI_N * len(machine.signature()) + (1 if ctx.corrupt else 0)


def _cli_farm(ctx, cal, want: int) -> tuple[tuple, bool]:
    blink = ctx.root / "src" / "repro" / "apps" / "ceu" / "blink.ceu"
    proc, sample = cal.run_cli(("farm", blink, "-n", CLI_N, "--until",
                                f"{CLI_UNTIL_US}us"), ctx)
    return sample, (proc.returncode == 0
                    and f"reactions: {want} " in proc.stdout)


def _counter(snap: dict, family: str, **labels) -> int:
    fam = snap["farm"][family]
    total = 0
    for values, count in fam["series"]:
        named = dict(zip(fam["labels"], values))
        if all(named.get(k) == v for k, v in labels.items()):
            total += count
    return total


def verify(ctx, fleet: Fleet) -> tuple[int, int, list[str]]:
    """(attempted, failed, failures) for the injected events, the JSONL
    stream and every scraped exposition."""
    check_prom = _check_prom(ctx)
    state = fleet.state
    snap = fleet.farm.fleet_snapshot()
    failures = []
    attempted = fleet.injected + len(fleet.bodies) \
        + len(fleet.scrape_errors) + 1
    failed = 0
    dropped = _counter(snap, "farm_events_dropped_total")
    counted = _counter(snap, "farm_events_total", program="sense",
                       event="ReadDone")
    expected = fleet.injected + (1 if ctx.corrupt else 0)
    if dropped or counted != expected:
        failed += dropped + abs(expected - counted)
        failures.append(f"events: {counted} counted, {dropped} dropped, "
                        f"{expected} injected")
    state.stream.close()
    with open(state.path, "rb") as fh:
        lines = sum(1 for _ in fh)
    if lines != state.stream.seq + (1 if ctx.corrupt else 0):
        failed += 1
        failures.append(f"jsonl: {lines} lines, seq {state.stream.seq}")
    for body in fleet.bodies:
        problems = check_prom(body)
        if problems:
            failed += 1
            failures.append(f"/metrics: {problems[0]}")
    failed += len(fleet.scrape_errors)
    failures += fleet.scrape_errors[:5]
    return attempted, failed, failures


def measure(ctx, state, seconds: float, cal) -> dict:
    from repro.codegen import compile_to_c

    want = cli_reactions(ctx)
    _cli_farm(ctx, cal, want)                     # warm bytecode caches
    cli_s, cli_ok = [], 0
    fleet = Fleet(state)
    reactions0 = fleet.reactions()
    start = time.perf_counter()
    fleet.start_scraper()
    try:
        while time.perf_counter() - start < seconds:
            cal.maybe()
            fleet.tick()
    finally:
        fleet.stop()
    reactions = fleet.reactions() - reactions0
    for _ in range(CLI_RUNS):
        sample, ok = _cli_farm(ctx, cal, want)
        cli_s.append(sample)
        cli_ok += ok
    attempted, failed, failures = verify(ctx, fleet)
    attempted += CLI_RUNS
    failed += CLI_RUNS - cli_ok
    if cli_ok < CLI_RUNS:
        failures.append("repro farm: wrong reaction count")
    c_bytes = sum(len(compile_to_c(bound, name=name).code)
                  for name, bound in sorted(state.farm.programs.items()))
    # throughput over the drive loop's wall time, waits for scrapes
    # included: a scrape slows the fleet
    e2e, raw = e2e_timings(cal, reactions, fleet.tick_s, fleet.event_s,
                           fleet.scrape_s, cli_s)
    return {
        "e2e": dict(e2e, c_bytes=c_bytes),
        "raw": raw,
        "samples": {"latency": len(fleet.event_s),
                    "aux": len(fleet.scrape_s), "cli": len(cli_s)},
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "checks": {
            "scrape_lateness_ms_p50": pct(fleet.late_s, 50) * 1e3
            if fleet.late_s else 0.0,
            "scrape_lateness_ms_max": max(fleet.late_s, default=0.0) * 1e3,
            "jsonl_lines": state.stream.seq,
        },
        "props": {
            "instances": {"blink": BLINK, "sense": SENSE},
            "events_per_tick": EVENTS_PER_TICK,
            "tick_us": TICK_US,
            "ticks": fleet.ticks,
            "reactions_per_tick": reactions / max(1, fleet.ticks),
        },
    }


# ------------------------------------------------------------------ trace
def unit(ctx, state, cal) -> SimpleNamespace:
    """Fifty ticks of served drive, for the traced comparisons; the
    scraper keeps its schedule across units, so a unit counts only the
    time the drive held the lock."""
    fleet = Fleet(state)
    fleet.start_scraper()

    def work() -> float:
        busy = fleet.busy_s
        for _ in range(50):
            fleet.tick()
        return fleet.busy_s - busy

    def extras() -> dict:
        waits = fleet.lock.waits
        instances = fleet.farm.instances
        steps = sum(i.program.sched.steps_executed for i in instances)
        reactions = sum(i.program.sched.reaction_count for i in instances)
        return {
            "farm.fleet_snapshot_ms": _mean_ms(fleet.snapshot_s),
            "obs.prom.render_ms": _mean_ms(fleet.render_s),
            "farm.drive_lock_wait_ms": _mean_ms(waits["drive"]),
            "farm.scrape_lock_wait_ms": _mean_ms(waits["scrape"]),
            "runtime.steps_per_reaction": steps / reactions,
            "workload.events_per_tick": EVENTS_PER_TICK,
            "workload.sense_share": SENSE / (BLINK + SENSE),
        }

    return SimpleNamespace(work=work, close=fleet.stop, extras=extras,
                           verify=lambda: verify(ctx, fleet),
                           install=install_spans,
                           lines=lambda: state.stream.seq)


def _mean_ms(values: list[float]) -> float:
    return sum(values) / len(values) * 1e3 if values else 0.0


def install_spans(tracer) -> None:
    import repro.obs.prom as prom
    from repro.runtime.farm import Farm
    from repro.sim.des import Simulator

    tracer.wrap(Farm, "run_until", "runtime.farm")
    tracer.wrap(Farm, "send", "runtime.farm")
    tracer.wrap(Farm, "fleet_snapshot", "farm.fleet_snapshot")
    tracer.wrap(Simulator, "run_until", "sim.des")
    tracer.wrap(prom, "render_prom", "obs.prom")
