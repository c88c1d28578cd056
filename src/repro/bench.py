"""Benchmark snapshots and the perf regression gate (``repro bench``).

Each measurement is one :class:`Section` record in :data:`SECTIONS`: its
name, the function that measures it, the file it writes, a one-line
summary and its gates as :class:`Gate` rows.
``vm`` and ``stream`` always run; ``--farm``, ``--analysis``, ``--serve``
and ``--checkpoint`` add the section of the same name.

* ``vm`` — reaction throughput over the standard fan-out workload in
  five instrumentation modes: ``off`` (no subscribers ever), ``detached``
  (subscribed then unsubscribed: the hooks-off fast path after a
  profiling session ends), ``metrics``, ``full`` (metrics + both
  exporters) and ``causal`` (a :class:`~repro.obs.CausalGraph`); the
  profiler's latency percentiles; the metrics run's deterministic
  counters;
* ``stream`` — DES + streaming-exporter throughput and the exporter's
  resident high-water mark;
* ``farm`` — reactor-farm spawn and drive throughput with fleet telemetry
  attached vs detached, cross-instance latency, resident bytes per
  instance beside the :mod:`repro.analysis.bounds` prediction;
* ``analysis`` — incremental-vs-cold lint latency over examples + corpus;
* ``serve`` — admin-server overhead on a detached farm's drive loop;
* ``checkpoint`` — journal-recording overhead, capture/restore cost and
  the warm-start speedup over a cold instrumented boot.

:func:`interleave` times every section's modes.  Within each repeat it
runs every mode once, so a ratio divides runs taken under the same host
conditions, and it keeps each mode's best run.

Each run writes a timestamped ``BENCH_<UTCSTAMP>.json`` under
``benchmarks/`` (never the repo root), so a perf trajectory accumulates
across commits.  :func:`check` walks every gate row of every measured
section and returns all violations.  Absolute rows always run; rows
against the committed baseline (``benchmarks/BENCH_baseline.json``) and
the vm ``detached_vs_off`` cap run under ``--check``.  Absolute
wall-clock times are recorded but never gated: they measure the machine,
not the code.
"""

from __future__ import annotations

import gc
import json
import operator
import platform
import time
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional

from .obs.export import ChromeTraceExporter, JsonlExporter
from .obs.hooks import HookBus
from .obs.profile import Profiler
from .obs.stream import StreamingJsonlExporter
from .runtime.program import Program
from .sim.des import Simulator

SCHEMA = 1

#: every benchmark artifact lives here — snapshots, the baseline, the
#: section records; ``repro bench`` never writes into the repo root
BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"

#: the committed regression baseline (see ``--update-baseline``)
BASELINE_PATH = BENCH_DIR / "BENCH_baseline.json"

#: hard ceiling on attached-server drive overhead: an idle admin server
#: must cost the reaction path <= 5% (the near-zero-cost instrumentation
#: budget; scraped-under-load is recorded, not gated)
SERVE_BUDGET = 1.05

#: hard ceiling on journal-recording drive overhead: keeping every
#: instance checkpointable must cost the farm drive loop <= 5%
CHECKPOINT_BUDGET = 1.05

#: floor on the warm-start speedup: replaying a checkpoint into a fresh
#: instance (telemetry attached only after the replay) must beat a cold
#: fully-instrumented boot-and-drive to the same state by >= 5x
WARM_SPEEDUP_MIN = 5.0

#: overhead ratios gated against the baseline.  ``causal_vs_off`` is
#: recorded but not gated: older baselines predate it, and its cost
#: tracks the full-export modes that already are.
RATIO_KEYS = ("metrics_vs_off", "full_vs_off", "detached_vs_off")

VM_MODES = ("off", "detached", "metrics", "full", "causal")
FARM_MODES = ("attached", "detached")
SERVE_MODES = ("noserver", "idle", "scraped")

#: the sections every run measures; each other one has a flag of its name
CORE = ("vm", "stream")

# workload sizes, read when a section runs so tests can shrink them
TRAILS = 16
EVENTS = 300
DES_EVENTS = 20_000
FARM_INSTANCES = 5_000
FARM_SIM_US = 1_000_000
FARM_MEM_SAMPLE = 500
SERVE_INSTANCES = 2_000
SERVE_SIM_US = 1_000_000
CKPT_INSTANCES = 200
#: long enough that steady-state reaction work dominates the fixed
#: per-instance spawn cost both sides pay — the regime warm starts are
#: for (short horizons under-report the speedup)
CKPT_SIM_US = 5_000_000


class Gate(NamedTuple):
    """One gate row: the value at the dotted ``path`` inside a section,
    held to ``bound`` by ``kind``:

    * ``exact`` — every key of the baseline's dict at ``path`` matches;
    * ``tolerance`` — at most ``--tolerance`` (relative) above baseline;
    * ``max`` / ``min`` / ``equal`` — ``<=`` / ``>=`` / ``==`` ``bound``,
      where a string ``bound`` names another key of the same section.

    ``exact`` and ``tolerance`` rows run only against a baseline, and so
    does a ``baseline_only`` absolute row."""

    path: str
    kind: str
    bound: Any = None
    baseline_only: bool = False

    def check(self, data: dict, base: Optional[dict],
              tolerance: float) -> list[str]:
        """This row's violations (empty = passes)."""
        if base is None and (self.baseline_only
                             or self.kind in ("exact", "tolerance")):
            return []
        got = _get(data, self.path)
        if self.kind == "exact":
            got = got or {}
            return [f"{self.path}.{key}: expected {expect}, "
                    f"got {got.get(key)}"
                    for key, expect in sorted(
                        (_get(base, self.path) or {}).items())
                    if got.get(key) != expect]
        if self.kind == "tolerance":
            expect = _get(base, self.path)
            if expect is None or got is None:
                return [f"{self.path}: missing (baseline={expect}, "
                        f"snapshot={got})"]
            if got > expect * (1.0 + tolerance):
                return [f"{self.path}: {got:.2f} exceeds baseline "
                        f"{expect:.2f} by more than {tolerance:.0%}"]
            return []
        if isinstance(self.bound, str):
            bound = _get(data, self.bound)
            label = f"{self.bound} ({bound})"
        else:
            bound = label = self.bound
        if got is None or bound is None:
            return [f"{self.path}: missing"]
        test, sign = _BOUND_KINDS[self.kind]
        if test(got, bound):
            return []
        shown = f"{got:.3f}" if isinstance(got, float) else got
        return [f"{self.path} = {shown}, must be {sign} {label}"]


_BOUND_KINDS = {"max": (operator.le, "<="), "min": (operator.ge, ">="),
                "equal": (operator.eq, "==")}


def _get(data: Optional[dict], path: str) -> Any:
    for key in path.split("."):
        if not isinstance(data, dict):
            return None
        data = data.get(key)
    return data


def _within(data: dict, gates: tuple[Gate, ...]) -> bool:
    """Whether ``data`` passes every absolute row of ``gates``."""
    return not any(gate.check(data, None, 0.0) for gate in gates)


def _timed(fn: Callable, *args, **kwargs) -> tuple[float, Any]:
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def interleave(modes: dict[str, Callable[[], tuple[float, Any]]],
               repeats: int) -> dict[str, tuple[float, Any]]:
    """Best-of-``repeats`` timing of every mode, run round-robin within
    each repeat so that host noise lands on all modes alike.  A mode is a
    callable returning ``(seconds, result)``; each mode maps to its
    fastest run's ``(seconds, result)``."""
    best: dict[str, tuple[float, Any]] = {}
    for _ in range(repeats):
        for name, run in modes.items():
            # start each run from a collected heap, so that one mode's
            # garbage is not collected inside the next mode's timing
            gc.collect()
            secs, result = run()
            if name not in best or secs < best[name][0]:
                best[name] = (secs, result)
    return best


def make_fanout(n: int) -> str:
    """The standard reaction-throughput workload: ``n`` parallel trails
    all waking on one broadcast event (same shape as
    ``benchmarks/test_vm_throughput.py``)."""
    decls = "\n".join(f"int n{i} = 0;" for i in range(n))
    branches = "\nwith\n".join(
        f"   loop do\n      await A;\n      n{i} = n{i} + 1;\n   end"
        for i in range(n))
    return f"input void A;\n{decls}\npar do\n{branches}\nend"


def _drive(program: Program) -> float:
    start = time.perf_counter()
    program.start()
    for _ in range(EVENTS):
        program.send("A")
    return time.perf_counter() - start


def vm_program(mode: str) -> Program:
    """The fan-out workload with ``mode``'s instrumentation attached."""
    program = Program(make_fanout(TRAILS),
                      observe=mode in ("metrics", "full"))
    if mode == "full":
        program.observe(ChromeTraceExporter())
        program.observe(JsonlExporter())
    elif mode == "causal":
        from .obs.causal import CausalGraph

        program.observe(CausalGraph(program.hooks))
    elif mode == "detached":
        # subscribe + unsubscribe: the bus must drop back to the guarded
        # no-op fast path once the last subscriber leaves
        probe = program.observe(Profiler())
        program.hooks.unsubscribe(probe)
    return program


def vm_mode(mode: str) -> Callable[[], tuple[float, dict]]:
    """A mode for :func:`interleave`: one drive of :func:`vm_program`,
    returning its stats (not the program, whose exporters would keep
    every record alive through the other modes' runs)."""
    def run() -> tuple[float, dict]:
        program = vm_program(mode)
        return _drive(program), program.stats()
    return run


def bench_vm(repeats: int = 3) -> dict:
    """Reaction throughput in all five instrumentation modes, plus the
    deterministic counters and the profiler's latency percentiles."""
    best = interleave({mode: vm_mode(mode) for mode in VM_MODES}, repeats)
    timings = {mode: secs for mode, (secs, _) in best.items()}
    program = Program(make_fanout(TRAILS))
    profiler = program.observe(Profiler())
    _drive(program)
    return {
        "workload": {"trails": TRAILS, "events": EVENTS},
        "timings_s": timings,
        "ratios": {f"{mode}_vs_off": _ratio(timings[mode], timings["off"])
                   for mode in VM_MODES[1:]},
        "reactions_per_s": _ratio(EVENTS + 1, timings["off"]),
        "counters": best["metrics"][1]["counters"],
        "latency_us": {family: h.percentiles()
                       for family, h in sorted(profiler.latency.items())},
    }


def bench_stream() -> dict:
    """DES calendar churn with the streaming exporter attached: export
    throughput and the exporter's bounded-memory high-water mark (one
    run: the high-water mark, not the time, is gated)."""
    import tempfile

    bus = HookBus()
    sim = Simulator(hooks=bus)
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp, \
            StreamingJsonlExporter(Path(tmp) / "stream.jsonl",
                                   flush_every=512) as exporter:
        bus.subscribe(exporter)

        def tick(i: int = 0):
            if i < DES_EVENTS:
                sim.after(10, lambda: tick(i + 1))

        elapsed, _ = _timed(lambda: (tick(), sim.run()))
    return {
        "des_events": sim.events_fired,
        "records": exporter.seq,
        "elapsed_s": elapsed,
        "records_per_s": _ratio(exporter.seq, elapsed),
        "resident_high": exporter.resident_high,
        "flush_every": exporter.flush_every,
    }


def _farm_drive(source: str, n: int, sim_us: int,
                observe: bool) -> tuple[float, tuple[dict, dict]]:
    """Spawn + drive one farm: ``(drive seconds, (timings, fleet
    snapshot))``."""
    from .runtime.farm import Farm

    spawn_s, farm = _timed(Farm, source, n=n, program="blink",
                           observe=observe)
    drive_s, _ = _timed(farm.run_until, sim_us)
    reactions = sum(inst.program.sched.reaction_count
                    for inst in farm.instances)
    timings = {
        "spawn_s": spawn_s,
        "drive_s": drive_s,
        "instances_per_s": _ratio(n, spawn_s),
        "reactions": reactions,
        "events_per_s": _ratio(reactions, drive_s),
    }
    return drive_s, (timings, farm.fleet_snapshot())


def _farm_resident(source: str, n: int, observe: bool) -> float:
    """Heap bytes per instance (tracemalloc delta over ``n`` spawns,
    timers armed so the steady-state structures exist)."""
    import tracemalloc

    from .runtime.farm import Farm

    gc.collect()
    tracemalloc.start()
    try:
        farm = Farm(source, observe=observe)
        farm.add_program("blink", source)
        gc.collect()
        base, _ = tracemalloc.get_traced_memory()
        farm.spawn(n, program="blink")
        gc.collect()
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return _ratio(current - base, n)


def bench_farm(repeats: int = 3) -> dict:
    """The reactor-farm section: spawn/drive throughput with telemetry
    attached vs detached, cross-instance latency percentiles, and
    resident bytes per instance beside the static-bounds prediction."""
    from .analysis.bounds import compute_bounds
    from .apps import load
    from .dfa import build_dfa
    from .lang import parse
    from .sema import bind

    n, sim_us = FARM_INSTANCES, FARM_SIM_US
    source = load("blink")
    best = interleave({mode: partial(_farm_drive, source, n, sim_us,
                                     mode == "attached")
                       for mode in FARM_MODES}, repeats)
    attached, fleet = best["attached"][1]
    detached, _ = best["detached"][1]
    latency = fleet["merged"]["histograms"].get("reaction_latency_us", {})
    mem_sample = min(FARM_MEM_SAMPLE, n)
    bound = bind(parse(source, "blink.ceu"))
    return {
        "workload": {"program": "blink", "instances": n, "sim_us": sim_us},
        "attached": attached,
        "detached": detached,
        "overhead": {
            "attached_vs_detached_spawn":
                _ratio(attached["spawn_s"], detached["spawn_s"]),
            "attached_vs_detached_drive":
                _ratio(attached["drive_s"], detached["drive_s"]),
        },
        "latency_us": {k: latency.get(k)
                       for k in ("p50", "p95", "p99", "mean", "max")},
        "resident_bytes_per_instance": {
            "sample_instances": mem_sample,
            "attached_bytes": _farm_resident(source, mem_sample, True),
            "detached_bytes": _farm_resident(source, mem_sample, False),
        },
        "bounds": compute_bounds(bound, build_dfa(bound)).as_dict(),
        "counters": fleet["merged"]["counters"],
    }


def _serve_drive(source: str, n: int, sim_us: int,
                 mode: str) -> tuple[float, int]:
    """Time one detached-farm drive with the admin server absent
    (``noserver``), attached but idle (``idle``), or attached and
    scraped from a background thread (``scraped``)."""
    import threading

    from .obs.serve import AdminServer
    from .runtime.farm import Farm

    farm = Farm(source, n=n, program="blink", observe=False)
    server = None
    stop = threading.Event()
    scraper = None
    if mode != "noserver":
        server = AdminServer(farm.fleet_snapshot,
                             health_fn=farm.watchdog).start()
    if mode == "scraped":
        url = server.address + "/metrics"

        def hammer() -> None:
            while not stop.is_set():
                try:
                    _fetch(url, timeout=2)
                except OSError:
                    pass

        scraper = threading.Thread(target=hammer, daemon=True)
        scraper.start()
    try:
        elapsed, _ = _timed(farm.run_until, sim_us)
    finally:
        stop.set()
        if scraper is not None:
            scraper.join(timeout=2)
        if server is not None:
            server.close()
    reactions = sum(inst.program.sched.reaction_count
                    for inst in farm.instances)
    return elapsed, reactions


def _fetch(url: str, timeout: float = 5) -> bytes:
    import urllib.request

    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.read()


def bench_serve(repeats: int = 3) -> dict:
    """The serving-path overhead section: drives of a *detached* farm (no
    per-instance metrics — the worst case for relative overhead, since
    the baseline is as fast as the farm gets) in the three modes, plus
    one measured scrape of each endpoint."""
    from .apps import load
    from .obs.serve import AdminServer
    from .runtime.farm import Farm

    n, sim_us = SERVE_INSTANCES, SERVE_SIM_US
    source = load("blink")
    best = interleave({mode: partial(_serve_drive, source, n, sim_us, mode)
                       for mode in SERVE_MODES}, repeats)
    drive_s = {mode: secs for mode, (secs, _) in best.items()}
    reactions = best["noserver"][1]

    # one served farm, scraped once per endpoint, for latency/size
    farm = Farm(source, n=n, program="blink", observe=False)
    farm.run_until(sim_us)
    server = AdminServer(farm.fleet_snapshot,
                         health_fn=farm.watchdog).start()
    endpoints = {}
    try:
        for path in ("/metrics", "/healthz", "/snapshot"):
            latency_s, body = _timed(_fetch, server.address + path)
            endpoints[path] = {"latency_ms": latency_s * 1e3,
                               "bytes": len(body)}
        snap = json.loads(body)        # the /snapshot body
    finally:
        server.close()
    data = {
        "workload": {"program": "blink", "instances": n, "sim_us": sim_us,
                     "repeats": repeats, "detached": True},
        "drive_s": drive_s,
        "reactions": reactions,
        "events_per_s": {mode: _ratio(reactions, secs)
                         for mode, secs in drive_s.items()},
        "overhead": {
            "idle_vs_noserver": _ratio(drive_s["idle"], drive_s["noserver"]),
            "scraped_vs_noserver":
                _ratio(drive_s["scraped"], drive_s["noserver"]),
        },
        "endpoints": endpoints,
        "snapshot_counters": snap.get("merged", {}).get("counters", {}),
    }
    data["budget"] = {"idle_vs_noserver_max": SERVE_BUDGET,
                      "within_budget": _within(data, SERVE_GATES)}
    return data


def _instrumented_farm(source: str, tmp: Path, tag: str):
    """A farm with the full telemetry stack a production fleet runs:
    per-instance metrics plus the streaming JSONL tap."""
    from .runtime.farm import Farm

    stream = StreamingJsonlExporter(Path(tmp) / f"{tag}.jsonl",
                                    flush_every=1024)
    farm = Farm(source, observe=True, stream=stream, record=True)
    farm.add_program("blink", source)
    return farm


def bench_checkpoint(repeats: int = 3) -> dict:
    """The checkpoint-plane section, one interleaved run of six modes:

    * ``norecord`` / ``record`` — detached-farm drives without and with
      journal recording (keeping every instance checkpointable must be
      near-free on the reaction path);
    * ``snapshot`` / ``restore`` — capture and restore of one driven
      instance, plus the serialized size (recorded, not gated);
    * ``cold`` / ``warm`` — standing up ``n`` fully-telemetered instances
      at a target state: boot + drive with metrics and the JSONL tap
      attached, vs ``Farm.spawn(warm_from=ckpt)`` (detached journal
      replay, telemetry attached after).
    """
    import tempfile

    from .apps import load
    from .obs.fleet import FleetRegistry
    from .runtime.checkpoint import restore
    from .runtime.farm import Farm, _StubCEnv

    n, sim_us = CKPT_INSTANCES, CKPT_SIM_US
    source = load("blink")
    seed = Farm(source, n=1, program="blink", observe=False, record=True)
    seed.run_until(sim_us)
    ck = seed.checkpoint(0)
    # blink calls platform C stubs — restore needs the same auto-stubbing
    # environment the farm gives its instances
    stub_calls = FleetRegistry().counter_family(
        "bench_c_calls_total", ("symbol",))

    def drive(record: bool) -> tuple[float, None]:
        farm = Farm(source, n=n, program="blink", observe=False,
                    record=record)
        return _timed(farm.run_until, sim_us)[0], None

    def restore_one() -> tuple[float, None]:
        cenv = _StubCEnv(stub_calls)
        return _timed(restore, ck, cenv=cenv)[0], None

    def boot(tag: str) -> tuple[float, None]:
        farm = _instrumented_farm(source, Path(tmp), tag)
        if tag == "cold":
            secs, _ = _timed(lambda: (farm.spawn(n, program="blink"),
                                      farm.run_until(sim_us)))
        else:
            secs, _ = _timed(farm.spawn, n, program="blink", warm_from=ck)
        farm.close()
        return secs, None

    with tempfile.TemporaryDirectory(prefix="repro-bench-ckpt-") as tmp:
        best = interleave({
            "norecord": partial(drive, False),
            "record": partial(drive, True),
            "snapshot": partial(_timed, seed.checkpoint, 0),
            "restore": restore_one,
            "cold": partial(boot, "cold"),
            "warm": partial(boot, "warm"),
        }, repeats)
    secs = {mode: s for mode, (s, _) in best.items()}
    data = {
        "workload": {"program": "blink", "instances": n, "sim_us": sim_us,
                     "repeats": repeats},
        "drive_s": {"norecord": secs["norecord"], "record": secs["record"]},
        "overhead": {"record_vs_norecord":
                     _ratio(secs["record"], secs["norecord"])},
        "capture": {
            "snapshot_s": secs["snapshot"],
            "restore_s": secs["restore"],
            "bytes": len(ck.to_bytes()),
            "journal_entries": len(ck.journal),
            "reactions": ck.reaction_count,
        },
        "warm_start": {
            "cold_boot_s": secs["cold"],
            "warm_s": secs["warm"],
            "speedup": _ratio(secs["cold"], secs["warm"]),
            "cold_per_instance_ms": secs["cold"] / n * 1e3,
            "warm_per_instance_ms": secs["warm"] / n * 1e3,
        },
    }
    data["budget"] = {"record_vs_norecord_max": CHECKPOINT_BUDGET,
                      "warm_speedup_min": WARM_SPEEDUP_MIN,
                      "within_budget": _within(data, CHECKPOINT_GATES)}
    return data


def _analysis_corpus() -> list[Path]:
    root = Path(__file__).resolve().parents[2]
    return (sorted((root / "examples" / "ceu").glob("*.ceu"))
            + sorted((root / "tests" / "corpus").glob("*.ceu")))


def _comment_edit(source: str) -> str:
    """A single-region edit: one comment line inserted mid-file."""
    lines = source.splitlines(keepends=True)
    mid = len(lines) // 2
    return "".join(lines[:mid]) + "// bench edit\n" + "".join(lines[mid:])


def _literal_edit(source: str) -> Optional[str]:
    """A single-region edit that changes program values: the first
    ``= <int>`` initializer/assignment bumped by one."""
    import re

    for match in re.finditer(r"=\s*(\d+)\b", source):
        head = source[:match.start()].rsplit("\n", 1)[-1]
        if "//" in head:
            continue                   # inside a line comment
        return (source[:match.start(1)] + str(int(match.group(1)) + 1)
                + source[match.end(1):])
    return None


def _reanalyze(analyzer, source: str, edited: str) -> tuple[float, Any]:
    analyzer.analyze(source)           # untimed: back to the unedited text
    return _timed(analyzer.analyze, edited)


def _geomean(values: list[float]) -> float:
    import math

    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def bench_analysis(repeats: int = 3) -> dict:
    """Incremental-vs-cold lint latency over examples + corpus.

    For each file, interleaves a cold ``run_analysis`` with the
    :class:`~repro.analysis.IncrementalAnalyzer` re-analysis of two
    single-region edit kinds — a comment insertion (token stream
    unchanged: full DFA replay) and an integer-literal bump (masked token
    stream unchanged: DFA replay unless the file has conflicts).  Every
    incremental report is compared with the cold run of the same text;
    ``summary.all_identical`` is gated, the times are recorded."""
    from .analysis.engine import run_analysis
    from .analysis.incremental import IncrementalAnalyzer

    per_file = []
    all_identical = True
    for path in _analysis_corpus():
        source = path.read_text()
        name = str(path.relative_to(path.parents[2]))
        edits = {"comment": _comment_edit(source)}
        literal = _literal_edit(source)
        if literal is not None and literal != source:
            edits["literal"] = literal
        analyzer = IncrementalAnalyzer(filename=name)
        identical = {}
        modes = {"cold": partial(_timed, run_analysis, source, name)}
        for kind, edited in edits.items():
            analyzer.analyze(source)
            identical[kind] = (analyzer.analyze(edited).to_json()
                               == run_analysis(edited, name).to_json())
            modes[kind] = partial(_reanalyze, analyzer, source, edited)
        all_identical = all_identical and all(identical.values())
        best = interleave(modes, repeats)
        cold_s = best["cold"][0]
        entry = {"file": name, "cold_s": cold_s}
        for kind in edits:
            inc_s = best[kind][0]
            entry[kind] = {"incremental_s": inc_s,
                           "speedup": _ratio(cold_s, inc_s),
                           "identical": identical[kind]}
        entry["stats"] = dict(analyzer.stats)
        per_file.append(entry)

    comment_speedups = [e["comment"]["speedup"] for e in per_file]
    return {
        "workload": {"files": len(per_file), "repeats": repeats},
        "per_file": per_file,
        "summary": {
            "comment_speedup_geomean": _geomean(comment_speedups),
            "comment_speedup_min": min(comment_speedups, default=0.0),
            "literal_speedup_geomean": _geomean(
                [e["literal"]["speedup"] for e in per_file
                 if "literal" in e]),
            "all_identical": all_identical,
        },
    }


SERVE_GATES = (Gate("overhead.idle_vs_noserver", "max", SERVE_BUDGET),)
CHECKPOINT_GATES = (
    Gate("overhead.record_vs_norecord", "max", CHECKPOINT_BUDGET),
    Gate("warm_start.speedup", "min", WARM_SPEEDUP_MIN),
)


class Section(NamedTuple):
    """One ``repro bench`` measurement: ``measure(repeats)`` returns the
    section's record; ``file`` (if any) is written beside the snapshot;
    ``summary(record)`` is the one line printed for it."""

    name: str
    measure: Callable[[int], dict]
    file: Optional[str]
    summary: Callable[[dict], str]
    gates: tuple[Gate, ...]


SECTIONS = (
    Section(
        "vm", bench_vm, None,
        lambda d: f"{d['reactions_per_s']:.0f} reactions/s off; ratios "
        + ", ".join(f"{k}={d['ratios'][k]:.2f}" for k in RATIO_KEYS),
        (Gate("counters", "exact"),
         *(Gate(f"ratios.{key}", "tolerance") for key in RATIO_KEYS),
         # a detached bus must stay indistinguishable from one that
         # never had subscribers, whatever the baseline's ratio
         Gate("ratios.detached_vs_off", "max", 1.5, baseline_only=True))),
    Section(
        "stream", lambda _repeats: bench_stream(), None,
        lambda d: f"{d['records_per_s']:.0f} records/s, resident high "
        f"{d['resident_high']}",
        (Gate("resident_high", "max", "flush_every"),)),
    Section(
        "farm", bench_farm, "BENCH_farm.json",
        lambda d: f"{d['workload']['instances']} instances, "
        f"{d['attached']['instances_per_s']:.0f} spawns/s, "
        f"{d['attached']['events_per_s']:.0f} reactions/s attached, "
        f"p99 {d['latency_us']['p99']} us, "
        f"{d['resident_bytes_per_instance']['attached_bytes']:.0f} "
        f"B/instance (drive overhead "
        f"{d['overhead']['attached_vs_detached_drive']:.2f}x)",
        ()),
    Section(
        "analysis", bench_analysis, "BENCH_analysis.json",
        lambda d: f"{d['workload']['files']} files, comment-edit speedup "
        f"geomean {d['summary']['comment_speedup_geomean']:.1f}x "
        f"(min {d['summary']['comment_speedup_min']:.1f}x), literal-edit "
        f"geomean {d['summary']['literal_speedup_geomean']:.1f}x, "
        f"identical={d['summary']['all_identical']}",
        (Gate("summary.all_identical", "equal", True),)),
    Section(
        "serve", bench_serve, "BENCH_serve.json",
        lambda d: f"{d['workload']['instances']} instances, "
        f"{d['events_per_s']['noserver']:.0f} reactions/s detached; "
        f"overhead idle {d['overhead']['idle_vs_noserver']:.3f}x, scraped "
        f"{d['overhead']['scraped_vs_noserver']:.3f}x "
        f"(budget {SERVE_BUDGET:.2f}x)",
        SERVE_GATES),
    Section(
        "checkpoint", bench_checkpoint, "BENCH_checkpoint.json",
        lambda d: f"{d['workload']['instances']} instances; recording "
        f"overhead {d['overhead']['record_vs_norecord']:.3f}x (budget "
        f"{CHECKPOINT_BUDGET:.2f}x); snapshot "
        f"{d['capture']['snapshot_s'] * 1e3:.2f}ms / restore "
        f"{d['capture']['restore_s'] * 1e3:.2f}ms / "
        f"{d['capture']['bytes']} B; warm start "
        f"{d['warm_start']['warm_per_instance_ms']:.3f}ms/inst vs cold "
        f"{d['warm_start']['cold_per_instance_ms']:.3f}ms/inst = "
        f"{d['warm_start']['speedup']:.1f}x "
        f"(floor {WARM_SPEEDUP_MIN:.0f}x)",
        CHECKPOINT_GATES),
)


def snapshot(repeats: int = 3, names: tuple[str, ...] = CORE) -> dict:
    """The named sections' measurements (pure data, JSON-ready)."""
    snap = {"schema": SCHEMA, "python": platform.python_version(),
            "machine": platform.machine()}
    for section in SECTIONS:
        if section.name in names:
            snap[section.name] = section.measure(repeats)
    return snap


def check(snap: dict, baseline: Optional[dict] = None,
          tolerance: float = 0.5) -> list[str]:
    """Every violation of every gate row of every section in ``snap``
    (empty = the gate passes).  Without a ``baseline`` only the absolute
    rows run."""
    problems = []
    for section in SECTIONS:
        if section.name not in snap:
            continue
        base = None if baseline is None else baseline.get(section.name, {})
        problems += [f"{section.name}.{problem}" for gate in section.gates
                     for problem in gate.check(snap[section.name], base,
                                               tolerance)]
    return problems


def _write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def write_snapshot(snap: dict, out_dir: Path) -> Path:
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    out = Path(out_dir) / f"BENCH_{stamp}.json"
    _write_json(out, snap)
    return out


def main(args) -> int:
    """``repro bench`` entry point (wired up in :mod:`repro.cli`): measure,
    write and print every selected section, then run every gate and fail
    once if any row failed."""
    import sys

    out_dir = Path(args.out) if args.out else BENCH_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    snap = snapshot(args.repeats, CORE + tuple(
        section.name for section in SECTIONS
        if getattr(args, section.name, False)))
    for section in SECTIONS:
        if section.name not in snap:
            continue
        if section.file:
            _write_json(out_dir / section.file, snap[section.name])
            print(f"wrote {out_dir / section.file}")
        print(f"{section.name}: {section.summary(snap[section.name])}")
    print(f"wrote {write_snapshot(snap, out_dir)}")
    baseline_path = Path(args.baseline) if args.baseline \
        else BASELINE_PATH
    baseline = None
    failed = False
    if args.update_baseline:
        _write_json(baseline_path, snap)
        print(f"updated baseline {baseline_path}")
    elif args.check:
        if baseline_path.exists():
            baseline = json.loads(baseline_path.read_text())
        else:
            print(f"no baseline at {baseline_path} — run with "
                  f"--update-baseline first", file=sys.stderr)
            failed = True
    problems = check(snap, baseline, args.tolerance)
    for problem in problems:
        print(f"REGRESSION {problem}", file=sys.stderr)
    if baseline is not None and not problems:
        print(f"regression gate passed (baseline {baseline_path.name}, "
              f"tolerance {args.tolerance:.0%})")
    return 1 if failed or problems else 0


__all__ = ["SCHEMA", "SECTIONS", "Section", "Gate", "interleave",
           "vm_program", "vm_mode", "bench_vm", "bench_stream", "bench_farm",
           "bench_analysis", "bench_serve", "bench_checkpoint", "snapshot",
           "write_snapshot", "check", "make_fanout"]
