"""The observability layer: hook bus, metrics, exporters, zero-impact.

Covers (ISSUE 1): hook-bus ordering on known programs, metrics snapshot
correctness, Chrome-trace/JSONL export validity (slice nesting included),
the §2.2 emit-stack depth, DES/platform instrumentation, and the
hypothesis property that *enabling hooks never changes behaviour* as
digested by ``Trace.signature()``.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (HOOK_EVENTS, ChromeTraceExporter, EventLog, HookBus,
                       HookSubscriber, JsonlExporter, MetricsCollector,
                       MetricsRegistry, render_stats)
from repro.obs.metrics import Histogram
from repro.platforms import ArduinoBoard, SdlHost, TinyOsWorld
from repro.runtime import Program, Trace
from repro.sim.des import Simulator

COUNTER_SRC = """
input void A;
internal void e;
int v = 0;
par do
   loop do
      await A;
      v = v + 1;
      emit e;
   end
with
   loop do
      await e;
      v = v + 10;
   end
end
"""

NESTED_EMIT_SRC = """
input void A;
internal void e, f;
par do
   loop do
      await A;
      emit e;
   end
with
   loop do
      await e;
      emit f;
   end
with
   loop do
      await f;
   end
end
"""


def observed(src, *events):
    program = Program(src, observe=True)
    log = program.observe(EventLog())
    program.start()
    for name in events:
        program.send(name)
    return program, log


# ---------------------------------------------------------------- hook bus
class TestHookBus:
    def test_disabled_until_subscribed(self):
        bus = HookBus()
        assert not bus.enabled
        sub = bus.subscribe(HookSubscriber())
        assert bus.enabled
        bus.unsubscribe(sub)
        assert not bus.enabled

    def test_program_default_is_unobserved(self):
        program = Program("input void A;\nawait A;")
        assert not program.hooks.enabled

    def test_every_taxonomy_event_has_bus_and_subscriber_methods(self):
        bus = HookBus()
        sub = HookSubscriber()
        for name in HOOK_EVENTS:
            assert callable(getattr(bus, name))
            assert callable(getattr(sub, f"on_{name}"))

    def test_every_event_reaches_every_record_subscriber(self, tmp_path):
        """Each generic recorder sees every taxonomy event once, with the
        fields named as in ``HOOK_EVENTS``."""
        from repro.obs import (CausalGraph, FlightRecorder, JsonlExporter,
                               LineTee, StreamingJsonlExporter)
        from repro.runtime.farm import InstanceTap

        bus = HookBus()
        log = bus.subscribe(EventLog())
        graph = bus.subscribe(CausalGraph(bus))
        jsonl = bus.subscribe(JsonlExporter())
        stream = bus.subscribe(
            StreamingJsonlExporter(tmp_path / "s.jsonl", flush_every=3))
        recorder = bus.subscribe(FlightRecorder())
        tee = bus.subscribe(LineTee())
        tapped = FlightRecorder()
        bus.subscribe(InstanceTap([tapped], 7))
        expected = []
        for name, fields in HOOK_EVENTS.items():
            args = tuple(f"{name}.{field}" for field in fields)
            getattr(bus, name)(*args)
            expected.append((name, dict(zip(fields, args))))
        stream.close()
        records = [{"ev": name, "seq": seq, **fields}
                   for seq, (name, fields) in enumerate(expected)]
        lines = [json.dumps(rec) for rec in records]
        assert log.events == expected
        assert [(n.event, n.fields) for n in graph.nodes.values()] == \
            expected
        assert graph.nodes[bus.last_span].reaction == "reaction_begin.index"
        assert jsonl.records == records
        assert (tmp_path / "s.jsonl").read_text().splitlines() == lines
        assert recorder.lines() == lines == list(tee.ring)
        assert [json.loads(line) for line in tapped.lines()] == \
            [{**rec, "inst": 7} for rec in records]

    def test_trails_killed_together_report_in_spawn_order(self):
        """A region kill reports its victims in spawn order, so the
        event stream never depends on object addresses."""
        branches = "\nwith\n".join(["   await B;"] * 12)
        src = (f"input void A, B;\npar/or do\n   await A;\nwith\n"
               f"{branches}\nend\nawait forever;")
        _, log = observed(src, "A")
        spawned = [f["trail"] for _, f in log.of("trail_spawn")]
        killed = [f["trail"] for _, f in log.of("trail_kill")]
        assert len(killed) == 12
        assert killed == [t for t in spawned if t in killed]

    def test_reaction_bracketing_order(self):
        _, log = observed(COUNTER_SRC, "A")
        names = log.names()
        # spawn of the root trail precedes the boot reaction
        assert names[0] == "trail_spawn"
        assert names[1] == "reaction_begin"
        assert names[-1] == "reaction_end"
        # begin/end strictly alternate
        brackets = [n for n in names
                    if n in ("reaction_begin", "reaction_end")]
        assert brackets == ["reaction_begin", "reaction_end"] * 2

    def test_trail_resume_halt_pairing(self):
        _, log = observed(COUNTER_SRC, "A")
        open_trails = set()
        for name, fields in log.events:
            if name == "trail_resume":
                assert fields["trail"] not in open_trails
                open_trails.add(fields["trail"])
            elif name == "trail_halt":
                assert fields["trail"] in open_trails
                open_trails.discard(fields["trail"])
        assert not open_trails

    def test_emit_stack_depth(self):
        _, log = observed(NESTED_EMIT_SRC, "A")
        emits = [(f["name"], f["depth"])
                 for n, f in log.of("emit_internal")]
        # emit e from the handler trail runs emit f *within* it (§2.2)
        assert ("e", 1) in emits and ("f", 2) in emits

    def test_await_targets_reported(self):
        _, log = observed(COUNTER_SRC, "A")
        targets = {f["target"] for _, f in log.of("await_begin")}
        assert targets == {"ext:A", "int:e"}

    def test_region_kill_and_trail_kill(self):
        src = ("input void A;\npar/or do\n   await A;\nwith\n"
               "   await forever;\nend\nreturn 1;")
        program, log = observed(src, "A")
        assert program.result == 1
        assert log.of("region_kill")
        assert log.of("trail_kill")

    def test_timer_schedule_and_fire(self):
        program = Program("await 10ms;\nreturn 5;", observe=True)
        log = program.observe(EventLog())
        program.start()
        program.advance("25ms")
        (sched,) = log.of("timer_schedule")
        assert sched[1]["deadline_us"] == 10_000
        (fire,) = log.of("timer_fire")
        assert fire[1] == {"deadline_us": 10_000, "delta_us": 15_000,
                           "n_trails": 1}

    def test_event_log_ring_bounds_memory(self):
        log = EventLog(maxlen=8)
        for i in range(100):
            log.on_step("main", (), "Nop", i)
        assert len(log.events) == 8
        assert log.seen == 100
        assert log.dropped == 92
        # the ring keeps the *latest* events
        assert [f["line"] for _, f in log.events] == list(range(92, 100))

    def test_event_log_default_is_unbounded(self):
        log = EventLog()
        for i in range(100):
            log.on_step("main", (), "Nop", i)
        assert len(log.events) == 100 and log.dropped == 0

    def test_event_log_ring_subscribed_to_program(self):
        program = Program(COUNTER_SRC, observe=True)
        log = program.observe(EventLog(maxlen=5))
        program.start()
        for _ in range(10):
            program.send("A")
        assert len(log.events) == 5
        assert log.seen > 5 and log.dropped == log.seen - 5
        # helpers keep working on the ring
        assert len(log.names()) == 5
        assert all(n in HOOK_EVENTS for n in log.names())

    def test_async_steps_observed(self):
        src = """
        input int X;
        int total = 0;
        par/or do
           loop do
              int v = await X;
              total = total + v;
           end
        with
           async do
              emit X = 1;
              emit X = 2;
           end
        end
        return total;
        """
        program = Program(src, observe=True)
        log = program.observe(EventLog())
        program.start()
        kinds = [f["kind"] for _, f in log.of("async_step")]
        assert "emit_ext" in kinds and "done" in kinds
        assert program.result == 3


# ----------------------------------------------------------------- metrics
class TestMetrics:
    def test_counts_on_known_program(self):
        program, _ = observed(COUNTER_SRC, "A", "A", "A")
        c = program.stats()["counters"]
        assert c["reactions_total"] == 4            # boot + 3 events
        assert c["reactions_by_trigger.boot"] == 1
        assert c["reactions_by_trigger.event:A"] == 3
        assert c["emits_internal_total"] == 3
        assert c["emits_by_event.e"] == 3
        assert c["trails_spawned_total"] == 3       # root + 2 branches
        assert c["awaits_by_target.ext:A"] == 4     # 3 consumed + 1 armed
        assert program.sched.memory.snapshot()["v"] == 33

    def test_histograms_and_gauges(self):
        program, _ = observed(COUNTER_SRC, "A", "A")
        stats = program.stats()
        spr = stats["histograms"]["steps_per_reaction"]
        assert spr["count"] == 3 and spr["min"] >= 1
        lat = stats["histograms"]["reaction_latency_us"]
        assert lat["count"] == 3
        depth = stats["histograms"]["emit_stack_depth"]
        assert depth["max"] == 1
        assert stats["gauges"]["live_trails"]["max"] == 3
        assert stats["derived"]["reactions_per_sec"] > 0

    def test_runtime_block_live_without_observe(self):
        program = Program(COUNTER_SRC)
        program.start()
        program.send("A")
        stats = program.stats()
        assert stats["runtime"]["reactions_total"] == 2
        assert stats["runtime"]["live_trails"] == 3
        assert stats["runtime"]["observed"] is False
        assert stats["counters"] == {}     # no collector attached

    def test_histogram_bucketing(self):
        h = Histogram((1, 2, 4))
        for v in (0, 1, 2, 3, 5, 100):
            h.record(v)
        assert h.count == 6 and h.min == 0 and h.max == 100
        assert h.counts == [2, 1, 1, 2]    # ≤1, ≤2, ≤4, overflow
        assert h.snapshot()["buckets"][-1] == ["inf", 2]

    def test_histogram_bisect_matches_linear_bucket_rule(self):
        """``record`` bisects the bounds; the bucket it picks must be the
        one the linear ``value <= bound`` scan picked: exact bounds,
        just either side of them, zero, floats and overflow."""
        bounds = (1, 2, 5, 10, 1000)

        def linear(value):
            for i, bound in enumerate(bounds):
                if value <= bound:
                    return i
            return len(bounds)

        for value in (0, 0.0, -3, 0.5, 1, 1.0, 1.0000001, 2, 2.5, 5, 5.0,
                      9.999, 10, 10.5, 999, 1000, 1000.0, 1000.001, 1001,
                      10 ** 9, float("inf")):
            h = Histogram(bounds)
            h.record(value)
            assert h.counts.index(1) == linear(value), value

    def test_steps_counter_is_the_scheduler_count(self):
        """``steps_total`` comes from the scheduler's per-reaction count,
        so it always equals the runtime block's ``steps_total``."""
        from pathlib import Path

        from repro.apps import load, names
        from repro.fuzz.oracles import run_vm
        from repro.runtime.farm import Farm

        runs = []
        corpus = Path(__file__).parent / "corpus"
        for path in sorted(corpus.glob("*.ceu")):
            script = [tuple(item) for item in json.loads(
                path.with_suffix(".json").read_text())["script"]]
            runs.append(run_vm(path.read_text(), script,
                               observe=True).stats)
        for name in names():
            # a game core spliced into hosts, and two apps that need
            # platform services the farm's no-op C stubs cannot fake
            if name in ("mario_game", "client", "ship"):
                continue
            farm = Farm(load(name), n=1, program=name)
            for sym in farm.programs[name].events.values():
                if sym.kind == "input" and not sym.type.pointers:
                    farm.broadcast(sym.name, 1)
            farm.run_until("3s")
            runs.append(farm.instances[0].program.stats())
        for stats in runs:
            assert stats["counters"]["steps_total"] == \
                stats["runtime"]["steps_total"] > 0

    def test_collector_standalone(self):
        reg = MetricsRegistry()
        col = MetricsCollector(reg)
        col.on_reaction_begin(0, "boot", None, 0)
        col.on_reaction_end(0, "boot", 4, 2_000)
        snap = reg.snapshot()
        assert snap["counters"]["reactions_total"] == 1
        assert snap["histograms"]["steps_per_reaction"]["sum"] == 4

    def test_render_stats_is_textual(self):
        program, _ = observed(COUNTER_SRC, "A")
        text = render_stats(program.stats())
        assert "reactions_total" in text and "histograms" in text

    def test_histogram_percentiles(self):
        h = Histogram((10, 20, 50, 100))
        for v in range(1, 101):     # uniform 1..100
            h.record(v)
        assert h.percentile(0) <= h.percentile(50) <= h.percentile(100)
        assert abs(h.percentile(50) - 50) <= 10
        assert abs(h.percentile(95) - 95) <= 5
        assert h.percentile(100) == 100
        p = h.percentiles()
        assert set(p) == {"p50", "p95", "p99"}

    def test_histogram_percentiles_clamped_to_observed_range(self):
        h = Histogram((1000,))
        h.record(7)
        # one sample in a huge bucket must not interpolate past reality
        assert h.percentile(50) == 7 and h.percentile(99) == 7
        assert Histogram().percentile(50) is None

    def test_histogram_percentile_overflow_bucket(self):
        h = Histogram((10,))
        h.record(5)
        h.record(1000)              # overflow bucket
        assert h.percentile(99) == 1000

    def test_snapshot_and_render_include_percentiles(self):
        program, _ = observed(COUNTER_SRC, "A", "A")
        lat = program.stats()["histograms"]["reaction_latency_us"]
        assert "p50" in lat and "p95" in lat and "p99" in lat
        assert lat["p50"] <= lat["p95"] <= lat["p99"]
        text = render_stats(program.stats())
        assert "p50=" in text and "p99=" in text


# --------------------------------------------------------------- exporters
def chrome_doc(src, *events):
    program = Program(src)
    chrome = program.observe(ChromeTraceExporter())
    program.start()
    for name in events:
        program.send(name)
    return json.loads(json.dumps(chrome.to_json()))


class TestChromeExport:
    def test_slice_nesting_is_balanced(self):
        doc = chrome_doc(COUNTER_SRC, "A", "A")
        stacks: dict = {}
        last_ts = -1.0
        for ev in doc["traceEvents"]:
            if ev["ph"] == "M":
                continue
            assert ev["ts"] > last_ts      # strictly monotone timeline
            last_ts = ev["ts"]
            tid = ev["tid"]
            if ev["ph"] == "B":
                stacks.setdefault(tid, []).append(ev)
            elif ev["ph"] == "E":
                assert stacks.get(tid), f"unmatched E on tid {tid}"
                stacks[tid].pop()
        assert all(not open_ for open_ in stacks.values())

    def test_one_track_per_trail_plus_scheduler(self):
        doc = chrome_doc(COUNTER_SRC, "A")
        names = {ev["tid"]: ev["args"]["name"]
                 for ev in doc["traceEvents"]
                 if ev["ph"] == "M" and ev["name"] == "thread_name"}
        assert names[0] == "scheduler"
        # root + both par branches got their own tracks
        assert len(names) == 4

    def test_emits_are_instant_events(self):
        doc = chrome_doc(COUNTER_SRC, "A")
        instants = [ev for ev in doc["traceEvents"] if ev["ph"] == "i"]
        assert any(ev["name"] == "emit e" for ev in instants)

    def test_reaction_slices_on_scheduler_track(self):
        doc = chrome_doc(COUNTER_SRC, "A")
        slices = [ev for ev in doc["traceEvents"]
                  if ev["ph"] == "B" and ev["tid"] == 0]
        assert [ev["name"] for ev in slices] == \
            ["reaction boot", "reaction event:A"]

    def test_write_is_valid_json_file(self, tmp_path):
        program = Program(COUNTER_SRC)
        chrome = program.observe(ChromeTraceExporter())
        program.start()
        path = tmp_path / "trace.json"
        chrome.write(path)
        assert "traceEvents" in json.loads(path.read_text())

    def test_zero_duration_reactions_get_monotone_nudges(self):
        """Many same-µs reactions: every event still gets a strictly
        increasing timestamp, 1 ns (0.001 µs) apart, in delivery order."""
        chrome = ChromeTraceExporter()
        for i in range(50):
            chrome.on_reaction_begin(i, "event:A", None, 0)
            chrome.on_reaction_end(i, "event:A", 1, 0)
        ts = [ev["ts"] for ev in chrome.events if ev["ph"] != "M"]
        assert len(ts) == 100
        assert all(b > a for a, b in zip(ts, ts[1:]))
        deltas = [round(b - a, 6) for a, b in zip(ts, ts[1:])]
        assert all(d == 0.001 for d in deltas)

    def test_nudges_never_overtake_a_small_clock_advance(self):
        """Regression: >1000 zero-duration events accumulate >1 µs of
        nudges; a subsequent real clock advance smaller than that must
        not send the timeline backwards."""
        chrome = ChromeTraceExporter()
        for i in range(700):                      # 1400 events = 1.4 µs
            chrome.on_reaction_begin(i, "event:A", None, 0)
            chrome.on_reaction_end(i, "event:A", 1, 0)
        chrome.on_reaction_begin(700, "time", None, 1)   # clock: 0 → 1 µs
        chrome.on_reaction_end(700, "time", 1, 0)
        ts = [ev["ts"] for ev in chrome.events if ev["ph"] != "M"]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_nudged_slices_stay_properly_nested(self):
        """Zero-duration reactions with trail activity inside: B/E pairs
        must stay balanced and ordered per track on the nudged times."""
        program = Program(COUNTER_SRC)
        chrome = program.observe(ChromeTraceExporter())
        program.start()
        for _ in range(5):
            program.send("A")       # all at VM time 0
        events = [ev for ev in chrome.to_json()["traceEvents"]
                  if ev["ph"] != "M"]
        ts = [ev["ts"] for ev in events]
        assert all(b > a for a, b in zip(ts, ts[1:]))
        depth: dict = {}
        for ev in events:
            if ev["ph"] == "B":
                depth[ev["tid"]] = depth.get(ev["tid"], 0) + 1
            elif ev["ph"] == "E":
                depth[ev["tid"]] = depth[ev["tid"]] - 1
                assert depth[ev["tid"]] >= 0
        assert all(d == 0 for d in depth.values())

    def test_real_clock_advance_resyncs_timeline(self):
        """After a handful of nudges, a large clock jump lands exactly
        on the VM time (the nudges don't drift the timeline)."""
        chrome = ChromeTraceExporter()
        chrome.on_reaction_begin(0, "boot", None, 0)
        chrome.on_reaction_end(0, "boot", 1, 0)
        chrome.on_reaction_begin(1, "time", None, 10_000)
        slices = [ev for ev in chrome.events if ev["ph"] == "B"]
        assert slices[-1]["ts"] == 10_000.0


class TestJsonlExport:
    def test_fields_match_taxonomy(self, tmp_path):
        program = Program(COUNTER_SRC)
        jsonl = program.observe(JsonlExporter())
        program.start()
        program.send("A")
        path = tmp_path / "trace.jsonl"
        jsonl.write(path)
        lines = path.read_text().splitlines()
        assert lines
        for i, line in enumerate(lines):
            rec = json.loads(line)
            assert rec["seq"] == i
            fields = set(rec) - {"ev", "seq"}
            assert fields == set(HOOK_EVENTS[rec["ev"]])


# ------------------------------------------------- behaviour preservation
class TestSignature:
    def test_signature_distinguishes_internal_emit_order(self):
        """Regression: two traces identical in steps but differing in
        internal-event emission order must not share a signature."""
        def fake_trace(order):
            trace = Trace()
            trace.on_reaction_begin(0, "event:A", None, 0)
            trace.on_step("main", (), "EmitInt", 3)
            for name in order:
                trace.on_emit_internal(name, 1, "main", 0)
            trace.on_reaction_end(0, "event:A", 1, 100)
            return trace

        assert fake_trace(["e", "f"]).signature() != \
            fake_trace(["f", "e"]).signature()
        assert fake_trace(["e", "f"]).signature() == \
            fake_trace(["e", "f"]).signature()

    @given(st.lists(st.one_of(
        st.just(("ev", "A")),
        st.integers(1, 40).map(lambda ms: ("adv", ms * 1000))),
        max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_hooks_never_change_signature(self, seq):
        """Enabling the full observer stack must not perturb execution."""
        timed = """
        input void A;
        internal void e;
        int v = 0;
        par do
           loop do
              await A;
              emit e;
           end
        with
           loop do
              await e;
              v = v + 1;
           end
        with
           loop do
              await 15ms;
              v = v + 2;
           end
        end
        """

        def drive(observe):
            program = Program(timed, trace=True, observe=observe)
            if observe:
                program.observe(ChromeTraceExporter())
                program.observe(JsonlExporter())
                program.observe(EventLog())
            program.start()
            for kind, value in seq:
                if kind == "ev":
                    program.send(value)
                else:
                    program.advance(value)
            return program

        bare, full = drive(False), drive(True)
        assert bare.trace.signature() == full.trace.signature()
        assert bare.sched.memory.snapshot() == \
            full.sched.memory.snapshot()


# ------------------------------------------------------- DES & platforms
class TestDesAndPlatforms:
    def test_simulator_counters_and_hooks(self):
        bus = HookBus()
        log = bus.subscribe(EventLog())
        sim = Simulator(hooks=bus)
        fired = []
        sim.after(100, lambda: fired.append(1))
        handle = sim.after(200, lambda: fired.append(2))
        sim.cancel(handle)
        sim.run()
        stats = sim.stats()
        assert stats["events_scheduled"] == 2
        assert stats["events_fired"] == 1
        assert stats["events_cancelled"] == 1
        assert stats["max_heap_size"] == 2
        assert log.names().count("des_schedule") == 2
        assert log.names().count("des_fire") == 1
        assert log.names().count("des_cancel") == 1

    def test_tinyos_world_stats(self):
        src = """
        input _message_t* Radio_receive;
        loop do
           await 50ms;
           _message_t msg;
           int* cnt = _Radio_getPayload(&msg);
           *cnt = 1;
           _Radio_send(1, &msg);
        end
        """
        world = TinyOsWorld(observe=True)
        world.add_mote(0, src)
        world.add_mote(1, "input _message_t* Radio_receive;\nloop do\n"
                          "   _message_t* msg = await Radio_receive;\nend")
        world.boot()
        world.run_until(500_000)
        stats = world.stats()
        assert stats["radio"]["radio.sent"] >= 9
        assert stats["radio"]["radio.delivered"] == \
            stats["radio"]["radio.sent"]
        assert stats["sim"]["events_fired"] > 0
        assert stats["motes"][0]["counters"]["reactions_total"] > 0

    def test_arduino_board_stats(self):
        board = ArduinoBoard(
            "loop do\n   await 100ms;\n   _digitalWrite(13, _HIGH);\nend",
            observe=True)
        board.boot()
        board.run_for("1s")
        stats = board.stats()
        assert stats["board"]["pin_writes"] == 10
        assert stats["counters"]["timers_fired_total"] == 10

    def test_sdl_host_stats(self):
        host = SdlHost("""
        input void Step;
        int n = 0;
        par/or do
           async do
              int i = 0;
              loop do
                 if i == 3 then
                    break;
                 end
                 i = i + 1;
                 emit Step;
              end
           end
        with
           loop do
              await Step;
              n = n + 1;
           end
        end
        return n;
        """, observe=True)
        host.run()
        stats = host.stats()
        assert stats["counters"]["async_steps_total"] > 0
        assert host.program.result == 3
