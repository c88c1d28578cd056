"""The reactor farm (PR 6 tentpole, ``repro.runtime.farm``).

The load-bearing properties:

* **shared compile, per-instance state** — N instances of one
  :class:`BoundProgram`, each with its own VM clock offset by spawn
  time, multiplexed over one DES calendar with exactly one armed entry
  per instance;
* **deterministic fleet semantics** — same workload → same merged
  counters, independent of instance count interleaving; events queue
  per-instance and deliver in ``(time, seq)`` order;
* **one telemetry pipeline** — every instance's hook bus feeds shared
  sinks and the cross-instance rollup, the watchdog reads the same
  histograms, and the Prometheus exposition of the whole fleet is
  pinned by a golden (timing-dependent series filtered).

``prom_deterministic_lines`` is also imported by the CI farm-smoke job
to compare a live 1k-instance run against ``goldens/farm_blink.prom``
(regenerate with ``python tests/mint_goldens.py --farm`` after an
intentional metrics change).
"""

import json
from pathlib import Path

import pytest

from repro.apps import load
from repro.cli import main
from repro.obs import (FlightRecorder, StreamingJsonlExporter,
                       merge_snapshots, render_prom)
from repro.runtime.farm import Farm

GOLDEN = Path(__file__).parent / "goldens" / "farm_blink.prom"

COUNTER = """
input int STEP;
output int TOTAL;
int acc = 0;
loop do
   int d = await STEP;
   acc = acc + d;
   emit TOTAL = acc;
end
"""

ONESHOT = "input void GO;\nawait GO;"


def prom_deterministic_lines(text: str) -> str:
    """Project a farm exposition down to its deterministic lines: the
    reaction-latency histogram is wall-clock-shaped, everything else is
    a pure function of the workload."""
    keep = [line for line in text.splitlines()
            if "reaction_latency_us" not in line]
    return "\n".join(keep) + "\n"


# ------------------------------------------------------------ lifecycle
class TestLifecycle:
    def test_spawn_boots_instances_at_current_time(self):
        farm = Farm(load("blink"), n=10, program="blink")
        assert farm.live() == 10
        snap = farm.fleet_snapshot()
        assert snap["merged"]["counters"]["reactions_total"] == 10  # boots
        assert snap["programs"] == {"blink": 10}

    def test_late_spawn_gets_clock_offset(self):
        farm = Farm(load("blink"), n=1, program="blink")
        farm.run_until(300_000)
        late, = farm.spawn(1, program="blink")
        assert late.t0 == 300_000
        farm.run_until(550_000)
        # early instance saw the 250ms and 500ms deadlines; the late one
        # has only been alive 250ms of its own clock
        early = farm.instances[0].program.sched.reaction_count
        assert early == 1 + 3          # boot + 250, 500(x2 timers)...
        assert late.program.sched.reaction_count == 2   # boot + its 250ms

    def test_terminated_instances_retire(self):
        farm = Farm(ONESHOT, n=5, program="oneshot")
        farm.broadcast("GO")
        farm.run_until(farm.sim.now)
        assert farm.live() == 0
        snap = farm.fleet_snapshot()
        assert snap["done"] == 5
        fam = snap["farm"]["farm_instances_retired_total"]
        assert fam["series"] == [[["oneshot"], 5]]
        live = snap["farm"]["farm_instances_live"]["series"][0][1]
        assert live["value"] == 0 and live["max"] == 5

    def test_events_to_dead_instances_are_dropped_and_counted(self):
        farm = Farm(ONESHOT, n=2, program="oneshot")
        farm.broadcast("GO")
        farm.run_until(farm.sim.now)
        farm.send(0, "GO")
        farm.run_until(farm.sim.now)
        snap = farm.fleet_snapshot()
        dropped = snap["farm"]["farm_events_dropped_total"]["series"]
        assert dropped == [[["oneshot", "GO"], 1]]

    def test_multiple_programs_one_farm(self):
        farm = Farm()
        farm.add_program("blink", load("blink"))
        farm.add_program("counter", COUNTER)
        farm.spawn(3, program="blink")
        farm.spawn(2, program="counter")
        with pytest.raises(ValueError):
            farm.spawn(1)              # ambiguous without program=
        snap = farm.fleet_snapshot()
        assert snap["programs"] == {"blink": 3, "counter": 2}


# ------------------------------------------------------------ semantics
class TestFleetSemantics:
    def test_blink_reaction_counts_are_exact(self):
        farm = Farm(load("blink"), n=50, program="blink")
        farm.run_until("1s")
        counters = farm.fleet_snapshot()["merged"]["counters"]
        # per instance: boot + 4×250ms + 2×500ms + 1×1s timer reactions
        assert counters["reactions_total"] == 50 * 8
        assert counters["reactions_by_trigger.boot"] == 50
        assert counters["reactions_by_trigger.time"] == 50 * 7
        assert counters["timers_fired_total"] == 50 * 7

    def test_merged_counters_independent_of_fleet_size(self):
        def per_instance(n):
            farm = Farm(load("blink"), n=n, program="blink")
            farm.run_until("1s")
            counters = farm.fleet_snapshot()["merged"]["counters"]
            return {k: v / n for k, v in counters.items()}

        assert per_instance(1) == per_instance(17)

    def test_send_targets_one_instance(self):
        farm = Farm(COUNTER, n=3, program="counter")
        farm.send(1, "STEP", 5)
        farm.send(1, "STEP", 2)
        farm.run_until(farm.sim.now)
        counts = [inst.program.sched.reaction_count
                  for inst in farm.instances]
        assert counts == [1, 3, 1]     # boot + 2 deliveries to #1 only
        events = farm.fleet_snapshot()["farm"]["farm_events_total"]
        assert events["series"] == [[["counter", "STEP"], 2]]

    def test_outputs_flow_into_fleet_family(self):
        farm = Farm(COUNTER, n=4, program="counter")
        farm.broadcast("STEP", 1)
        farm.run_until(farm.sim.now)
        outputs = farm.fleet_snapshot()["farm"]["farm_outputs_total"]
        assert outputs["series"] == [[["counter", "TOTAL"], 4]]

    def test_undefined_c_symbols_become_counting_stubs(self):
        farm = Farm(load("blink"), n=2, program="blink")
        farm.run_until("1s")
        calls = farm.fleet_snapshot()["farm"]["farm_c_calls_total"]
        series = {tuple(k): v for k, v in calls["series"]}
        # 3 trails toggle their LED once per period over 1s
        assert series[("Leds_led0Toggle",)] == 2 * 4
        assert series[("Leds_led1Toggle",)] == 2 * 2
        assert series[("Leds_led2Toggle",)] == 2 * 1

    def test_run_script_broadcasts_and_advances(self):
        farm = Farm(COUNTER, n=2, program="counter")
        farm.run_script([("E", "STEP", 3), ("T", 1000),
                         ("E", "STEP", 4)])
        counters = farm.fleet_snapshot()["merged"]["counters"]
        assert counters["reactions_total"] == 2 * 3
        assert farm.sim.now == 1000


# ------------------------------------------------------------- calendar
class TestCalendar:
    def test_one_armed_entry_per_instance(self):
        farm = Farm(load("blink"), n=20, program="blink")
        # blink arms 3 timers per instance but the farm multiplexes them
        # through a single calendar entry each
        assert farm.sim.pending() == 20

    def test_watchdog_clean_fleet_has_no_flags(self):
        farm = Farm(load("blink"), n=10, program="blink")
        farm.run_until("1s")
        # a huge absolute floor silences the wall-clock-noise lagging
        # heuristic; a correctly driven fleet must have nothing stuck
        report = farm.watchdog(min_lag_us=10**9)
        assert report["flagged"] == []
        assert report["fleet_p99_us"] is not None

    def test_watchdog_flags_stuck_instance(self):
        farm = Farm(load("blink"), n=3, program="blink")
        farm.run_until("500ms")
        stuck = farm.instances[1]
        farm.sim.cancel(stuck.handle)  # sabotage: drop its calendar entry
        stuck.handle = None
        farm.sim.run_until(800_000)
        for inst in farm.instances:
            if inst.handle is not None:
                inst.program.at(inst.local(800_000))
                farm._post_drive(inst)
        report = farm.watchdog()
        assert [f["instance"] for f in report["flagged"]] == [1]
        assert report["flagged"][0]["reason"] == "stuck"
        flags = farm.fleet_snapshot()["farm"]["farm_watchdog_flags_total"]
        assert flags["series"] == [[["stuck"], 1]]


class TestTickCost:
    TICK = "loop do\n   await 5ms;\nend\n"

    def test_tick_cost_is_flat_in_idle_instances(self, monkeypatch):
        """A tick drives only the instances due in it: the VM clock
        calls during one 10 ms ``run_until`` are the same beside 10 and
        beside 2,000 idle instances."""
        from repro.runtime.scheduler import Scheduler

        real = Scheduler.go_time
        counts = []
        for n_idle in (10, 2_000):
            farm = Farm(observe=False)
            farm.add_program("blink", load("blink"))
            farm.add_program("tick", self.TICK)
            farm.spawn(n_idle, program="blink")   # first deadline 250ms
            farm.run_until(100_000)
            farm.spawn(3, program="tick")         # due at 105 and 110ms
            calls = []

            def counting(sched, now, _calls=calls):
                _calls.append(now)
                return real(sched, now)

            monkeypatch.setattr(Scheduler, "go_time", counting)
            farm.run_until(farm.sim.now + 10_000)
            monkeypatch.setattr(Scheduler, "go_time", real)
            counts.append(len(calls))
        assert counts[0] == counts[1] == 3 * 2, counts

    def test_align_brings_every_clock_to_now_without_reacting(self):
        farm = Farm(load("blink"), n=3, program="blink")
        farm.run_until(300_000)
        late, = farm.spawn(1, program="blink")
        farm.run_until(400_000)
        reactions = [i.program.sched.reaction_count
                     for i in farm.instances]
        # nobody was due since 250ms: the clocks lag until aligned
        assert farm.instances[0].program.sched.clock == 250_000
        farm.align()
        assert [i.program.sched.clock for i in farm.instances] == \
            [400_000] * 3 + [100_000]
        assert [i.program.sched.reaction_count
                for i in farm.instances] == reactions
        assert late.program.sched.clock == late.local(400_000)


# ------------------------------------------------------------ telemetry
class TestSharedTelemetry:
    def test_fleet_stream_is_inst_tagged_with_global_seq(self, tmp_path):
        path = tmp_path / "fleet.jsonl"
        stream = StreamingJsonlExporter(path, flush_every=64)
        recorder = FlightRecorder(maxlen=128)
        farm = Farm(load("blink"), n=4, program="blink", stream=stream,
                    recorder=recorder)
        farm.run_until("1s")
        farm.close()
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert [r["seq"] for r in records] == list(range(len(records)))
        assert {r["inst"] for r in records} == {0, 1, 2, 3}
        assert recorder.seq == len(records)

    def test_live_fold_equals_snapshot_merge(self):
        """The scrape folds the live per-instance registries and takes one
        snapshot; the result must equal merging every instance's own
        snapshot, byte for byte, and must not snapshot any instance."""
        farm = Farm(observe=True)
        farm.add_program("blink", load("blink"))
        farm.add_program("sense", load("sense"))
        sense = []
        for wave in range(4):
            farm.run_until(wave * 250_000)
            farm.spawn(5, program="blink")
            sense += [i.index for i in farm.spawn(5, program="sense")]
        for tick in range(1, 20):
            farm.send(sense[tick % len(sense)], "ReadDone", tick)
            farm.run_until(1_000_000 + tick * 100_000)
        registries = [i.program.sched.metrics for i in farm.instances]
        want = json.dumps(merge_snapshots([r.snapshot()
                                           for r in registries]))

        def no_snapshot():
            raise AssertionError("per-instance snapshot() during a fold")

        for registry in registries:
            registry.snapshot = no_snapshot
        merged = farm.fleet_snapshot()["merged"]
        assert merged["histograms"]["reaction_latency_us"]["count"] > 0
        assert json.dumps(merged) == want

    def test_detached_farm_has_no_registries_but_counts_fleet(self):
        farm = Farm(load("blink"), n=3, program="blink", observe=False)
        farm.run_until("1s")
        snap = farm.fleet_snapshot()
        assert snap["merged"]["instances"] == 0
        assert snap["merged"]["histograms"] == {}
        spawned = snap["farm"]["farm_instances_spawned_total"]
        assert spawned["series"] == [[["blink"], 3]]


# ---------------------------------------------------------- prom golden
class TestPromGolden:
    def test_farm_blink_exposition_matches_golden(self):
        """The CI farm-smoke workload: 1000 blink instances driven 2s.
        Every deterministic exposition line — metric names, label sets,
        counter values, gauge watermarks, bucket counts — is pinned."""
        farm = Farm(load("blink"), n=1000, program="blink")
        farm.run_until("2s")
        got = prom_deterministic_lines(render_prom(farm.fleet_snapshot()))
        assert got == GOLDEN.read_text()

    def test_latency_lines_are_present_but_filtered(self):
        farm = Farm(load("blink"), n=5, program="blink")
        farm.run_until("1s")
        text = render_prom(farm.fleet_snapshot())
        assert "repro_reaction_latency_us_bucket" in text
        assert "reaction_latency_us" not in prom_deterministic_lines(text)


# ------------------------------------------------------------------ CLI
class TestFarmCli:
    def test_farm_command_end_to_end(self, tmp_path, capsys):
        blink = Path(__file__).parent.parent / "src" / "repro" / "apps" \
            / "ceu" / "blink.ceu"
        snap_path = tmp_path / "snap.json"
        prom_path = tmp_path / "farm.prom"
        jsonl_path = tmp_path / "farm.jsonl"
        rc = main(["farm", str(blink), "-n", "25", "--until", "1s",
                   "--snapshot", str(snap_path), "--prom", str(prom_path),
                   "--jsonl", str(jsonl_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "25 live / 25 spawned" in out
        snap = json.loads(snap_path.read_text())
        assert snap["merged"]["counters"]["reactions_total"] == 25 * 8
        assert "repro_farm_instances 25" in prom_path.read_text()
        assert jsonl_path.exists()
        first = json.loads(jsonl_path.read_text().splitlines()[0])
        assert "inst" in first

    def test_farm_workload_script(self, tmp_path, capsys):
        prog = tmp_path / "counter.ceu"
        prog.write_text(COUNTER)
        script = tmp_path / "load.script"
        script.write_text("E STEP 2\nT 1000\nE STEP 3\n")
        rc = main(["farm", str(prog), "-n", "4", "--workload",
                   str(script)])
        assert rc == 0
        assert "4 live / 4 spawned" in capsys.readouterr().out
