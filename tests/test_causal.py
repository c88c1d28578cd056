"""Causal tracing + time-travel tests: the §2.2 stack policy as a DAG,
Perfetto flow events, deterministic replay debugging, the slice-first
shrinker pass, and witness-script minimisation."""

import json

import pytest

from repro.runtime.script import parse_script_text, script_text
from repro.lang.errors import RuntimeCeuError
from repro.fuzz.shrink import causal_cone_script, shrink, shrink_script
from repro.obs import (CausalGraph, ChromeTraceExporter, EventLog,
                       FlightRecorder, TimeTravelDebugger)
from repro.runtime.program import Program

# A paper-style chain (§2.2): I wakes the emitter, `emit a` runs the
# a-handler to completion (which emits b, running the b-handler to
# completion) before the emitter resumes — the LIFO stack policy.
CHAIN = """
input void I;
internal void a;
internal void b;
par/and do
    await I;
    emit a;
with
    await a;
    emit b;
with
    await b;
end
"""

CHAIN_SCRIPT = [("E", "I", None)]


def chain_graph(feed):
    program = Program(CHAIN)
    graph = program.observe(CausalGraph(program.hooks))
    program.start()
    feed(program)
    assert program.done
    return graph


def lifo_edges(graph):
    """(event, trail/name) pairs of the I-reaction slice, span order."""
    target = graph.find("event:b")
    out = []
    for node in graph.slice(target.span):
        if node.event == "reaction_begin":
            out.append(("reaction", node.fields["trigger"]))
        elif node.event == "trail_resume":
            out.append(("resume", node.fields["trail"]))
        elif node.event == "emit_internal":
            out.append(("emit", node.fields["name"]))
    return out


class TestCausalGraph:
    def test_stack_policy_edge_order(self):
        graph = chain_graph(lambda p: p.send("I"))
        tail = lifo_edges(graph)[-5:]
        # emit a resumes the a-handler, whose emit b resumes the
        # b-handler — strictly nested, exactly the paper's walk-through
        assert tail == [("reaction", "event:I"), ("resume", "trail1"),
                        ("emit", "a"), ("resume", "trail2"),
                        ("emit", "b")]

    def test_edges_are_exact_not_inferred(self):
        graph = chain_graph(lambda p: p.send("I"))
        emit_a = graph.find("event:a")
        emit_b = graph.find("event:b")
        resume2 = [n for n in graph.of("trail_resume")
                   if n.fields["trail"] == "trail2"][-1]
        resume3 = [n for n in graph.of("trail_resume")
                   if n.fields["trail"] == "trail3"][-1]
        assert resume2.parent == emit_a.span
        assert resume3.parent == emit_b.span
        # wake edges point at the awaits that registered the trails
        wake2 = graph.node(resume2.wake)
        assert wake2.event == "await_begin"
        assert wake2.fields["target"] == "int:a"

    def test_dag_identical_under_script_replay(self):
        direct = chain_graph(lambda p: p.send("I", None))

        def replay(p):
            for item in CHAIN_SCRIPT:
                p.send(item[1], item[2])
        replayed = chain_graph(replay)
        assert lifo_edges(direct) == lifo_edges(replayed)
        assert [(n.event, n.parent, n.wake, n.reaction)
                for n in (direct.nodes[s] for s in direct.order)] == \
               [(n.event, n.parent, n.wake, n.reaction)
                for n in (replayed.nodes[s] for s in replayed.order)]

    def test_roots_are_external(self):
        graph = chain_graph(lambda p: p.send("I"))
        roots = graph.roots()
        assert all(n.parent == 0 for n in roots)
        assert {n.event for n in roots if n.event == "reaction_begin"} \
            == {"reaction_begin"}

    def test_find_targets(self):
        graph = chain_graph(lambda p: p.send("I"))
        assert graph.find("trail:trail2").event in ("trail_resume",
                                                    "trail_kill")
        assert graph.find("event:b").fields["name"] == "b"
        assert graph.find("reaction:1").fields["index"] == 1
        assert graph.find("b").fields["name"] == "b"
        assert graph.find("nosuch:thing") is None
        assert graph.find("zz") is None

    def test_why_renders_slice_and_misses(self):
        graph = chain_graph(lambda p: p.send("I"))
        text = graph.why("event:b")
        assert "emit b" in text and "<- external" in text
        # wake edges also pull in the boot-time await registration of
        # trail2, so compare against its *last* (reaction #1) resume
        pos_a = text.index("emit a")
        pos_r2 = text.rindex("resume trail2")
        pos_b = text.index("emit b")
        assert pos_a < pos_r2 < pos_b        # LIFO order in the render
        assert "no occurrence matches" in graph.why("trail:phantom")

    def test_timer_wake_edge(self):
        src = "input void I;\nawait 10ms;\n"
        program = Program(src)
        graph = program.observe(CausalGraph(program.hooks))
        program.start()
        program.advance("10ms")
        resume = [n for n in graph.of("trail_resume")][-1]
        assert graph.node(resume.wake).event == "timer_schedule"
        fire = graph.find("reaction:1")
        assert graph.node(fire.parent).event == "timer_fire"


class TestReactionCone:
    SRC = """
input int N;
input int K;
int acc = 0;
par/and do
    loop do
        int x = await N;
        x = x + 1;
    end
with
    loop do
        int v = await K;
        acc = acc + 10000 / v;
    end
end
"""
    SCRIPT = [("E", "N", 1), ("E", "N", 2), ("E", "K", 5),
              ("E", "N", 3), ("E", "N", 4), ("E", "K", 0)]

    @staticmethod
    def crashes(src, script):
        program = Program(src)
        try:
            program.start()
            for item in script:
                if program.done:
                    return False
                if item[0] == "E":
                    program.send(item[1], item[2])
                else:
                    program.at(item[1])
        except Exception:
            return True
        return False

    def test_cone_drops_unrelated_stimuli(self):
        kept = causal_cone_script(self.SRC, self.SCRIPT)
        # the N events never reach the crashing trail's causal cone;
        # the earlier K does (it re-registered the await)
        assert kept == [("E", "K", 5), ("E", "K", 0)]

    def test_slice_first_feeds_shrink(self):
        result = shrink_script(self.SRC, self.SCRIPT, self.crashes)
        assert result.sliced
        assert result.script == [("E", "K", 0)]
        assert result.src == self.SRC          # script-only shrink

    def test_full_shrink_still_reaches_minimum(self):
        result = shrink(self.SRC, self.SCRIPT, self.crashes)
        assert result.script == [("E", "K", 0)]
        assert result.sliced
        assert result.src_lines() <= 6

    def test_cone_none_when_nothing_droppable(self):
        assert causal_cone_script(self.SRC, [("E", "K", 0)]) is None
        assert causal_cone_script("input void I;\nawait I;\n",
                                  [("E", "I", None), ("E", "I", None)]) \
            in (None, [("E", "I", None)])


class TestFlowEvents:
    def run_chain(self, flows):
        program = Program(CHAIN)
        exporter = program.observe(ChromeTraceExporter(
            flows_from=program.hooks if flows else None))
        program.start()
        program.send("I")
        return exporter.to_json()

    def test_flow_events_load_and_pair(self):
        doc = json.loads(json.dumps(self.run_chain(flows=True)))
        flows = [e for e in doc["traceEvents"] if e["ph"] in ("s", "f")]
        assert flows, "flow arrows missing"
        starts = {e["id"]: e for e in flows if e["ph"] == "s"}
        ends = {e["id"]: e for e in flows if e["ph"] == "f"}
        assert set(starts) == set(ends)      # every arrow has both ends
        for fid, end in ends.items():
            assert end["bp"] == "e"
            assert end["cat"] == starts[fid]["cat"] == "causal"
            assert end["name"] == starts[fid]["name"]
            # arrows never point backwards in time
            assert starts[fid]["ts"] <= end["ts"]

    def test_cause_arrow_spans_tracks(self):
        doc = self.run_chain(flows=True)
        flows = [e for e in doc["traceEvents"] if e["ph"] in ("s", "f")]
        cause = [e for e in flows if e["name"] == "cause"]
        # at least one emit->resume arrow crosses trail tracks
        by_id = {}
        for e in cause:
            by_id.setdefault(e["id"], {})[e["ph"]] = e
        assert any(pair["s"]["tid"] != pair["f"]["tid"]
                   for pair in by_id.values() if len(pair) == 2)

    def test_flows_off_output_unchanged(self):
        doc = self.run_chain(flows=False)
        phs = {e["ph"] for e in doc["traceEvents"]}
        assert phs <= {"B", "E", "i", "M"}
        # identical to a fresh flows-off run modulo wall_ns (the
        # taxonomy's only nondeterministic field)
        again = self.run_chain(flows=False)

        def scrub(d):
            for ev in d["traceEvents"]:
                ev.get("args", {}).pop("wall_ns", None)
            return json.dumps(d)
        assert scrub(doc) == scrub(again)


class TestTimeTravel:
    SRC = """
input int K;
int acc = 0;
loop do
    int v = await K;
    acc = acc + v;
    if acc > 5 then
        break;
    end
end
return acc;
"""
    SCRIPT = [("E", "K", 2), ("E", "K", 2), ("E", "K", 3)]

    def test_goto_back_step_byte_identical(self):
        dbg = TimeTravelDebugger(self.SRC, self.SCRIPT)
        assert dbg.total == 4                  # boot + 3 events
        full = dbg.full_signature
        dbg.goto(2)
        assert dbg.at == 2
        assert dbg.signature() == full[:2]
        dbg.back()
        assert dbg.at == 1
        assert dbg.signature() == full[:1]
        while dbg.at < dbg.total:
            dbg.step()
        assert dbg.signature() == full         # byte-identical re-run
        assert dbg.program.result == 7

    def test_goto_clamps(self):
        dbg = TimeTravelDebugger(self.SRC, self.SCRIPT)
        assert dbg.goto(0) == 1                # boot cannot be unwound
        assert dbg.goto(99) == dbg.total

    def test_state_snapshot_tracks_position(self):
        dbg = TimeTravelDebugger(self.SRC, self.SCRIPT)
        dbg.goto(2)
        state = dbg.state()
        assert state["memory"]["acc"] == 2
        assert not state["done"]
        assert ("main", "ext") in state["trails"]
        dbg.goto(dbg.total)
        assert dbg.state()["done"]
        assert dbg.state()["result"] == 7
        assert "acc = 7" in dbg.render_state()

    def test_time_travel_over_timers(self):
        src = ("input void I;\nint n = 0;\nloop do\n"
               "    await 10ms;\n    n = n + 1;\n    if n == 3 then\n"
               "        break;\n    end\nend\nreturn n;\n")
        script = [("T", 10_000), ("T", 20_000), ("T", 30_000)]
        dbg = TimeTravelDebugger(src, script)
        full = dbg.full_signature
        assert dbg.program.result == 3
        dbg.goto(2)
        assert dbg.state()["memory"]["n"] == 1
        while dbg.at < dbg.total:
            dbg.step()
        assert dbg.signature() == full

    def test_why_at_position(self):
        dbg = TimeTravelDebugger(CHAIN, CHAIN_SCRIPT)
        assert "emit b" in dbg.why("event:b")
        dbg.goto(1)    # before the I reaction: b hasn't happened
        assert "no occurrence matches" in dbg.why("event:b")


class TestEventLogSignature:
    def test_matches_trace_signature_when_unbounded(self):
        program = Program(CHAIN, trace=True)
        log = program.observe(EventLog())
        program.start()
        program.send("I")
        assert log.signature() == program.trace.signature()

    def test_raises_clearly_on_dropped_events(self):
        program = Program(CHAIN)
        log = program.observe(EventLog(maxlen=4))
        program.start()
        program.send("I")
        assert log.dropped > 0
        with pytest.raises(ValueError, match="partial event log"):
            log.signature()

    def test_bounded_but_undropped_still_works(self):
        program = Program("input int K;\nint v = await K;\nreturn v;\n",
                          trace=True)
        log = program.observe(EventLog(maxlen=10_000))
        program.start()
        program.send("K", 9)
        assert log.dropped == 0
        assert log.signature() == program.trace.signature()


class TestFlightRecorderDump:
    CRASHER = """
input int K;
int v = await K;
v = 10 / v;
return v;
"""

    def test_dump_on_exception_writes_ring(self, tmp_path, capsys):
        out = tmp_path / "crash.jsonl"
        program = Program(self.CRASHER)
        recorder = program.observe(FlightRecorder(maxlen=64))
        with pytest.raises(RuntimeCeuError):
            with recorder.dump_on_exception(path=str(out)):
                program.start()
                program.send("K", 0)
        records = [json.loads(line)
                   for line in out.read_text().splitlines()]
        assert any(r["ev"] == "reaction_begin" for r in records)

    def test_dump_on_exception_defaults_to_stderr(self, capsys):
        program = Program(self.CRASHER)
        recorder = program.observe(FlightRecorder(maxlen=8))
        with pytest.raises(RuntimeCeuError):
            with recorder.dump_on_exception():
                program.start()
                program.send("K", 0)
        err = capsys.readouterr().err
        assert "flight recorder" in err
        assert '"ev"' in err

    def test_no_dump_on_clean_exit(self, tmp_path):
        out = tmp_path / "clean.jsonl"
        program = Program(self.CRASHER)
        recorder = program.observe(FlightRecorder(maxlen=8))
        with recorder.dump_on_exception(path=str(out)):
            program.start()
            program.send("K", 5)
        assert program.result == 2
        assert not out.exists()


class TestWitnessMinimisation:
    # x is written by two trails on T (a genuine conflict); the N loop
    # is irrelevant noise a longer label path might include
    CONFLICTED = """
input void N;
input void T;
int x = 0;
par/and do
    loop do
        await N;
    end
with
    await T;
    x = 1;
with
    await T;
    x = 2;
end
"""

    def _conflict(self):
        from repro.dfa import build_dfa
        from repro.sema import bind
        from repro.lang import parse

        dfa = build_dfa(bind(parse(self.CONFLICTED)))
        assert dfa.conflicts
        return dfa.conflicts[0]

    def test_padded_path_minimises_to_trigger(self):
        from repro.analysis.witness import realize

        conflict = self._conflict()
        witness = realize(self.CONFLICTED, conflict,
                          ["boot", "event N", "event N", "event T"])
        assert witness.verified
        # the N deliveries verified fine but are causally irrelevant —
        # the shrinker drops them from the replay script
        assert witness.script == [("E", "T", 1)]
        assert witness.labels == ["boot", "event N", "event N",
                                  "event T"]

    def test_lint_witnesses_stay_verified(self):
        from repro.analysis import run_analysis

        report = run_analysis(self.CONFLICTED, filename="w.ceu")
        conflicts = [d for d in report.errors
                     if d.code.startswith("CEU-E2")]
        assert conflicts
        data = report.to_dict()
        witnessed = [d for d in data["diagnostics"]
                     if d.get("witness") and d["witness"]["replayable"]]
        assert witnessed
        for diag in witnessed:
            assert diag["witness"]["verified"]
            assert len(diag["witness"]["script"]) <= 2


class TestCliDebugAndWhy:
    def test_why_prints_causal_slice(self, tmp_path, capsys):
        from repro.cli import main

        prog = tmp_path / "chain.ceu"
        prog.write_text(CHAIN)
        script = tmp_path / "chain.script"
        script.write_text(script_text(CHAIN_SCRIPT))
        assert main(["why", str(prog), "--inputs", str(script),
                     "--at", "event:b"]) == 0
        out = capsys.readouterr().out
        assert "causal slice" in out
        body = out.split(":\n", 1)[1]      # skip the header line
        assert "emit a" in body and "emit b" in body
        assert body.index("emit a") < body.index("emit b")

    def test_why_unknown_target_fails(self, tmp_path, capsys):
        from repro.cli import main

        prog = tmp_path / "chain.ceu"
        prog.write_text(CHAIN)
        assert main(["why", str(prog), "I", "--at",
                     "trail:phantom"]) == 1
        assert "no occurrence" in capsys.readouterr().err

    def test_debug_repl_round_trip(self, tmp_path, capsys, monkeypatch):
        import io

        from repro.cli import main

        prog = tmp_path / "acc.ceu"
        prog.write_text(TestTimeTravel.SRC)
        script = tmp_path / "acc.script"
        script.write_text(script_text(TestTimeTravel.SCRIPT))
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO("goto 2\nstate\nback\nstep\nsig\nbogus\nquit\n"))
        assert main(["debug", str(prog), "--inputs", str(script)]) == 0
        out = capsys.readouterr().out
        assert "4 reaction(s)" in out
        assert "position 2/4" in out
        assert "acc = 2" in out
        assert "signature prefix match: True" in out
        assert "unknown command" in out

    def test_run_flight_recorder_flag(self, tmp_path, capsys):
        from repro.cli import main

        prog = tmp_path / "crash.ceu"
        prog.write_text(TestFlightRecorderDump.CRASHER)
        # the ring dumps before main()'s CeuError handler reports it
        assert main(["run", str(prog), "K=0",
                     "--flight-recorder", "16"]) == 1
        err = capsys.readouterr().err
        assert "flight recorder" in err
        assert "division by zero" in err

    def test_script_text_round_trip(self):
        text = script_text(TestReactionCone.SCRIPT)
        assert parse_script_text(text) == TestReactionCone.SCRIPT
