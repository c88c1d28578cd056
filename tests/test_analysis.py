"""The unified static-analysis engine (docs/ANALYSIS.md): pass unit
tests, witness replay, SARIF shape and stability, static-bounds
soundness over the checked-in corpus, the CLI front ends, and the
golden snapshots."""

import json
from pathlib import Path

import pytest

from mint_goldens import LISTINGS
from repro.analysis import (ResourceBounds, compute_bounds, run_analysis,
                            sarif_json, to_sarif)
from repro.analysis.diagnostics import RULES, Report
from repro.cli import main
from repro.dfa import build_dfa
from repro.fuzz.oracles import bounds_violations, run_vm
from repro.lang import parse
from repro.obs.hooks import HookSubscriber
from repro.runtime import Program
from repro.sema import bind

CORPUS = Path(__file__).parent / "corpus"
GOLDENS = Path(__file__).parent / "goldens"


def codes(report) -> list:
    return [d.code for d in report.sorted()]


# ---------------------------------------------------------------------------
# front end: failures become diagnostics, never exceptions
# ---------------------------------------------------------------------------

class TestFrontEnd:
    def test_parse_error_is_e001(self):
        report = run_analysis("loop do", filename="x.ceu")
        assert codes(report) == ["CEU-E001"]
        assert report.exit_code == 1
        assert report.stages == []

    def test_bind_error_is_e002(self):
        report = run_analysis("v = 1;")
        assert codes(report) == ["CEU-E002"]

    def test_async_error_is_e003(self):
        report = run_analysis("""
        input void A;
        int v = 0;
        async do
           await A;
        end
        """)
        assert codes(report) == ["CEU-E003"]


# ---------------------------------------------------------------------------
# bounded pass (§2.5): E101 / W301 / W304, accumulated
# ---------------------------------------------------------------------------

class TestBoundedPass:
    def test_tight_loop_collected_not_raised(self):
        report = run_analysis(LISTINGS["tight_loop"])
        assert "CEU-E101" in codes(report)
        # the DFA passes are skipped for unbounded programs
        assert "dfa" not in report.stages

    def test_two_tight_loops_both_reported(self):
        report = run_analysis("""
        input void A;
        int v = 0;
        par do
           loop do
              v = v + 1;
           end
        with
           loop do
              v = v - 1;
           end
        end
        """)
        assert codes(report).count("CEU-E101") == 2

    def test_unreachable_statement(self):
        report = run_analysis(LISTINGS["unreachable"])
        unreachable = [d for d in report.diagnostics
                       if d.code == "CEU-W301"]
        assert len(unreachable) == 1
        assert "and 1 following" in unreachable[0].message

    def test_par_that_never_rejoins(self):
        report = run_analysis(LISTINGS["stuck"])
        assert "CEU-W304" in codes(report)

    def test_clean_program_has_no_bounded_findings(self):
        report = run_analysis(LISTINGS["counter"])
        assert not any(c.startswith(("CEU-E1", "CEU-W30"))
                       for c in codes(report))


# ---------------------------------------------------------------------------
# liveness pass: W302 / W303
# ---------------------------------------------------------------------------

class TestLivenessPass:
    def test_awaited_never_emitted_and_emitted_never_awaited(self):
        report = run_analysis(LISTINGS["dead_events"])
        found = codes(report)
        assert "CEU-W302" in found  # ping awaited, never emitted
        assert "CEU-W303" in found  # pong emitted, never awaited

    def test_all_locations_are_annotated(self):
        report = run_analysis("""
        input void A;
        internal void p;
        par/or do
           await p;
        with
           await p;
        with
           await A;
        end
        """)
        w302 = next(d for d in report.diagnostics
                    if d.code == "CEU-W302")
        assert len(w302.notes) == 1  # the second await, as a note
        assert w302.span.start.line == 5


# ---------------------------------------------------------------------------
# conflict pass (§2.6): all conflicts, each with a replayable witness
# ---------------------------------------------------------------------------

class _Lines(HookSubscriber):
    def __init__(self):
        self.steps = []

    def begin(self):
        self.steps.append(set())

    def on_step(self, trail, path, kind, line):
        if self.steps:
            self.steps[-1].add(line)


class TestConflictPass:
    def test_all_conflicts_reported(self):
        report = run_analysis(LISTINGS["nondet"], filename="nondet.ceu")
        conflicts = [d for d in report.diagnostics
                     if d.code == "CEU-E201"]
        # write/read, write/write, read/write on `v`
        assert len(conflicts) == 3
        assert report.exit_code == 1

    def test_witnesses_are_verified(self):
        report = run_analysis(LISTINGS["nondet"])
        for diag in report.diagnostics:
            if diag.code == "CEU-E201":
                assert diag.witness is not None
                assert diag.witness.verified is True, diag.witness.note

    def test_witness_replay_reproduces_the_conflict(self):
        """ISSUE acceptance: replaying the witness script on the VM
        executes both reported accesses in the final reaction."""
        report = run_analysis(LISTINGS["nondet"])
        diag = next(d for d in report.diagnostics
                    if d.code == "CEU-E201")
        want = {diag.span.start.line, diag.notes[0][1].start.line}
        program = Program(LISTINGS["nondet"], check=False)
        monitor = _Lines()
        program.observe(monitor)
        program.start()
        for item in diag.witness.script:
            monitor.begin()
            if item[0] == "E":
                program.send(item[1], item[2])
            else:
                program.at(item[1])
        assert want <= monitor.steps[-1]

    def test_event_conflict_is_e202(self):
        report = run_analysis("""
        input void A;
        internal int x;
        int v = 0;
        par do
           loop do
              await A;
              emit x = 1;
           end
        with
           loop do
              await A;
              emit x = 2;
           end
        with
           loop do
              v = await x;
           end
        end
        """)
        assert "CEU-E202" in codes(report)

    def test_conflicts_deduped_across_states(self):
        """The same textual access pair reachable in many DFA states
        yields one diagnostic (with the shortest witness), not one per
        state."""
        report = run_analysis("""
        input void A, B;
        int v = 0;
        await B;
        par do
           loop do
              await A;
              v = v + 1;
           end
        with
           loop do
              await A;
              v = v * 2;
           end
        end
        """)
        pairs = [(d.span.start.line, d.span.start.col,
                  d.notes[0][1].start.line, d.notes[0][1].start.col)
                 for d in report.diagnostics if d.code == "CEU-E201"]
        assert len(pairs) == len(set(pairs))
        # … and every witness routes through the mandatory leading B
        for d in report.diagnostics:
            if d.code == "CEU-E201":
                assert d.witness.labels[:2] == ["boot", "event B"]


# ---------------------------------------------------------------------------
# stuck pass: W305
# ---------------------------------------------------------------------------

class TestStuckPass:
    def test_deadlocked_state_reported(self):
        report = run_analysis(LISTINGS["stuck"])
        stuck = [d for d in report.diagnostics if d.code == "CEU-W305"]
        assert len(stuck) == 1
        assert "await forever" in stuck[0].message

    def test_live_program_not_flagged(self):
        report = run_analysis(LISTINGS["counter"])
        assert "CEU-W305" not in codes(report)


# ---------------------------------------------------------------------------
# static resource bounds
# ---------------------------------------------------------------------------

class TestBounds:
    def test_known_program_bounds(self):
        bound = bind(parse(LISTINGS["counter"]))
        dfa = build_dfa(bound)
        bounds = compute_bounds(bound, dfa)
        assert isinstance(bounds, ResourceBounds)
        # three branches + the par owner
        assert bounds.max_trails == 4
        assert bounds.max_armed_timers == 1   # the 1s loop timer
        assert bounds.max_async_jobs == 0
        assert bounds.max_internal_emits == 1  # one `changed` per wake
        assert bounds.mem_slots == 1
        assert bounds.mem_bytes_host >= 4

    def test_report_carries_bounds_payload(self):
        report = run_analysis(LISTINGS["counter"])
        note = next(d for d in report.diagnostics
                    if d.code == "CEU-I501")
        assert note.data == report.bounds.as_dict()
        assert report.bounds.dfa_states == report.dfa_states

    @pytest.mark.parametrize("path", sorted(CORPUS.glob("*.ceu")),
                             ids=lambda p: p.stem)
    def test_corpus_high_water_never_exceeds_static_bounds(self, path):
        """ISSUE acceptance: static bound >= dynamic high-water on every
        checked-in corpus program under its frozen script."""
        src = path.read_text()
        meta = json.loads(path.with_suffix(".json").read_text())
        script = [tuple(item) for item in meta["script"]]
        bound = bind(parse(src))
        bounds = compute_bounds(bound, build_dfa(bound))
        vm = run_vm(src, script, observe=True)
        assert vm.ok, vm.error
        assert bounds_violations(bounds, vm.stats) == {}


# ---------------------------------------------------------------------------
# SARIF export
# ---------------------------------------------------------------------------

class TestSarif:
    def reports(self):
        return [run_analysis(LISTINGS["nondet"], filename="nondet.ceu"),
                run_analysis(LISTINGS["dead_events"],
                             filename="dead_events.ceu")]

    def test_sarif_2_1_0_shape(self):
        doc = to_sarif(self.reports())
        assert doc["version"] == "2.1.0"
        assert doc["$schema"].endswith("sarif-schema-2.1.0.json")
        run = doc["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        rules = driver["rules"]
        assert [r["id"] for r in rules] == sorted(RULES)
        for result in run["results"]:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]
            assert result["level"] in ("error", "warning", "note")
            loc = result["locations"][0]["physicalLocation"]
            assert loc["artifactLocation"]["uri"]
            if "region" in loc:
                assert loc["region"]["startLine"] >= 1
                assert loc["region"]["startColumn"] >= 1

    def test_conflict_results_carry_witness_properties(self):
        doc = to_sarif([run_analysis(LISTINGS["nondet"],
                                     filename="nondet.ceu")])
        conflict = next(r for r in doc["runs"][0]["results"]
                        if r["ruleId"] == "CEU-E201")
        witness = conflict["properties"]["witness"]
        assert witness["verified"] is True
        assert witness["labels"][-1].startswith("event ")
        assert conflict["relatedLocations"]

    def test_sarif_output_is_byte_stable(self):
        """ISSUE acceptance: two runs over the same input are
        byte-identical."""
        first = sarif_json(self.reports())
        second = sarif_json(self.reports())
        assert first == second
        assert first.endswith("\n")

    def test_sarif_passes_structural_validator(self):
        """The same structural SARIF 2.1.0 checks CI applies
        (tests/check_sarif.py) hold for every corpus file."""
        from check_sarif import check_sarif
        reports = self.reports() + [
            run_analysis(path.read_text(), filename=str(path))
            for path in sorted(CORPUS.glob("*.ceu"))]
        assert check_sarif(to_sarif(reports)) == []

    def test_structural_validator_rejects_bad_documents(self):
        from check_sarif import check_sarif
        assert check_sarif({"version": "2.0.0"})
        doc = to_sarif(self.reports())
        doc["runs"][0]["results"][0]["ruleIndex"] = 999
        assert any("ruleIndex" in e for e in check_sarif(doc))


# ---------------------------------------------------------------------------
# golden snapshots
# ---------------------------------------------------------------------------

def _golden_jobs():
    jobs = [(f"listing_{name}", f"listings/{name}.ceu", src)
            for name, src in LISTINGS.items()]
    jobs += [(f"corpus_{path.stem}", f"corpus/{path.name}",
              path.read_text())
             for path in sorted(CORPUS.glob("*.ceu"))]
    return jobs


@pytest.mark.parametrize("golden,filename,src", _golden_jobs(),
                         ids=lambda v: v if isinstance(v, str)
                         and "/" not in v else "")
def test_golden_reports_match(golden, filename, src):
    expected = (GOLDENS / f"{golden}.json").read_text()
    actual = run_analysis(src, filename=filename).to_json()
    assert actual == expected, \
        f"analysis output drifted from tests/goldens/{golden}.json " \
        f"(rerun tests/mint_goldens.py if the change is deliberate)"


def test_every_golden_has_a_source():
    minted = {f"{g}.json" for g, _f, _s in _golden_jobs()}
    on_disk = {p.name for p in GOLDENS.glob("*.json")}
    assert on_disk == minted


# ---------------------------------------------------------------------------
# CLI: `repro check` accumulates, `repro lint` exports
# ---------------------------------------------------------------------------

@pytest.fixture
def ceu_file(tmp_path):
    def write(src, name="prog.ceu"):
        path = tmp_path / name
        path.write_text(src)
        return str(path)
    return write


class TestCheckCli:
    def test_check_accumulates_all_errors(self, ceu_file, capsys):
        assert main(["check", ceu_file(LISTINGS["nondet"])]) == 1
        err = capsys.readouterr().err
        assert err.count("error[CEU-E201]") == 3
        assert "nondeterminism" in err
        assert "witness" in err

    def test_check_mixes_severities(self, ceu_file, capsys):
        src = LISTINGS["tight_loop"] + "\ninternal void ghost;\n" \
            "await ghost;\n"
        assert main(["check", ceu_file(src)]) == 1
        err = capsys.readouterr().err
        assert "error[CEU-E101]" in err
        assert "warning[CEU-W302]" in err

    def test_check_locations_are_file_line_col(self, ceu_file, capsys):
        path = ceu_file(LISTINGS["nondet"])
        main(["check", path])
        assert f"{path}:6:7: " in capsys.readouterr().err

    def test_warnings_do_not_fail_check(self, ceu_file, capsys):
        assert main(["check", ceu_file(LISTINGS["dead_events"])]) == 0
        out = capsys.readouterr().out
        assert "deterministic" in out and "bounds" in out


class TestLintCli:
    def test_text_summary_line(self, ceu_file, capsys):
        assert main(["lint", ceu_file(LISTINGS["nondet"])]) == 0
        out = capsys.readouterr().out
        assert "3 error(s)" in out

    def test_strict_gates_on_errors(self, ceu_file):
        bad = ceu_file(LISTINGS["nondet"], "bad.ceu")
        good = ceu_file(LISTINGS["counter"], "good.ceu")
        assert main(["lint", "--strict", good]) == 0
        assert main(["lint", "--strict", good, bad]) == 1

    def test_json_single_file_is_an_object(self, ceu_file, capsys):
        assert main(["lint", ceu_file(LISTINGS["counter"]),
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["errors"] == 0
        assert doc["dfa"]["states"] >= 1

    def test_sarif_multiple_files_single_run(self, ceu_file, tmp_path,
                                             capsys):
        out = tmp_path / "lint.sarif"
        rc = main(["lint", ceu_file(LISTINGS["nondet"], "a.ceu"),
                   ceu_file(LISTINGS["counter"], "b.ceu"),
                   "--format", "sarif", "-o", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        uris = {r["locations"][0]["physicalLocation"]
                ["artifactLocation"]["uri"]
                for r in doc["runs"][0]["results"]}
        assert len(doc["runs"]) == 1 and len(uris) == 2

    def test_front_end_error_is_a_diagnostic_not_a_crash(self, ceu_file,
                                                         capsys):
        assert main(["lint", ceu_file("loop do")]) == 0
        assert "CEU-E001" in capsys.readouterr().out


class TestRunInputsCli:
    def test_replays_a_script_file(self, ceu_file, tmp_path, capsys):
        src = """
        input int X;
        int v = 0;
        v = await X;
        _printf("got %d\\n", v);
        return v;
        """
        script = tmp_path / "inputs.txt"
        script.write_text("# witness\nE X 7\n")
        assert main(["run", ceu_file(src), "--inputs",
                     str(script)]) == 0
        captured = capsys.readouterr()
        assert captured.out == "got 7\n"
        assert "result = 7" in captured.err

    def test_witness_script_round_trips_through_run(self, ceu_file,
                                                    tmp_path, capsys):
        """End to end: lint a racy program, take the reported witness,
        replay it through `repro run --inputs`."""
        from repro.runtime.script import script_text

        report = run_analysis(LISTINGS["nondet"])
        diag = next(d for d in report.diagnostics
                    if d.code == "CEU-E201")
        script = tmp_path / "witness.txt"
        script.write_text(script_text(diag.witness.script))
        assert main(["run", ceu_file(LISTINGS["nondet"]), "--inputs",
                     str(script)]) == 0
