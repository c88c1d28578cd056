"""The ``repro bench`` snapshot + regression gate (ISSUE 4 tentpole,
``repro.bench``)."""

import copy
import json
import re
from pathlib import Path

import pytest

from repro import bench
from repro.cli import build_parser, main


def tiny_snapshot():
    """A real (but small) measurement — module constants shrunk so the
    suite stays fast."""
    return bench.snapshot(repeats=1)


class TestSnapshot:
    def setup_method(self):
        self._saved = (bench.TRAILS, bench.EVENTS, bench.DES_EVENTS)
        bench.TRAILS, bench.EVENTS, bench.DES_EVENTS = 4, 40, 500

    def teardown_method(self):
        bench.TRAILS, bench.EVENTS, bench.DES_EVENTS = self._saved

    def test_snapshot_shape(self):
        snap = tiny_snapshot()
        assert snap["schema"] == bench.SCHEMA
        vm = snap["vm"]
        assert set(vm["timings_s"]) == \
            {"off", "detached", "metrics", "full", "causal"}
        # causal_vs_off is recorded for the trajectory but never gated
        assert set(vm["ratios"]) == \
            set(bench.RATIO_KEYS) | {"causal_vs_off"}
        assert vm["counters"]["reactions_total"] == bench.EVENTS + 1
        assert vm["counters"]["steps_total"] > 0
        lat = vm["latency_us"]["event:A"]
        assert lat["p50"] <= lat["p95"] <= lat["p99"]
        stream = snap["stream"]
        assert stream["des_events"] == bench.DES_EVENTS
        assert stream["records"] >= stream["des_events"]
        assert stream["resident_high"] <= stream["flush_every"]

    def test_snapshot_counters_are_deterministic(self):
        a, b = tiny_snapshot(), tiny_snapshot()
        assert a["vm"]["counters"] == b["vm"]["counters"]
        assert a["stream"]["records"] == b["stream"]["records"]

    def test_write_snapshot_is_timestamped_json(self, tmp_path):
        snap = tiny_snapshot()
        out = bench.write_snapshot(snap, tmp_path)
        assert re.fullmatch(r"BENCH_\d{8}T\d{6}Z\.json", out.name)
        assert json.loads(out.read_text())["schema"] == bench.SCHEMA


class TestRegressionGate:
    def base(self):
        return {
            "vm": {
                "counters": {"reactions_total": 41, "steps_total": 500},
                "ratios": {"metrics_vs_off": 1.5, "full_vs_off": 3.0,
                           "detached_vs_off": 1.0},
            },
            "stream": {"resident_high": 100, "flush_every": 512},
        }

    def test_identical_snapshot_passes(self):
        snap = self.base()
        assert bench.check(snap, self.base()) == []

    def test_counter_drift_is_flagged_exactly(self):
        snap = self.base()
        snap["vm"]["counters"]["steps_total"] = 501
        problems = bench.check(snap, self.base())
        assert len(problems) == 1 and "steps_total" in problems[0]

    def test_ratio_within_tolerance_passes(self):
        snap = self.base()
        snap["vm"]["ratios"]["full_vs_off"] = 3.0 * 1.4
        assert bench.check(snap, self.base(), tolerance=0.5) == []

    def test_ratio_beyond_tolerance_fails(self):
        snap = self.base()
        snap["vm"]["ratios"]["full_vs_off"] = 3.0 * 1.6
        problems = bench.check(snap, self.base(), tolerance=0.5)
        assert any("full_vs_off" in p for p in problems)

    def test_detached_absolute_cap(self):
        """A detached bus slower than 1.5x off is a broken fast path no
        matter what the baseline says."""
        snap = self.base()
        snap["vm"]["ratios"]["detached_vs_off"] = 1.8
        baseline = self.base()
        baseline["vm"]["ratios"]["detached_vs_off"] = 1.7
        problems = bench.check(snap, baseline, tolerance=0.5)
        assert any("detached_vs_off" in p for p in problems)

    def test_missing_ratio_is_flagged(self):
        snap = self.base()
        del snap["vm"]["ratios"]["metrics_vs_off"]
        problems = bench.check(snap, self.base())
        assert any("metrics_vs_off" in p for p in problems)

    def test_streaming_buffering_regression(self):
        snap = self.base()
        snap["stream"]["resident_high"] = 600     # > flush_every
        problems = bench.check(snap, self.base())
        assert any("resident_high" in p for p in problems)

    def test_faithful_to_real_snapshot_schema(self):
        """The gate reads the same keys a real snapshot writes."""
        saved = (bench.TRAILS, bench.EVENTS, bench.DES_EVENTS)
        bench.TRAILS, bench.EVENTS, bench.DES_EVENTS = 4, 40, 500
        try:
            snap = bench.snapshot(repeats=1)
        finally:
            bench.TRAILS, bench.EVENTS, bench.DES_EVENTS = saved
        baseline = copy.deepcopy(snap)
        assert bench.check(snap, baseline, tolerance=10.0) == []
        baseline["vm"]["counters"]["steps_total"] += 1
        assert bench.check(snap, baseline, tolerance=10.0)


class TestCli:
    def test_bench_subcommand_parses(self):
        args = build_parser().parse_args(
            ["bench", "--check", "--tolerance", "0.4", "--out", "/tmp",
             "--repeats", "1"])
        assert args.check and args.tolerance == 0.4

    def test_bench_check_against_fresh_baseline(self, tmp_path):
        saved = (bench.TRAILS, bench.EVENTS, bench.DES_EVENTS)
        bench.TRAILS, bench.EVENTS, bench.DES_EVENTS = 4, 40, 500
        try:
            baseline = tmp_path / "baseline.json"
            rc = main(["bench", "--out", str(tmp_path), "--repeats", "1",
                       "--baseline", str(baseline),
                       "--update-baseline"])
            assert rc == 0 and baseline.exists()
            rc = main(["bench", "--out", str(tmp_path), "--repeats", "1",
                       "--baseline", str(baseline), "--check",
                       "--tolerance", "5.0"])
            assert rc == 0
        finally:
            bench.TRAILS, bench.EVENTS, bench.DES_EVENTS = saved
        assert list(tmp_path.glob("BENCH_*.json"))

    def test_bench_check_without_baseline_errors(self, tmp_path):
        saved = (bench.TRAILS, bench.EVENTS, bench.DES_EVENTS)
        bench.TRAILS, bench.EVENTS, bench.DES_EVENTS = 4, 40, 500
        try:
            rc = main(["bench", "--out", str(tmp_path), "--repeats", "1",
                       "--baseline", str(tmp_path / "missing.json"),
                       "--check"])
        finally:
            bench.TRAILS, bench.EVENTS, bench.DES_EVENTS = saved
        assert rc == 1


class TestCheckpointSection:
    def test_checkpoint_section_shape(self):
        """A shrunk ``bench --checkpoint`` measurement has every gated
        field; the *real* gates run on CI-scale workloads, so only the
        recording-overhead one (machine-independent at any scale) is
        asserted here."""
        saved = (bench.CKPT_INSTANCES, bench.CKPT_SIM_US)
        bench.CKPT_INSTANCES, bench.CKPT_SIM_US = 6, 1_000_000
        try:
            section = bench.bench_checkpoint(repeats=1)
        finally:
            bench.CKPT_INSTANCES, bench.CKPT_SIM_US = saved
        assert section["workload"]["instances"] == 6
        assert set(section["drive_s"]) == {"norecord", "record"}
        cap = section["capture"]
        assert cap["bytes"] > 0
        assert cap["journal_entries"] >= 1
        assert cap["reactions"] >= 2
        warm = section["warm_start"]
        assert warm["cold_boot_s"] > 0 and warm["warm_s"] > 0
        assert warm["speedup"] == warm["cold_boot_s"] / warm["warm_s"]
        budget = section["budget"]
        assert budget["record_vs_norecord_max"] == bench.CHECKPOINT_BUDGET
        assert budget["warm_speedup_min"] == bench.WARM_SPEEDUP_MIN
        assert isinstance(budget["within_budget"], bool)

    def test_checkpoint_flag_parses(self):
        args = build_parser().parse_args(["bench", "--checkpoint"])
        assert args.checkpoint


COMMITTED = Path(bench.BENCH_DIR)


def shrink(monkeypatch):
    """Every section's workload cut to a size the suite can afford."""
    for name, value in {"TRAILS": 4, "EVENTS": 40, "DES_EVENTS": 500,
                        "FARM_INSTANCES": 12, "FARM_SIM_US": 1_000_000,
                        "FARM_MEM_SAMPLE": 6, "SERVE_INSTANCES": 6,
                        "SERVE_SIM_US": 1_000_000, "CKPT_INSTANCES": 6,
                        "CKPT_SIM_US": 1_000_000}.items():
        monkeypatch.setattr(bench, name, value)
    corpus = bench._analysis_corpus()[:2]
    monkeypatch.setattr(bench, "_analysis_corpus", lambda: corpus)


def key_paths(data, prefix=""):
    """Every dotted key path of nested dicts (lists are leaves)."""
    paths = set()
    for key, value in data.items():
        path = f"{prefix}{key}"
        paths.add(path)
        if isinstance(value, dict):
            paths |= key_paths(value, path + ".")
    return paths


def put(path, value, data=None):
    data = {} if data is None else data
    *heads, last = path.split(".")
    node = data
    for key in heads:
        node = node.setdefault(key, {})
    node[last] = value
    return data


class TestSections:
    def test_fresh_sections_keep_every_committed_key(self, tmp_path,
                                                     monkeypatch):
        """Each committed section file's key paths all appear in a fresh
        (shrunk) measurement of that section, written where it was."""
        shrink(monkeypatch)
        main(["bench", "--out", str(tmp_path), "--repeats", "1", "--farm",
              "--analysis", "--serve", "--checkpoint"])
        (stamped,) = tmp_path.glob("BENCH_2*.json")
        fresh = {"BENCH_baseline.json": json.loads(stamped.read_text())}
        for section in bench.SECTIONS:
            if section.file:
                fresh[section.file] = json.loads(
                    (tmp_path / section.file).read_text())
        for name, data in fresh.items():
            committed = json.loads((COMMITTED / name).read_text())
            missing = key_paths(committed) - key_paths(data)
            assert not missing, (name, sorted(missing))


def _row_cases(gate):
    """``(inside, outside, baseline)`` section records for one gate row:
    ``inside`` sits just within the bound, ``outside`` just beyond it."""
    eps = 1e-6
    if gate.kind == "exact":
        base = put(gate.path, {"steps_total": 500})
        return (put(gate.path, {"steps_total": 500}),
                put(gate.path, {"steps_total": 501}), base)
    if gate.kind == "tolerance":        # --tolerance 0.5 over baseline 1.0
        return (put(gate.path, 1.5 - eps), put(gate.path, 1.5 + eps),
                put(gate.path, 1.0))
    if gate.kind == "equal":
        return put(gate.path, gate.bound), put(gate.path, not gate.bound), \
            None
    bound = 512 if isinstance(gate.bound, str) else gate.bound
    step = eps if gate.kind == "max" else -eps
    inside, outside = put(gate.path, bound - step), \
        put(gate.path, bound + step)
    if isinstance(gate.bound, str):
        for record in (inside, outside):
            put(gate.bound, bound, record)
    return inside, outside, {} if gate.baseline_only else None


GATE_ROWS = [(section.name, gate) for section in bench.SECTIONS
             for gate in section.gates]


@pytest.mark.parametrize(
    "name,gate", GATE_ROWS,
    ids=[f"{name}.{gate.path}-{gate.kind}" for name, gate in GATE_ROWS])
def test_gate_row_bounds(name, gate):
    inside, outside, base = _row_cases(gate)
    assert gate.check(inside, base, 0.5) == []
    assert gate.check(outside, base, 0.5)
    if base is not None:                # a baseline row: off without one
        assert gate.check(outside, None, 0.5) == []


def test_gate_table_is_the_documented_one():
    rows = {(name, *gate) for name, gate in GATE_ROWS}
    assert rows == {
        ("vm", "counters", "exact", None, False),
        ("vm", "ratios.metrics_vs_off", "tolerance", None, False),
        ("vm", "ratios.full_vs_off", "tolerance", None, False),
        ("vm", "ratios.detached_vs_off", "tolerance", None, False),
        ("vm", "ratios.detached_vs_off", "max", 1.5, True),
        ("stream", "resident_high", "max", "flush_every", False),
        ("analysis", "summary.all_identical", "equal", True, False),
        ("serve", "overhead.idle_vs_noserver", "max", 1.05, False),
        ("checkpoint", "overhead.record_vs_norecord", "max", 1.05, False),
        ("checkpoint", "warm_start.speedup", "min", 5.0, False),
    }


def test_stream_gate_needs_no_baseline():
    snap = {"stream": {"resident_high": 600, "flush_every": 512}}
    for baseline in (None, {}, {"vm": {}}):
        assert any("resident_high" in p
                   for p in bench.check(snap, baseline))


@pytest.mark.parametrize("flag", ["--check", "--update-baseline"])
def test_every_gate_reports(flag, tmp_path, monkeypatch, capsys):
    """A serve budget miss still lets the checkpoint section be measured,
    written and gated, and the baseline step run; every violation is
    printed and the exit code is 1."""
    shrink(monkeypatch)
    serve = json.loads((COMMITTED / "BENCH_serve.json").read_text())
    serve["overhead"]["idle_vs_noserver"] = 2.0
    ckpt = json.loads((COMMITTED / "BENCH_checkpoint.json").read_text())
    ckpt["warm_start"]["speedup"] = 1.0
    stubs = {"serve": serve, "checkpoint": ckpt}
    monkeypatch.setattr(bench, "SECTIONS", tuple(
        s._replace(measure=lambda _r, d=stubs[s.name]: d)
        if s.name in stubs else s for s in bench.SECTIONS))
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(
        {"vm": {"counters": {"reactions_total": -1}}}))
    rc = main(["bench", "--out", str(tmp_path), "--repeats", "1",
               "--baseline", str(baseline), "--serve", "--checkpoint",
               flag])
    err = capsys.readouterr().err
    assert rc == 1
    for stub in stubs:
        written = json.loads((tmp_path / f"BENCH_{stub}.json").read_text())
        assert written == stubs[stub]
    assert "REGRESSION serve.overhead.idle_vs_noserver" in err
    assert "REGRESSION checkpoint.warm_start.speedup" in err
    if flag == "--check":
        assert "REGRESSION vm.counters.reactions_total" in err
    else:
        assert set(json.loads(baseline.read_text())) >= \
            {"vm", "stream", "serve", "checkpoint"}
