"""End-to-end benchmark of the Céu reproduction: compile, react, idle, farm.

Run from the root of a checkout::

    python3 perfbench/run.py --workload react --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics of ``BENCHMARK.json`` (timed ones scaled to the
reference host speed, see ``harness.Calibration``), with ``--trace 1``
the per-layer metrics.  The line before it carries the details: raw
values, calibration, sample counts, workload properties, failures and,
when traced, the self time of every ``repro`` module.  ``map.json``
beside this file documents each workload, what every end-to-end metric
means on it, and which end-to-end metric each per-layer metric is
predicted to move.

``--corrupt-expected`` replaces one expected value of every correctness
check by a wrong one, to show that the checks count failures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace

import harness
import wl_compile
import wl_farm
import wl_vm

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = {
    "compile": SimpleNamespace(setup=wl_compile.setup,
                               measure=wl_compile.measure,
                               unit=wl_compile.unit, dispose=None, setups=5),
    "react": SimpleNamespace(setup=wl_vm.make_setup("react"),
                             measure=wl_vm.measure, unit=wl_vm.unit,
                             dispose=None, setups=5),
    "idle": SimpleNamespace(setup=wl_vm.make_setup("idle"),
                            measure=wl_vm.measure, unit=wl_vm.unit,
                            dispose=None, setups=5),
    # a farm set-up spawns 2,000 instances: three are enough for a median
    "farm": SimpleNamespace(setup=wl_farm.setup, measure=wl_farm.measure,
                            unit=wl_farm.unit, dispose=wl_farm.dispose,
                            setups=3),
}

END_TO_END = (
    ("ops_per_s", "1/s"), ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"), ("aux_ms_p50", "ms"), ("cli_ms_p50", "ms"),
    ("c_bytes", "bytes"), ("peak_rss_mb", "MB"), ("setup_s", "s"),
)

PER_LAYER = (
    ("lang.lexer.s", "s"), ("lang.lexer.tokens_per_s", "1/s"),
    ("lang.parser.s", "s"), ("lang.parser.nodes_per_s", "1/s"),
    ("sema.s", "s"), ("flow.s", "s"), ("flow.nodes", "count"),
    ("dfa.s", "s"), ("dfa.states", "count"),
    ("analysis.passes.s", "s"), ("analysis.witness.s", "s"),
    ("analysis.witness.verified_ratio", "ratio"),
    ("analysis.incremental.s", "s"),
    ("analysis.incremental.hit_ratio", "ratio"),
    ("codegen.s", "s"), ("codegen.c_bytes_per_s", "bytes/s"),
    ("cli.import_ms", "ms"), ("runtime.import_ms", "ms"),
    ("runtime.program.s", "s"),
    ("runtime.scheduler.self_s", "s"),
    ("runtime.scheduler.awaiting_count.s", "s"),
    ("runtime.scheduler.awaiting_count.calls", "count"),
    ("runtime.interp.self_s", "s"), ("runtime.eval.self_s", "s"),
    ("runtime.steps_per_reaction", "count"),
    ("runtime.wake_ratio", "ratio"),
    ("sim.des.self_s", "s"), ("runtime.farm.self_s", "s"),
    ("obs.hooks.self_s", "s"), ("obs.metrics.self_s", "s"),
    ("obs.stream.self_s", "s"), ("obs.stream.lines_per_s", "1/s"),
    ("farm.fleet_snapshot_ms", "ms"), ("obs.prom.render_ms", "ms"),
    ("farm.drive_lock_wait_ms", "ms"), ("farm.scrape_lock_wait_ms", "ms"),
    ("trace.untraced_s", "s"), ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

#: cProfile module → per-layer self-time metric
MODULE_LAYERS = {
    "repro.runtime.scheduler": "runtime.scheduler.self_s",
    "repro.runtime.interp": "runtime.interp.self_s",
    "repro.runtime.eval": "runtime.eval.self_s",
    "repro.sim.des": "sim.des.self_s",
    "repro.runtime.farm": "runtime.farm.self_s",
    "repro.obs.hooks": "obs.hooks.self_s",
    "repro.obs.metrics": "obs.metrics.self_s",
    "repro.obs.stream": "obs.stream.self_s",
}

#: span name → per-layer seconds metric (self time)
SPAN_LAYERS = {
    "lang.lexer": "lang.lexer.s", "lang.parser": "lang.parser.s",
    "sema": "sema.s", "flow": "flow.s", "dfa": "dfa.s",
    "analysis.passes": "analysis.passes.s",
    "analysis.witness": "analysis.witness.s",
    "analysis.incremental": "analysis.incremental.s",
    "codegen": "codegen.s", "runtime.program": "runtime.program.s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: harness.Tracer, prof: dict, extras: dict,
              untraced_s: float, traced_s: float, lines: int) -> dict:
    out = {name: 0.0 for name, _unit in PER_LAYER}
    selfs = tracer.self_times()
    counts = tracer.counts
    for span, metric in SPAN_LAYERS.items():
        out[metric] = selfs.get(span, 0.0)
    out["lang.lexer.tokens_per_s"] = _ratio(counts["lang.lexer.tokens"],
                                            out["lang.lexer.s"])
    out["lang.parser.nodes_per_s"] = _ratio(counts["lang.parser.nodes"],
                                            out["lang.parser.s"])
    out["flow.nodes"] = counts["flow.nodes"]
    out["dfa.states"] = counts["dfa.states"]
    out["analysis.witness.verified_ratio"] = _ratio(
        counts["analysis.witness.verified"], counts["analysis.witness.count"])
    out["codegen.c_bytes_per_s"] = _ratio(counts["codegen.c_bytes"],
                                          out["codegen.s"])
    for module, metric in MODULE_LAYERS.items():
        out[metric] = prof["modules"].get(module, 0.0)
    waits = prof["functions"].get(("repro.runtime.scheduler",
                                   "awaiting_count"), {})
    out["runtime.scheduler.awaiting_count.s"] = waits.get("cum_s", 0.0)
    out["runtime.scheduler.awaiting_count.calls"] = waits.get("calls", 0)
    sink_s = (prof["modules"].get("repro.obs.stream", 0.0)
              + prof["modules"].get("repro.obs.export", 0.0))
    out["obs.stream.lines_per_s"] = _ratio(lines, sink_s)
    out["trace.untraced_s"] = untraced_s
    out["trace.overhead_s"] = traced_s - untraced_s
    out["trace.overhead_ratio"] = _ratio(traced_s, untraced_s)
    out.update((k, v) for k, v in extras.items() if k in out)
    return out


def traced(ctx, wl, state) -> tuple[dict, tuple, dict]:
    """The traced run: after a warm-up, the same unit of work twice
    untraced and twice with spans, alternating (each side keeps its
    faster pass; the spans are the last pass's), then once under
    cProfile; returns (per-layer metrics, (attempted, failed,
    failures), details)."""
    # no calibration slices inside the compared (and profiled) work
    unit = wl.unit(ctx, state, harness.Calibration(every_s=float("inf")))
    try:
        unit.work()                                   # warm-up
        untraced, traced_ = [], []
        for _ in range(2):                            # alternate sides
            untraced.append(unit.work())
            tracer = harness.Tracer()
            unit.install(tracer)
            try:
                traced_.append(unit.work())
            finally:
                tracer.restore()
        untraced_s, traced_s = min(untraced), min(traced_)

        lines = getattr(unit, "lines", lambda: 0)
        lines0 = lines()
        prof = harness.profile_modules(unit.work, SRC)
        lines = lines() - lines0
    finally:
        unit.close()
    extras = unit.extras()
    metrics = per_layer(tracer, prof, extras, untraced_s, traced_s, lines)
    details = {
        "props": {k: v for k, v in extras.items() if k not in metrics},
        "module_self_s": dict(sorted(prof["modules"].items(),
                                     key=lambda kv: -kv[1])),
        "profiled_total_s": prof["total_s"],
        "span_self_s": tracer.self_times(),
        "spans": len(tracer.spans),
    }
    return metrics, unit.verify(), details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-expected", action="store_true",
                    help="use one wrong expected value per check")
    args = ap.parse_args(argv)

    needed = [SRC / "repro" / "__init__.py", ROOT / "tests" / "corpus",
              ROOT / "tests" / "goldens", ROOT / "tests" / "check_prom.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"perfbench: not a checkout of the repo, missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    ctx = SimpleNamespace(root=ROOT, seed=args.seed, workdir=workdir,
                          env=env, corrupt=args.corrupt_expected)
    wl = WORKLOADS[args.workload]
    try:
        cal = harness.Calibration()
        cal.slice()

        state, setup_s, setup_samples = harness.median_setup(
            lambda: wl.setup(ctx), cal, wl.setups, wl.dispose)
        if args.trace:
            metrics, counts, details = traced(ctx, wl, state)
            attempted, failed, failures = counts
            out_metrics = {name: {"value": metrics[name], "unit": unit}
                           for name, unit in PER_LAYER}
        else:
            measured = wl.measure(ctx, state, args.seconds, cal)
            attempted = measured["attempted"]
            failed = measured["failed"]
            failures = measured["failures"]
            values = dict(measured["e2e"], peak_rss_mb=harness.peak_rss_mb(),
                          setup_s=setup_s)
            raw = dict(measured["raw"],
                       setup_s=statistics.median(s for _t, s in
                                                 setup_samples))
            out_metrics = {name: {"value": values[name], "unit": unit}
                           for name, unit in END_TO_END}
            details = {"raw": raw, "samples": measured["samples"],
                       "checks": measured["checks"],
                       "props": measured["props"]}
        if wl.dispose:
            wl.dispose(state)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    details.update(workload=args.workload, seed=args.seed,
                   trace=args.trace,
                   calibration={
                       "kernel_s_median": statistics.median(cal.per_call),
                       "reference_kernel_s": harness.REF_KERNEL_S,
                       "time_factor": cal.time_factor,
                       "slices": len(cal.per_call)},
                   failures=failures)
    print(json.dumps({"details": details}, sort_keys=True, default=repr))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
