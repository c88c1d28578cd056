"""Observability ablation: cost of the hook bus.

Four configurations of the same reaction-heavy workload:

* **off** — no subscribers, ever (the shipping default): the only added
  work is one ``hooks.enabled`` check per potential event;
* **detached** — a subscriber attached and then removed before the run:
  the bus must fall back to exactly the off fast path (this is what a
  long-running system looks like after a profiling session ends);
* **metrics** — the metrics collector attached;
* **full** — metrics + Chrome-trace + JSONL exporters.

The benchmark asserts the paper-preserving property the seed VM was
measured under: the hooks-off fast path must stay within noise of a VM
that never grew a hook bus.  ``off ≈ detached`` is the empirical pin —
both run the identical guarded no-op path, so any spread between them
(beyond scheduler noise) means state from past subscribers leaks into
the disabled path.
"""

from conftest import publish, record_metrics

from repro.bench import VM_MODES, interleave, vm_mode, vm_program

MODES = tuple(mode for mode in VM_MODES if mode != "causal")


def timings(modes, repeats: int = 5) -> dict:
    """Best-of-``repeats`` seconds per mode of ``repro bench``'s vm
    workload (16 trails, 300 events), the modes interleaved."""
    best = interleave({mode: vm_mode(mode) for mode in modes}, repeats)
    if "metrics" in best:
        record_metrics("observability_overhead", best["metrics"][1])
    return {mode: secs for mode, (secs, _) in best.items()}


def test_observability_overhead(benchmark):
    secs = timings(MODES)
    benchmark(vm_mode("off"))
    rows = [f"{mode:8s} {s * 1e3:8.2f} ms  (x{s / secs['off']:.2f} vs off)"
            for mode, s in secs.items()]
    publish("observability_overhead", "\n".join(rows))
    # observers cost something, but must stay within an order of magnitude
    assert secs["full"] < secs["off"] * 10


def test_hooks_off_fast_path_within_noise_of_seed_vm(benchmark):
    """The hooks-off pin: with no (or no remaining) subscribers,
    the instrumented VM must match seed-VM throughput.  Both modes
    execute the identical guarded fast path, so a generous 1.5x bound
    catches real regressions (an accidentally-enabled bus costs 3-10x)
    without flaking on scheduler noise."""
    assert not vm_program("detached").hooks.enabled
    secs = timings(("off", "detached"))
    off, detached = secs["off"], secs["detached"]
    benchmark(vm_mode("detached"))
    publish("hooks_off_fast_path",
            f"off      {off * 1e3:8.2f} ms\n"
            f"detached {detached * 1e3:8.2f} ms  (x{detached / off:.2f})")
    assert detached < off * 1.5
    assert off < detached * 1.5
