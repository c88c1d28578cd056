"""Shared machinery for the end-to-end benchmark.

* :class:`Calibration` — a fixed pure-Python loop run in short slices
  interleaved with the measured work, so every timed metric can be
  scaled to one reference host speed (the raw value is kept beside it);
  cold CLI runs are scaled by a reference subprocess run just before.
* :func:`pct` — percentiles as the mean of the neighbouring ranks.
* :class:`Tracer` — spans (name, start, end, parent) recorded by
  wrappers the benchmark installs around the repo's public entry points
  for the traced run only, plus counts taken at the same boundaries.
* :func:`profile_modules` — a stdlib ``cProfile`` pass grouped by
  ``repro.<package>.<module>``; the interpreter's statement walk is made
  of generators, which a wrapper would time only at creation.
"""

from __future__ import annotations

import bisect
import cProfile
import gc
import pstats
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

#: seconds per calibration-kernel call on the reference host (a 2-core
#: x86-64 container running CPython 3.11, in its faster mode); timed
#: metrics are reported as if measured at that speed
REF_KERNEL_S = 0.000575

#: kernel calls per calibration slice (~2.5 ms)
_SLICE_CALLS = 4

#: a sample is scaled by the slices within this many seconds of it: the
#: host's speed changes every few hundred milliseconds
WINDOW_S = 0.25

#: seconds of the reference subprocess (a fresh interpreter importing a
#: fixed set of stdlib modules) on the reference host; cold CLI starts
#: are scaled by it, since process start-up and imports do not follow the
#: in-process kernel's speed
REF_SUBPROCESS_S = 0.2
_REF_SUBPROCESS = ("import argparse, asyncio, dataclasses, decimal, difflib, "
                   "email.parser, fractions, http.server, json, statistics, "
                   "urllib.request, xml.dom.minidom")


def _kernel() -> int:
    acc = 0
    table: dict[int, int] = {}
    for i in range(4000):
        acc = (acc * 31 + i) % 1000003
        table[i & 127] = acc
    words = [str(v) for v in table.values()]
    return acc + len("".join(sorted(words)))



class Calibration:
    """Host-speed probe sampled between measured slices of work.

    The host's speed changes every few hundred milliseconds (other
    tenants share it), so a measured duration is scaled by the
    speed seen by the slices taken around it: those within
    ``WINDOW_S`` of its interval, or the nearest one on each side."""

    def __init__(self, every_s: float = 0.05):
        self.every_s = every_s
        self.times: list[float] = []      # slice midpoints
        self.per_call: list[float] = []   # seconds per kernel call
        self._due = time.perf_counter() + every_s

    def slice(self) -> None:
        start = time.perf_counter()
        for _ in range(_SLICE_CALLS):
            _kernel()
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.per_call.append((end - start) / _SLICE_CALLS)
        self._due = end + self.every_s

    def maybe(self) -> None:
        """Take a slice when the last one is ``every_s`` old."""
        if time.perf_counter() >= self._due:
            self.slice()

    def factor(self, t0: float, t1: float) -> float:
        """Reference time per measured second over ``[t0, t1]``."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        if lo == hi:
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        local = self.per_call[lo:hi]
        return REF_KERNEL_S / (sum(local) / len(local))

    def scale(self, samples) -> list[float]:
        """Reference-speed durations of ``(start, seconds)`` samples."""
        return [secs * self.factor(t0, t0 + secs) for t0, secs in samples]

    def run_cli(self, args, ctx) -> tuple:
        """Run ``python -m repro <args>`` cold, right after the reference
        subprocess; returns (completed process, (start, seconds,
        reference seconds)).  Calibration slices bracket the pair."""
        self.slice()
        ref_start = time.perf_counter()
        subprocess.run([sys.executable, "-c", _REF_SUBPROCESS],
                       cwd=ctx.root, env=ctx.env, capture_output=True,
                       timeout=120, check=True)
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "repro", *map(str, args)],
                              cwd=ctx.root, env=ctx.env, capture_output=True,
                              text=True, timeout=120)
        end = time.perf_counter()
        self.slice()
        return proc, (start, end - start, start - ref_start)

    @property
    def time_factor(self) -> float:
        """The whole run's factor (for the details line)."""
        return REF_KERNEL_S / (sum(self.per_call) / len(self.per_call))


def pct(values, q: float) -> float:
    """The ``q``-th percentile (0..100), as the mean of the samples
    ranked within ``min(5, (100 - q) / 2)`` points of ``q``.

    Averaging neighbouring ranks keeps the estimate a smooth function
    of the samples: where a fixed suite has a gap in its distribution
    (compile times jump from ~190 to ~280 ms near p90), a plain order
    statistic flips across the gap with timing noise."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    half = min(5.0, (100.0 - q) / 2) if q < 100 else 0.0
    last = len(data) - 1
    lo = round(last * max(0.0, q - half) / 100.0)
    hi = round(last * min(100.0, q + half) / 100.0)
    window = data[lo:hi + 1]
    return sum(window) / len(window)


def e2e_timings(cal: Calibration, ops: int, busy, latency, aux,
                cli) -> tuple[dict, dict]:
    """The timed end-to-end metrics from ``(start, seconds)`` samples
    (``cli``: ``(start, seconds, reference seconds)`` from
    :meth:`Calibration.run_cli`), scaled to reference speed and raw:
    ``ops`` per second of ``busy`` time, the p50 and p90 of ``latency``,
    and the p50 of ``aux`` and ``cli``.  The raw view also keeps the p99
    of ``latency``, which is not gated: on a shared host it swings with
    stalls after scrapes and host contention several times more than
    the host's speed does."""
    cli_ref = [secs * REF_SUBPROCESS_S / ref for _t0, secs, ref in cli]
    cli_raw = [secs for _t0, secs, _ref in cli]

    def raw(samples):
        return [secs for _t0, secs in samples]

    out = []
    for view, cli_view in ((cal.scale, cli_ref), (raw, cli_raw)):
        lat = view(latency)
        out.append({
            "ops_per_s": ops / sum(view(busy)),
            "latency_ms_p50": pct(lat, 50) * 1e3,
            "latency_ms_p90": pct(lat, 90) * 1e3,
            "aux_ms_p50": pct(view(aux), 50) * 1e3,
            "cli_ms_p50": pct(cli_view, 50) * 1e3,
        })
    out[1]["latency_ms_p99"] = pct(raw(latency), 99) * 1e3
    out[1]["cli_ms"] = [secs * 1e3 for secs in cli_raw]
    out[1]["cli_reference_ms"] = [ref * 1e3 for _t0, _s, ref in cli]
    return out[0], out[1]


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median_setup(build: Callable[[], object], cal: Calibration,
                 times: int, dispose: Optional[Callable] = None):
    """Run ``build`` ``times`` times; return (last result, median of the
    reference-speed durations, raw ``(start, seconds)`` samples).

    Each earlier result is disposed of and dropped before the next build,
    so peak memory reflects one set-up, not several."""
    samples = []
    result = None
    for _ in range(times):
        if result is not None and dispose is not None:
            dispose(result)
        result = None
        gc.collect()
        cal.slice()
        start = time.perf_counter()
        result = build()
        samples.append((start, time.perf_counter() - start))
        cal.slice()
    return result, statistics.median(cal.scale(samples)), samples


class Tracer:
    """Spans around patched entry points; one span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []          # [name, start, end, parent]
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._patches: list[tuple] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def wrap(self, owner, attr: str, name: str,
             count: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper; ``count``
        maps the call's result to ``{counter: amount}`` outside the span."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if count is not None:
                for key, amount in count(result).items():
                    tracer.counts[key] += amount
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _parent) in enumerate(self.spans):
            out[name] += (end - start) - child[idx]
        return dict(out)


class _Span:
    """One span: appended on entry (so children see their parent's
    index), stamped with start and end on exit."""

    __slots__ = ("tracer", "name", "idx", "t0")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        stack = tracer._stack()
        with tracer._lock:
            self.idx = len(tracer.spans)
            tracer.spans.append([self.name, 0.0, 0.0,
                                 stack[-1] if stack else -1])
        stack.append(self.idx)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter()
        self.tracer._stack().pop()
        record = self.tracer.spans[self.idx]
        record[1], record[2] = self.t0, end
        return False


def _module_of(filename: str, src_root: Path) -> Optional[str]:
    try:
        rel = Path(filename).resolve().relative_to(src_root)
    except ValueError:
        return None
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def profile_modules(fn: Callable[[], object], src_root: Path) -> dict:
    """Run ``fn`` under cProfile; self time per ``repro.*`` module plus
    per-function (module, name) total time and call counts."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats
    modules: dict[str, float] = defaultdict(float)
    functions: dict[tuple, dict] = {}
    total = 0.0
    for (filename, _line, func), (_cc, ncalls, tottime, cumtime,
                                   _callers) in stats.items():
        total += tottime
        module = _module_of(filename, src_root)
        if module is None:
            continue
        modules[module] += tottime
        key = (module, func)
        entry = functions.setdefault(key, {"calls": 0, "cum_s": 0.0})
        entry["calls"] += ncalls
        entry["cum_s"] += cumtime
    return {"modules": dict(modules), "functions": functions,
            "total_s": total}
