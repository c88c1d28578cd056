"""Metrics: counters, gauges, fixed-bucket histograms, and the collector
that populates them from the hook bus.

Everything is plain Python over plain ints — zero dependencies, cheap
enough to leave attached during benchmarks.  A snapshot is a nested dict
of primitives, directly JSON-serialisable (the ``BENCH_observability``
format and ``repro profile --json`` both emit it verbatim).

Each metric kind defines once how two of its kind merge
(:meth:`Counter.merge`, :meth:`Gauge.merge`, :meth:`Histogram.merge`);
every rollup — registries, labelled families, snapshots rebuilt from
JSON — folds through :func:`fold_metrics` and those three rules.
"""

from __future__ import annotations

from bisect import bisect_left
from copy import copy
from typing import Optional, Sequence

from .hooks import HookSubscriber

#: default histogram bucket upper bounds (values above the last bound
#: land in the overflow bucket)
POW2_BUCKETS: tuple[int, ...] = tuple(1 << i for i in range(0, 21, 2))


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def merge(self, other: "Counter") -> "Counter":
        """Fold ``other`` in: counts sum."""
        self.value += other.value
        return self

    def snapshot(self) -> int:
        return self.value


class Gauge:
    """A point-in-time value; remembers its high- and low-water marks.

    Occupancy-style gauges (live instances, queued events) move by
    deltas — :meth:`inc`/:meth:`dec` keep that a single call instead of
    a read-modify-``set()`` at every site.
    """

    __slots__ = ("value", "max", "min")

    def __init__(self) -> None:
        self.value = 0
        self.max = 0
        self.min = 0

    def set(self, value) -> None:
        self.value = value
        if value > self.max:
            self.max = value
        if value < self.min:
            self.min = value

    def inc(self, n: int = 1) -> None:
        self.set(self.value + n)

    def dec(self, n: int = 1) -> None:
        self.set(self.value - n)

    def merge(self, other: "Gauge") -> "Gauge":
        """Fold ``other`` in: values sum (fleet occupancy), the
        watermarks fold."""
        self.value += other.value
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    def snapshot(self) -> dict:
        return {"value": self.value, "min": self.min, "max": self.max}


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max.

    ``bounds`` are inclusive upper bounds; one extra overflow bucket
    catches everything above the last bound.
    """

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, bounds: Sequence[int] = POW2_BUCKETS):
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def record(self, value) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        # the first bound >= value; past the last bound is the overflow
        self.counts[bisect_left(self.bounds, value)] += 1

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` in bucket by bucket (bounds must be equal)."""
        if self.bounds != other.bounds:
            raise ValueError(f"histogram bounds differ: {self.bounds} vs "
                             f"{other.bounds}")
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None
                                      or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None
                                      or other.max > self.max):
            self.max = other.max
        return self

    def __copy__(self) -> "Histogram":
        return Histogram(self.bounds).merge(self)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-th percentile (0–100) from the buckets.

        Linear interpolation inside the bucket that holds the target
        rank, clamped to the exact observed ``min``/``max`` so small
        sample counts never extrapolate past reality.  ``None`` when
        empty.
        """
        if not self.count:
            return None
        target = q / 100.0 * self.count
        cum = 0
        lo = 0
        for bound, c in zip(self.bounds, self.counts):
            cum += c
            if cum >= target and c:
                frac = (target - (cum - c)) / c
                value = lo + (bound - lo) * frac
                return float(min(max(value, self.min), self.max))
            lo = bound
        return float(self.max)  # target rank lives in the overflow bucket

    def percentiles(self, qs=(50, 95, 99)) -> dict:
        return {f"p{q:g}": self.percentile(q) for q in qs}

    def snapshot(self) -> dict:
        snap = {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": [[bound, c] for bound, c
                        in zip(self.bounds, self.counts)] +
                       [["inf", self.counts[-1]]],
        }
        snap.update(self.percentiles())
        return snap


class MetricsRegistry:
    """Named metrics, lazily created; ``snapshot()`` is pure data."""

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter()
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge()
        return g

    def histogram(self, name: str,
                  bounds: Sequence[int] = POW2_BUCKETS) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(bounds)
        return h

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold every metric of ``other`` into this registry."""
        fold_metrics(self.counters, other.counters)
        fold_metrics(self.gauges, other.gauges)
        fold_metrics(self.histograms, other.histograms)
        return self

    def snapshot(self) -> dict:
        return {kind: {k: m.snapshot() for k, m in sorted(metrics.items())}
                for kind, metrics in (("counters", self.counters),
                                      ("gauges", self.gauges),
                                      ("histograms", self.histograms))}


def fold_metrics(into: dict, other: dict) -> None:
    """Merge each metric of ``other`` into ``into``'s metric of the same
    key by its kind's rule; keys ``into`` lacks get a copy, so folding
    never aliases (or later mutates) a metric of ``other``."""
    for key, metric in other.items():
        mine = into.get(key)
        if mine is None:
            into[key] = copy(metric)
        else:
            mine.merge(metric)


#: µs latency buckets: 1µs … ~1s
LATENCY_BUCKETS = tuple(10 ** i for i in range(7))
#: finer 1-2-5 µs buckets (profiler latency histograms, where the decade
#: buckets above are too coarse for percentile interpolation)
FINE_LATENCY_BUCKETS = tuple(d * 10 ** e
                             for e in range(7) for d in (1, 2, 5))
#: small-integer buckets (stack depths, steps per reaction)
DEPTH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)


class MetricsCollector(HookSubscriber):
    """Subscribes to a hook bus and aggregates the documented metric set
    into a :class:`MetricsRegistry`.

    ``sampled`` (typically the owning scheduler) is polled at each
    reaction end for the live gauges — trail count, timer-heap size,
    queue depths — so gauges track reality without per-operation cost.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 sampled=None):
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.sampled = sampled
        r = self.registry
        self.reactions = r.counter("reactions_total")
        self.steps = r.counter("steps_total")
        self.emits_internal = r.counter("emits_internal_total")
        self.emits_output = r.counter("emits_output_total")
        self.trails_spawned = r.counter("trails_spawned_total")
        self.trails_killed = r.counter("trails_killed_total")
        self.timers_scheduled = r.counter("timers_scheduled_total")
        self.timers_fired = r.counter("timers_fired_total")
        self.async_steps = r.counter("async_steps_total")
        self.region_kills = r.counter("region_kills_total")
        self.steps_per_reaction = r.histogram("steps_per_reaction",
                                              DEPTH_BUCKETS)
        self.reaction_latency = r.histogram("reaction_latency_us",
                                            LATENCY_BUCKETS)
        self.emit_depth = r.histogram("emit_stack_depth", DEPTH_BUCKETS)
        self._emits_this_reaction = 0

    # ------------------------------------------------------------ hooks
    def on_reaction_begin(self, index, trigger, value, time_us) -> None:
        self.reactions.inc()
        self.registry.counter(
            f"reactions_by_trigger.{trigger_family(trigger)}").inc()
        self._emits_this_reaction = 0

    def on_reaction_end(self, index, trigger, steps, wall_ns) -> None:
        # ``steps`` is the scheduler's own per-reaction step count
        self.steps.inc(steps)
        self.steps_per_reaction.record(steps)
        self.reaction_latency.record(wall_ns // 1000)
        r = self.registry
        r.gauge("emits_per_reaction").set(self._emits_this_reaction)
        s = self.sampled
        if s is not None:
            r.gauge("live_trails").set(len(s._live))
            r.gauge("timer_heap_size").set(len(s.timers))
            r.gauge("async_jobs").set(len(s.async_jobs))
            r.gauge("input_queue_depth").set(len(s.input_queue))
            # precise variants sampled for the static-bounds cross-check
            # (the heap/deque sizes above can include dead entries)
            r.gauge("armed_timers").set(
                sum(1 for entry in s.timers
                    if entry[-1].alive and entry[-1].waiting == "time"))
            r.gauge("async_jobs_live").set(
                sum(1 for job in s.async_jobs
                    if not job.aborted and not job.done))
            r.gauge("memory_slots").set(s.memory.slot_count())

    def on_trail_spawn(self, trail, path, time_us) -> None:
        self.trails_spawned.inc()

    def on_trail_kill(self, trail, path, time_us) -> None:
        self.trails_killed.inc()

    def on_await_begin(self, trail, target, time_us) -> None:
        self.registry.counter(f"awaits_by_target.{target}").inc()

    def on_emit_internal(self, name, depth, trail, time_us) -> None:
        self.emits_internal.inc()
        self.emit_depth.record(depth)
        self._emits_this_reaction += 1
        self.registry.counter(f"emits_by_event.{name}").inc()

    def on_emit_output(self, name, value, time_us) -> None:
        self.emits_output.inc()

    def on_timer_schedule(self, deadline_us, trail, time_us) -> None:
        self.timers_scheduled.inc()

    def on_timer_fire(self, deadline_us, delta_us, n_trails) -> None:
        self.timers_fired.inc()

    def on_async_step(self, job, kind, time_us) -> None:
        self.async_steps.inc()

    def on_region_kill(self, region, n_trails, time_us) -> None:
        self.region_kills.inc()


def trigger_family(trigger: str) -> str:
    """Collapse unbounded ``async:NNN`` triggers to one family, so
    per-trigger series stay bounded."""
    return "async" if trigger.startswith("async:") else trigger


# ---------------------------------------------------------------- report
def render_stats(stats: dict) -> str:
    """Human-readable metrics report (``repro profile`` / ``--stats``)."""
    lines: list[str] = []
    runtime = stats.get("runtime", {})
    if runtime:
        lines.append("runtime")
        for key, value in runtime.items():
            lines.append(f"  {key:<24} {value}")
    derived = stats.get("derived", {})
    if derived:
        lines.append("derived")
        for key, value in derived.items():
            shown = f"{value:.1f}" if isinstance(value, float) else value
            lines.append(f"  {key:<24} {shown}")
    counters = stats.get("counters", {})
    if counters:
        lines.append("counters")
        for key, value in counters.items():
            lines.append(f"  {key:<40} {value}")
    gauges = stats.get("gauges", {})
    if gauges:
        lines.append("gauges")
        for key, g in gauges.items():
            lines.append(f"  {key:<24} {g['value']} (max {g['max']})")
    histograms = stats.get("histograms", {})
    if histograms:
        lines.append("histograms")
        for key, h in histograms.items():
            line = (f"  {key:<24} count={h['count']} mean={h['mean']:.2f} "
                    f"min={h['min']} max={h['max']}")
            if h.get("p50") is not None:
                line += (f" p50={h['p50']:.0f} p95={h['p95']:.0f} "
                         f"p99={h['p99']:.0f}")
            lines.append(line)
    return "\n".join(lines)
