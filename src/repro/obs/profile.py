"""Continuous profiling: attribute reaction cost to trails, source
lines, and triggers.

:class:`Profiler` is a hook-bus subscriber that turns the raw ``step`` /
``reaction_begin`` / ``reaction_end`` stream into the questions a
developer actually asks of a reactive program:

* **where do the steps go?** — per-source-line and per-trail step
  counts (``hot_lines`` / ``hot_trails``, rendered by :meth:`report`);
* **which triggers are slow?** — per-trigger reaction-latency
  histograms (fine 1-2-5 buckets) with p50/p95/p99, the WCRT view of
  the synchronous-language literature;
* **what does the whole run look like?** — collapsed-stack output
  (``trigger;trail;kind:line count``), directly consumable by any
  flamegraph renderer (``flamegraph.pl``, speedscope, inferno).

Attribution is streaming and O(1) per event — only the aggregate maps
grow (bounded by program size × trigger alphabet), never the event
stream — so the profiler is safe to leave attached to unbounded runs.
"""

from __future__ import annotations

from typing import Optional

from .hooks import HookSubscriber
from .metrics import (DEPTH_BUCKETS, FINE_LATENCY_BUCKETS, Histogram,
                      trigger_family)


class Profiler(HookSubscriber):
    """Aggregating profiler subscriber (see module docstring).

    ``source`` (the program text) is optional; when given, the hot-path
    report quotes the offending source lines.
    """

    def __init__(self, source: Optional[str] = None):
        self.source_lines = source.splitlines() if source else None
        #: steps attributed to each source line
        self.line_cost: dict[int, int] = {}
        #: steps attributed to each trail label
        self.trail_cost: dict[str, int] = {}
        #: steps attributed to each (trigger family, trail, kind, line)
        self.stacks: dict[tuple[str, str, str, int], int] = {}
        #: per-trigger-family reaction latency (µs) and steps/reaction
        self.latency: dict[str, Histogram] = {}
        self.steps: dict[str, Histogram] = {}
        self.reactions = 0
        self.total_steps = 0
        self._trigger = "?"

    # ------------------------------------------------------------- hooks
    def on_reaction_begin(self, index, trigger, value, time_us) -> None:
        self._trigger = trigger_family(trigger)

    def on_reaction_end(self, index, trigger, steps, wall_ns) -> None:
        family = trigger_family(trigger)
        lat = self.latency.get(family)
        if lat is None:
            lat = self.latency[family] = Histogram(FINE_LATENCY_BUCKETS)
            self.steps[family] = Histogram(DEPTH_BUCKETS)
        lat.record(wall_ns // 1000)
        self.steps[family].record(steps)
        self.reactions += 1

    def on_step(self, trail, path, kind, line) -> None:
        self.total_steps += 1
        self.line_cost[line] = self.line_cost.get(line, 0) + 1
        self.trail_cost[trail] = self.trail_cost.get(trail, 0) + 1
        key = (self._trigger, trail, kind, line)
        self.stacks[key] = self.stacks.get(key, 0) + 1

    # ---------------------------------------------------------- analysis
    def hot_lines(self, k: int = 10) -> list[tuple[int, int]]:
        """Top-``k`` ``(line, steps)`` — the hot reaction paths."""
        return sorted(self.line_cost.items(),
                      key=lambda item: (-item[1], item[0]))[:k]

    def hot_trails(self, k: int = 10) -> list[tuple[str, int]]:
        return sorted(self.trail_cost.items(),
                      key=lambda item: (-item[1], item[0]))[:k]

    def report(self, k: int = 10) -> str:
        """The ``repro profile --hot`` text report."""
        lines = [f"profile: {self.reactions} reactions, "
                 f"{self.total_steps} steps"]
        if self.latency:
            lines.append("per-trigger reaction latency (us)")
            lines.append(f"  {'trigger':<16} {'count':>7} {'p50':>8} "
                         f"{'p95':>8} {'p99':>8} {'max':>8} {'steps':>6}")
            for family in sorted(self.latency,
                                 key=lambda f: -self.latency[f].count):
                h = self.latency[family]
                p = h.percentiles()
                lines.append(
                    f"  {family:<16} {h.count:>7} {p['p50']:>8.1f} "
                    f"{p['p95']:>8.1f} {p['p99']:>8.1f} {h.max:>8} "
                    f"{self.steps[family].mean:>6.1f}")
        if self.line_cost:
            lines.append(f"hot lines (top {k})")
            for line, cost in self.hot_lines(k):
                share = 100.0 * cost / self.total_steps
                text = ""
                if (self.source_lines
                        and 1 <= line <= len(self.source_lines)):
                    text = "  " + self.source_lines[line - 1].strip()
                lines.append(f"  line {line:<5} {cost:>8} steps "
                             f"({share:4.1f}%){text}")
        if self.trail_cost:
            lines.append(f"hot trails (top {k})")
            for trail, cost in self.hot_trails(k):
                share = 100.0 * cost / self.total_steps
                lines.append(f"  {trail:<24} {cost:>8} steps "
                             f"({share:4.1f}%)")
        return "\n".join(lines)

    # ------------------------------------------------------- flamegraphs
    def collapsed(self) -> list[str]:
        """Collapsed-stack lines: ``trigger;trail;kind:line count``."""
        out = []
        for (trigger, trail, kind, line), count in sorted(
                self.stacks.items()):
            out.append(f"{trigger};{trail};{kind}:{line} {count}")
        return out

    def write_collapsed(self, path) -> int:
        """Write flamegraph-compatible collapsed stacks; returns the
        number of distinct stacks."""
        lines = self.collapsed()
        with open(path, "w") as fh:
            for line in lines:
                fh.write(line + "\n")
        return len(lines)
