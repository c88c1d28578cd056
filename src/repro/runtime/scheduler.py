"""The reaction engine (§2 execution model, §4.5 API).

The scheduler exposes the paper's four-entry C API:

* :meth:`go_init`  — boot reaction;
* :meth:`go_event` — one reaction chain for one external input event;
* :meth:`go_time`  — advance wall-clock time, running one reaction chain
  per expiring deadline (residual-delta semantics of §2.3);
* :meth:`go_async` — one round-robin step of one ``async`` block, whose
  emits tail-call back into ``go_event``/``go_time`` (§4.5).

Within a reaction chain, runnable items live in a single priority queue.
Normal awakenings run first; rejoin/termination continuations of parallel
compositions and loops run later, **the outer the construct, the lower the
priority** (§4.1) — the glitch-avoidance order of the paper's flow graph.
Internal events are *not* queued: an ``emit`` runs its awaiting trails to
halt synchronously and only then resumes the emitter — the stack policy of
§2.2, realised here directly on the Python call stack.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import deque
from typing import Any, Callable, Optional

from ..lang import ast
from ..lang.errors import RuntimeCeuError
from ..obs.hooks import HookBus
from ..obs.metrics import MetricsCollector, MetricsRegistry
from ..sema.binder import BoundProgram
from ..sema.symbols import EventSymbol
from .asyncs import AsyncInterp, AsyncJob
from .cenv import CEnv
from .eval import Evaluator
from .interp import Interp
from .memory import Memory
from .trace import Trace
from .trails import BreakSignal, EscapeJoin, Join, ReturnSignal, Trail

#: status codes, mirroring the paper's C API returns
RUNNING = "running"
TERMINATED = "terminated"

#: suspensions that count as *awaiting* for the termination check (§3.1);
#: a trail halted on "par"/"async" is held by its join or job instead
AWAITING = frozenset(("ext", "int", "time", "forever"))


class Scheduler:
    """Executes one Céu program."""

    def __init__(self, bound: BoundProgram, cenv: Optional[CEnv] = None,
                 trace: Optional[Trace] = None,
                 hooks: Optional[HookBus] = None,
                 step_limit: int = 5_000_000,
                 compensate_deltas: bool = True,
                 glitch_free: bool = True,
                 reverse_seeds: bool = False):
        self.bound = bound
        #: ablation switches (§2.3 residual deltas, §4.1 join priorities);
        #: both default to the paper's design — disabling them reproduces
        #: the failure modes the paper designs against
        self.compensate_deltas = compensate_deltas
        self.glitch_free = glitch_free
        #: schedule-diversity switch for the analyzer-soundness oracle:
        #: seed every reaction in reversed arrival order.  Any program the
        #: temporal analysis accepts must behave identically either way.
        self.reverse_seeds = reverse_seeds
        self.memory = Memory()
        self.cenv = cenv if cenv is not None else CEnv()
        self.ev = Evaluator(bound, self.memory, self.cenv)
        self.interp = Interp(bound, self.ev, self)
        self.async_interp = AsyncInterp(bound, self.ev)
        #: instrumentation (docs/OBSERVABILITY.md) — a no-op unless
        #: someone subscribes; the Trace recorder is one subscriber
        self.hooks = hooks if hooks is not None else HookBus()
        self.trace = trace if trace is not None else Trace(enabled=False)
        if self.trace.enabled:
            self.hooks.subscribe(self.trace)
        self.metrics = MetricsRegistry()
        self._metrics_collector: Optional[MetricsCollector] = None

        self.clock = 0                     # wall-clock, microseconds
        self.done = False
        self.result: Any = None
        self.reaction_count = 0
        self.steps_executed = 0
        self.step_limit = step_limit
        #: time-travel support (repro debug): when set, the scheduler
        #: refuses to *start* reaction number ``pause_at`` — go_time and
        #: the input/async drains stop at the boundary, leaving the VM
        #: inspectable exactly after ``pause_at`` completed reactions
        self.pause_at: Optional[int] = None

        # awaiting registries ("gates", §4.3): insertion-ordered dicts
        # used as ordered sets, so a killed trail leaves its gate in O(1)
        # (``Trail.gate``) and seeding still runs in registration order
        self.ext_waiting: dict[str, dict[Trail, None]] = {}
        self.int_waiting: dict[str, dict[Trail, None]] = {}
        self.forever: dict[Trail, None] = {}
        #: live trails whose ``waiting`` is in :data:`AWAITING`, kept up
        #: to date on register, resume, kill and terminate
        self._awaiting = 0
        #: heap of (deadline, arming_base, computed?, seq, trail) — the
        #: base/computed components partition coincident deadlines into
        #: per-epoch reactions (see :meth:`go_time`)
        self.timers: list[tuple[int, int, int, int, Trail]] = []
        self.async_jobs: deque[AsyncJob] = deque()
        self.input_queue: deque[tuple[str, Any]] = deque()
        self.output_handler: Optional[Callable[[str, Any], None]] = None
        #: checkpoint support (repro.runtime.checkpoint): when a list is
        #: assigned, every *top-level* driver call — go_event/go_time/
        #: go_async plus queue_input/flush_inputs — appends one journal
        #: op.  Nested calls (an async's emit tail-calling go_event, a
        #: flush delivering queued inputs) are consequences of the
        #: recorded op and are not journaled; replaying the journal in
        #: order reproduces the run exactly (the determinism property
        #: the replay fuzz oracle checks).
        self.journal: Optional[list[tuple]] = None
        self._drive_depth = 0

        # reaction-chain state
        self._heap: list = []
        self._seq = itertools.count()
        self._region_seq = itertools.count(1)
        self._reacting = False
        self._current_base = 0
        self._steps_this_reaction = 0
        self._emit_depth = 0               # §2.2 emit-stack depth
        #: live trails in spawn order (a dict, not a set: kills and
        #: termination walk it, and their hook order must not depend on
        #: object addresses)
        self._live: dict[Trail, None] = {}
        self.root: Optional[Trail] = None

    def depth(self, node: Optional[ast.Node]) -> int:
        return 0 if node is None else self.bound.depth(node)

    # ------------------------------------------------------- observability
    def enable_metrics(self) -> MetricsRegistry:
        """Attach (once) a metrics collector to the hook bus."""
        if self._metrics_collector is None:
            self._metrics_collector = MetricsCollector(self.metrics,
                                                       sampled=self)
            self.hooks.subscribe(self._metrics_collector)
        return self.metrics

    def stats(self) -> dict:
        """Snapshot of the documented metric set (docs/OBSERVABILITY.md).

        The ``runtime`` block is always live (sampled on demand); the
        counter/histogram blocks fill in once :meth:`enable_metrics` (or
        ``Program(..., observe=True)``) has attached the collector.
        """
        snap = self.metrics.snapshot()
        snap["runtime"] = {
            "clock_us": self.clock,
            "reactions_total": self.reaction_count,
            "steps_total": self.steps_executed,
            "live_trails": len(self._live),
            "awaiting": self.awaiting_count(),
            "timer_heap_size": len(self.timers),
            "async_jobs": len(self.async_jobs),
            "input_queue_depth": len(self.input_queue),
            "done": self.done,
            "observed": self._metrics_collector is not None,
        }
        latency = self.metrics.histograms.get("reaction_latency_us")
        if latency is not None and latency.total:
            snap["derived"] = {
                "reactions_per_sec": latency.count * 1e6 / latency.total,
                "steps_per_reaction_mean":
                    self.metrics.histograms["steps_per_reaction"].mean,
            }
        return snap

    # ---------------------------------------------------------- public API
    def paused(self) -> bool:
        """True when the reaction-boundary pause (:attr:`pause_at`) has
        been reached — drivers must stop feeding stimuli."""
        return (self.pause_at is not None
                and self.reaction_count >= self.pause_at)

    def go_init(self) -> str:
        """Boot reaction (``ceu_go_init``)."""
        if self.root is not None:
            raise RuntimeCeuError("program already initialised")
        trail = Trail(gen=None, path=(), parent_join=None, label="main")
        trail.gen = self.interp.trail_body(self.bound.program.body, trail)
        self.root = trail
        self._live[trail] = None
        if self.hooks.enabled:
            self.hooks.trail_spawn(trail.label, trail.path, self.clock)
            trail.wake_cause = self.hooks.last_span
        self._react("boot", None,
                    lambda: self._enqueue_resume(trail, None))
        return TERMINATED if self.done else RUNNING

    def _journal_op(self, op: tuple) -> Optional[int]:
        """Record one top-level driver call for checkpoint replay.
        Returns the entry index so :meth:`_journal_close` can stamp it."""
        if self.journal is not None and self._drive_depth == 0:
            self.journal.append(op)
            return len(self.journal) - 1
        return None

    def _journal_close(self, idx: Optional[int]) -> None:
        """Stamp an entry with the reaction count after its application.
        Replay uses the stamp to detect a partially applied entry (a
        pause — or a crash — landed inside a multi-reaction op) and
        resume it instead of re-running it."""
        if idx is not None and self.journal is not None:
            self.journal[idx] = self.journal[idx] + (self.reaction_count,)

    def go_event(self, name: str, value: Any = None) -> str:
        """One reaction chain for input event ``name`` (``ceu_go_event``)."""
        if self.done:
            return TERMINATED
        sym = self.bound.events.get(name)
        if sym is None or sym.kind != "input":
            raise RuntimeCeuError(f"`{name}` is not a declared input event")
        rec = self._journal_op(("E", name, value))
        self._drive_depth += 1

        def seed() -> None:
            waiting = self.ext_waiting.get(name, ())
            self.ext_waiting[name] = {}
            if self.reverse_seeds:
                waiting = list(reversed(waiting))
            for trail in waiting:
                if trail.alive:
                    self._enqueue_resume(trail, value)

        try:
            self._react(f"event:{name}", value, seed)
        finally:
            self._drive_depth -= 1
            self._journal_close(rec)
        return TERMINATED if self.done else RUNNING

    def go_time(self, now: int) -> str:
        """Advance wall-clock time to ``now`` µs (``ceu_go_time``).

        Runs one reaction chain per expiring *logical* deadline; deadlines
        chain (`await 10ms; await 1ms` expires at 10 and 11 ms regardless
        of how late ``go_time`` is called), reproducing the residual-delta
        handling of §2.3.
        """
        if self.done:
            return TERMINATED
        if now < self.clock:
            raise RuntimeCeuError(
                f"time goes backwards ({now} < {self.clock})")
        rec = self._journal_op(("T", now))
        self._drive_depth += 1
        try:
            self._go_time(now)
        finally:
            self._drive_depth -= 1
            self._journal_close(rec)
        return TERMINATED if self.done else RUNNING

    def _go_time(self, now: int) -> None:
        self.clock = now
        while not self.done and not self.paused():
            deadline = self._next_deadline()
            if deadline is None or deadline > now:
                break
            # Pop everything at this absolute deadline, then partition it:
            # timers armed in the same reaction (same base) fire together,
            # cross-epoch coincidences fire as separate reactions, and
            # computed timeouts (`await (exp)`) always fire alone.  This is
            # exactly the batching the temporal analysis explores (one
            # epoch per `fire_timer`, one `tunk` per `fire_unknown_timer`),
            # so its per-reaction bounds hold for the concrete scheduler.
            popped: list[tuple[int, int, int, Trail]] = []
            while self.timers and self.timers[0][0] == deadline:
                _, base, computed, seq, trail = heapq.heappop(self.timers)
                if trail.alive and trail.waiting == "time":
                    popped.append((computed, base, seq, trail))
            # most recently armed epoch first (the freshly re-armed short
            # timer beats the long-armed watchdog expiring with it),
            # computed timeouts last
            popped.sort(key=lambda item: (item[0], -item[1], item[2]))
            parts: list[list[Trail]] = []
            last_key: Optional[tuple] = None
            for computed, base, seq, trail in popped:
                key = (computed, base, seq if computed else -1)
                if key != last_key:
                    parts.append([])
                    last_key = key
                parts[-1].append(trail)
            delta = now - deadline
            for part in parts:
                if self.done or self.paused():
                    break
                # an earlier partition's reaction may have killed these
                live = [t for t in part
                        if t.alive and t.waiting == "time"]
                if not live:
                    continue
                hooked = self.hooks.enabled
                if hooked:
                    prev_cause = self.hooks.cause
                    self.hooks.timer_fire(deadline, delta, len(live))
                    # the fire is the cause of the reaction it seeds
                    self.hooks.cause = self.hooks.last_span

                def seed(live=live, delta=delta) -> None:
                    order = reversed(live) if self.reverse_seeds else live
                    for trail in order:
                        self._enqueue_resume(trail, delta)

                self._react("time", deadline, seed, base=deadline)
                if hooked:
                    self.hooks.cause = prev_cause

    def go_async(self) -> str:
        """One async step (``ceu_go_async``): a single loop iteration or a
        single emit of the current job, round-robin across jobs."""
        if self.done:
            return TERMINATED
        rec = self._journal_op(("A",))
        self._drive_depth += 1
        try:
            return self._go_async()
        finally:
            self._drive_depth -= 1
            self._journal_close(rec)

    def _go_async(self) -> str:
        if self.input_queue:
            # asynchronous code cannot run with pending inputs (§2.7)
            self.flush_inputs()
            return TERMINATED if self.done else RUNNING
        job = self._next_job()
        if job is None:
            return RUNNING
        try:
            req = next(job.gen)
        except StopIteration as stop:
            self._complete_async(job, stop.value)
            return TERMINATED if self.done else RUNNING
        kind = req[0]
        hooked = self.hooks.enabled
        if hooked:
            self.hooks.async_step(job.seq, kind, self.clock)
            # the async step causes the reaction(s) its emit triggers
            self.hooks.cause = self.hooks.last_span
        if kind == "emit_ext":
            _, sym, value = req
            if job.aborted:
                if hooked:
                    self.hooks.cause = 0
                return RUNNING
            self.go_event(sym.name, value)
        elif kind == "emit_time":
            if not job.aborted:
                self.go_time(self.clock + req[1])
        # "tick": nothing — one loop iteration consumed
        if hooked:
            self.hooks.cause = 0
        if not job.aborted and not job.done:
            self._rotate_job(job)
        return TERMINATED if self.done else RUNNING

    # input queue (events arriving while a reaction runs / DES platforms)
    def queue_input(self, name: str, value: Any = None) -> None:
        rec = self._journal_op(("Q", name, value))
        self.input_queue.append((name, value))
        self._journal_close(rec)

    def flush_inputs(self) -> None:
        rec = self._journal_op(("F",))
        self._drive_depth += 1
        try:
            while self.input_queue and not self.done and not self.paused():
                name, value = self.input_queue.popleft()
                self.go_event(name, value)
        finally:
            self._drive_depth -= 1
            self._journal_close(rec)

    def awaiting_count(self) -> int:
        """Trails awaiting an event, a timer or ``forever`` — O(1)."""
        return self._awaiting

    def recount_awaiting(self) -> int:
        """:meth:`awaiting_count` by a full rescan of the gates and the
        live set — the reference the fuzz oracles check the maintained
        count against after every driver call."""
        ext = sum(1 for gate in self.ext_waiting.values()
                  for t in gate if t.alive)
        internal = sum(1 for gate in self.int_waiting.values()
                       for t in gate if t.alive)
        # count timer waiters from the live set, not the heap: go_time
        # pops every same-deadline entry before running the per-epoch
        # partitions, so between two coincident-deadline reactions a
        # still-waiting trail has no heap entry — counting the heap
        # would declare quiescence with a resume still owed
        timers = sum(1 for t in self._live
                     if t.alive and t.waiting == "time")
        forever = sum(1 for t in self.forever if t.alive)
        return ext + internal + timers + forever

    def next_deadline(self) -> Optional[int]:
        """Earliest pending wall-clock deadline (for platform drivers)."""
        return self._next_deadline()

    # ------------------------------------------------------ reaction chain
    def _react(self, trigger: str, value: Any, seed: Callable[[], None],
               base: Optional[int] = None) -> None:
        if self._reacting:
            raise RuntimeCeuError(
                "reaction chains must not be interleaved (§4.5)")
        if self.done:
            return
        self._reacting = True
        self._current_base = self.clock if base is None else base
        index = self.reaction_count
        self.reaction_count += 1
        self._steps_this_reaction = 0
        hooked = self.hooks.enabled
        if hooked:
            start_ns = time.perf_counter_ns()
            self.hooks.reaction_begin(index, trigger, value,
                                      self._current_base)
            # the reaction span is the causal parent of everything it
            # runs (seeded resumes, rejoins); its own parent is whatever
            # triggered it (0 = external, an async step, a timer fire)
            prev_cause = self.hooks.cause
            self.hooks.cause = self.hooks.last_span
        try:
            seed()
            while self._heap and not self.done:
                _, _, kind, payload = heapq.heappop(self._heap)
                if kind == "resume":
                    trail, send_value = payload
                    if trail.alive:
                        self._run_trail(trail, send_value)
                elif kind == "join":
                    self._dispatch_join(payload)
                else:  # escape
                    self._dispatch_escape(payload)
        finally:
            self._heap.clear()
            self._reacting = False
            if hooked:
                self.hooks.reaction_end(
                    index, trigger, self._steps_this_reaction,
                    time.perf_counter_ns() - start_ns)
                self.hooks.cause = prev_cause
        self._check_termination()

    def _enqueue_resume(self, trail: Trail, value: Any) -> None:
        heapq.heappush(self._heap,
                       ((0, 0), next(self._seq), "resume", (trail, value)))

    def _enqueue_join(self, join: Join) -> None:
        prio = (1, -self.depth(join.node)) if self.glitch_free else (0, 0)
        if self.hooks.enabled:
            # causal parent of the deferred rejoin: the halt of the
            # branch whose completion enqueued it (the dispatch may run
            # much later in the reaction, under a different context)
            join.cause = self.hooks.last_span
        heapq.heappush(self._heap, (prio, next(self._seq), "join", join))

    def _enqueue_escape(self, trail: Trail, signal: Exception) -> None:
        if isinstance(signal, BreakSignal):
            target_depth = self.depth(signal.target)
        else:
            boundary = signal.boundary  # type: ignore[attr-defined]
            target_depth = self.depth(boundary)
        prio = (1, -target_depth) if self.glitch_free else (0, 0)
        ej = EscapeJoin(trail, signal)
        if self.hooks.enabled:
            ej.cause = self.hooks.last_span
        heapq.heappush(self._heap, (prio, next(self._seq), "escape", ej))

    def _dispatch_join(self, join: Join) -> None:
        if join.cancelled or not join.owner.alive:
            return
        hooked = self.hooks.enabled
        if hooked:
            prev_cause = self.hooks.cause
            if join.cause:
                self.hooks.cause = join.cause
        if join.mode == "or" or join.has_value:
            self.kill_region(join.region)
        value = join.value if join.has_value else 0
        self._run_trail(join.owner, ("done", value))
        if hooked:
            self.hooks.cause = prev_cause

    def _dispatch_escape(self, ej: EscapeJoin) -> None:
        if ej.cancelled:
            return
        join = ej.trail.parent_join
        if join is None:  # pragma: no cover - guarded at enqueue time
            return
        hooked = self.hooks.enabled
        if hooked:
            prev_cause = self.hooks.cause
            if ej.cause:
                self.hooks.cause = ej.cause
        self.kill_region(join.region)
        owner = join.owner
        if owner.alive:
            self._run_trail(owner, ("escape", ej.signal))
        if hooked:
            self.hooks.cause = prev_cause

    # --------------------------------------------------------- trail steps
    def _run_trail(self, trail: Trail, value: Any) -> None:
        """Run one trail until it halts (one atomic *track*, §4.4)."""
        if trail.waiting in AWAITING:
            self._awaiting -= 1
        trail.waiting = None
        trail.time_base = self._current_base
        hooks = self.hooks
        hooked = hooks.enabled
        if hooked:
            # publish the aux wake cause (await/arm/spawn span) for the
            # resume dispatch, then open the resume's causal context
            hooks.wake = trail.wake_cause
            hooks.trail_resume(trail.label, trail.path, self.clock)
            hooks.wake = 0
            trail.wake_cause = 0
            prev_cause = hooks.cause
            hooks.cause = hooks.last_span
        try:
            if not trail.started:
                trail.started = True
                req = next(trail.gen)
            else:
                req = trail.gen.send(value)
        except StopIteration:
            if hooked:
                hooks.trail_halt(trail.label, trail.path, "done",
                                 self.clock)
            self._trail_completed(trail)
            if hooked:
                hooks.cause = prev_cause
            return
        except (BreakSignal, ReturnSignal) as sig:
            if hooked:
                hooks.trail_halt(trail.label, trail.path, "escape",
                                 self.clock)
            self._trail_signal(trail, sig)
            if hooked:
                hooks.cause = prev_cause
            return
        self._register(trail, req)
        if hooked:
            hooks.trail_halt(trail.label, trail.path, req[0], self.clock)
            hooks.cause = prev_cause

    def _register(self, trail: Trail, req: tuple) -> None:
        kind = req[0]
        trail.waiting = kind
        trail.gate = None
        if kind in AWAITING:
            self._awaiting += 1
        if kind == "ext" or kind == "int":
            table = self.ext_waiting if kind == "ext" else self.int_waiting
            gate = table.get(req[1].name)
            if gate is None:
                gate = table[req[1].name] = {}
            gate[trail] = None
            trail.gate = gate
        elif kind == "time":
            timeout = req[1]
            if timeout < 0:
                raise RuntimeCeuError("negative timeout")
            computed = 1 if len(req) > 2 and req[2] else 0
            base = trail.time_base if self.compensate_deltas else self.clock
            deadline = base + timeout
            heapq.heappush(self.timers,
                           (deadline, base, computed, next(self._seq),
                            trail))
            if self.hooks.enabled:
                self.hooks.timer_schedule(deadline, trail.label, self.clock)
                trail.wake_cause = self.hooks.last_span
            # an already-late deadline is picked up by the next go_time
        elif kind == "forever":
            self.forever[trail] = None
            trail.gate = self.forever
        elif kind in ("par", "async"):
            pass  # join/job structures hold the owner
        else:  # pragma: no cover - interpreter invariant
            raise RuntimeCeuError(f"unknown suspension {kind!r}")

    def _trail_completed(self, trail: Trail) -> None:
        trail.alive = False
        self._live.pop(trail, None)
        join = trail.parent_join
        if join is None:
            return  # root trail finished; liveness check decides the rest
        if join.mode == "and":
            if join.branch_done(trail.branch_index):
                self._enqueue_join(join)
        elif join.mode == "or":
            join.branch_done(trail.branch_index)
            if not join.or_enqueued:
                join.or_enqueued = True
                self._enqueue_join(join)
        # plain `par` never rejoins: the trail simply dies

    def _trail_signal(self, trail: Trail, sig: Exception) -> None:
        trail.alive = False
        self._live.pop(trail, None)
        join = trail.parent_join
        if join is None:
            if isinstance(sig, ReturnSignal):
                self._terminate(sig.value)
                return
            raise RuntimeCeuError("`break` escaped the program")
        if isinstance(sig, ReturnSignal) and sig.boundary is join.node:
            # `return` from a value-parallel: completes the whole par
            if not join.has_value:
                join.has_value = True
                join.value = sig.value
            if not join.or_enqueued:
                join.or_enqueued = True
                self._enqueue_join(join)
            return
        self._enqueue_escape(trail, sig)

    # ------------------------------------------------------------- regions
    def spawn_par(self, node: ast.ParStmt, owner: Trail) -> Join:
        region = owner.path + (next(self._region_seq),)
        join = Join(node=node, mode=node.mode, owner=owner, region=region,
                    depth=self.depth(node), n_branches=len(node.blocks))
        branches = list(enumerate(node.blocks))
        if self.reverse_seeds:
            branches.reverse()
        for i, block in branches:
            label = f"{owner.label}.{i + 1}" if owner.label != "main" \
                else f"trail{i + 1}"
            child = Trail(gen=None, path=region + (i,), parent_join=join,
                          branch_index=i, label=label)
            child.gen = self.interp.trail_body(block, child)
            self._live[child] = None
            if self.hooks.enabled:
                self.hooks.trail_spawn(child.label, child.path, self.clock)
                child.wake_cause = self.hooks.last_span
            self._enqueue_resume(child, None)
        return join

    def kill_region(self, prefix: tuple) -> None:
        """Destroy every trail/async in ``prefix`` — the VM analogue of
        clearing a contiguous gate range with ``memset`` (§4.3)."""
        victims = [t for t in self._live if t.in_region(prefix)]
        hooked = self.hooks.enabled
        if hooked and victims:
            self.hooks.region_kill(prefix, len(victims), self.clock)
            # the region kill is the cause of each trail's death
            prev_cause = self.hooks.cause
            self.hooks.cause = self.hooks.last_span
        for trail in victims:
            trail.alive = False
            self._live.pop(trail, None)
            if trail.waiting in AWAITING:
                self._awaiting -= 1
            if trail.gate is not None:
                del trail.gate[trail]
            trail.gen.close()
            if hooked:
                self.hooks.trail_kill(trail.label, trail.path, self.clock)
        if hooked and victims:
            self.hooks.cause = prev_cause
        if self.async_jobs:
            kept = deque()
            for job in self.async_jobs:
                if job.in_region(prefix):
                    job.aborted = True
                else:
                    kept.append(job)
            self.async_jobs = kept
        for item in self._heap:
            if item[2] == "escape" and item[3].trail.in_region(prefix):
                item[3].cancelled = True
            elif item[2] == "join" and item[3].owner.in_region(prefix):
                item[3].cancelled = True

    # ------------------------------------------------------ internal events
    def emit_internal(self, sym: EventSymbol, value: Any,
                      emitter: Trail) -> None:
        """Stack policy (§2.2): run every awaiting trail to halt *now*,
        then return control to the emitter (the Python call stack is the
        emit stack).  ``_emit_depth`` measures that stack: 1 for a
        top-level emit, +1 per nested emit triggered from an awakened
        trail."""
        self._emit_depth += 1
        hooked = self.hooks.enabled
        if hooked:
            self.hooks.emit_internal(sym.name, self._emit_depth,
                                     emitter.label, self.clock)
            # the emit is the causal parent of every trail it wakes
            prev_cause = self.hooks.cause
            self.hooks.cause = self.hooks.last_span
        try:
            waiting = self.int_waiting.get(sym.name)
            if not waiting:
                return  # no one awaiting: the occurrence is discarded
            self.int_waiting[sym.name] = {}
            # a copy: a woken trail may kill a later one, which then
            # leaves this gate while we walk it
            waiting = list(reversed(waiting)) if self.reverse_seeds \
                else list(waiting)
            for trail in waiting:
                if trail.alive and trail.waiting == "int":
                    self._run_trail(trail, value)
        finally:
            self._emit_depth -= 1
            if hooked:
                self.hooks.cause = prev_cause

    def emit_output(self, sym: EventSymbol, value: Any) -> None:
        if self.hooks.enabled:
            self.hooks.emit_output(sym.name, value, self.clock)
        if self.output_handler is not None:
            self.output_handler(sym.name, value)

    # -------------------------------------------------------------- asyncs
    def spawn_async(self, node: ast.AsyncBlock, owner: Trail) -> AsyncJob:
        job = AsyncJob(node, owner, self.async_interp.run(node))
        self.async_jobs.append(job)
        return job

    def _next_job(self) -> Optional[AsyncJob]:
        while self.async_jobs:
            job = self.async_jobs[0]
            if job.aborted or job.done:
                self.async_jobs.popleft()
                continue
            return job
        return None

    def _rotate_job(self, job: AsyncJob) -> None:
        if self.async_jobs and self.async_jobs[0] is job:
            self.async_jobs.rotate(-1)

    def _complete_async(self, job: AsyncJob, value: Any) -> None:
        job.done = True
        job.result = value
        hooked = self.hooks.enabled
        if hooked:
            self.hooks.async_step(job.seq, "done", self.clock)
            done_span = self.hooks.last_span
        if self.async_jobs and self.async_jobs[0] is job:
            self.async_jobs.popleft()
        if job.aborted or not job.owner.alive:
            return
        # completion is a synthetic input event back to the owner (§2.7)
        if hooked:
            prev_cause = self.hooks.cause
            self.hooks.cause = done_span
        self._react(f"async:{job.seq}", value,
                    lambda: self._enqueue_resume(job.owner, value))
        if hooked:
            self.hooks.cause = prev_cause

    # ------------------------------------------------------------- helpers
    def _next_deadline(self) -> Optional[int]:
        while self.timers:
            entry = self.timers[0]
            if entry[-1].alive and entry[-1].waiting == "time":
                return entry[0]
            heapq.heappop(self.timers)
        return None

    def _terminate(self, value: Any) -> None:
        self.done = True
        self.result = value
        self._heap.clear()
        hooked = self.hooks.enabled
        for trail in list(self._live):
            trail.alive = False
            trail.gen.close()
            if hooked:
                self.hooks.trail_kill(trail.label, trail.path, self.clock)
        self._live.clear()
        self._awaiting = 0
        self.ext_waiting.clear()
        self.int_waiting.clear()
        self.forever.clear()
        self.timers.clear()
        for job in self.async_jobs:
            job.aborted = True
        self.async_jobs.clear()

    def _check_termination(self) -> None:
        if self.done:
            return
        if (self.awaiting_count() == 0 and not self.async_jobs
                and not self.input_queue):
            self.done = True

    # ---------------------------------------------------------------- hooks
    def note_step(self, trail: Trail, stmt: ast.Stmt) -> None:
        self.steps_executed += 1
        self._steps_this_reaction += 1
        if self._steps_this_reaction > self.step_limit:
            raise RuntimeCeuError(
                "reaction chain exceeded the step limit — unbounded "
                "execution (should have been caught by §2.5 analysis)")
        if self.hooks.enabled:
            self.hooks.step(trail.label, trail.path,
                            type(stmt).__name__, stmt.span.start.line)
