"""The instrumentation hook bus.

Every interesting runtime event — a reaction chain starting, a trail
resuming or halting, an internal ``emit`` (with its §2.2 stack depth), a
timer arming or firing, an async step, a region kill — is announced on a
:class:`HookBus`.  Subscribers (the :class:`~repro.runtime.trace.Trace`
recorder, the metrics collector, the Perfetto/JSONL exporters, or any
user-supplied :class:`HookSubscriber`) receive the events they care about
and ignore the rest.

The bus is **off by default**: with no subscribers, ``bus.enabled`` is
``False`` and the emitting sites (scheduler, interpreter, DES kernel,
platforms) skip dispatch entirely — one attribute load and a branch per
potential event, so the reference VM's speed and semantics are untouched.

The event taxonomy lives in :data:`HOOK_EVENTS`; the dispatch methods on
:class:`HookBus` and the per-event handlers of :class:`HookRecorder` —
the one base of every subscriber that records events generically (the
event log, the causal graph, every JSONL sink) — are both generated
from it, so the taxonomy, the bus, and the machine-readable export
cannot drift apart.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

#: The full hook taxonomy: event name → ordered field names.
#: ``time_us`` is always the VM wall-clock (integer microseconds);
#: ``wall_ns`` is host wall-clock (``perf_counter_ns``) and the only
#: nondeterministic field in the taxonomy.
HOOK_EVENTS: dict[str, tuple[str, ...]] = {
    # reaction chains (§2, §4.5)
    "reaction_begin": ("index", "trigger", "value", "time_us"),
    "reaction_end": ("index", "trigger", "steps", "wall_ns"),
    # one interpreter statement (the unit of `note_step`)
    "step": ("trail", "path", "kind", "line"),
    # trail lifecycle (§2.1, §4.3)
    "trail_spawn": ("trail", "path", "time_us"),
    "trail_resume": ("trail", "path", "time_us"),
    "trail_halt": ("trail", "path", "waiting", "time_us"),
    "trail_kill": ("trail", "path", "time_us"),
    # an await about to suspend (emitted by the interpreter;
    # target is "ext:NAME" | "int:NAME" | "time" | "forever")
    "await_begin": ("trail", "target", "time_us"),
    # internal events: depth is the §2.2 emit-stack depth (1 = outermost)
    "emit_internal": ("name", "depth", "trail", "time_us"),
    "emit_output": ("name", "value", "time_us"),
    # timers (§2.3)
    "timer_schedule": ("deadline_us", "trail", "time_us"),
    "timer_fire": ("deadline_us", "delta_us", "n_trails"),
    # asyncs (§2.7); kind is "tick" | "emit_ext" | "emit_time" | "done"
    "async_step": ("job", "kind", "time_us"),
    # region destruction (§4.3)
    "region_kill": ("region", "n_trails", "time_us"),
    # discrete-event simulation kernel
    "des_schedule": ("handle", "at_us", "now_us"),
    "des_fire": ("handle", "now_us"),
    "des_cancel": ("handle", "now_us"),
}


class HookSubscriber:
    """Base class for hook consumers: a no-op ``on_<event>`` per taxonomy
    entry.  Override only what you need."""


def _noop(self, *args) -> None:
    return None


for _name in HOOK_EVENTS:
    setattr(HookSubscriber, f"on_{_name}", _noop)


class HookBus:
    """Fans events out to subscribers.

    ``bus.enabled`` is kept in sync with the subscriber list so emitting
    sites can guard with a single cheap check::

        if self.hooks.enabled:
            self.hooks.reaction_begin(i, trigger, value, now)

    Every dispatch also assigns the occurrence a **span id** and records
    the causal context it fired under (see :mod:`repro.obs.causal`):

    * ``last_span`` — the span id of the occurrence just dispatched
      (monotone, 1-based; subscribers read it from their handlers);
    * ``last_parent`` — the span of the occurrence *causing* this one
      (0 = the external world).  Emitting sites maintain ``cause``: the
      scheduler sets it to the current reaction / trail-resume / internal
      emit span for their dynamic extent, so parent edges are exact
      rather than inferred from event adjacency;
    * ``wake`` — an auxiliary cause published only around
      ``trail_resume`` dispatches: the span of the await / timer-arm /
      spawn occurrence that registered the wakeup.

    The bookkeeping is three attribute stores per dispatched event and
    none at all while the bus is disabled, so the hooks-off fast path is
    untouched.
    """

    __slots__ = ("subscribers", "enabled", "span_seq", "last_span",
                 "last_parent", "cause", "wake")

    def __init__(self) -> None:
        self.subscribers: list[HookSubscriber] = []
        self.enabled = False
        self.span_seq = 0       # last span id handed out
        self.last_span = 0      # span of the most recent dispatch
        self.last_parent = 0    # its causal parent (0 = external world)
        self.cause = 0          # span of the occurrence now executing
        self.wake = 0           # aux cause for the next trail_resume

    def subscribe(self, subscriber: HookSubscriber) -> HookSubscriber:
        if subscriber not in self.subscribers:
            self.subscribers.append(subscriber)
        self.enabled = True
        return subscriber

    def unsubscribe(self, subscriber: HookSubscriber) -> None:
        if subscriber in self.subscribers:
            self.subscribers.remove(subscriber)
        self.enabled = bool(self.subscribers)


def _dispatcher(event: str) -> Callable:
    handler = f"on_{event}"

    def dispatch(self, *args) -> None:
        span = self.span_seq + 1
        self.span_seq = span
        self.last_span = span
        self.last_parent = self.cause
        for sub in self.subscribers:
            getattr(sub, handler)(*args)

    dispatch.__name__ = event
    dispatch.__doc__ = f"Dispatch ``{event}{HOOK_EVENTS[event]}``."
    return dispatch


for _name in HOOK_EVENTS:
    setattr(HookBus, _name, _dispatcher(_name))


class HookRecorder(HookSubscriber):
    """Base for subscribers that handle every event the same way.

    Each generated ``on_<event>`` calls ``self.record(event, fields,
    args)`` with the taxonomy's field names for that event, so a
    subclass defines only :meth:`record`."""

    def record(self, event: str, fields: tuple[str, ...],
               args: tuple) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


def _recorder(event: str, fields: tuple[str, ...]) -> Callable:
    def on_event(self, *args) -> None:
        self.record(event, fields, args)

    on_event.__name__ = f"on_{event}"
    return on_event


for _name, _fields in HOOK_EVENTS.items():
    setattr(HookRecorder, f"on_{_name}", _recorder(_name, _fields))
del _name, _fields


class EventLog(HookRecorder):
    """Records every event as ``(name, {field: value})`` — the simplest
    subscriber, used by tests and the JSONL exporter's foundation.

    By default (``maxlen=None``) the log is **unbounded** — fine for
    tests and short runs, unsuitable for long-running servers.  Pass
    ``maxlen=N`` to keep only the last N events in a ring buffer;
    ``seen`` always counts every event ever delivered, so
    ``log.dropped`` reports how many fell off the ring.
    """

    def __init__(self, maxlen: Optional[int] = None) -> None:
        self.maxlen = maxlen
        self.events: "deque[tuple[str, dict]] | list[tuple[str, dict]]" = (
            deque(maxlen=maxlen) if maxlen is not None else [])
        self.seen = 0

    def record(self, event: str, fields: tuple[str, ...],
               args: tuple) -> None:
        self.seen += 1
        self.events.append((event, dict(zip(fields, args))))

    @property
    def dropped(self) -> int:
        return self.seen - len(self.events)

    def names(self) -> list[str]:
        return [name for name, _ in self.events]

    def of(self, *names: str) -> list[tuple[str, dict]]:
        wanted = set(names)
        return [(n, f) for n, f in self.events if n in wanted]

    def signature(self) -> tuple:
        """Rebuild :meth:`repro.runtime.trace.Trace.signature` from the
        recorded events.

        A signature computed from a *partial* event stream would silently
        collide with (or diverge from) the true behaviour, so this is
        only legal while every delivered event is still retained: a
        bounded log that has evicted events (``dropped > 0``) raises
        ``ValueError`` instead of fabricating a digest.
        """
        if self.dropped:
            raise ValueError(
                f"cannot compute a signature from a partial event log: "
                f"{self.dropped} of {self.seen} events were dropped by "
                f"the maxlen={self.maxlen} ring (use an unbounded "
                f"EventLog or the Trace recorder)")
        rows: list[tuple] = []
        trigger: Optional[str] = None
        steps: list[tuple] = []
        emitted: list[str] = []
        for name, f in self.events:
            if name == "reaction_begin":
                trigger, steps, emitted = f["trigger"], [], []
            elif trigger is None:
                continue
            elif name == "step":
                steps.append((f["trail"], f["kind"], f["line"]))
            elif name == "emit_internal":
                emitted.append(f["name"])
            elif name == "reaction_end":
                rows.append((trigger, tuple(steps), tuple(emitted)))
                trigger = None
        return tuple(rows)

