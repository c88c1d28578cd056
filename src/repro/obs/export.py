"""Trace export: Chrome trace-event JSON (Perfetto-loadable) and JSONL.

The Chrome format (``chrome://tracing`` / https://ui.perfetto.dev) maps
naturally onto the VM: one *process* is the VM, one *thread track* per
trail (plus track 0 for the scheduler), one slice per reaction on the
scheduler track, one slice per trail run (resume → halt) on the trail's
track, and instant events for internal emits, output emits, timer
activity, and kills.

Timestamps are VM microseconds.  Within one reaction the VM clock does
not advance, so the exporter keeps a *monotone* timeline: whenever the
clock stands still, successive events are nudged forward by 1 ns
(0.001 µs) — orders stay exact, slices stay properly nested, and the
Perfetto zoom level at which the nudges are visible is far below any
real deadline spacing.

Causality (:mod:`repro.obs.causal`) is drawn with Chrome **flow
events**: pass ``flows_from=program.hooks`` and every trail resume and
reaction start gets an arrow from the occurrence that caused it (an
``emit``, a timer fire, an async completion) plus a ``wake`` arrow from
the await / timer arm that registered the wakeup — Perfetto renders them
as curves between the tracks.  Each arrow is one ``ph:"s"`` at the
source occurrence's coordinates and one binding-point ``ph:"f"``
(``bp:"e"``) at the destination, sharing a unique ``id`` derived from
the destination's span (``span*2`` for the cause arrow, ``span*2+1`` for
the wake arrow).  With ``flows_from`` unset the output is byte-identical
to what this exporter always produced.
"""

from __future__ import annotations

import json
from typing import Optional

from .hooks import HOOK_EVENTS, HookBus, HookRecorder, HookSubscriber

_SCHED_TID = 0


class ChromeTraceExporter(HookSubscriber):
    """Collects Chrome trace events; ``write()`` emits the JSON file."""

    def __init__(self, pid: int = 1, process_name: str = "repro-vm",
                 flows_from: Optional[HookBus] = None):
        self.pid = pid
        self.events: list[dict] = []
        self._tids: dict[str, int] = {}
        self._open: dict[int, int] = {}    # tid -> open "B" depth
        self._ts = 0.0
        self._clock = 0
        self._bus = flows_from
        self._flow_src: dict[int, tuple[int, float]] = {}  # span -> coords
        self._meta("process_name", {"name": process_name})
        self._thread(_SCHED_TID, "scheduler")

    # ------------------------------------------------------------ plumbing
    def _meta(self, name: str, args: dict, tid: int = _SCHED_TID) -> None:
        self.events.append({"ph": "M", "name": name, "pid": self.pid,
                            "tid": tid, "args": args})

    def _thread(self, tid: int, name: str) -> None:
        self._meta("thread_name", {"name": name}, tid=tid)

    def _tid(self, trail: str) -> int:
        tid = self._tids.get(trail)
        if tid is None:
            tid = self._tids[trail] = len(self._tids) + 1
            self._thread(tid, trail)
        return tid

    def _tick(self, time_us: int) -> float:
        """Monotone event timestamp in µs.

        The ``max`` keeps the timeline monotone even when a long run of
        zero-duration reactions has accumulated more than 1 µs of 1 ns
        nudges and the VM clock then advances by less than that.
        """
        if time_us > self._clock:
            self._clock = time_us
            self._ts = max(float(time_us), self._ts + 0.001)
        else:
            self._ts += 0.001
        return self._ts

    def _begin(self, tid: int, name: str, time_us: int,
               args: dict) -> None:
        self.events.append({"ph": "B", "name": name, "pid": self.pid,
                            "tid": tid, "ts": self._tick(time_us),
                            "args": args})
        self._open[tid] = self._open.get(tid, 0) + 1

    def _end(self, tid: int, time_us: int, args: dict) -> None:
        if self._open.get(tid, 0) <= 0:
            return  # never emit an unmatched "E"
        self._open[tid] -= 1
        self.events.append({"ph": "E", "pid": self.pid, "tid": tid,
                            "ts": self._tick(time_us), "args": args})

    def _instant(self, tid: int, name: str, time_us: int,
                 args: dict) -> None:
        self.events.append({"ph": "i", "name": name, "pid": self.pid,
                            "tid": tid, "ts": self._tick(time_us),
                            "s": "t", "args": args})

    # ---------------------------------------------------------------- flows
    def _flow_here(self, tid: int) -> None:
        """Remember the just-dispatched span's trace coordinates so a
        later arrow can start here (``self._ts`` is the timestamp the
        enclosing handler just minted)."""
        self._flow_src[self._bus.last_span] = (tid, self._ts)

    def _arrow(self, src_span: int, dest_tid: int, flow_id: int,
               name: str) -> None:
        """One causal arrow: lazy ``"s"`` at the recorded source
        coordinates, ``"f"`` (bp:"e") at the current destination."""
        src = self._flow_src.get(src_span)
        if src is None:
            return
        src_tid, src_ts = src
        self.events.append({"ph": "s", "id": flow_id, "name": name,
                            "cat": "causal", "pid": self.pid,
                            "tid": src_tid, "ts": src_ts})
        self.events.append({"ph": "f", "bp": "e", "id": flow_id,
                            "name": name, "cat": "causal", "pid": self.pid,
                            "tid": dest_tid, "ts": self._ts})

    # --------------------------------------------------------------- hooks
    def on_reaction_begin(self, index, trigger, value, time_us) -> None:
        self._begin(_SCHED_TID, f"reaction {trigger}", time_us,
                    {"index": index, "value": repr(value)})
        if self._bus is not None:
            span = self._bus.last_span
            self._flow_here(_SCHED_TID)
            # async completions / timer fires seed reactions causally
            self._arrow(self._bus.last_parent, _SCHED_TID, span * 2,
                        "cause")

    def on_reaction_end(self, index, trigger, steps, wall_ns) -> None:
        self._end(_SCHED_TID, self._clock,
                  {"steps": steps, "wall_ns": wall_ns})

    def on_trail_spawn(self, trail, path, time_us) -> None:
        tid = self._tid(trail)
        self._instant(tid, "spawn", time_us, {"path": list(path)})
        if self._bus is not None:
            self._flow_here(tid)

    def on_trail_resume(self, trail, path, time_us) -> None:
        tid = self._tid(trail)
        self._begin(tid, trail, time_us, {"path": list(path)})
        if self._bus is not None:
            span = self._bus.last_span
            self._flow_here(tid)
            self._arrow(self._bus.last_parent, tid, span * 2, "cause")
            self._arrow(self._bus.wake, tid, span * 2 + 1, "wake")

    def on_trail_halt(self, trail, path, waiting, time_us) -> None:
        self._end(self._tid(trail), time_us, {"waiting": waiting})

    def on_trail_kill(self, trail, path, time_us) -> None:
        tid = self._tid(trail)
        # a kill may interrupt a halted trail with no open slice
        self._end(tid, time_us, {"waiting": "killed"})
        self._instant(tid, "kill", time_us, {"path": list(path)})

    def on_await_begin(self, trail, target, time_us) -> None:
        # only materialised for flow export: the await is the source of
        # the eventual wake arrow (byte-identical output otherwise)
        if self._bus is not None:
            tid = self._tid(trail)
            self._instant(tid, f"await {target}", time_us, {})
            self._flow_here(tid)

    def on_emit_internal(self, name, depth, trail, time_us) -> None:
        tid = self._tid(trail)
        self._instant(tid, f"emit {name}", time_us, {"depth": depth})
        if self._bus is not None:
            self._flow_here(tid)

    def on_emit_output(self, name, value, time_us) -> None:
        self._instant(_SCHED_TID, f"output {name}", time_us,
                      {"value": repr(value)})

    def on_timer_schedule(self, deadline_us, trail, time_us) -> None:
        tid = self._tid(trail)
        self._instant(tid, "timer armed", time_us,
                      {"deadline_us": deadline_us})
        if self._bus is not None:
            self._flow_here(tid)

    def on_timer_fire(self, deadline_us, delta_us, n_trails) -> None:
        self._instant(_SCHED_TID, "timer fire", deadline_us,
                      {"deadline_us": deadline_us, "delta_us": delta_us,
                       "n_trails": n_trails})
        if self._bus is not None:
            self._flow_here(_SCHED_TID)

    def on_async_step(self, job, kind, time_us) -> None:
        self._instant(_SCHED_TID, f"async {kind}", time_us,
                      {"job": job})
        if self._bus is not None:
            self._flow_here(_SCHED_TID)

    def on_region_kill(self, region, n_trails, time_us) -> None:
        self._instant(_SCHED_TID, "region kill", time_us,
                      {"region": list(region), "n_trails": n_trails})

    # -------------------------------------------------------------- output
    def to_json(self) -> dict:
        events = list(self.events)
        # close any slices left open by an aborted run
        ts = self._ts
        for tid, depth in self._open.items():
            for _ in range(depth):
                ts += 0.001
                events.append({"ph": "E", "pid": self.pid, "tid": tid,
                               "ts": ts, "args": {}})
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)


def jsonl_record(event: str, fields: tuple[str, ...], args: tuple,
                 seq: int) -> dict:
    """The canonical JSONL record for one hook event: ``ev``, ``seq``,
    then the fields in taxonomy order.  With :func:`jsonl_line` it is
    the reference every JSONL sink's output equals byte for byte."""
    rec = {"ev": event, "seq": seq}
    rec.update(zip(fields, args))
    return rec


def jsonl_line(rec: dict) -> str:
    """Render one record in full (``default=repr`` keeps arbitrary
    payloads serialisable) — the reference for the split encoding."""
    return json.dumps(rec, default=repr)


# The exporters encode a line in two parts so one record can reach
# several sinks with a different ``seq`` each yet be encoded once:
#
#     jsonl_head(ev) + str(seq) + jsonl_tail(payload)
#     == jsonl_line({"ev": ev, "seq": seq, **payload})
#
# provided no payload key is ``ev`` or ``seq`` (no taxonomy field is).
def _head(event: str) -> str:
    return '{"ev": %s, "seq": ' % json.dumps(event)


_HEADS = {event: _head(event) for event in HOOK_EVENTS}
#: ``json.dumps(obj, default=repr)`` without building an encoder per call
_encode = json.JSONEncoder(default=repr).encode


def jsonl_head(event: str) -> str:
    """``{"ev": "<event>", "seq": `` — precomputed for every taxonomy
    event."""
    head = _HEADS.get(event)
    return head if head is not None else _head(event)


def jsonl_tail(payload: dict) -> str:
    """Everything after the ``seq`` value: the payload's keys in order,
    then the closing brace."""
    if not payload:
        return "}"
    return ", " + _encode(payload)[1:]


class JsonlExporter(HookRecorder):
    """Machine-readable export: one JSON object per hook event, fields
    named per :data:`~repro.obs.hooks.HOOK_EVENTS`.

    This exporter **buffers every record in memory** — right for tests
    and bounded runs, wrong for long-running servers; use
    :class:`repro.obs.stream.StreamingJsonlExporter` (same byte-for-byte
    output, bounded memory) for those."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def record(self, event: str, fields: tuple[str, ...],
               args: tuple) -> None:
        self.records.append(jsonl_record(event, fields, args,
                                         len(self.records)))

    def lines(self) -> list[str]:
        out = []
        for rec in self.records:
            payload = dict(rec)
            head = jsonl_head(payload.pop("ev"))
            out.append(head + str(payload.pop("seq")) + jsonl_tail(payload))
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for line in self.lines():
                fh.write(line + "\n")

