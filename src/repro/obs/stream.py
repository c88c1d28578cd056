"""Bounded-memory trace streaming: incremental JSONL and a flight
recorder.

The buffered :class:`~repro.obs.export.JsonlExporter` holds every record
in memory — fine for tests, fatal for an unbounded DES run.  This module
provides the two long-running modes:

* :class:`StreamingJsonlExporter` — writes each record to disk as it
  arrives, holding at most ``flush_every`` rendered lines in memory.
  Output is **byte-identical** to the buffered exporter's (both encode
  lines with :func:`~repro.obs.export.jsonl_head` /
  :func:`~repro.obs.export.jsonl_tail`), so downstream tooling cannot
  tell which produced a file.  An optional rotation
  policy caps file size: when the current file exceeds ``rotate_bytes``
  it is shifted to ``path.1`` (older generations to ``.2`` … ``.keep``)
  and a fresh file is started.

* :class:`FlightRecorder` — the "dump the last N events on error" mode:
  a ring of the most recent ``maxlen`` rendered lines, written out only
  when :meth:`dump` is called.  Resident memory is ≤ the ring size no
  matter how long the run.

Both keep a global ``seq`` counter, so records carry their true position
in the full event stream even after rotation or ring eviction.
"""

from __future__ import annotations

import os
import queue
import sys
import threading
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

from .export import jsonl_head, jsonl_tail
from .hooks import HookRecorder


class _LineSink(HookRecorder):
    """Base for subscribers that consume rendered JSONL lines: each
    event is rendered canonically and handed to ``self._line(line)``."""

    def __init__(self) -> None:
        self.seq = 0

    def record(self, event: str, fields: tuple[str, ...],
               args: tuple) -> None:
        line = jsonl_head(event) + str(self.seq) \
            + jsonl_tail(dict(zip(fields, args)))
        self.seq += 1
        self._line(line)

    def _line(self, line: str) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


class StreamingJsonlExporter(_LineSink):
    """Incremental JSONL export with flush and rotation policies.

    ``flush_every`` bounds resident memory: at most that many rendered
    lines are pending at any instant (``resident()``/``resident_high``
    expose the live count and its high-water mark, which the acceptance
    tests pin).  ``rotate_bytes`` caps the size of any one output file;
    ``keep`` older generations are retained as ``path.1`` … ``path.N``.
    Use as a context manager, or call :meth:`close` explicitly.
    """

    def __init__(self, path, flush_every: int = 1024,
                 rotate_bytes: Optional[int] = None, keep: int = 3):
        super().__init__()
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        self.path = Path(path)
        self.flush_every = flush_every
        self.rotate_bytes = rotate_bytes
        self.keep = keep
        self.rotations = 0
        self.resident_high = 0
        self._pending: list[str] = []
        self._bytes = 0
        self._fh = open(self.path, "w")
        self._closed = False

    # ------------------------------------------------------------- sink
    def _line(self, line: str) -> None:
        if self._closed:
            return
        self._pending.append(line)
        if len(self._pending) > self.resident_high:
            self.resident_high = len(self._pending)
        if len(self._pending) >= self.flush_every:
            self.flush()

    def resident(self) -> int:
        """Number of records currently held in memory."""
        return len(self._pending)

    # ----------------------------------------------------------- policy
    def flush(self) -> None:
        for line in self._pending:
            self._bytes += self._fh.write(line + "\n")
        self._pending.clear()
        self._fh.flush()
        if self.rotate_bytes is not None and self._bytes >= self.rotate_bytes:
            self._rotate()

    def _rotate(self) -> None:
        self._fh.close()
        oldest = self.path.with_name(f"{self.path.name}.{self.keep}")
        if oldest.exists():
            oldest.unlink()
        for gen in range(self.keep - 1, 0, -1):
            src = self.path.with_name(f"{self.path.name}.{gen}")
            if src.exists():
                os.replace(src, self.path.with_name(
                    f"{self.path.name}.{gen + 1}"))
        if self.keep >= 1:
            os.replace(self.path,
                       self.path.with_name(f"{self.path.name}.1"))
        else:
            self.path.unlink()
        self._fh = open(self.path, "w")
        self._bytes = 0
        self.rotations += 1

    def close(self) -> None:
        if not self._closed:
            self.flush()
            self._fh.close()
            self._closed = True

    def __enter__(self) -> "StreamingJsonlExporter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class LineTee(_LineSink):
    """Fan rendered JSONL lines out to live subscriber queues.

    The seam the telemetry plane's ``/events`` endpoint taps: the tee
    sits beside the :class:`StreamingJsonlExporter` in a farm's sink
    list (so every record it sees is byte-identical to the exported
    line), keeps a ring of the most recent ``maxlen`` lines for
    catch-up, and pushes each new line into every subscribed queue.
    Slow consumers never block the reaction path: a full queue drops
    the line and counts it (per-subscriber ``dropped``).

    Producer side runs on the drive thread; :meth:`subscribe` /
    :meth:`unsubscribe` run on HTTP handler threads — the subscriber
    table is lock-guarded, queue hand-off is the stdlib's.
    """

    def __init__(self, maxlen: int = 1024):
        super().__init__()
        self.ring: deque[str] = deque(maxlen=maxlen)
        self._lock = threading.Lock()
        self._subs: dict[int, queue.Queue] = {}
        self._dropped: dict[int, int] = {}
        #: cumulative drops across every subscriber ever — survives
        #: unsubscribe, so ``/metrics`` can export it as a counter
        self.total_dropped = 0
        self._next_sub = 0

    def _line(self, line: str) -> None:
        self.ring.append(line)
        with self._lock:
            subs = list(self._subs.items())
        for key, q in subs:
            try:
                q.put_nowait(line)
            except queue.Full:
                with self._lock:
                    self._dropped[key] = self._dropped.get(key, 0) + 1
                    self.total_dropped += 1

    # ------------------------------------------------------ subscribers
    def subscribe(self, maxsize: int = 1024) -> "queue.Queue[str]":
        """Register a live consumer; returns its bounded queue."""
        q: queue.Queue = queue.Queue(maxsize=maxsize)
        with self._lock:
            key = self._next_sub
            self._next_sub += 1
            self._subs[key] = q
            q._tee_key = key            # opaque cookie for unsubscribe
        return q

    def unsubscribe(self, q) -> int:
        """Drop a consumer; returns how many of its lines were lost to
        backpressure while it was subscribed."""
        key = getattr(q, "_tee_key", None)
        with self._lock:
            self._subs.pop(key, None)
            return self._dropped.pop(key, 0)

    def subscribers(self) -> int:
        with self._lock:
            return len(self._subs)

    def tail(self, n: int) -> list[str]:
        """The most recent ``n`` ring lines (catch-up before live)."""
        if n <= 0:
            return []
        return list(self.ring)[-n:]


class FlightRecorder(_LineSink):
    """Ring-buffer "flight recorder": remembers the last ``maxlen``
    events, dumps them on demand (typically from an error handler).

    ``seq`` counts every event ever seen; ``dropped`` is how many have
    fallen off the ring.  :meth:`dump` writes the surviving lines (true
    ``seq`` numbers intact) and returns how many it wrote.
    """

    def __init__(self, maxlen: int = 4096):
        super().__init__()
        self.maxlen = maxlen
        self.ring: deque[str] = deque(maxlen=maxlen)

    def _line(self, line: str) -> None:
        self.ring.append(line)

    @property
    def dropped(self) -> int:
        return self.seq - len(self.ring)

    def lines(self) -> list[str]:
        return list(self.ring)

    def dump(self, path) -> int:
        with open(path, "w") as fh:
            for line in self.ring:
                fh.write(line + "\n")
        return len(self.ring)

    @contextmanager
    def dump_on_exception(self, path=None, stream=None):
        """Write the ring out if the guarded block raises, then re-raise.

        The crash-forensics mode: wrap the program drive in this and a
        failing run leaves the last ``maxlen`` hook events behind —
        JSONL to ``path`` when given, human-bannered lines to ``stream``
        (default ``sys.stderr``) otherwise or additionally.  A clean
        exit writes nothing.

        >>> rec = program.observe(FlightRecorder(maxlen=256))
        >>> with rec.dump_on_exception(path="crash.jsonl"):
        ...     program.send("I")
        """
        try:
            yield self
        except BaseException:
            if path is not None:
                self.dump(path)
            if stream is not None or path is None:
                out = stream if stream is not None else sys.stderr
                out.write(f"--- flight recorder: last {len(self.ring)} "
                          f"of {self.seq} events ---\n")
                for line in self.ring:
                    out.write(line + "\n")
                out.write("--- end flight recorder ---\n")
            raise
