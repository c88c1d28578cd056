"""Wall-clock driving: map the DES calendar onto real time.

The farm's calendar (:class:`~repro.sim.des.Simulator`) is *virtual* —
``run_until`` drains it as fast as Python executes, which is what the
benchmarks and tests want but not what a *served* farm wants: a farm
answering ``/metrics`` scrapes must advance its timers at the rate the
wall clock does, so the telemetry plane observes a live system instead
of a finished one.

:class:`WallClockDriver` is that mapping.  It anchors virtual time 0 at
the real instant :meth:`run` starts and then alternates between

* **sleeping** until the next calendar deadline's real instant (in
  bounded slices, so :meth:`stop` stays responsive), and
* **firing** everything due at that virtual instant under
  :attr:`lock` — the same lock the HTTP admin server
  (:mod:`repro.obs.serve`) takes around snapshots, so a scrape always
  sees a reaction boundary, never a half-driven instance.

The clock is injectable (``clock=`` / ``sleep=``): tests drive hours of
virtual time through a fake clock in milliseconds of real time, and
``speed=`` compresses real time for smoke runs (``speed=50`` serves a
50×-accelerated farm).  Local synchrony, global asynchrony: inside the
lock each shard remains the deterministic synchronous world the paper
describes; the telemetry plane observes it asynchronously from outside.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional


class WallClockDriver:
    """Drive a :class:`~repro.runtime.farm.Farm` in real time.

    ``speed`` maps virtual to real time: ``speed=1.0`` serves virtual
    microseconds as real microseconds; larger values compress (a 250 ms
    virtual timer fires after 250/speed real milliseconds).

    >>> driver = WallClockDriver(farm, speed=10.0)
    >>> threading.Thread(target=driver.run, daemon=True).start()
    >>> ...                      # farm serves scrapes while timers fire
    >>> driver.stop(); driver.drain()
    """

    def __init__(self, farm, *, speed: float = 1.0,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Optional[Callable[[float], None]] = None,
                 slice_s: float = 0.05):
        if speed <= 0:
            raise ValueError("speed must be positive")
        self.farm = farm
        self.speed = speed
        self.slice_s = slice_s
        self._clock = clock
        self._sleep = sleep if sleep is not None else time.sleep
        #: guards every farm mutation *and* every snapshot taken while
        #: the driver is live — share it with the admin server
        self.lock = threading.RLock()
        self._stop = threading.Event()
        self._running = False
        self._drained = False
        self.epoch: Optional[float] = None
        self.deadline_misses = 0      # fired later than one slice behind

    # ------------------------------------------------------------ clocks
    def now_us(self) -> int:
        """Virtual time corresponding to the current real instant."""
        if self.epoch is None:
            return self.farm.sim.now
        elapsed = self._clock() - self.epoch
        return max(self.farm.sim.now, int(elapsed * 1_000_000 * self.speed))

    @property
    def running(self) -> bool:
        return self._running

    # ----------------------------------------------------------- control
    def stop(self) -> None:
        """Ask :meth:`run` to return at the next slice boundary."""
        self._stop.set()

    def run(self, until_us: Optional[int] = None) -> None:
        """Serve the calendar in real time until ``until_us`` virtual
        microseconds have elapsed (``None``: until :meth:`stop`)."""
        self.epoch = self._clock() - self.farm.sim.now / (1_000_000
                                                          * self.speed)
        self._running = True
        try:
            while not self._stop.is_set():
                with self.lock:
                    nd = self.farm.sim.peek_time()
                if until_us is not None and (nd is None or nd > until_us):
                    if self._wait_until(until_us):
                        break
                    continue
                if nd is None:
                    # idle calendar: poll for late work (sends arriving
                    # through other threads re-populate it)
                    self._sleep(self.slice_s)
                    continue
                if not self._wait_until(nd):
                    continue            # slept a slice; re-check stop
                behind = self.now_us() - nd
                if behind > self.slice_s * 2_000_000 * self.speed:
                    self.deadline_misses += 1
                with self.lock:
                    self.farm.sim.run_until(nd)
        finally:
            self._running = False

    def _wait_until(self, target_us: int) -> bool:
        """Sleep one bounded slice toward ``target_us``; True when the
        target's real instant has passed (or a stop was requested and
        honoured by the caller's loop)."""
        wait_s = (target_us / (1_000_000 * self.speed)
                  + self.epoch - self._clock())
        if wait_s <= 0:
            return True
        self._sleep(min(wait_s, self.slice_s))
        return False

    def drain(self, until_us: Optional[int] = None) -> int:
        """Final alignment for a graceful shutdown: fire everything due
        up to the current (or given) virtual instant and bring every
        live instance's clock to it.  Returns the drain time."""
        t = until_us if until_us is not None else self.now_us()
        with self.lock:
            self.farm.run_until(t)
            self.farm.align()
        self._drained = True
        return t

    # ------------------------------------------------------------- serve
    def snapshot(self) -> dict:
        """Fleet snapshot + watchdog verdicts at a reaction boundary —
        the ``/snapshot`` payload."""
        with self.lock:
            snap = self.farm.fleet_snapshot()
            snap["watchdog"] = self.farm.watchdog()
            snap["wallclock"] = {
                "running": self._running,
                "speed": self.speed,
                "now_us": self.now_us(),
                "deadline_misses": self.deadline_misses,
            }
        return snap


__all__ = ["WallClockDriver"]
