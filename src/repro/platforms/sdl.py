"""Simulated SDL "standalone" platform (§3.3).

The Mario demo uses the standalone binding: the program generates all of
its own input from ``async`` blocks, polling SDL for key events and
emitting time/``Step`` events itself.  The binding surface:

* ``_SDL_PollEvent(&event)`` — pops a scripted key queue (writes the event
  struct through the pointer, returns 0/1);
* ``_SDL_Delay(ms)`` — advances a *virtual* SDL clock only (simulation does
  not wait, §2.8);
* ``_SDL_KEYDOWN`` — the event-type constant;
* ``_redraw(...)`` / ``_redraw_on(flag)`` — the demo's single side effect:
  a recorded frame list with an enable toggle (used by the backwards
  replay, §3.3);
* ``_time(0)`` — a fixed seed source so replays are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..runtime.cenv import CEnv
from ..runtime.program import Program
from ..runtime.values import Ref

SDL_KEYDOWN = 2          # arbitrary nonzero tag, as in SDL headers


@dataclass
class SdlEventRecord:
    type: int = 0
    key: int = 0


@dataclass
class Screen:
    enabled: bool = True
    frames: list[tuple] = field(default_factory=list)

    def redraw(self, *args) -> int:
        if self.enabled:
            self.frames.append(tuple(args))
        return 0

    def redraw_on(self, flag: int) -> int:
        self.enabled = bool(flag)
        return 0


class SdlHost:
    """Hosts one standalone Céu program with scripted key presses.

    ``key_script`` holds poll indices: the n-th call to ``SDL_PollEvent``
    returns a KEYDOWN iff ``n`` is in the script — this mirrors how the
    demo's generator polls once per 10 ms step, so a poll index *is* a
    game step.
    """

    def __init__(self, source: str, key_script: Optional[set] = None,
                 seed: int = 42, extra_env: Optional[dict] = None,
                 trace: bool = False, observe: bool = False):
        self.screen = Screen()
        self.key_script = set(key_script or ())
        self.poll_count = 0
        self.sdl_clock_ms = 0
        cenv = CEnv()
        cenv.define_many({
            "SDL_KEYDOWN": SDL_KEYDOWN,
            "SDL_PollEvent": self._poll_event,
            "SDL_Delay": self._delay,
            "SDL_Event": 0,
            "redraw": self.screen.redraw,
            "redraw_on": self.screen.redraw_on,
            "time": lambda _=0: seed,
        })
        if extra_env:
            cenv.define_many(extra_env)
        self.program = Program(source, cenv=cenv, trace=trace,
                               observe=observe, filename="sdl.ceu")

    def _poll_event(self, event_ptr) -> int:
        self.poll_count += 1
        if (self.poll_count - 1) in self.key_script:
            record = SdlEventRecord(type=SDL_KEYDOWN, key=1)
            if isinstance(event_ptr, Ref):
                event_ptr.set(record)
            return 1
        if isinstance(event_ptr, Ref) and not isinstance(
                event_ptr.get(), SdlEventRecord):
            event_ptr.set(SdlEventRecord())
        return 0

    def _delay(self, ms: int) -> int:
        self.sdl_clock_ms += ms
        return 0

    def run(self, max_async_steps: int = 10_000_000) -> None:
        """Standalone mode: boot and let the program drive itself."""
        self.program.start()
        self.program.run(max_async_steps=max_async_steps)

    def stats(self) -> dict:
        """Host snapshot: VM metrics plus SDL-side activity."""
        stats = self.program.stats()
        stats["sdl"] = {
            "polls": self.poll_count,
            "frames": len(self.screen.frames),
            "sdl_clock_ms": self.sdl_clock_ms,
        }
        return stats
