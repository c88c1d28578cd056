"""§5.2 blink experiment: synchronous vs asynchronous 400/1000 ms blinkers.

Two leds should light together every 2 s (lcm of 400 and 1000 ms).  The
naive implementations:

* **Céu** — ``blink2.ceu``: two trails awaiting 400 ms / 1000 ms.  Timer
  deadlines chain from logical expiries (§2.3), so the phase relation is
  exact forever;
* **MantisOS** — two threads ``sleep(p); toggle;``: each wake-up suffers
  scheduling jitter that silently becomes part of the next period;
* **occam** — two processes with ``TIM ? AFTER`` delays: same drift.

The metric is the fraction of 2-second boundaries at which *both* leds
toggled within a tolerance: 1.0 means the leds stay synchronized.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..apps import load
from ..baselines.mantis import MantisOS
from ..baselines.occam import OccamRuntime
from ..runtime.program import Program

PERIOD0_US = 400_000
PERIOD1_US = 1_000_000
SYNC_US = 2_000_000          # lcm(400ms, 1000ms)


@dataclass(frozen=True, slots=True)
class BlinkResult:
    system: str
    duration_s: float
    boundaries: int
    synchronized: int            # boundaries where both leds toggled
    max_drift_us: int            # worst led-0 deviation from its grid

    @property
    def sync_ratio(self) -> float:
        return self.synchronized / self.boundaries if self.boundaries else 0.0


def _score(toggles0: list[int], toggles1: list[int], duration_us: int,
           system: str, tolerance_us: int = 20_000) -> BlinkResult:
    boundaries = duration_us // SYNC_US
    synchronized = 0
    for k in range(1, boundaries + 1):
        t = k * SYNC_US
        hit0 = any(abs(x - t) <= tolerance_us for x in toggles0)
        hit1 = any(abs(x - t) <= tolerance_us for x in toggles1)
        if hit0 and hit1:
            synchronized += 1
    max_drift = 0
    for i, x in enumerate(toggles0, start=1):
        max_drift = max(max_drift, abs(x - i * PERIOD0_US))
    return BlinkResult(system, duration_us / 1e6, boundaries, synchronized,
                       max_drift)


def run_ceu(duration_us: int = 120_000_000) -> BlinkResult:
    toggles: dict[int, list[int]] = {0: [], 1: []}
    program = Program(load("blink2"))
    program.cenv.define("led0Toggle",
                        lambda: toggles[0].append(program.clock))
    program.cenv.define("led1Toggle",
                        lambda: toggles[1].append(program.clock))
    program.start()
    # drive time in coarse, sloppy increments — exactly what a busy
    # binding does; delta compensation must absorb it
    step = 7_300
    while program.clock < duration_us:
        program.advance(step)
    return _score(toggles[0], toggles[1], duration_us, "Céu")


def run_mantis(duration_us: int = 120_000_000, jitter_us: int = 2_000,
               seed: int = 11) -> BlinkResult:
    os = MantisOS(jitter_us=jitter_us, seed=seed)

    def blinker(period_us: int, led: int):
        while True:
            yield ("sleep", period_us)
            yield ("toggle", led)

    t0 = os.spawn("led0", blinker(PERIOD0_US, 0))
    t1 = os.spawn("led1", blinker(PERIOD1_US, 1))
    os.run_until(duration_us)
    return _score([t for t, _ in t0.toggles], [t for t, _ in t1.toggles],
                  duration_us, "MantisOS (RTOS)")


def run_occam(duration_us: int = 120_000_000, jitter_us: int = 1_500,
              seed: int = 23) -> BlinkResult:
    rt = OccamRuntime(jitter_us=jitter_us, seed=seed)

    def blinker(period_us: int, led: int):
        while True:
            yield ("delay", period_us)
            yield ("toggle", led)

    p0 = rt.spawn("led0", blinker(PERIOD0_US, 0))
    p1 = rt.spawn("led1", blinker(PERIOD1_US, 1))
    rt.run_until(duration_us)
    return _score([t for t, _ in p0.toggles], [t for t, _ in p1.toggles],
                  duration_us, "occam")


def experiment(duration_us: int = 120_000_000) -> list[BlinkResult]:
    return [run_ceu(duration_us), run_mantis(duration_us),
            run_occam(duration_us)]


def render(results: list[BlinkResult]) -> str:
    lines = [f"{'system':16} {'sync ratio':>10} {'max drift':>12}"]
    for r in results:
        lines.append(f"{r.system:16} {r.sync_ratio:10.2%} "
                     f"{r.max_drift_us / 1000.0:10.1f}ms")
    lines.append("paper: Céu stays synchronized; the asynchronous "
                 "implementations lose synchronism over time")
    return "\n".join(lines)
