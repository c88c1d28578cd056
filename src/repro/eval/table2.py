"""Table 2 (`tab:resp`): responsiveness, Céu vs MantisOS (§4.6 exp. 2).

How fast can a node absorb 3000 radio messages while running long
computations?  Setup mirrors the paper:

* *1 sender*: messages every ~7.75 ms — the fastest rate the receivers
  sustain without losses (≈23 s for 3000 messages);
* *2 senders*: combined arrivals outpace the receiver, which then runs at
  its per-message processing rate (losses ignored) — TinyOS's lighter
  radio path makes the Céu node faster (≈12 s vs ≈20 s), exactly the
  paper's asymmetry ("probably due to TinyOS higher performance");
* *5 loops*: five infinite computations run alongside.  In Céu they live
  in ``async`` blocks (lower priority by construction); in MantisOS the
  receiver thread gets boosted priority, as the paper had to do.  Either
  way the total time increase is bounded by one context-switch/iteration
  per message — negligible (~0.1 s), the paper's key observation.

Per-message processing costs are the only calibrated constants
(Céu-on-TinyOS 4.1 ms, MantisOS 6.6 ms); everything else — saturation,
preemption, switch overhead — emerges from the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..runtime.program import Program

N_MESSAGES = 3000
SEND_INTERVAL_US = 7_750          # 1-sender pacing (≈7 ms + stack)
CEU_PROC_US = 4_100               # Céu/TinyOS per-message cost
MANTIS_PROC_US = 6_600            # MantisOS per-message cost
SWITCH_US = 33                    # context-switch / async-iteration grain

RECEIVER_CEU = """
input _message_t* Radio_receive;
int n = 0;
loop do
   await Radio_receive;
   n = n + 1;
   _process(n);
   if n == {n} then
      break;
   end
end
return n;
"""

RECEIVER_CEU_LOOPS = """
input _message_t* Radio_receive;
int n = 0;
par/or do
   loop do
      await Radio_receive;
      n = n + 1;
      _process(n);
      if n == {n} then
         break;
      end
   end
with
   async do
      loop do
         _work(0);
      end
   end
with
   async do
      loop do
         _work(1);
      end
   end
with
   async do
      loop do
         _work(2);
      end
   end
with
   async do
      loop do
         _work(3);
      end
   end
with
   async do
      loop do
         _work(4);
      end
   end
end
return n;
"""


@dataclass(frozen=True, slots=True)
class RespResult:
    system: str
    senders: int
    loops: bool
    total_s: float
    received: int
    lost: int
    background_iterations: int

    def label(self) -> str:
        comp = "5 loops" if self.loops else "no comp."
        return f"{self.senders} sender(s) / {comp}"


def run_ceu(senders: int = 1, loops: bool = False,
            n_messages: int = N_MESSAGES) -> RespResult:
    """Drive the actual Céu receiver program over simulated arrivals."""
    source = (RECEIVER_CEU_LOOPS if loops else RECEIVER_CEU).format(
        n=n_messages)
    program = Program(source)
    work_count = [0]
    program.cenv.define("process", lambda n: 0)
    program.cenv.define("work", lambda i: work_count.__setitem__(
        0, work_count[0] + 1))
    program.sched.go_init()   # manual driving: the asyncs never terminate

    interval = SEND_INTERVAL_US // senders
    busy_until = 0
    received = lost = 0
    i = 0
    while not program.done:
        i += 1
        arrival = i * interval
        if arrival < busy_until - interval:
            lost += 1          # the 1-deep radio buffer already holds one
            continue
        start = max(arrival, busy_until)
        if loops:
            # an arrival waits out the current async iteration grain,
            # and the idle time between messages goes to the asyncs
            remainder = start % SWITCH_US
            if remainder:
                start += SWITCH_US - remainder
            for _ in range(max(1, interval // (SWITCH_US * 4))):
                program.sched.go_async()
        program.sched.go_event("Radio_receive", None)
        received += 1
        busy_until = start + CEU_PROC_US
    return RespResult("Céu", senders, loops, busy_until / 1e6, received,
                      lost, work_count[0])


def run_mantis(senders: int = 1, loops: bool = False,
               n_messages: int = N_MESSAGES) -> RespResult:
    """The MantisOS node: a boosted receiver thread plus compute threads.

    Modeled at the same level as the Céu driver: arrivals every
    ``interval``; the receiver needs ``MANTIS_PROC_US`` per message and,
    when compute threads are present, one context switch to preempt them.
    """
    interval = SEND_INTERVAL_US // senders
    busy_until = 0
    received = lost = 0
    background = 0
    i = 0
    while received < n_messages:
        i += 1
        arrival = i * interval
        if arrival < busy_until - interval:
            lost += 1          # buffer already full
            continue
        start = max(arrival, busy_until)
        if loops:
            background += max(1, interval // (SWITCH_US * 4))
            start += SWITCH_US        # preemption switch into the receiver
        received += 1
        busy_until = start + MANTIS_PROC_US
    return RespResult("MantisOS", senders, loops, busy_until / 1e6,
                      received, lost, background)


#: the paper's measured cells (seconds)
PAPER = {
    ("MantisOS", 1, False): 23.2, ("MantisOS", 1, True): 23.3,
    ("Céu", 1, False): 23.3,      ("Céu", 1, True): 23.3,
    ("MantisOS", 2, False): 19.8, ("MantisOS", 2, True): 19.9,
    ("Céu", 2, False): 12.3,      ("Céu", 2, True): 12.4,
}


def table2(n_messages: int = N_MESSAGES) -> list[RespResult]:
    out = []
    for senders in (1, 2):
        for loops in (False, True):
            out.append(run_mantis(senders, loops, n_messages))
            out.append(run_ceu(senders, loops, n_messages))
    return out


def render(results: list[RespResult]) -> str:
    lines = [f"{'case':26} {'system':9} {'measured':>9} {'paper':>7}"]
    for r in results:
        paper = PAPER[(r.system, r.senders, r.loops)]
        lines.append(f"{r.label():26} {r.system:9} {r.total_s:8.1f}s "
                     f"{paper:6.1f}s")
    return "\n".join(lines)
