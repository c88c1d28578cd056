"""Scheduler bookkeeping: the O(1) awaiting count, gates that hold only
live waiters, and nesting depths computed once per bound program.

A reaction must cost what it wakes, not what sits idle (§2.1: trails are
cheap, so programs use many of them), and a bounded program (§2.5) must
run in bounded memory however long it runs."""

import sys

from repro.lang import ast, parse
from repro.runtime import Program
from repro.sema import bind

from helpers import run_program

# ---------------------------------------------------------------------------
# the awaiting count
# ---------------------------------------------------------------------------

#: two timers expire at 10 ms: one armed at boot, one armed at 5 ms by a
#: different reaction.  They fire as two reactions; between them the
#: second trail has no timer-heap entry yet still awaits, so a count taken
#: from the heap would declare the program quiescent after the first.
COINCIDENT_DEADLINES = """
input void A;
par/and do
   await 10ms;
with
   await A;
   await 5ms;
end
return 1;
"""


def test_coincident_deadline_partitions_do_not_quiesce_early():
    p = Program(COINCIDENT_DEADLINES)
    p.start()
    p.at(5_000)
    p.send("A")
    p.at(20_000)
    assert p.done and p.result == 1
    assert p.sched.reaction_count == 4   # boot, A, two timer epochs


def test_count_matches_recount_between_coincident_partitions():
    p = Program(COINCIDENT_DEADLINES)
    p.start()
    p.at(5_000)
    p.send("A")
    # stop after the first timer epoch: the second partition is owed
    p.sched.pause_at = 3
    p.at(20_000)
    sched = p.sched
    assert not p.done
    assert sched.awaiting_count() == sched.recount_awaiting() == 1


def test_count_follows_register_wake_kill_and_terminate():
    src = """
    input void A, B, Never;
    internal void e;
    par/or do
       await A;
       await B;
    with
       await e;
    with
       await Never;
    with
       await 1h;
    with
       await forever;
    end
    return 7;
    """
    p = Program(src)
    p.start()
    sched = p.sched
    assert sched.awaiting_count() == sched.recount_awaiting() == 5
    p.send("A")                     # wakes one trail, which re-awaits
    assert sched.awaiting_count() == sched.recount_awaiting() == 5
    p.send("B")                     # the or-join kills the other four
    assert p.done and p.result == 7
    assert sched.awaiting_count() == sched.recount_awaiting() == 0


def _idle_program(n_idle: int) -> Program:
    """One worker trail beside ``n_idle`` trails awaiting an input that
    never comes, an internal event never emitted, a far timer, or
    ``forever``."""
    kinds = ("await Never;", "await e;", "await 1h;", "await forever;")
    idle = "".join(f"with\n   {kinds[i % len(kinds)]}\n"
                   for i in range(n_idle))
    src = f"""
    input int A;
    input void Never;
    internal void e;
    int n = 0;
    par do
       loop do
          int v = await A;
          n = n + v;
       end
    {idle}end
    """
    program = Program(src, check=False)
    program.start()
    return program


def _calls_per_send(program: Program) -> int:
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profiler)
    try:
        program.send("A", 1)
    finally:
        sys.setprofile(None)
    return calls


def test_reaction_cost_is_flat_in_idle_trails():
    """Python-level calls per ``send`` do not depend on how many trails
    sit idle: the reaction touches only the trail it wakes."""
    counts = []
    for n_idle in (10, 4_000):
        program = _idle_program(n_idle)
        assert program.sched.awaiting_count() == n_idle + 1
        program.send("A", 1)        # warm any first-use paths
        counts.append(_calls_per_send(program))
        assert program.sched.awaiting_count() == n_idle + 1
    assert counts[0] == counts[1], counts


# ---------------------------------------------------------------------------
# gates hold only live waiters
# ---------------------------------------------------------------------------

#: each iteration kills the branch still awaiting `Never` / `forever`
KILLED_WAITERS = """
input void A, Never;
par do
   loop do
      par/or do
         await 10ms;
      with
         await Never;
      end
   end
with
   loop do
      par/or do
         await A;
      with
         await Never;
      end
   end
with
   loop do
      par/or do
         await A;
      with
         await forever;
      end
   end
end
"""


def test_killed_trails_leave_their_gates():
    p = Program(KILLED_WAITERS)
    p.start()
    for _ in range(10_000):
        p.advance("10ms")
        p.send("A")
    sched = p.sched
    live = [t for t in sched._live if t.alive]
    for kind, gate in (("ext", sched.ext_waiting["Never"]),
                       ("ext", sched.ext_waiting["A"]),
                       ("forever", sched.forever)):
        waiters = [t for t in live if t.waiting == kind and t.gate is gate]
        assert all(t.alive for t in gate)
        assert len(gate) <= len(waiters)
    assert len(sched.ext_waiting["Never"]) == 2
    assert len(sched.forever) == 1
    # one timer, two `Never`, two `A`, one `forever`
    assert sched.awaiting_count() == sched.recount_awaiting() == 6


def test_gate_keeps_registration_order_after_kills():
    """Killing the second of four waiters removes it from the middle of
    its gate; the survivors still wake in the order they began awaiting
    (§2.2), so the removal must not move the last waiter forward."""
    branches = []
    for digit, other in ((1, "Never"), (9, "K"), (3, "Never"),
                         (4, "Never")):
        branches.append(f"""   par/or do
      await A;
      order = order * 10 + {digit};
   with
      await {other};
   end""")
    src = ("input void A, K, Never;\nint order = 0;\npar do\n"
           + "\nwith\n".join(branches) + "\nend\n")
    p = run_program(src, ("ev", "K"), ("ev", "A"))
    assert p.sched.memory.snapshot()["order"] == 134


# ---------------------------------------------------------------------------
# nesting depths
# ---------------------------------------------------------------------------

def _walk_depths(program: ast.Program) -> dict[int, int]:
    """The full-AST reference walk the on-demand table must agree with."""
    depth: dict[int, int] = {}

    def walk(node: ast.Node, d: int) -> None:
        depth[node.nid] = d
        nested = d + 1 if isinstance(
            node, (ast.ParStmt, ast.Loop, ast.DoBlock,
                   ast.AsyncBlock)) else d
        for child in node.children():
            walk(child, nested)

    walk(program, 0)
    return depth


def test_on_demand_depths_match_a_full_walk():
    from pathlib import Path

    from repro.fuzz import generate_case

    corpus = sorted(Path(__file__).parent.glob("corpus/*.ceu"))
    sources = [path.read_text() for path in corpus]
    sources += [generate_case(seed).src for seed in range(40)]
    checked = 0
    for src in sources:
        bound = bind(parse(src))
        reference = _walk_depths(bound.program)
        for node in _nodes(bound.program):
            if isinstance(node, (ast.ParStmt, ast.Loop, ast.DoBlock,
                                 ast.AsyncBlock)):
                assert bound.depth(node) == reference[node.nid]
                checked += 1
    assert checked > 100


def _nodes(node: ast.Node):
    yield node
    for child in node.children():
        yield from _nodes(child)


def test_depth_table_is_shared_by_every_scheduler_of_a_program():
    bound = bind(parse(KILLED_WAITERS))
    first = Program(bound)
    first.start()
    first.advance("10ms")
    filled = dict(bound.depths)
    assert filled                          # the first run filled it
    second = Program(bound)
    second.start()
    second.advance("10ms")
    assert bound.depths == filled          # the second reused it
    assert len(filled) < len(_walk_depths(bound.program))
