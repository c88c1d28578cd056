"""The paper's figures, regenerated as data + graphviz text.

* Figure 1 (`fig:reaction`) — the four-reaction scenario of §2;
* Figure 2 (`fig:dfa`)      — the DFA of the §2.6 nondeterministic program;
* the §4.1 flow graph (`fig:nfa`) of the guiding example.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dfa import Dfa, build_dfa
from ..flow import FlowGraph, build_flow
from ..lang import parse
from ..runtime.program import Program
from ..runtime.trace import Trace
from ..sema import bind

# ---------------------------------------------------------------------------
# Figure 1
# ---------------------------------------------------------------------------

FIG1_PROGRAM = """
input void A, B, C;
par do
   await A;            // trail 1
   _mark(1);
with
   await B;            // trail 2
   _mark(2);
with
   await A;            // trail 3
   _mark(3);
   await B;
   par do
      _mark(31);       // trail 3 continues
   with
      _mark(4);        // trail 4 spawned
   end
end
"""

#: the event order of the figure: A awakes trails 1 and 3; the second A is
#: discarded; B awakes trail 2 and trail 3 (which spawns trail 4); C is
#: never handled because the program already terminated.
FIG1_INPUTS = ["A", "A", "B", "C"]


@dataclass
class Fig1Result:
    trace: Trace
    terminated_before_c: bool
    marks: list[int]

    def reaction_summary(self) -> list[tuple[str, int, bool]]:
        """(trigger, #trails-that-ran, discarded) per reaction chain."""
        return [(r.trigger, len(r.trails()), r.discarded)
                for r in self.trace.reactions]


def figure1() -> Fig1Result:
    marks: list[int] = []
    program = Program(FIG1_PROGRAM, trace=True)
    program.cenv.define("mark", lambda n: marks.append(n) or 0)
    program.start()
    terminated_before_c = False
    for name in FIG1_INPUTS:
        if program.done:
            terminated_before_c = name == "C"
            break
        program.send(name)
        if program.done and name == "B":
            terminated_before_c = True
    return Fig1Result(program.trace, terminated_before_c, marks)


# ---------------------------------------------------------------------------
# Figure 2
# ---------------------------------------------------------------------------

FIG2_PROGRAM = """
input void A;
int v;
par do
   loop do
      await A;
      await A;
      v = 1;
   end
with
   loop do
      await A;
      await A;
      await A;
      v = 2;
   end
end
"""


@dataclass
class Fig2Result:
    dfa: Dfa
    dot: str
    conflict_state: int
    occurrences_to_conflict: int   # how many `A`s until the race

    @property
    def detected(self) -> bool:
        return bool(self.dfa.conflicts)


def figure2() -> Fig2Result:
    bound = bind(parse(FIG2_PROGRAM))
    dfa = build_dfa(bound)
    assert dfa.conflicts, "figure-2 program must be refused"
    conflict = dfa.conflicts[0]
    # walk the A-chain from the boot state to the conflicting state
    start = next(dst for src, lbl, dst in dfa.edges if src == -1)
    occurrences = 1  # the conflicting transition itself is an A
    state = conflict.state_index
    # BFS distance from start to the conflict source state
    dist = {start: 0}
    frontier = [start]
    while frontier and state not in dist:
        nxt = []
        for s in frontier:
            for _, d in dfa.successors(s):
                if d not in dist:
                    dist[d] = dist[s] + 1
                    nxt.append(d)
        frontier = nxt
    occurrences += dist.get(state, 0)
    return Fig2Result(dfa, dfa.to_dot(bound, title="fig_dfa"),
                      conflict.state_index, occurrences)


# ---------------------------------------------------------------------------
# §4 guiding example flow graph
# ---------------------------------------------------------------------------

GUIDING_EXAMPLE = """
input int A, B, C;
int ret;
loop do
   par/or do
      int a = await A;
      int b = await B;
      ret = a + b;
      break;
   with
      par/and do
         await C;
      with
         await A;
      end
   end
end
"""


@dataclass
class Fig3Result:
    graph: FlowGraph
    dot: str
    join_priorities: list[tuple[str, int]]


def figure3() -> Fig3Result:
    bound = bind(parse(GUIDING_EXAMPLE))
    graph = build_flow(bound)
    joins = [(n.label, n.priority) for n in graph.join_nodes()]
    return Fig3Result(graph, graph.to_dot("fig_nfa"), joins)
