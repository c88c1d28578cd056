"""Trail and join bookkeeping for the reference VM.

A *trail* (§2) is one line of execution.  The VM realises a trail as a
Python generator produced by the interpreter; the generator yields exactly
when the trail *halts* (awaits an event / timer, waits for a parallel
composition to rejoin, or waits for an ``async``).  All zero-time execution
— assignments, C calls, internal ``emit`` chains — happens inside a single
``send`` on that generator, mirroring the paper's atomic *tracks* (§4.4).

Escaping control flow (``break`` crossing a parallel composition, ``return``
to a value block or to the program) travels as Python exceptions raised
inside trail generators and is converted by the scheduler into prioritised
*join* actions, reproducing the flow-graph priorities of §4.1 (the outer
the terminated construct, the lower the priority — i.e. the later it runs
within the reaction chain).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from ..lang import ast


class BreakSignal(Exception):
    """``break`` — escapes to its binding ``loop``."""

    def __init__(self, target: ast.Loop):
        self.target = target
        super().__init__("break")


class ReturnSignal(Exception):
    """``return [v]`` — escapes to its value boundary (``None`` = program)."""

    def __init__(self, boundary: Optional[ast.Node], value: Any):
        self.boundary = boundary
        self.value = value
        super().__init__("return")


_trail_seq = itertools.count(1)


class Trail:
    """One line of execution.  ``path`` encodes the spawn tree: each
    parallel composition contributes ``(region_id, branch_index)`` — a
    region kill is a path-prefix test, the VM analogue of the paper's
    contiguous-gate ``memset`` destruction (§4.3)."""

    __slots__ = ("gen", "path", "parent_join", "branch_index", "alive",
                 "started", "time_base", "waiting", "gate", "seq",
                 "label", "wake_cause")

    def __init__(self, gen, path: tuple, parent_join: Optional["Join"],
                 branch_index: int = 0, time_base: int = 0,
                 label: str = ""):
        self.gen = gen
        self.path = path
        self.parent_join = parent_join
        self.branch_index = branch_index
        self.alive = True
        self.started = False
        self.time_base = time_base
        #: current suspension kind, for traces: None while running,
        #: else "ext"/"int"/"time"/"forever"/"par"/"async"
        self.waiting: Optional[str] = None
        #: the gate (scheduler ordered set) holding this trail while it
        #: awaits an event or ``forever``, so a kill removes it in O(1)
        self.gate: Optional[dict] = None
        self.seq = next(_trail_seq)
        self.label = label or f"t{self.seq}"
        #: causality (docs/OBSERVABILITY.md): span id of the occurrence
        #: that registered the pending wakeup — the await / timer arm /
        #: spawn — published on the bus when the trail next resumes
        self.wake_cause = 0

    def in_region(self, prefix: tuple) -> bool:
        return self.path[:len(prefix)] == prefix

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "live" if self.alive else "dead"
        return f"<Trail {self.label} path={self.path} {state} " \
               f"waiting={self.waiting}>"


@dataclass(eq=False)
class Join:
    """Rejoin bookkeeping for one *execution* of a parallel statement."""

    node: ast.ParStmt
    mode: str                 # "par" | "or" | "and"
    owner: Trail
    region: tuple             # owner.path + (region_id,)
    depth: int                # syntactic nesting depth (priority)
    n_branches: int
    completed: set = field(default_factory=set)   # branch indices done
    or_enqueued: bool = False
    value: Any = None         # first `return` value (value-boundary pars)
    has_value: bool = False
    cancelled: bool = False
    cause: int = 0            # span of the completion that enqueued it

    def branch_done(self, index: int) -> bool:
        """Record a normal branch termination; returns True when an
        and-join becomes complete."""
        self.completed.add(index)
        return self.mode == "and" and len(self.completed) == self.n_branches


@dataclass(eq=False)
class EscapeJoin:
    """A pending one-hop escape (break/return crossing a parallel)."""

    trail: Trail              # the trail whose generator raised the signal
    signal: Exception         # BreakSignal | ReturnSignal
    cancelled: bool = False
    cause: int = 0            # span of the escape that enqueued it
