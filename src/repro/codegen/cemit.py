"""C code generation (§4.4–4.5).

The emitter lowers a bound program to a single portable C99 file built
around the paper's scheme:

* **tracks** — atomic code segments between awaits, realised as ``case``
  labels of one big ``switch`` inside ``ceu_track``; control-flow re-entry
  uses ``track = L; goto _SWITCH;`` exactly as the paper shows;
* **gates** — the ``GATES[]`` vector (allocated by
  :mod:`repro.codegen.gates`); awaiting arms a gate with the resume label,
  awaking clears it; killing a composition is one ``memset`` over its
  contiguous range.  Pending rejoins and cross-composition escapes use
  gates too, so outer kills cancel them for free;
* **memory** — the flat ``MEM[]`` byte vector laid out by
  :mod:`repro.codegen.memlayout`; variables are ``#define`` accessors;
* **API** — ``ceu_go_init`` / ``ceu_go_event`` / ``ceu_go_time`` with the
  residual-delta timer semantics of §2.3 (deadlines chain from the logical
  expiry, not from the observed clock);
* **internal events** — ``ceu_bcast`` awakes the armed gates by direct
  recursive calls into ``ceu_track``: the C call stack *is* the §2.2 stack
  policy.

``async`` blocks are not lowered (the reference VM covers them; on real
deployments they are the platform binding's job) — programs containing them
are rejected with :class:`UnsupportedForC`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..lang import ast
from ..lang.errors import CeuError
from ..sema.binder import BoundProgram
from .gates import GateTable, build_gates
from .memlayout import HOST, MemLayout, TargetABI, build_layout


class UnsupportedForC(CeuError):
    kind = "unsupported for C backend"


_TYPEMAP = {"int": "int", "void": "int", "u8": "unsigned char",
            "s8": "signed char", "u16": "unsigned short",
            "s16": "short", "u32": "unsigned int", "s32": "int",
            "char": "char", "long": "long", "short": "short"}


def _c_type(t: ast.TypeRef) -> str:
    base = _TYPEMAP.get(t.name, t.name.lstrip("_"))
    return base + "*" * t.pointers


@dataclass
class CompiledC:
    code: str
    n_gates: int
    n_events: int
    mem_size: int
    n_tracks: int
    event_ids: dict[str, int]

    def rom_bytes(self) -> int:
        """Code-size proxy used by the footprint model."""
        return len(self.code.encode())


class CEmitter:
    def __init__(self, bound: BoundProgram, abi: TargetABI = HOST,
                 with_main: bool = True, name: str = "ceu",
                 bounds=None):
        self.bound = bound
        self.abi = abi
        self.with_main = with_main
        self.name = name
        #: optional analysis.bounds.ResourceBounds — embedded as capacity
        #: constants + _Static_asserts when provided
        self.bounds = bounds
        self._node_of = {n.nid: n for n in bound.program.walk()}
        if bound.async_blocks:
            raise UnsupportedForC(
                "`async` blocks are not lowered to C by this backend",
                bound.async_blocks[0].span)
        self.layout: MemLayout = build_layout(bound, abi)
        self.gates: GateTable = build_gates(bound)
        self.body: list[str] = []      # lines inside the switch
        self._label = 1                # 1 = boot
        self._max_depth = self._measure_depth(bound.program.body, 0)
        self._scratch: list[str] = []  # extra C globals (counters, values)
        self._value_slots: dict[int, str] = {}    # boundary nid → PARVAL_<i>
        self._counter_slots: dict[int, str] = {}  # par/and nid → CNT_<i>
        self._cont_label: dict[int, int] = {}   # boundary nid → label
        self._loop_exit: dict[int, int] = {}    # loop nid → label
        self._loop_head: dict[int, int] = {}
        self.event_ids: dict[str, int] = {
            sym.name: i for i, sym in enumerate(bound.events.values())}

    # ------------------------------------------------------------- helpers
    def _measure_depth(self, node: ast.Node, d: int) -> int:
        best = d
        nested = d + 1 if isinstance(node, (ast.ParStmt, ast.Loop)) else d
        for child in node.children():
            best = max(best, self._measure_depth(child, nested))
        return best

    def _depth_of(self, node: ast.Node) -> int:
        depth = 0
        cur = self.bound.parent.get(node.nid)
        while cur is not None:
            if isinstance(cur, (ast.ParStmt, ast.Loop)):
                depth += 1
            cur = self.bound.parent.get(cur.nid)
        return depth

    def _join_prio(self, node: ast.Node) -> int:
        # queue pops the smallest; normal tracks are 0; inner joins first
        return 1 + (self._max_depth - self._depth_of(node))

    def new_label(self) -> int:
        self._label += 1
        return self._label

    def out(self, line: str) -> None:
        self.body.append("        " + line)

    def case(self, label: int, note: str = "") -> None:
        comment = f"  /* {note} */" if note else ""
        self.body.append(f"      case {label}:{comment}")

    # --------------------------------------------------------- expressions
    def exp(self, e: ast.Exp) -> str:
        if isinstance(e, ast.Num):
            return str(e.value)
        if isinstance(e, ast.Str):
            esc = (e.value.replace("\\", "\\\\").replace('"', '\\"')
                   .replace("\n", "\\n").replace("\t", "\\t"))
            return f'"{esc}"'
        if isinstance(e, ast.Null):
            return "0"
        if isinstance(e, ast.NameInt):
            sym = self.bound.var_of[e.nid]
            return f"V{sym.uid}_{sym.name}"
        if isinstance(e, ast.NameC):
            return e.c_name
        if isinstance(e, ast.Unop):
            return f"({e.op}{self.exp(e.operand)})"
        if isinstance(e, ast.Binop):
            return f"({self.exp(e.left)} {e.op} {self.exp(e.right)})"
        if isinstance(e, ast.Index):
            return f"{self.exp(e.base)}[{self.exp(e.index)}]"
        if isinstance(e, ast.CallExp):
            args = ", ".join(self.exp(a) for a in e.args)
            return f"{self.exp(e.func)}({args})"
        if isinstance(e, ast.FieldAccess):
            return f"{self.exp(e.base)}{e.op}{e.name}"
        if isinstance(e, ast.Cast):
            return f"(({_c_type(e.type)}){self.exp(e.operand)})"
        if isinstance(e, ast.SizeOf):
            return f"sizeof({_c_type(e.type)})"
        raise UnsupportedForC(f"expression {type(e).__name__}", e.span)

    # ----------------------------------------------------------- statements
    def block(self, block: ast.Block) -> bool:
        """Compile a block; returns False when control cannot fall out."""
        for stmt in block.stmts:
            if not self.stmt(stmt):
                return False
        return True

    def stmt(self, s: ast.Stmt) -> bool:
        if isinstance(s, (ast.Nothing, ast.DeclEvent, ast.PureDecl,
                          ast.DeterministicDecl, ast.CBlockStmt)):
            return True
        if isinstance(s, ast.DeclVar):
            for d in s.decls:
                sym = self.bound.sym_of_decl[d.nid]
                if d.init is None:
                    continue
                if isinstance(d.init, ast.Exp):
                    self.out(f"V{sym.uid}_{sym.name} = {self.exp(d.init)};")
                else:
                    if not self.setexp(d.init,
                                       f"V{sym.uid}_{sym.name}"):
                        return False
            return True
        if isinstance(s, (ast.AwaitExt, ast.AwaitInt, ast.AwaitTime,
                          ast.AwaitExp, ast.AwaitForever)):
            self.compile_await(s, None)
            return not isinstance(s, ast.AwaitForever)
        if isinstance(s, ast.EmitInt):
            sym = self.bound.event_of[s.nid]
            eid = self.event_ids[sym.name]
            if s.value is not None:
                self.out(f"EVT_VAL[{eid}] = (intptr_t)({self.exp(s.value)});")
            self.out(f"ceu_bcast({eid});")
            return True
        if isinstance(s, ast.EmitExt):
            sym = self.bound.event_of[s.nid]
            eid = self.event_ids[sym.name]
            value = "0" if s.value is None else self.exp(s.value)
            self.out(f"ceu_output({eid}, (intptr_t)({value}));")
            return True
        if isinstance(s, ast.If):
            self.out(f"if ({self.exp(s.cond)}) {{")
            then_falls = self.block(s.then)
            if s.orelse is not None:
                self.out("} else {")
                else_falls = self.block(s.orelse)
            else:
                else_falls = True
            self.out("}")
            return then_falls or else_falls
        if isinstance(s, ast.Loop):
            head = self.new_label()
            exit_label = self.new_label()
            self._loop_head[s.nid] = head
            self._loop_exit[s.nid] = exit_label
            self.out(f"track = {head}; goto _SWITCH;")
            self.case(head, "loop")
            if self.block(s.body):
                self.out(f"track = {head}; goto _SWITCH;  /* iterate */")
            self.case(exit_label, "loop exit")
            return True
        if isinstance(s, ast.Break):
            return self.compile_escape(s, self.bound.break_target[s.nid],
                                       None)
        if isinstance(s, ast.Return):
            boundary = self.bound.ret_boundary.get(s.nid)
            value = "0" if s.value is None else self.exp(s.value)
            if boundary is None:
                self.out(f"CEU_RET = (intptr_t)({value}); CEU_DONE = 1; "
                         f"break;")
                return False
            return self.compile_escape(s, boundary, value)
        if isinstance(s, ast.ParStmt):
            return self.compile_par(s, None)
        if isinstance(s, ast.CCallStmt):
            self.out(f"{self.exp(s.call)};")
            return True
        if isinstance(s, ast.CallStmt):
            self.out(f"{self.exp(s.exp)};")
            return True
        if isinstance(s, ast.Assign):
            target = self.lvalue(s.target)
            if isinstance(s.value, ast.Exp):
                self.out(f"{target} = {self.exp(s.value)};")
                return True
            return self.setexp(s.value, target)
        if isinstance(s, ast.DoBlock):
            falls = self.block(s.body)
            if s.nid in self._cont_label:
                self.case(self._cont_label[s.nid], "do-end")
                return True
            return falls
        raise UnsupportedForC(f"statement {type(s).__name__}", s.span)

    def lvalue(self, e: ast.Exp) -> str:
        return self.exp(e)

    def setexp(self, value: ast.Node, target: str) -> bool:
        """Compile a statement-valued right-hand side into ``target``."""
        if isinstance(value, (ast.AwaitExt, ast.AwaitInt, ast.AwaitTime,
                              ast.AwaitExp)):
            self.compile_await(value, target)
            return True
        if isinstance(value, ast.ParStmt):
            return self.compile_par(value, target)
        if isinstance(value, ast.DoBlock):
            slot = self._value_slot(value.nid)
            cont = self.new_label()
            self._cont_label[value.nid] = cont
            self.out(f"{slot} = 0;")
            falls = self.block(value.body)
            if falls:
                self.out(f"track = {cont}; goto _SWITCH;")
            self.case(cont, "do-value end")
            self.out(f"{target} = {slot};")
            return True
        raise UnsupportedForC("unsupported right-hand side", value.span)

    # --------------------------------------------------------------- await
    def compile_await(self, s: ast.Stmt, target: str | None) -> None:
        gate = self.gates.by_await[s.nid]
        resume = self.new_label()
        if isinstance(s, ast.AwaitForever):
            self.out(f"GATES[{gate.id}] = {resume};  /* await forever */")
            self.out("break;")
            self.case(resume, "unreachable")
            self.out("break;")
            return
        if isinstance(s, (ast.AwaitExt, ast.AwaitInt)):
            sym = self.bound.event_of[s.nid]
            self.out(f"GATES[{gate.id}] = {resume};  "
                     f"/* await {sym.name} */")
            self.out("break;")
            self.case(resume, f"after {sym.name}")
            self.out(f"GATES[{gate.id}] = 0;")
            if target is not None:
                eid = self.event_ids[sym.name]
                self.out(f"{target} = EVT_VAL[{eid}];")
            return
        if isinstance(s, ast.AwaitTime):
            us = str(s.time.us)
        else:
            us = self.exp(s.exp)  # type: ignore[attr-defined]
        self.out(f"GATES[{gate.id}] = {resume}; "
                 f"TIMERS[{gate.id}] = CEU_BASE + ({us}); "
                 f"TBASES[{gate.id}] = CEU_BASE;")
        self.out("break;")
        self.case(resume, "timer expired")
        self.out(f"GATES[{gate.id}] = 0;")
        if target is not None:
            self.out(f"{target} = (intptr_t)(CEU_CLOCK - CEU_BASE);")

    # ----------------------------------------------------------------- par
    def _slot(self, slots: dict[int, str], prefix: str, ctype: str,
              nid: int) -> str:
        """The C global for node ``nid``, named by first-use order in
        this emitter (node ids depend on what else the process parsed,
        so naming by nid would make the output depend on it too)."""
        name = slots.get(nid)
        if name is None:
            name = slots[nid] = f"{prefix}_{len(slots)}"
            self._scratch.append(f"static {ctype} {name};")
        return name

    def _value_slot(self, nid: int) -> str:
        return self._slot(self._value_slots, "PARVAL", "intptr_t", nid)

    def _counter_slot(self, nid: int) -> str:
        return self._slot(self._counter_slots, "CNT", "int", nid)

    def _emit_kill(self, par: ast.ParStmt, note: str) -> None:
        lo, hi = self.gates.kill_range(par.nid)
        if lo <= hi:
            self.out(f"memset(&GATES[{lo}], 0, {hi - lo + 1} * "
                     f"sizeof(GATES[0]));  /* kill {note} */")

    def compile_par(self, s: ast.ParStmt, target: str | None) -> bool:
        # `par/or` and `par/and` rejoin on their own; a plain `par` used as
        # a value completes only through `return` (escape gates), §2.1
        rejoins = s.mode in ("or", "and")
        has_cont = rejoins or s.nid in self.bound.value_boundaries
        join_gate = self.gates.join_gate.get(s.nid)
        join_label = self.new_label() if rejoins else None
        cont_label = None
        if has_cont:
            cont_label = self._cont_label.get(s.nid)
            if cont_label is None:
                cont_label = self.new_label()
            self._cont_label[s.nid] = cont_label
        prio = self._join_prio(s)
        branch_labels = [self.new_label() for _ in s.blocks]
        if s.nid in self.bound.value_boundaries:
            self.out(f"{self._value_slot(s.nid)} = 0;")
        if s.mode == "and":
            self.out(f"{self._counter_slot(s.nid)} = 0;")
        for lbl in branch_labels:
            self.out(f"ceu_spawn(0, {lbl});")
        self.out("break;")
        for i, (block, lbl) in enumerate(zip(s.blocks, branch_labels)):
            self.case(lbl, f"{s.keyword} branch {i + 1}")
            falls = self.block(block)
            if falls:
                self._emit_branch_end(s, join_gate, join_label, prio)
        if rejoins:
            assert join_label is not None and join_gate is not None
            self.case(join_label, f"{s.keyword} join")
            self.out(f"if (!GATES[{join_gate.id}]) break;  "
                     f"/* cancelled by an outer kill */")
            self.out(f"GATES[{join_gate.id}] = 0;")
            if s.mode != "and":
                self._emit_kill(s, f"{s.keyword} siblings")
            self.out(f"track = {cont_label}; goto _SWITCH;")
        if has_cont:
            self.case(cont_label, f"after {s.keyword}")
            if target is not None:
                self.out(f"{target} = {self._value_slot(s.nid)};")
        return has_cont

    def _emit_branch_end(self, s: ast.ParStmt, join_gate, join_label,
                         prio: int) -> None:
        if s.mode == "or":
            self.out(f"if (!GATES[{join_gate.id}]) {{ "
                     f"GATES[{join_gate.id}] = 1; "
                     f"ceu_spawn({prio}, {join_label}); }}")
            self.out("break;")
        elif s.mode == "and":
            cnt = self._counter_slot(s.nid)
            self.out(f"{cnt}++;")
            self.out(f"if ({cnt} == {len(s.blocks)}) {{ "
                     f"GATES[{join_gate.id}] = 1; "
                     f"ceu_spawn({prio}, {join_label}); }}")
            self.out("break;")
        else:  # plain par: the trail halts forever
            self.out("break;  /* trail terminates */")

    # -------------------------------------------------------------- escape
    def compile_escape(self, s: ast.Stmt, target: ast.Node,
                       value: str | None) -> bool:
        """break / return crossing 0+ parallel compositions."""
        crossed: list[ast.ParStmt] = []
        cur = self.bound.parent.get(s.nid)
        while cur is not None and cur is not target:
            if isinstance(cur, ast.ParStmt):
                crossed.append(cur)
            cur = self.bound.parent.get(cur.nid)
        if isinstance(target, ast.ParStmt):
            crossed.append(target)
        if value is not None:
            self.out(f"{self._value_slot(target.nid)} = "
                     f"(intptr_t)({value});")
        dest = self._escape_destination(target)
        if not crossed:
            self.out(f"track = {dest}; goto _SWITCH;")
            return False
        gate = self.gates.escape_gate[s.nid]
        esc = self.new_label()
        prio = self._join_prio(target)
        self.out(f"GATES[{gate.id}] = 1; ceu_spawn({prio}, {esc});")
        self.out("break;")
        self.case(esc, "escape")
        self.out(f"if (!GATES[{gate.id}]) break;  /* escape cancelled */")
        self.out(f"GATES[{gate.id}] = 0;")
        outer = crossed[-1]
        self._emit_kill(outer, "escaped compositions")
        self.out(f"track = {dest}; goto _SWITCH;")
        return False

    def _escape_destination(self, target: ast.Node) -> int:
        if isinstance(target, ast.Loop):
            return self._loop_exit[target.nid]
        # value boundary (par or do): continuation label exists by the
        # time the escape fires; allocate it now if the boundary is still
        # being compiled
        if target.nid not in self._cont_label:
            self._cont_label[target.nid] = self.new_label()
        return self._cont_label[target.nid]

    # ------------------------------------------------------------ assembly
    def emit(self) -> CompiledC:
        # compile program body as the boot track
        self.case(1, "boot")
        falls = self.block(self.bound.program.body)
        if falls:
            self.out("break;  /* boot trail ends */")
        n_tracks = self._label
        code = self._assemble(n_tracks)
        return CompiledC(code=code, n_gates=self.gates.count,
                         n_events=len(self.event_ids),
                         mem_size=self.layout.total, n_tracks=n_tracks,
                         event_ids=dict(self.event_ids))

    def _bounds_block(self) -> str:
        """Static resource bounds (docs/ANALYSIS.md) as capacity constants
        checked against the generated tables at compile time."""
        b = self.bounds
        if b is None:
            return ""
        lines = [
            "",
            "/* ---- static resource bounds (repro lint, I501) ---- */",
            f"#define CEU_MAX_TRAILS {b.max_trails}",
            f"#define CEU_MAX_ARMED_TIMERS {b.max_armed_timers}",
            f"#define CEU_MAX_EMIT_DEPTH {b.max_internal_emits}",
            f"#define CEU_STATIC_MEM_BYTES {b.mem_bytes(self.abi)}",
            "#if __STDC_VERSION__ >= 201112L",
            '_Static_assert(QMAX >= CEU_MAX_TRAILS, '
            '"track queue below trail bound");',
            '_Static_assert(N_GATES >= CEU_MAX_ARMED_TIMERS, '
            '"gate vector below timer bound");',
            '_Static_assert(MEM_SIZE >= CEU_STATIC_MEM_BYTES, '
            '"memory vector below static bound");',
            "#endif",
        ]
        return "\n".join(lines)

    def _assemble(self, n_tracks: int) -> str:
        bound = self.bound
        gates = self.gates
        n_gates = max(gates.count, 1)
        n_events = max(len(self.event_ids), 1)
        mem = max(self.layout.total, 1)
        gate_evt = []
        for g in gates.gates:
            if g.kind in ("ext", "intl"):
                gate_evt.append(str(self.event_ids[g.event]))
            elif g.kind == "time":
                # computed timeouts (`await (exp)`) get their own gate
                # kind: ceu_go_time fires them alone, one reaction each
                node = self._node_of.get(g.node_nid)
                gate_evt.append("CEU_GK_TEXP"
                                if isinstance(node, ast.AwaitExp)
                                else "CEU_GK_TIME")
            else:
                gate_evt.append("CEU_GK_NONE")
        var_defs = []
        for sym, off in self.layout.offsets.items():
            ctype = _c_type(sym.type)
            if sym.is_array:
                var_defs.append(f"#define V{sym.uid}_{sym.name} "
                                f"(({ctype}*)(MEM+{off}))")
            else:
                var_defs.append(f"#define V{sym.uid}_{sym.name} "
                                f"(*({ctype}*)(MEM+{off}))")
        evt_enum = [f"#define EVT_{name} {eid}"
                    for name, eid in self.event_ids.items()]
        c_blocks = [s.code for s in bound.program.walk()
                    if isinstance(s, ast.CBlockStmt)]
        name_table = ",\n  ".join(
            f'{{"{name}", {eid}}}' for name, eid in self.event_ids.items())
        evt_names = ", ".join(f'"{name}"' for name in self.event_ids)

        parts = [f"""\
/* Generated by repro — Céu to C ({self.name}).
 * Scheme of §4.4: tracks as switch cases, gates, flat memory vector. */
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <stdint.h>

/* ---- program C blocks (passed through verbatim, §2.4) ---- */
{''.join(c_blocks)}

typedef long long ceu_time_t;
#define N_GATES {n_gates}
#define N_EVTS {n_events}
#define MEM_SIZE {mem}
#define QMAX {n_gates * 2 + 16}
#define CEU_GK_TIME (-1)
#define CEU_GK_NONE (-2)
#define CEU_GK_TEXP (-3)
{self._bounds_block()}
{chr(10).join(evt_enum)}

static int GATES[N_GATES];
static ceu_time_t TIMERS[N_GATES];
static ceu_time_t TBASES[N_GATES];
static const int GATE_EVT[N_GATES] = {{ {', '.join(gate_evt) or '0'} }};
static unsigned char MEM[MEM_SIZE];
static intptr_t EVT_VAL[N_EVTS];
static ceu_time_t CEU_CLOCK = 0, CEU_BASE = 0;
static int CEU_DONE = 0;
static intptr_t CEU_RET = 0;

{chr(10).join(var_defs)}
{chr(10).join(self._scratch)}

/* ---- conformance hooks (-DCEU_HOOKS) ----
 * One stderr line per reaction / internal emit, mirroring the VM's
 * Trace.portable_signature() so traces can be diffed across backends
 * (docs/FUZZING.md). */
#ifdef CEU_HOOKS
static const char *EVT_NAME[N_EVTS] = {{ {evt_names or '0'} }};
#define CEU_SIG(s)       fprintf(stderr, "==SIG %s\\n", (s))
#define CEU_SIG_EVT(e)   fprintf(stderr, "==SIG event:%s\\n", EVT_NAME[e])
#define CEU_SIG_EMIT(e)  fprintf(stderr, "==EMIT %s\\n", EVT_NAME[e])
#else
#define CEU_SIG(s)
#define CEU_SIG_EVT(e)
#define CEU_SIG_EMIT(e)
#endif

/* output events: platforms override this hook */
void ceu_output(int evt, intptr_t val)
    __attribute__((weak));
void ceu_output(int evt, intptr_t val) {{ (void)evt; (void)val; }}

static struct {{ int prio, seq, track; }} Q[QMAX];
static int qn = 0, qseq = 0;

static void ceu_spawn(int prio, int track) {{
    if (qn >= QMAX) {{ fprintf(stderr, "queue overflow\\n"); abort(); }}
    Q[qn].prio = prio; Q[qn].seq = qseq++; Q[qn].track = track; qn++;
}}

static int ceu_pop(void) {{
    int best = -1, i, t;
    for (i = 0; i < qn; i++)
        if (best < 0 || Q[i].prio < Q[best].prio
            || (Q[i].prio == Q[best].prio && Q[i].seq < Q[best].seq))
            best = i;
    if (best < 0) return 0;
    t = Q[best].track;
    Q[best] = Q[--qn];
    return t;
}}

static void ceu_track(int track);

/* internal events: the C stack realises the §2.2 stack policy */
static void ceu_bcast(int evt) {{
    int lbls[N_GATES]; int n = 0, g;
    CEU_SIG_EMIT(evt);
    for (g = 0; g < N_GATES; g++)
        if (GATE_EVT[g] == evt && GATES[g]) {{
            lbls[n++] = GATES[g]; GATES[g] = 0;
        }}
    for (g = 0; g < n; g++) ceu_track(lbls[g]);
}}

static void ceu_flush(void) {{
    int t;
    while (!CEU_DONE && (t = ceu_pop()) != 0) ceu_track(t);
    qn = 0;
}}

static int ceu_alive(void) {{
    int g;
    for (g = 0; g < N_GATES; g++) if (GATES[g]) return 1;
    return 0;
}}

static void ceu_track(int track) {{
  _SWITCH:
    if (CEU_DONE) return;
    switch (track) {{
{chr(10).join(self.body)}
        break;
      default:
        break;
    }}
}}

int ceu_go_init(void) {{
    CEU_SIG("boot");
    memset(GATES, 0, sizeof(GATES));
    ceu_spawn(0, 1);
    ceu_flush();
    if (!ceu_alive()) CEU_DONE = 1;
    return CEU_DONE;
}}

int ceu_go_event(int evt, intptr_t val) {{
    int g;
    if (CEU_DONE) return 1;
    CEU_SIG_EVT(evt);
    EVT_VAL[evt] = val;
    CEU_BASE = CEU_CLOCK;
    for (g = 0; g < N_GATES; g++)
        if (GATE_EVT[g] == evt && GATES[g]) {{
            int lbl = GATES[g]; GATES[g] = 0; ceu_spawn(0, lbl);
        }}
    ceu_flush();
    if (!ceu_alive()) CEU_DONE = 1;
    return CEU_DONE;
}}

/* One reaction per expiring partition: timers armed in the same reaction
 * (same TBASES) fire together, cross-epoch coincidences fire separately
 * (most recently armed epoch first), and computed timeouts (CEU_GK_TEXP)
 * fire alone — mirroring the temporal analysis' per-epoch exploration. */
int ceu_go_time(ceu_time_t now) {{
    int g;
    if (CEU_DONE) return 1;
    CEU_CLOCK = now;
    for (;;) {{
        ceu_time_t best = -1, base = -1;
        int texp_gate = -1;
        for (g = 0; g < N_GATES; g++)
            if ((GATE_EVT[g] == CEU_GK_TIME || GATE_EVT[g] == CEU_GK_TEXP)
                && GATES[g] && (best < 0 || TIMERS[g] < best))
                best = TIMERS[g];
        if (best < 0 || best > now) break;
        for (g = 0; g < N_GATES; g++)
            if (GATE_EVT[g] == CEU_GK_TIME && GATES[g]
                && TIMERS[g] == best && TBASES[g] > base)
                base = TBASES[g];
        CEU_SIG("time");
        CEU_BASE = best;
        if (base >= 0) {{
            for (g = 0; g < N_GATES; g++)
                if (GATE_EVT[g] == CEU_GK_TIME && GATES[g]
                    && TIMERS[g] == best && TBASES[g] == base) {{
                    int lbl = GATES[g]; GATES[g] = 0; ceu_spawn(0, lbl);
                }}
        }} else {{
            for (g = 0; g < N_GATES; g++)
                if (GATE_EVT[g] == CEU_GK_TEXP && GATES[g]
                    && TIMERS[g] == best) {{ texp_gate = g; break; }}
            if (texp_gate >= 0) {{
                int lbl = GATES[texp_gate]; GATES[texp_gate] = 0;
                ceu_spawn(0, lbl);
            }}
        }}
        ceu_flush();
        if (CEU_DONE) break;
    }}
    if (!CEU_DONE && !ceu_alive()) CEU_DONE = 1;
    return CEU_DONE;
}}

int ceu_done(void) {{ return CEU_DONE; }}
long ceu_ret(void) {{ return (long)CEU_RET; }}
"""]
        if self.with_main:
            parts.append(f"""
static const struct {{ const char *name; int id; }} EVT_TABLE[] = {{
  {name_table or '{"", -1}'}
}};

static int evt_by_name(const char *name) {{
    unsigned i;
    for (i = 0; i < sizeof(EVT_TABLE) / sizeof(EVT_TABLE[0]); i++)
        if (!strcmp(EVT_TABLE[i].name, name)) return EVT_TABLE[i].id;
    fprintf(stderr, "unknown event %s\\n", name);
    exit(2);
}}

/* driver: reads "E <event> <value>" / "T <abs_us>" commands */
int main(void) {{
    char cmd[64];
    ceu_go_init();
    while (!CEU_DONE && scanf("%63s", cmd) == 1) {{
        if (!strcmp(cmd, "E")) {{
            char name[64]; long v;
            if (scanf("%63s %ld", name, &v) != 2) break;
            ceu_go_event(evt_by_name(name), (intptr_t)v);
        }} else if (!strcmp(cmd, "T")) {{
            long v;
            if (scanf("%ld", &v) != 1) break;
            ceu_go_time((ceu_time_t)v);
        }} else {{
            fprintf(stderr, "bad command %s\\n", cmd);
            exit(2);
        }}
    }}
    printf("==DONE=%d RET=%ld==\\n", CEU_DONE, (long)CEU_RET);
    return 0;
}}
""")
        return "".join(parts)


def compile_to_c(bound: BoundProgram, abi: TargetABI = HOST,
                 with_main: bool = True, name: str = "ceu",
                 bounds=None) -> CompiledC:
    """Lower a bound program to a self-contained C99 translation unit.

    ``bounds`` (an :class:`repro.analysis.bounds.ResourceBounds`) embeds
    the statically derived resource maxima as checked capacity constants.
    """
    return CEmitter(bound, abi=abi, with_main=with_main, name=name,
                    bounds=bounds).emit()
