"""C backend: structural checks plus gcc differential tests against the VM."""

import pytest

from helpers import bound_of, compile_and_run_c, requires_gcc, run_program
from repro.codegen import compile_to_c
from repro.codegen.cemit import UnsupportedForC


class TestEmittedStructure:
    def test_contains_paper_api(self):
        c = compile_to_c(bound_of("input void A;\nawait A;"))
        for symbol in ("ceu_go_init", "ceu_go_event", "ceu_go_time",
                       "GATES", "MEM", "_SWITCH:", "switch (track)"):
            assert symbol in c.code, symbol

    def test_track_goto_scheme(self):
        c = compile_to_c(bound_of(
            "input void A;\nloop do\nawait A;\nend"))
        assert "goto _SWITCH;" in c.code

    def test_gate_arming_and_clearing(self):
        c = compile_to_c(bound_of("input void A;\nawait A;"))
        assert "GATES[0] =" in c.code

    def test_kill_is_memset(self):
        c = compile_to_c(bound_of("""
        input void A, B;
        par/or do
           await A;
        with
           await B;
        end
        """))
        assert "memset(&GATES[" in c.code

    def test_c_blocks_passed_through(self):
        c = compile_to_c(bound_of(
            "C do\nint twice(int x) { return 2*x; }\nend\nreturn _twice(2);"))
        assert "int twice(int x)" in c.code

    def test_async_unsupported(self):
        with pytest.raises(UnsupportedForC):
            compile_to_c(bound_of("async do\nint i = 0;\nend"))

    def test_output_independent_of_other_parses(self):
        """Slot names (``PARVAL_``/``CNT_``) follow first use in the
        emitter, not process-global node ids, so unrelated parses in
        between cannot change the generated C."""
        src = """
        input void A, B;
        int v;
        v = par do
           await A;
           return 1;
        with
           await B;
           return 2;
        end;
        par/and do
           await A;
        with
           await B;
        end
        return v;
        """
        first = compile_to_c(bound_of(src)).code
        bound_of("input void A;\npar/and do\nawait A;\nwith\nawait A;"
                 "\nend")
        bound_of("int x = 1;\nreturn x + 2;")
        again = compile_to_c(bound_of(src)).code
        assert again == first
        assert "PARVAL_0" in first and "CNT_0" in first

    def test_metrics_exposed(self):
        c = compile_to_c(bound_of("""
        input void A, B;
        int v;
        par/and do
           await A;
        with
           await B;
        end
        """))
        assert c.n_gates >= 3       # 2 awaits + join gate
        assert c.n_events == 2
        assert c.n_tracks > 4
        assert c.rom_bytes() > 1000


DIFFERENTIAL_CORPUS = [
    # (name, source, script, expected substring checks use VM)
    ("counter", """
input int Restart;
internal void changed;
int v = 0;
par do
   loop do
      await 1s;
      v = v + 1;
      emit changed;
   end
with
   loop do
      v = await Restart;
      emit changed;
   end
with
   loop do
      await changed;
      _printf("v = %d\\n", v);
   end
end
""", [("T", 1_000_000), ("T", 2_000_000), ("E", "Restart", 5),
      ("T", 3_000_000)]),
    ("stack_policy", """
input void Go;
int v1, v2, v3;
internal void v1_evt, v2_evt, v3_evt;
par/or do
   loop do
      await v1_evt;
      v2 = v1 + 1;
      emit v2_evt;
   end
with
   loop do
      await v2_evt;
      v3 = v2 * 2;
      emit v3_evt;
   end
with
   await Go;
   v1 = 10;
   emit v1_evt;
   v1 = 15;
   emit v1_evt;
   _printf("%d %d %d\\n", v1, v2, v3);
end
""", [("E", "Go", 0)]),
    ("value_par", """
input void K;
input void T;
int win;
win = par do
   await T;
   return 1;
with
   await K;
   return 0;
end;
_printf("win=%d\\n", win);
return win + 10;
""", [("E", "T", 0)]),
    ("watchdog", """
int n = 0;
par/or do
   loop do
      await 50ms;
      await 49ms;
      n = n + 1;
   end
with
   await 100ms;
end
_printf("n=%d\\n", n);
return n;
""", [("T", 100_000)]),
    ("break_escape", """
input void A, B;
int n = 0;
loop do
   par do
      await A;
      break;
   with
      loop do
         await B;
         n = n + 100;
      end
   end
end
n = n + 1;
_printf("n=%d\\n", n);
return n;
""", [("E", "B", 0), ("E", "A", 0), ("E", "B", 0)]),
    ("app_switch", """
input int Switch;
input void Tick;
int cur_app = 1;
int log = 0;
par/or do
   loop do
      par/or do
         cur_app = await Switch;
      with
         if cur_app == 1 then
            loop do
               await Tick;
               log = log + 1;
            end
         end
         if cur_app == 2 then
            loop do
               await Tick;
               log = log + 100;
            end
         end
         await forever;
      end
   end
with
   await 1h;
end
_printf("log=%d\\n", log);
return log;
""", [("E", "Tick", 0), ("E", "Switch", 2), ("E", "Tick", 0),
      ("T", 3_600_000_000)]),
    ("vectors", """
input int G;
int[5] xs;
int i = await G;
loop do
   xs[i] = i * i;
   i = i + 1;
   if i == 5 then
      break;
   end
   await 1ms;
end
_printf("sum=%d\\n", xs[0] + xs[1] + xs[2] + xs[3] + xs[4]);
return xs[4];
""", [("E", "G", 0), ("T", 10_000)]),
]


def _drive_vm(src, script):
    actions = []
    for item in script:
        if item[0] == "E":
            actions.append(("ev", item[1], item[2]))
        else:
            actions.append(("at", item[1]))
    return run_program(src, *actions)


def _script_text(script):
    lines = []
    for item in script:
        if item[0] == "E":
            lines.append(f"E {item[1]} {item[2]}")
        else:
            lines.append(f"T {item[1]}")
    return "\n".join(lines) + "\n"


@requires_gcc
@pytest.mark.parametrize("name,src,script",
                         DIFFERENTIAL_CORPUS,
                         ids=[c[0] for c in DIFFERENTIAL_CORPUS])
def test_c_matches_vm(name, src, script, tmp_path):
    """The gcc-compiled backend and the reference VM must agree on both
    printed output and the final program status/result."""
    vm = _drive_vm(src, script)
    out = compile_and_run_c(src, _script_text(script), tmp_path, name)
    body, tail = out.rsplit("==DONE=", 1)
    assert body == vm.output()
    done = tail[0] == "1"
    assert done == vm.done
    if vm.done and isinstance(vm.result, int):
        assert f"RET={vm.result}==" in "RET=" + tail.split("RET=")[1]


@requires_gcc
def test_c_discards_unawaited_events(tmp_path):
    src = """
input void A, B;
await B;
_printf("got B\\n");
return 1;
"""
    out = compile_and_run_c(src, "E A 0\nE A 0\nE B 0\n", tmp_path, "disc")
    assert out.startswith("got B\n")
    assert "DONE=1" in out


@requires_gcc
def test_c_timer_deltas(tmp_path):
    src = """
int v;
await 10ms;
v = 1;
await 1ms;
v = 2;
_printf("v=%d\\n", v);
return v;
"""
    out = compile_and_run_c(src, "T 15000\n", tmp_path, "delta")
    assert out.startswith("v=2\n") and "RET=2" in out
