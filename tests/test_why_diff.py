"""``repro why --diff`` and :func:`repro.obs.diff_slices`: comparing
two causal slices across a semantic divergence (the bisect aid for
three-way oracle disagreements).

The normalization contract under test: slice span ids are renumbered
1..n *within each slice*, so the shared causal prefix of two replays
that diverge later compares byte-equal and the unified diff pinpoints
exactly where the histories fork.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.runtime.script import script_text
from repro.obs import CausalGraph, diff_slices
from repro.runtime.program import Program

#: a re-triggerable §2.2 chain: every I bumps the counter and emits b
PULSE = """\
input void I;
internal void b;
int n = 0;
par do
   loop do
      await I;
      n = n + 1;
      emit b;
   end
with
   loop do
      await b;
   end
end
"""

ONE_PULSE = [("E", "I", None)]
TWO_PULSES = [("E", "I", None), ("E", "I", None)]


def replay(src: str, script, reverse_seeds: bool = False) -> CausalGraph:
    program = Program(src, reverse_seeds=reverse_seeds)
    graph = program.observe(CausalGraph(program.hooks))
    program.start()
    for item in script:
        if item[0] == "E":
            program.send(item[1], item[2])
        else:
            program.at(item[1])
    return graph


class TestDiffSlices:
    def test_identical_replays_diff_empty(self):
        a = replay(PULSE, ONE_PULSE)
        b = replay(PULSE, ONE_PULSE)
        na, nb = a.find("event:b"), b.find("event:b")
        assert diff_slices(a, na.span, b, nb.span) == ""

    def test_normalized_ids_start_at_one(self):
        graph = replay(PULSE, ONE_PULSE)
        node = graph.find("event:b")
        text = graph.render_slice(node.span, normalize=True)
        lines = text.splitlines()
        assert lines[0].startswith("[1] ")
        # ids are dense 1..n in slice (span) order
        ids = [int(line.split("]", 1)[0][1:]) for line in lines]
        assert ids == sorted(ids)
        # raw render of the same slice uses the absolute span counter —
        # sparse, because elided step spans still consumed ids
        raw_ids = [int(line.split("]", 1)[0][1:])
                   for line in graph.render_slice(node.span).splitlines()]
        assert raw_ids[-1] > ids[-1]

    def test_divergence_produces_unified_diff(self):
        a = replay(PULSE, ONE_PULSE)
        b = replay(PULSE, TWO_PULSES)
        na, nb = a.find("event:b"), b.find("event:b")
        text = diff_slices(a, na.span, b, nb.span,
                           label_a="one", label_b="two")
        assert text != ""
        lines = text.splitlines()
        assert lines[0] == "--- one"
        assert lines[1] == "+++ two"
        # the fork: run a's last b is emitted straight out of reaction
        # #1; run b re-awaits and emits it from reaction #2
        assert any(line.startswith("-") and "emit b" in line
                   for line in lines)
        assert any(line.startswith("+") and "reaction #2" in line
                   for line in lines)
        # the shared boot-time prefix appears as context, not as +/-
        assert any(line.startswith(" ") for line in lines)

    def test_shared_prefix_is_byte_equal_up_to_the_fork(self):
        """The normalization contract: the two slices compare
        line-for-line byte-equal through the whole shared causal
        prefix (boot spawns, the awaits, reaction #1's resume), and
        first differ at the fork itself."""
        a = replay(PULSE, ONE_PULSE)
        b = replay(PULSE, TWO_PULSES)
        na, nb = a.find("event:b"), b.find("event:b")
        ra = a.render_slice(na.span, normalize=True).splitlines()
        rb = b.render_slice(nb.span, normalize=True).splitlines()
        fork = next(i for i, (la, lb) in enumerate(zip(ra, rb))
                    if la != lb)
        assert fork >= 5, f"prefix too short: forked at line {fork}"
        assert ra[:fork] == rb[:fork]
        # run a forks into the emit; run b into the re-await
        assert "emit b" in ra[fork]
        assert "awaits ext:I" in rb[fork]

    def test_diff_is_deterministic(self):
        first = diff_slices(*self._pair())
        second = diff_slices(*self._pair())
        assert first == second

    @staticmethod
    def _pair():
        a = replay(PULSE, ONE_PULSE)
        b = replay(PULSE, TWO_PULSES)
        return a, a.find("event:b").span, b, b.find("event:b").span


class TestCliWhyDiff:
    @pytest.fixture
    def prog(self, tmp_path):
        path = tmp_path / "pulse.ceu"
        path.write_text(PULSE)
        return path

    def script_file(self, tmp_path, name, script):
        path = tmp_path / name
        path.write_text(script_text(script))
        return path

    def test_identical_slices_exit_zero(self, prog, tmp_path, capsys):
        inputs = self.script_file(tmp_path, "one.script", ONE_PULSE)
        code = main(["why", str(prog), "--inputs", str(inputs),
                     "--at", "event:b", "--diff"])
        out = capsys.readouterr().out
        assert code == 0
        assert "slices identical" in out

    def test_reverse_seeds_on_deterministic_program(self, prog,
                                                    tmp_path, capsys):
        """Flipping every open seeding order must not move the causal
        slice of an analysis-clean program — exit 0 is the §2.6
        schedule-independence claim, per slice."""
        inputs = self.script_file(tmp_path, "one.script", ONE_PULSE)
        code = main(["why", str(prog), "--inputs", str(inputs),
                     "--at", "event:b", "--diff",
                     "--diff-reverse-seeds"])
        out = capsys.readouterr().out
        assert code == 0
        assert "slices identical" in out
        assert "(reverse seeds)" in out

    def test_diverging_inputs_exit_one_with_diff(self, prog, tmp_path,
                                                 capsys):
        one = self.script_file(tmp_path, "one.script", ONE_PULSE)
        two = self.script_file(tmp_path, "two.script", TWO_PULSES)
        code = main(["why", str(prog), "--inputs", str(one),
                     "--at", "event:b", "--diff",
                     "--diff-inputs", str(two)])
        out = capsys.readouterr().out
        assert code == 1
        assert "causal slices diverge" in out
        assert "--- a: " in out and "+++ b: " in out

    def test_diff_file_second_revision(self, prog, tmp_path, capsys):
        """--diff-file replays a *different program revision* — the
        two-slice diff shows where the revised reaction history forks."""
        revised = tmp_path / "pulse2.ceu"
        # the revision routes b through an extra internal hop c, so the
        # last b's ancestry gains an emit-c/resume link the original
        # never had
        revised.write_text("""\
input void I;
internal void b;
internal void c;
int n = 0;
par do
   loop do
      await I;
      n = n + 1;
      emit c;
   end
with
   loop do
      await c;
      emit b;
   end
with
   loop do
      await b;
   end
end
""")
        inputs = self.script_file(tmp_path, "one.script", ONE_PULSE)
        code = main(["why", str(prog), "--inputs", str(inputs),
                     "--at", "event:b", "--diff",
                     "--diff-file", str(revised)])
        out = capsys.readouterr().out
        assert code == 1
        assert "causal slices diverge" in out
        assert "pulse2.ceu" in out

    def test_missing_target_in_second_replay(self, prog, tmp_path,
                                             capsys):
        inputs = self.script_file(tmp_path, "one.script", ONE_PULSE)
        code = main(["why", str(prog), "--inputs", str(inputs),
                     "--at", "event:b", "--diff",
                     "--diff-at", "trail:phantom"])
        err = capsys.readouterr().err
        assert code == 1
        assert "no occurrence" in err

    def test_plain_why_unchanged(self, prog, tmp_path, capsys):
        inputs = self.script_file(tmp_path, "one.script", ONE_PULSE)
        code = main(["why", str(prog), "--inputs", str(inputs),
                     "--at", "event:b"])
        out = capsys.readouterr().out
        assert code == 0
        assert "causal slice of" in out
        assert "emit b" in out
