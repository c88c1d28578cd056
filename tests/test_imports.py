"""Import discipline: each `repro` command loads only what it runs.

Every command runs in a fresh interpreter, which dumps ``sys.modules``
after ``repro.cli.main(argv)`` returns.  The lazy package exports are
checked against the modules that define them (DESIGN.md, "Import
discipline").
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
APPS = ROOT / "src" / "repro" / "apps" / "ceu"

_CHILD = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
code = None
if argv is None:
    import repro.cli
else:
    from repro.cli import main
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

#: never needed by `check` or `run` (``urllib.parse`` is: pathlib uses it)
SERVING_AND_TOOLS = {
    "http.client", "http.server", "urllib.request", "ssl", "socketserver",
    "repro.obs.serve", "repro.obs.federate", "repro.obs.top",
    "repro.runtime.farm", "repro.runtime.checkpoint",
    "repro.fuzz.oracles", "repro.fuzz.runner",
}

PROGRAM = """
input int X;
int v = await X;
_printf("got %d\\n", v);
return v;
"""

LAZY_PACKAGES = ("repro.obs", "repro.runtime", "repro.fuzz",
                 "repro.analysis", "repro.codegen")


def loaded_after(argv) -> set:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argv)],
                          capture_output=True, text=True, env=env,
                          cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] in (None, 0)
    return set(result["modules"])


def test_import_cli_loads_no_front_end():
    modules = loaded_after(None)
    assert "repro.cli" in modules
    assert "repro.lang" not in modules
    assert not modules & SERVING_AND_TOOLS


def test_check_loads_no_vm_no_c_emitter_no_serving():
    modules = loaded_after(["check", str(APPS / "ring.ceu")])
    assert "repro.dfa.builder" in modules         # it did analyse
    assert not modules & SERVING_AND_TOOLS
    assert "repro.runtime.scheduler" not in modules
    assert "repro.codegen.cemit" not in modules


def test_run_loads_no_analysis_no_generator_no_serving(tmp_path):
    prog = tmp_path / "prog.ceu"
    prog.write_text(PROGRAM)
    script = tmp_path / "in.script"
    script.write_text("E X 7\n")
    modules = loaded_after(["run", str(prog), "--inputs", str(script)])
    assert "repro.runtime.scheduler" in modules    # it did run
    assert not modules & SERVING_AND_TOOLS
    assert "repro.dfa.builder" not in modules
    assert "repro.fuzz.gen" not in modules


def test_farm_loads_no_serving_stack():
    modules = loaded_after(["farm", str(APPS / "blink.ceu"), "-n", "50"])
    assert "repro.runtime.farm" in modules
    assert not modules & (SERVING_AND_TOOLS - {"repro.runtime.farm"})


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_exports_are_the_defining_modules_objects(package):
    pkg = importlib.import_module(package)
    listed = [name for names in pkg._EXPORTS.values() for name in names]
    assert sorted(pkg.__all__) == sorted(listed)
    assert len(set(listed)) == len(listed)
    for module, names in pkg._EXPORTS.items():
        defining = importlib.import_module(module, package)
        for name in names:
            assert getattr(pkg, name) is getattr(defining, name), name
            assert name in dir(pkg)
    with pytest.raises(AttributeError):
        getattr(pkg, "no_such_name")


def test_fuzz_shrink_stays_the_function():
    import repro.fuzz
    import repro.fuzz.shrink
    from repro.fuzz import shrink

    assert callable(shrink) and shrink is repro.fuzz.shrink
    assert shrink is sys.modules["repro.fuzz.shrink"].shrink
