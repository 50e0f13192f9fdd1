"""Import scope: a ``gdn eval`` loads none of the compiler, and the lazily
re-exported package names are the objects their submodules define."""
import contextlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import gdn
import gdn.approx
import gdn.cli
import gdn.targets
from gdn.cli import main

SRC = Path(gdn.__file__).parents[1]
README = Path(__file__).parents[1] / "README.md"

# modules that only the compile, certify, estimate and bench commands run
COMPILER = ("gdn.assemble", "gdn.sampling", "gdn.readouts",
            *(f"gdn.approx.{m}" for m in ("synthesis", "bernstein", "modulus", "certify",
                                          "estimates", "verticalize")))


def _fresh_python(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    return proc.stdout


def test_eval_loads_none_of_the_compiler(tmp_path):
    model = tmp_path / "m.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["compile", "--target", "rotation", "--domain", "sphere:2",
                     "--codomain", "sphere:2", "--base-x", "[0, 0, 1]",
                     "--radius", "1.5707", "--eps", "0.1", "--out", str(model)]) == 0
    out = _fresh_python(
        "import contextlib, io, json, sys\n"
        "import gdn.cli, gdn.model\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    code = gdn.cli.main(['eval', '--model', {str(model)!r}, "
        "'--input', '[0, 0, 1]'])\n"
        "print(json.dumps([code, json.loads(out.getvalue())['output'], sorted(sys.modules)]))\n")
    code, output, modules = json.loads(out)
    assert code == 0 and len(output) == 3
    assert [m for m in COMPILER if m in modules] == []


def _defined_object(name, obj):
    if isinstance(obj, types.ModuleType):
        return sys.modules[obj.__name__]
    return getattr(importlib.import_module(obj.__module__), name)


def test_every_reexport_is_its_defining_modules_object():
    for package in (gdn, gdn.approx):
        for name in package.__all__:
            obj = getattr(package, name)
            assert obj is _defined_object(name, obj), f"{package.__name__}.{name}"


def test_verticalize_reexport_survives_its_submodule_import():
    # loading a submodule binds it on its package under its own name
    out = _fresh_python(
        "import importlib, gdn.approx\n"
        "module = importlib.import_module('gdn.approx.verticalize')\n"
        "print(gdn.approx.verticalize is module.verticalize)\n")
    assert out == "True\n"


def test_star_import():
    for package in ("gdn", "gdn.approx"):
        namespace = {}
        exec(f"from {package} import *", namespace)
        assert set(importlib.import_module(package).__all__) <= set(namespace)


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library example"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(code, {})
    assert 0.0 <= float(capsys.readouterr().out) <= 0.1


def test_cli_keeps_resolve_target_at_module_level():
    # perfbench/spans.py reads gdn.cli.resolve_target when its tracer starts,
    # to count the target oracle's calls
    assert gdn.cli.resolve_target is gdn.targets.resolve_target
