"""Import scope: a ``gdn eval`` loads none of the compiler, and every name
has one import path, the module that defines it: each package ``__init__``
holds only its docstring, and ``gdn`` its ``__version__`` too."""
import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import gdn
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
    assert "gdn.manifolds.gaussian" not in modules


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


def test_every_package_init_holds_only_its_docstring():
    inits = sorted(SRC.joinpath("gdn").rglob("__init__.py"))
    assert len(inits) == 3
    for path in inits:
        tree = ast.parse(path.read_text())
        assert ast.get_docstring(tree) is not None, f"{path.relative_to(SRC)} has no docstring"
        code = [ast.unparse(stmt) for stmt in tree.body[1:]]
        if path.parent.name == "gdn":  # ``gdn --version`` reads it
            assert len(code) == 1 and code.pop().startswith("__version__ = '")
        assert code == [], f"{path.relative_to(SRC)} binds names"
