"""Every public top-level function and class in the package is reached by
the code that uses it, by the acceptance suite, or is kept on purpose."""
import ast
from pathlib import Path

import gdn

SRC = Path(gdn.__file__).parent
ACCEPTANCE = Path(__file__).parent / "test_acceptance.py"

# public names that nothing in the package calls, each with why it stays
KEEP = {
    "k_star": "the paper's radius formula; waits to be wired into compile reports",
    "delta_bound": "the paper's radius formula; waits to be wired into compile reports",
    "universality_radius": "the paper's headline radius; waits to be wired into compile reports",
    "empirical_modulus_at": "the reference the fused modulus read is tested against",
    "jacobi_eigh": "the reference eigensolver the LAPACK path is tested against",
    "load_gdn": "the public pair of save_gdn, for reading a compiled model back",
    "homotopy_shrink": "the shrinking homotopy of the readout construction",
    "gaussian_chart_encode": "the Gaussian feature chart, one half of the pair",
    "gaussian_chart_decode": "the Gaussian feature chart, one half of the pair",
}


def _references(node):
    """Names a node refers to in code: names, attributes and import aliases,
    never strings."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.split(".")[-1])
    return found


def _is_all(stmt):
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)


def _scan():
    """(public top-level definitions as name -> "module.py:line", the names
    that code other than their own definition or the acceptance suite
    refers to)."""
    defined = {}
    reached = set()
    for path in sorted(SRC.rglob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            # a module-level import re-exports a name; it does not use it
            if isinstance(stmt, (ast.Import, ast.ImportFrom)) or _is_all(stmt):
                continue
            refs = _references(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                refs.discard(stmt.name)  # a definition does not reach itself
                if not stmt.name.startswith("_"):
                    defined[stmt.name] = f"{path.relative_to(SRC)}:{stmt.lineno}"
            reached |= refs
    reached |= _references(ast.parse(ACCEPTANCE.read_text()))
    return defined, reached


def test_every_public_definition_is_reached():
    defined, reached = _scan()
    unreached = sorted(f"{name} ({where})" for name, where in defined.items()
                       if name not in reached and name not in KEEP)
    assert not unreached, "reached by nothing: " + ", ".join(unreached)


def test_keep_holds_only_defined_unreached_names():
    defined, reached = _scan()
    stale = sorted(name for name in KEEP if name not in defined or name in reached)
    assert not stale, "undefined or reached, so not kept on purpose: " + ", ".join(stale)
