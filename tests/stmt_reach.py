"""Statement reach of the Tier-1 suite: every statement of the ``gdn``
package that no test executes.

Run from the repository root (extra arguments go to pytest)::

    python tests/stmt_reach.py [PYTEST_ARGS...]

It runs pytest in this process under ``sys.settrace``, tracing only frames
whose code lives in ``src/gdn``, and then prints ``module:line statement``
for each statement of the package's syntax trees (docstrings excluded) on
whose lines no traced frame ran.  A statement's lines are its own: a
compound statement's header up to its first child statement, and a simple
statement's whole extent.  The exit code is pytest's.  pytest does not
collect this file, since its name has no ``test_`` prefix.
"""
import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gdn"


def _is_docstring(stmt: ast.stmt) -> bool:
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def statements(path: Path):
    """(line, own lines, source line) of each statement in ``path``
    that compiles to code: not a docstring, ``global`` or ``nonlocal``."""
    source = path.read_text(encoding="utf-8")
    text = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or _is_docstring(node) \
                or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        children = [c.lineno for c in ast.iter_child_nodes(node) if isinstance(c, ast.stmt)]
        last = min(children) - 1 if children else node.end_lineno
        yield node.lineno, range(first, max(first, last) + 1), text[node.lineno - 1].strip()


def main(argv) -> int:
    import pytest

    sys.path.insert(0, str(SRC.parent))
    prefix = str(SRC) + "/"
    ran = set()

    def local(frame, event, _arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, _arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", *argv])
    finally:
        sys.settrace(None)
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC.parent)
        for lineno, own, line in sorted(statements(path), key=lambda s: s[0]):
            if not any((str(path), n) in ran for n in own):
                print(f"{name}:{lineno} {line}")
    return int(status)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
