"""Every public top-level function and class in the package, and every public
method of such a class, is reached from a command, from module-level code or
from the acceptance suite, or is kept on purpose; every field of a dataclass
is read; every parameter with a default is passed somewhere; and no module
imports a name it never uses.

Reached is transitive: the roots are ``cli.main``, every module-level
statement that is not a definition, an import or ``__all__`` (``FAMILIES``,
``_COMMANDS``, the ``register_activation`` calls), the acceptance suite and
the ``KEEP`` names.  A definition is reached when a reached definition or a
root refers to it by name; a method is reached when its class is reached and
a reached definition refers to it by name, or it is a dunder method.  Names
are matched without their module, so a name reaches every definition that
bears it.

A dataclass field is read when package code or the acceptance suite loads
an attribute of its name (``result.degree``), or it sits in ``KEEP`` as
``Class.field``.  Fields are matched without their class, like definitions.

A parameter with a default, of any function or method in the package, is
passed when a call in package code or in the acceptance suite to a callee of
the function's name gives it by keyword or by position (after ``self`` for a
method), or spreads a ``*`` or ``**`` argument over it; otherwise it sits in
``KEEP_PARAMS`` as ``function.param``.  Callees are matched without their
module or class, like definitions.
"""
import ast
from pathlib import Path

import gdn

SRC = Path(gdn.__file__).parent
ACCEPTANCE = Path(__file__).parent / "test_acceptance.py"

# public names that no command and no criterion reaches, and dataclass
# fields (as "Class.field") that nothing reads, each with who will
KEEP = {
    "k_star": "ROADMAP item 3's radius report prints the paper's curvature cap",
    "universality_radius": "ROADMAP item 3's radius report prints the paper's radius",
    "jacobi_eigh": "the reference eigensolver the LAPACK path is tested against",
    "gaussian_chart_encode": "decodes gaussian:n points for ROADMAP item 6's Kalman target",
    "gaussian_chart_decode": "decodes gaussian:n points for ROADMAP item 6's Kalman target",
}

# parameters with a default (as "function.param") that no package call and
# no criterion passes, each with who does
KEEP_PARAMS = {
    "verticalize.lam": "the smooth register window the verticalize tests sweep",
    "random_tangent.radius": "tests draw tangents inside a ball of their own radius",
    "main.argv": "the console script calls main() to read sys.argv; tests pass argv",
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


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _modules():
    return [(path, ast.parse(path.read_text())) for path in sorted(SRC.rglob("*.py"))]


def _definitions():
    """(top-level definitions as (name, "module.py:line", own references,
    methods as (name, references)), the references of module-level code)."""
    defs, roots = [], set()
    for path, tree in _modules():
        for stmt in tree.body:
            if isinstance(stmt, _DEFS):
                where = f"{path.relative_to(SRC)}:{stmt.lineno}"
                methods = []
                if isinstance(stmt, ast.ClassDef):
                    body = [s for s in stmt.body if not isinstance(s, _DEFS)]
                    methods = [(s.name, _references(s)) for s in stmt.body
                               if isinstance(s, _DEFS)]
                    refs = set().union(*map(_references, body + stmt.bases
                                            + stmt.keywords + stmt.decorator_list))
                else:
                    refs = _references(stmt)
                defs.append((stmt.name, where, refs, methods))
            # a module-level import re-exports a name; it does not use it
            elif not (isinstance(stmt, (ast.Import, ast.ImportFrom)) or _is_all(stmt)):
                roots |= _references(stmt)
    return defs, roots


def _reached(extra_roots=()):
    """The names reached from the roots, ``extra_roots`` among them."""
    defs, roots = _definitions()
    reached = roots | {"main"} | _references(ast.parse(ACCEPTANCE.read_text()))
    reached |= set(extra_roots)
    expanded = set()  # indices of definitions and (definition, method) pairs
    grew = True
    while grew:
        grew = False
        for i, (name, _where, refs, methods) in enumerate(defs):
            if name not in reached:
                continue
            if i not in expanded:
                expanded.add(i)
                reached |= refs
                grew = True
            for mname, mrefs in methods:
                dunder = mname.startswith("__") and mname.endswith("__")
                if (i, mname) not in expanded and (dunder or mname in reached):
                    expanded.add((i, mname))
                    reached |= mrefs
                    grew = True
    return defs, reached


def test_every_public_definition_is_reached():
    defs, reached = _reached(KEEP)
    unreached = []
    for name, where, _refs, methods in defs:
        if name in reached:
            # a public method of a reached class
            unreached += [f"{name}.{m} ({where})" for m, _r in methods
                          if not m.startswith("_") and m not in reached]
        elif not name.startswith("_"):
            unreached.append(f"{name} ({where})")
    assert not unreached, "reached by nothing: " + ", ".join(sorted(unreached))


def test_keep_holds_only_defined_unreached_names():
    defs, reached = _reached()
    defined = {name for name, _w, _r, _m in defs}
    fields = {qual: field for qual, field, _where in _dataclass_fields()}
    reads = _attribute_reads()

    def is_stale(name):
        if "." in name:  # a kept field must be a dataclass field nothing reads
            return name not in fields or fields[name] in reads
        return name not in defined or name in reached

    stale = sorted(filter(is_stale, KEEP))
    assert not stale, "undefined or reached, so not kept on purpose: " + ", ".join(stale)


def _is_dataclass(decorator):
    # @dataclass, @dataclass(...) and their dotted forms
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def _dataclass_fields():
    """("Class.field", field, "module.py:line") of every annotated field of
    every top-level dataclass in the package."""
    for path, tree in _modules():
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef)
                    and any(map(_is_dataclass, cls.decorator_list))):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield (f"{cls.name}.{stmt.target.id}", stmt.target.id,
                           f"{path.relative_to(SRC)}:{stmt.lineno}")


def _attribute_reads():
    """The attribute names that package code and the acceptance suite load."""
    trees = [tree for _path, tree in _modules()] + [ast.parse(ACCEPTANCE.read_text())]
    return {n.attr for tree in trees for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def test_every_dataclass_field_is_read():
    reads = _attribute_reads()
    unread = [f"{qual} ({where})" for qual, field, where in _dataclass_fields()
              if field not in reads and qual not in KEEP]
    assert not unread, "fields read by nothing: " + ", ".join(unread)


def test_reach_is_transitive():
    # a name referred to only by an unreached definition is not reached
    _defs, reached = _reached()
    assert "sym_chart_encode" not in reached
    assert "sym_chart_encode" in _reached(["gaussian_chart_encode"])[1]


def _module_imports(body):
    """The imports among module-level statements, also under an ``if`` or a
    ``try`` (``if TYPE_CHECKING:``), never inside a definition."""
    for stmt in body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            yield stmt
        elif isinstance(stmt, (ast.If, ast.Try)):
            for block in (stmt.body, stmt.orelse, getattr(stmt, "finalbody", []),
                          *(h.body for h in getattr(stmt, "handlers", []))):
                yield from _module_imports(block)


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path, tree in _modules():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for stmt in _module_imports(tree.body):
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            unused += [f"{name} ({path.relative_to(SRC)}:{stmt.lineno})"
                       for name in (a.asname or a.name.split(".")[0] for a in stmt.names)
                       if name not in used]
    assert not unused, "imported and never used: " + ", ".join(unused)


def _defaulted_params():
    """("function.param", "module.py:line", positional index at a call or
    None for a keyword-only parameter) of every parameter with a default."""
    for path, tree in _modules():
        methods = {id(f) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for f in cls.body if isinstance(f, ast.FunctionDef)
                   and not any(getattr(d, "id", None) == "staticmethod"
                               for d in f.decorator_list)}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            where = f"{path.relative_to(SRC)}:{fn.lineno}"
            positional = fn.args.posonlyargs + fn.args.args
            skip = 1 if id(fn) in methods else 0  # self is not written at a call
            first = len(positional) - len(fn.args.defaults)
            for index in range(first, len(positional)):
                yield f"{fn.name}.{positional[index].arg}", where, index - skip
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield f"{fn.name}.{arg.arg}", where, None


def _passed_params():
    """The "function.param" names that some call in package code or in the
    acceptance suite passes, and the callee names whose calls spread ``*``
    (every positional) or ``**`` (every keyword) over their parameters."""
    passed, spread_args, spread_kwargs = set(), set(), set()
    trees = [tree for _path, tree in _modules()] + [ast.parse(ACCEPTANCE.read_text())]
    for call in (n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Call)):
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        passed |= {f"{name}.{kw.arg}" for kw in call.keywords if kw.arg is not None}
        passed |= {f"{name}.#{i}" for i in range(len(call.args))}
        if any(isinstance(a, ast.Starred) for a in call.args):
            spread_args.add(name)
        if any(kw.arg is None for kw in call.keywords):
            spread_kwargs.add(name)
    return passed, spread_args, spread_kwargs


def _unpassed_params():
    passed, spread_args, spread_kwargs = _passed_params()
    for qual, where, index in _defaulted_params():
        name = qual.split(".")[0]
        by_position = index is not None and (
            f"{name}.#{index}" in passed or name in spread_args)
        if not (qual in passed or by_position or name in spread_kwargs):
            yield qual, where


def test_every_defaulted_parameter_is_passed():
    unpassed = [f"{qual} ({where})" for qual, where in _unpassed_params()
                if qual not in KEEP_PARAMS]
    assert not unpassed, "defaults never overridden: " + ", ".join(unpassed)


def test_keep_params_holds_only_unpassed_parameters():
    unpassed = {qual for qual, _where in _unpassed_params()}
    stale = sorted(set(KEEP_PARAMS) - unpassed)
    assert not stale, "passed or not a defaulted parameter, so not kept: " + ", ".join(stale)
