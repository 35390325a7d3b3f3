"""The package ships only what its callers use: every public module-level
function, class and constant is used, as a name or an attribute, in the
package outside its own definition, or in the benchmark harness, or is a
console-script entry point.  A name only tests call belongs in the tests.
Likewise every defaulted parameter of a public module-level function, or
of the ``__init__`` or ``__new__`` of a public class, is passed by some call
in the package or the benchmark harness; a knob only tests turn belongs in
the tests.  And every public method or property of a public class is read
as an attribute in the package outside its own definition, or in the
benchmark harness.  Finally, every name a module of the package imports
is read in that module, apart from the re-exports of ``__init__.py``.

Uses are read from the syntax tree, so a word in a docstring or a comment,
a name that only calls itself, or a parameter that a function only passes
on unchanged to itself, does not count."""

import ast
import tomllib
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPORTS = ROOT / "src/depmodal/__init__.py"   # re-exports every name


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _uses(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _defines(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_every_public_name_has_a_caller():
    modules = {p: _parse(p) for p in sorted((ROOT / "src/depmodal").rglob("*.py"))
               if p != EXPORTS}
    outside = set().union(*(_uses(_parse(p)) for p in (ROOT / "perfbench").rglob("*.py")))
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    outside |= {ref.rsplit(":", 1)[1] for ref in scripts["project"]["scripts"].values()}
    # name -> the top-level statements of the package that use it
    used_in = defaultdict(set)
    for path, tree in modules.items():
        for i, stmt in enumerate(tree.body):
            for name in _uses(stmt):
                used_in[name].add((path, i))
    unused = [f"{path.relative_to(ROOT)}: {name}"
              for path, tree in modules.items()
              for i, stmt in enumerate(tree.body)
              for name in _defines(stmt)
              if not name.startswith("_") and name not in outside
              and not used_in[name] - {(path, i)}]
    assert not unused, "no caller outside tests:\n" + "\n".join(unused)


def _argument(call: ast.Call, fn: ast.FunctionDef, bound: int, param: str):
    """What ``call`` passes for ``param`` of ``fn``, whose first ``bound``
    parameters the call does not pass: an expression, ``...`` when a starred
    argument may pass it, or None when nothing is passed."""
    for kw in call.keywords:
        if kw.arg == param:
            return kw.value
        if kw.arg is None:
            return ...
    positional = [a.arg for a in fn.args.posonlyargs + fn.args.args][bound:]
    if param not in positional:
        return None
    i = positional.index(param)
    for j, arg in enumerate(call.args[:i + 1]):
        if isinstance(arg, ast.Starred):
            return ...
        if j == i:
            return arg
    return None


def _callee(call: ast.Call) -> str | None:
    """The called name: ``f`` in ``f(...)`` and in ``mod.f(...)``."""
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def _defaulted(fn: ast.FunctionDef) -> list[str]:
    a = fn.args
    positional = a.posonlyargs + a.args
    return ([p.arg for p in positional[len(positional) - len(a.defaults):]]
            + [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None])


def test_every_defaulted_parameter_is_passed():
    package = [_parse(p) for p in sorted((ROOT / "src/depmodal").rglob("*.py"))]
    harness = [_parse(p) for p in sorted((ROOT / "perfbench").rglob("*.py"))]
    # (called name, definition, parameters a call does not pass): public
    # functions, and the constructors of public classes, called by the class
    # name and bound to ``self`` or ``cls``
    functions = [(stmt.name, stmt, 0) for tree in package for stmt in tree.body
                 if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")]
    functions += [(cls.name, fn, 1) for tree in package for cls in tree.body
                  if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
                  for fn in cls.body
                  if isinstance(fn, ast.FunctionDef) and fn.name in ("__init__", "__new__")]
    # every call, with the top-level function it sits in (None outside one)
    calls = [(getattr(stmt, "name", None), node)
             for tree in package + harness for stmt in tree.body
             for node in ast.walk(stmt) if isinstance(node, ast.Call)]

    def passes(owner, call, name, fn, bound, param) -> bool:
        arg = _argument(call, fn, bound, param)
        if arg is None:
            return False
        # a self-call handing its own parameter on unchanged turns no knob
        return not (owner == name and isinstance(arg, ast.Name) and arg.id == param)

    unpassed = [f"{name}.{param}" for name, fn, bound in functions
                for param in _defaulted(fn)
                if not any(passes(owner, call, name, fn, bound, param)
                           for owner, call in calls if _callee(call) == name)]
    assert not unpassed, "no caller outside tests passes:\n" + "\n".join(unpassed)


def _reads(node: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """The attribute names read under ``node``, outside the subtree ``skip``."""
    out, stack = set(), [node]
    while stack:
        n = stack.pop()
        if n is not skip:
            if isinstance(n, ast.Attribute):
                out.add(n.attr)
            stack.extend(ast.iter_child_nodes(n))
    return out


def test_every_public_method_is_read():
    package = [_parse(p) for p in sorted((ROOT / "src/depmodal").rglob("*.py"))]
    outside = set().union(*(_reads(_parse(p)) for p in (ROOT / "perfbench").rglob("*.py")))
    unread = [f"{cls.name}.{fn.name}"
              for tree in package for cls in tree.body
              if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
              for fn in cls.body
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not fn.name.startswith("_") and fn.name not in outside
              and not any(fn.name in _reads(t, skip=fn) for t in package)]
    assert not unread, "never read as an attribute outside tests:\n" + "\n".join(unread)


def test_no_unused_imports():
    unused = []
    for path in sorted((ROOT / "src/depmodal").rglob("*.py")):
        if path == EXPORTS:
            continue
        tree = _parse(path)
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.relative_to(ROOT)}: {name}"
                       for name in names if name not in read]
    assert not unused, "imported and never read:\n" + "\n".join(unused)
