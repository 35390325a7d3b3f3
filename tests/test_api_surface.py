"""The package ships only what its callers use: every public module-level
function, class and constant is used, as a name or an attribute, in the
package outside its own definition, or in the benchmark harness, or is a
console-script entry point.  A name only tests call belongs in the tests.

Uses are read from the syntax tree, so a word in a docstring or a comment,
or a name that only calls itself, does not count."""

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
