"""The package ships only what its callers use: every public module-level
function, class and constant is named in the package outside its own
definition, or in the benchmark harness.  A name only tests call belongs in
the tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPORTS = ROOT / "src/depmodal/__init__.py"   # re-exports every name


def test_every_public_name_has_a_caller():
    lines = {p: p.read_text(encoding="utf-8").splitlines()
             for p in sorted((ROOT / "src/depmodal").rglob("*.py")) if p != EXPORTS}
    bench = "\n".join(p.read_text(encoding="utf-8")
                      for p in (ROOT / "perfbench").rglob("*.py"))
    unused = []
    for path, text in lines.items():
        for node in ast.parse("\n".join(text)).body:
            # a def or class names itself; an assignment names its targets
            targets = getattr(node, "targets", [getattr(node, "target", node)])
            for name in (getattr(t, "id", getattr(t, "name", "_")) for t in targets):
                rest = [line for p, ls in lines.items() for i, line in enumerate(ls, 1)
                        if (p, i) != (path, node.lineno)]
                if not (name.startswith("_")
                        or re.search(rf"\b{name}\b", bench + "\n".join(rest))):
                    unused.append(f"{path.relative_to(ROOT)}: {name}")
    assert not unused, "no caller outside tests:\n" + "\n".join(unused)
