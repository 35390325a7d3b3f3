"""Formula evaluation at pointed models, by two independent routes.

The direct route reads the truth clauses literally: a global dependency atom
holds when some pair of worlds in the nomic class agrees everywhere outside
the two argument sets while differing inside each of them; the local variant
pins one end of the pair to the evaluation world.  The evidence route answers
the same atoms by searching the world's difference family instead.  The two
routes must agree everywhere; the CLI and the soundness harness treat any
disagreement as an internal error.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import dependency
from .errors import EvalError
from .model import KripkeModel
from .syntax import (GLOBAL, LOCAL, All, And, DepG, DepL, Formula, Know, Not,
                     Prop, Top, VarSet)

DIRECT = "direct"
EVIDENCE = "evidence"


@dataclass(frozen=True)
class Verdict:
    """Truth value paired with the route that produced it."""

    value: bool
    route: str


def dep_holds_direct(m: KripkeModel, s: str, kind: str, x: VarSet, y: VarSet) -> bool:
    """Dependency-atom truth by literal pair search over the nomic class."""
    m._check_named(x)
    m._check_named(y)
    return m._memo((DIRECT, kind, x, y, m._anchor(s, kind)),
                   lambda: _dep_direct_search(m, s, kind, x, y))


def _dep_direct_search(m: KripkeModel, s: str, kind: str, x: VarSet, y: VarSet) -> bool:
    xy = x | y
    cls = m.nomic_class(s)
    if kind == GLOBAL:
        pairs = ((u, v) for u in cls for v in cls)
    else:
        pairs = ((t, s) for t in cls)
    for u, v in pairs:
        if (m.differs_on(u, v, x) and m.differs_on(u, v, y)
                and m.agree_outside(u, v, xy)):
            return True
    return False


def check_names(m: KripkeModel, f: Formula) -> None:
    """Reject formulas mentioning names the model does not declare.  Undeclared
    atoms are an error, never silently false."""
    stack = [f]
    props = set(m.propositions)
    while stack:
        g = stack.pop()
        match g:
            case Prop(name):
                if name not in props:
                    raise EvalError(f"undeclared proposition {name!r}")
            case DepG(x, y) | DepL(x, y):
                m._check_named(x)
                m._check_named(y)
            case Not(h):
                stack.append(h)
            case And(l, r):
                stack.extend((l, r))
            case Know(h) | All(h):
                stack.append(h)
    return None


def _eval(m: KripkeModel, s: str, f: Formula, holds) -> bool:
    """Truth of ``f`` at ``s``, dependency atoms answered by
    ``holds(m, s, kind, x, y)``."""
    match f:
        case Top():
            return True
        case Prop(name):
            return m.valuation[s][name] == 1
        case Not(g):
            return not _eval(m, s, g, holds)
        case And(l, r):
            return _eval(m, s, l, holds) and _eval(m, s, r, holds)
        case Know(g):
            return all(_eval(m, t, g, holds) for t in m.epistemic_class(s))
        case All(g):
            return all(_eval(m, t, g, holds) for t in m.nomic_class(s))
        case DepG(x, y):
            return holds(m, s, GLOBAL, x, y)
        case DepL(x, y):
            return holds(m, s, LOCAL, x, y)
    raise TypeError(f"not a formula: {f!r}")


def evaluate(m: KripkeModel, s: str, f: Formula) -> bool:
    """Truth of ``f`` at world ``s`` by the direct route."""
    m._world_index(s)
    check_names(m, f)
    return _eval(m, s, f, dep_holds_direct)


def evaluate_by_evidence(m: KripkeModel, s: str, f: Formula) -> bool:
    """Truth of ``f`` at world ``s``, dependency atoms answered from the
    world's difference families."""
    m._world_index(s)
    check_names(m, f)
    return _eval(m, s, f, dependency.dep_holds_by_evidence)


def evaluate_both(m: KripkeModel, s: str, f: Formula) -> tuple[Verdict, Verdict]:
    """Run both routes; callers decide what a disagreement means."""
    return (Verdict(evaluate(m, s, f), DIRECT),
            Verdict(evaluate_by_evidence(m, s, f), EVIDENCE))


def extension(m: KripkeModel, f: Formula) -> set[str]:
    """The set of worlds satisfying ``f``."""
    check_names(m, f)
    return {s for s in m.worlds if _eval(m, s, f, dep_holds_direct)}


def valid_on_model(m: KripkeModel, f: Formula) -> bool:
    """True iff ``f`` holds at every world of the model."""
    check_names(m, f)
    return all(_eval(m, s, f, dep_holds_direct) for s in m.worlds)
