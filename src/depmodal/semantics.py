"""Formula evaluation at pointed models, by two independent routes.

The direct route reads the truth clauses literally: a global dependency atom
holds when some pair of worlds in the nomic class agrees everywhere outside
the two argument sets while differing inside each of them; the local variant
pins one end of the pair to the evaluation world.  The evidence route answers
the same atoms by searching the world's difference family instead.  The two
routes must agree everywhere; the CLI and the soundness harness treat any
disagreement as an internal error.  Within one call, a ``K`` or ``A`` box is
evaluated once per cell of its partition and reused at every world of it.
"""

from __future__ import annotations

import itertools
import operator

from . import dependency
from .errors import EvalError
from .model import KripkeModel
from .syntax import (GLOBAL, LOCAL, All, And, DepG, DepL, Formula, Know, Not,
                     Prop, Top, VarSet)

DIRECT = "direct"


def dep_holds_direct(m: KripkeModel, s: str, kind: str, x: VarSet, y: VarSet) -> bool:
    """Dependency-atom truth by literal pair search over the nomic class."""
    def compute() -> bool:
        # a stored entry implies its names passed: x and y are in its key
        m._check_named(x)
        m._check_named(y)
        return _dep_direct_search(m, s, kind, x, y)
    return m._memo((DIRECT, kind, x, y, m._anchor(s, kind)), compute)


def _dep_direct_search(m: KripkeModel, s: str, kind: str, x: VarSet, y: VarSet) -> bool:
    cls = m.nomic_class(s)
    if not (x and y) or len(cls) < 2:
        # an empty side never differs, and a lone world has no partner
        return False
    pos = m._var_pos
    on_x = operator.itemgetter(*(pos[v] for v in x))
    on_y = operator.itemgetter(*(pos[v] for v in y))
    outside = [i for v, i in pos.items() if v not in x and v not in y]
    off_xy = operator.itemgetter(*outside) if outside else (lambda row: ())
    rows = [m._row[t] for t in cls]
    if kind == GLOBAL:
        # the conditions are symmetric in (u, v) and fail on (u, u)
        pairs = itertools.combinations(rows, 2)
    else:
        own = m._row[s]
        pairs = ((t, own) for t in rows)
    for u, v in pairs:
        # differ somewhere in x, somewhere in y, and agree outside x | y
        if on_x(u) != on_x(v) and on_y(u) != on_y(v) and off_xy(u) == off_xy(v):
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


def _eval(m: KripkeModel, s: str, f: Formula, holds, boxes: dict) -> bool:
    """Truth of ``f`` at ``s``, dependency atoms answered by
    ``holds(m, s, kind, x, y)``.  ``boxes`` maps ``(id(box), cell)`` to the
    box's value on that cell; it lives for one call, while the root formula
    keeps every node alive, so ids cannot be reused.  The box case is inlined
    so that nesting costs no more stack per level than plain recursion."""
    match f:
        case Top():
            return True
        case Prop(name):
            return m.valuation[s][name] == 1
        case Not(g):
            return not _eval(m, s, g, holds, boxes)
        case And(l, r):
            return _eval(m, s, l, holds, boxes) and _eval(m, s, r, holds, boxes)
        case Know(g) | All(g):
            # s was validated at entry
            cell = (m._epi_cell if type(f) is Know else m._nomic_cell)[s]
            key = (id(f), cell)
            value = boxes.get(key)
            if value is None:
                value = boxes[key] = all(_eval(m, t, g, holds, boxes) for t in cell)
            return value
        case DepG(x, y):
            return holds(m, s, GLOBAL, x, y)
        case DepL(x, y):
            return holds(m, s, LOCAL, x, y)
    raise TypeError(f"not a formula: {f!r}")


def evaluate(m: KripkeModel, s: str, f: Formula) -> bool:
    """Truth of ``f`` at world ``s`` by the direct route."""
    m._world_index(s)
    check_names(m, f)
    return _eval(m, s, f, dep_holds_direct, {})


def evaluate_by_evidence(m: KripkeModel, s: str, f: Formula) -> bool:
    """Truth of ``f`` at world ``s``, dependency atoms answered from the
    world's difference families."""
    m._world_index(s)
    check_names(m, f)
    return _eval(m, s, f, dependency.dep_holds_by_evidence, {})


def _extension(m: KripkeModel, f: Formula, holds) -> set[str]:
    check_names(m, f)
    boxes: dict = {}
    return {s for s in m.worlds if _eval(m, s, f, holds, boxes)}


def extension(m: KripkeModel, f: Formula) -> set[str]:
    """The set of worlds satisfying ``f``."""
    return _extension(m, f, dep_holds_direct)


def extension_by_evidence(m: KripkeModel, f: Formula) -> set[str]:
    """The set of worlds satisfying ``f``, dependency atoms answered from the
    worlds' difference families."""
    return _extension(m, f, dependency.dep_holds_by_evidence)

