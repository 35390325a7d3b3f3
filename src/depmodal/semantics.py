"""Formula evaluation at pointed models, by two independent routes.

The direct route reads the truth clauses literally: a global dependency atom
holds when some pair of worlds in the nomic class agrees everywhere outside
the two argument sets while differing inside each of them; the local variant
pins one end of the pair to the evaluation world.  It tests agreement first:
a world is compared inside the argument sets only with the worlds that share
its values outside them.  The evidence route answers the same atoms by
searching the world's difference family instead.  The two routes must agree
everywhere; the CLI and the soundness harness treat any disagreement as an
internal error.  Within one call, a ``K`` or ``A`` box is evaluated once per
cell of its partition and reused at every world of it.
"""

from __future__ import annotations

import operator

from . import dependency
from .errors import EvalError
from .model import KripkeModel
from .syntax import (GLOBAL, LOCAL, All, And, DepG, DepL, Formula, Know, Not,
                     Prop, Top, VarSet)

DIRECT = "direct"


def dep_holds_direct(m: KripkeModel, s: str, kind: str, x: VarSet, y: VarSet) -> bool:
    """Dependency-atom truth by literal pair search over the nomic class."""
    key = (DIRECT, kind, x, y, m._anchor(s, kind))
    value = m._memo_table.get(key)
    if value is None:
        # a stored entry implies its names passed: x and y are in its key
        m._check_named(x)
        m._check_named(y)
        value = m._memo_table.setdefault(key, _dep_direct_search(m, s, kind, x, y))
    return value


def _dep_direct_search(m: KripkeModel, s: str, kind: str, x: VarSet, y: VarSet) -> bool:
    # s was validated by ``_anchor``
    cls = m._nomic_cell[s]
    if not (x and y) or len(cls) < 2:
        # an empty side never differs, and a lone world has no partner
        return False
    key = ("projections", x, y)
    on_x, on_y, off_xy = (m._memo_table.get(key)
                          or m._memo_table.setdefault(key, _projections(m, x, y)))
    rows = m._row
    # agree outside x | y first, then differ somewhere in x and somewhere in y
    if kind == LOCAL:
        own = rows[s]
        ox, oy, oo = on_x(own), on_y(own), off_xy(own)
        for t in cls:
            u = rows[t]
            if off_xy(u) == oo and on_x(u) != ox and on_y(u) != oy:
                return True
        return False
    # the conditions are symmetric in (u, v) and fail on (u, u), so each world
    # is paired with the earlier ones that agree with it outside x | y
    agreeing: dict = {}
    for t in cls:
        u = rows[t]
        ux, uy = on_x(u), on_y(u)
        earlier = agreeing.setdefault(off_xy(u), [])
        for vx, vy in earlier:
            if vx != ux and vy != uy:
                return True
        earlier.append((ux, uy))
    return False


def _projections(m: KripkeModel, x: VarSet, y: VarSet) -> tuple:
    """Getters of a row's values on ``x``, on ``y`` and outside ``x | y``;
    they depend only on the model's variables, so one entry serves every
    anchor and both kinds."""
    pos = m._var_pos
    outside = [i for v, i in pos.items() if v not in x and v not in y]
    return (operator.itemgetter(*(pos[v] for v in x)),
            operator.itemgetter(*(pos[v] for v in y)),
            operator.itemgetter(*outside) if outside else (lambda row: ()))


def check_names(m: KripkeModel, f: Formula) -> None:
    """Reject formulas mentioning names the model does not declare.  Undeclared
    atoms are an error, never silently false."""
    stack = [f]
    props = set(m.propositions)
    while stack:
        g = stack.pop()
        t = type(g)
        if t is And:
            stack.append(g.left)
            stack.append(g.right)
        elif t is Not or t is Know or t is All:
            stack.append(g.operand)
        elif t is DepG or t is DepL:
            m._check_named(g.left)
            m._check_named(g.right)
        elif t is Prop:
            if g.name not in props:
                raise EvalError(f"undeclared proposition {g.name!r}")
    return None


def _eval(m: KripkeModel, s: str, f: Formula, holds, boxes: dict) -> bool:
    """Truth of ``f`` at ``s``, dependency atoms answered by
    ``holds(m, s, kind, x, y)``.  ``boxes`` maps ``(id(box), cell)`` to the
    box's value on that cell; it lives for one call, while the root formula
    keeps every node alive, so ids cannot be reused.

    The hot walks (this one, ``check_names`` and the soundness suite's
    world-set pass ``harness._WorldSets.mask``) and the renderer dispatch on
    the node's exact type, frequent nodes first, not with ``match``.  Under
    CPython 3.11 a ``match`` on class patterns takes 0.4 to 0.9 µs to reach a
    node's case; the chain of ``is`` tests takes about 0.1 µs.  So a node
    class they do not list, a subclass included, is not a formula to them.
    The box case is inlined so that nesting costs no more stack per level
    than plain recursion."""
    t = type(f)
    if t is And:
        return _eval(m, s, f.left, holds, boxes) and _eval(m, s, f.right, holds, boxes)
    if t is Not:
        return not _eval(m, s, f.operand, holds, boxes)
    if t is DepG:
        return holds(m, s, GLOBAL, f.left, f.right)
    if t is DepL:
        return holds(m, s, LOCAL, f.left, f.right)
    if t is Know or t is All:
        # s was validated at entry
        cell = (m._epi_cell if t is Know else m._nomic_cell)[s]
        key = (id(f), cell)
        value = boxes.get(key)
        if value is None:
            g = f.operand
            value = boxes[key] = all(_eval(m, w, g, holds, boxes) for w in cell)
        return value
    if t is Prop:
        return m.valuation[s][f.name] == 1
    if t is Top:
        return True
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

