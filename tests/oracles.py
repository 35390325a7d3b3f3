"""Brute-force oracles shared by the unit and acceptance suites.

These deliberately avoid the production code paths they are checking:
generativity is decided straight from its defining quantification over
argument-set covers (``cover_oracle``), by the generativity lemma's search
for an evidence of every two-block split of the candidate (``lemma_oracle``),
by a breadth-first search of the intersection graph of the members inside
the candidate (``graph_oracle``), or by enumerating every two-way split of
those members (``split_partition_oracle``), generative families are
recomputed by enumerating connected sub-collections of the family, a
relation is checked to be a bisimulation pair by pair from the definition,
the greatest bisimulation is recomputed by deleting pairs until every
survivor transfers, and formulas are evaluated by plain recursion with no memo of box values, reading each
world's cells off the public partitions.  Difference sets and the agreement
conditions of the dependency clauses are read pair by pair from the model's
assignment.  ``pair_search_oracle`` answers a dependency atom by testing
the three conditions of its clause on every candidate pair of worlds, with
no grouping by the values outside the argument sets.  ``are_bisimilar``
reads one pair off the greatest bisimulation.  ``soundness_oracle`` is the
soundness suite's per-world loop: it asks both dependency routes at every
world through their memoized entry points and evaluates each instance with
``recursive_eval_oracle`` by the direct route, finding its atoms with
``collect_dep_atoms``, a walk of the formula tree apart from any evaluation.
``descent_parse_oracle`` and ``render_oracle`` are the formula syntax by
recursive descent, one method per precedence level, and by three mutually
recursive render functions.
"""

import itertools
import operator
import random
import time
from dataclasses import replace

from depmodal import dependency, semantics
from depmodal.bisim import greatest_bisimulation
from depmodal.dependency import (EvidenceFamily, generative_family, is_evidence,
                                 p_family)
from depmodal.errors import EvalError, ParseError
from depmodal.harness import (ROUTE_CHECK, Counterexample, SoundnessReport,
                              draw_instances, instantiate, random_model,
                              schema_names)
from depmodal.syntax import (BOT, GLOBAL, IDENT_RE, LOCAL, RESERVED, TOP, All,
                             And, DepG, DepL, Formula, Know, Not, Prop, Top,
                             VarSet, dep_atom, disj, implies,
                             render_formula, render_varset)


def cover_oracle(p: EvidenceFamily, w: frozenset) -> bool:
    """Generativity by definition, restricted to covers: for every way of
    writing w as a union of two nonempty sets X, Y (each element going to X,
    to Y, or to both), some family member must be an evidence of (X, Y).
    Restricting to X | Y == w is sound because evidence-hood of any subset of
    w depends only on the intersections with w."""
    names = sorted(w)
    members = list(p)
    for split in itertools.product((0, 1, 2), repeat=len(names)):
        x = frozenset(n for n, side in zip(names, split) if side in (0, 2))
        y = frozenset(n for n, side in zip(names, split) if side in (1, 2))
        if not x or not y:
            continue
        if not any(is_evidence(m, x, y) for m in members):
            return False
    return True


def lemma_oracle(p: EvidenceFamily, w: frozenset) -> bool:
    """Generativity by the lemma: a singleton must be a member; a larger set
    needs, for each split into a nonempty proper subset z and the rest, a
    member that is an evidence of (z, w - z)."""
    if len(w) == 1:
        return w in p
    names = sorted(w)
    return all(any(is_evidence(m, frozenset(z), w - frozenset(z)) for m in p)
               for size in range(1, len(names))
               for z in itertools.combinations(names, size))


def graph_oracle(p: EvidenceFamily, w: frozenset) -> bool:
    """Generativity by connectivity: the members inside ``w`` cover it, and
    their intersection graph is connected."""
    sig = [m for m in p if m <= w]
    return frozenset().union(*sig) == w and _connected(sig)


def split_partition_oracle(sig) -> bool:
    """The partition route by enumeration: every way of splitting ``sig`` in
    two leaves the unions of the halves overlapping.  The caller checks that
    ``sig`` covers the candidate."""
    members = sorted(sig, key=lambda m: (len(m), sorted(m)))
    n = len(members)
    for mask in range(1, (1 << n) - 1):
        left: set[str] = set()
        right: set[str] = set()
        for i in range(n):
            (left if mask >> i & 1 else right).update(members[i])
        if not left & right:
            return False
    return True


def connected_union_oracle(p: EvidenceFamily) -> frozenset:
    """All unions of nonempty sub-collections whose intersection graph is
    connected; brute force over the power set of the family."""
    members = sorted(p, key=lambda s: (len(s), sorted(s)))
    out = set()
    for size in range(1, len(members) + 1):
        for group in itertools.combinations(members, size):
            if _connected(group):
                out.add(frozenset().union(*group))
    return frozenset(out)


def _connected(group) -> bool:
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(len(group)):
            if j not in seen and group[i] & group[j]:
                seen.add(j)
                frontier.append(j)
    return len(seen) == len(group)


def random_family(rng: random.Random, max_support: int = 6,
                  max_members: int = 6) -> EvidenceFamily:
    support = [f"v{i}" for i in range(rng.randint(1, max_support))]
    members = set()
    for _ in range(rng.randint(1, max_members)):
        size = rng.randint(1, len(support))
        members.add(frozenset(rng.sample(support, size)))
    return EvidenceFamily(members)


def are_bisimilar(m, s, m2, s2) -> bool:
    """Whether some bisimulation links ``s`` in ``m`` with ``s2`` in ``m2``."""
    return (s, s2) in greatest_bisimulation(m, m2)


def bisimulation_oracle(m, m2, pairs) -> bool:
    """Whether ``pairs`` is a bisimulation between ``m`` and ``m2``: nonempty,
    a shared proposition signature, and every pair meets the base conditions
    and transfers along both relations."""
    pairs = set(pairs)
    return (bool(pairs) and set(m.propositions) == set(m2.propositions)
            and all(_base_match(m, m2, s, s2) and _transfers(m, m2, pairs, s, s2)
                    for s, s2 in pairs))


def pair_deletion_oracle(m, m2) -> frozenset:
    """The pairs of the greatest bisimulation between two models: start from
    all pairs passing the base conditions, then delete pairs whose zig or zag
    transfer fails until nothing changes."""
    if set(m.propositions) != set(m2.propositions):
        return frozenset()
    pairs = {(s, s2)
             for s in m.worlds for s2 in m2.worlds
             if _base_match(m, m2, s, s2)}
    changed = True
    while changed:
        changed = False
        for pair in sorted(pairs):
            if not _transfers(m, m2, pairs, *pair):
                pairs.discard(pair)
                changed = True
    return frozenset(pairs)


def _base_match(m, m2, s, s2) -> bool:
    # proposition agreement presumes an identical declared signature
    return (all(m.valuation[s][p] == m2.valuation[s2][p] for p in m.propositions)
            and all(generative_family(p_family(m, s, kind))
                    == generative_family(p_family(m2, s2, kind))
                    for kind in (GLOBAL, LOCAL)))


def _transfers(m, m2, pairs, s, s2) -> bool:
    for partition, partition2 in ((m.epistemic_partition, m2.epistemic_partition),
                                  (m.nomic_partition, m2.nomic_partition)):
        cls, cls2 = _cell(partition, s), _cell(partition2, s2)
        for t in cls:                      # zig
            if not any((t, t2) in pairs for t2 in cls2):
                return False
        for t2 in cls2:                    # zag
            if not any((t, t2) in pairs for t in cls):
                return False
    return True


def _cell(partition, w) -> frozenset:
    """The cell of ``partition`` that holds ``w``, found by scanning the
    public partition rather than the model's lookup tables."""
    for cell in partition:
        if w in cell:
            return cell
    raise EvalError(f"unknown world {w!r}")


def _values(m, w) -> dict:
    if w not in m.assignment:
        raise EvalError(f"unknown world {w!r}")
    return m.assignment[w]


def _declared(m, xs) -> None:
    bad = sorted(set(xs) - set(m.named_variables))
    if bad:
        raise EvalError(f"undeclared variable {bad[0]!r}")


def delta(m, u, v) -> frozenset:
    """Named variables on which ``u`` and ``v`` differ, provided they agree on
    every hidden variable; the empty set otherwise."""
    au, av = _values(m, u), _values(m, v)
    if any(au[h] != av[h] for h in m.hidden_variables):
        return frozenset()
    return frozenset(x for x in m.named_variables if au[x] != av[x])


def differs_on(m, u, v, xs) -> bool:
    """True iff some member of ``xs`` takes different values at ``u`` and
    ``v``; false for the empty set."""
    _declared(m, xs)
    au, av = _values(m, u), _values(m, v)
    return any(au[x] != av[x] for x in xs)


def agree_outside(m, u, v, xy) -> bool:
    """True iff every variable (named or hidden) outside ``xy`` takes the
    same value at ``u`` and ``v``."""
    _declared(m, xy)
    au, av = _values(m, u), _values(m, v)
    return all(au[x] == av[x] for x in m.named_variables + m.hidden_variables
               if x not in xy)


def pair_search_oracle(m, s, kind, x, y) -> bool:
    """Dependency-atom truth at ``s`` by testing every candidate pair of
    worlds of the nomic class: each unordered pair for the global kind, each
    world against ``s`` for the local kind.  Each world's values on ``x``, on
    ``y`` and outside ``x | y`` are read from the model's assignment once."""
    cls = _cell(m.nomic_partition, s)
    if not (x and y) or len(cls) < 2:
        # an empty side never differs, and a lone world has no partner
        return False
    outside = [v for v in m.named_variables + m.hidden_variables
               if v not in x and v not in y]
    on_x, on_y = operator.itemgetter(*x), operator.itemgetter(*y)
    off_xy = operator.itemgetter(*outside) if outside else (lambda values: ())
    rows = {}
    for t in cls:
        values = _values(m, t)
        rows[t] = (on_x(values), on_y(values), off_xy(values))
    if kind == GLOBAL:
        # the conditions are symmetric in (u, v) and fail on (u, u)
        pairs = itertools.combinations(rows.values(), 2)
    else:
        pairs = ((row, rows[s]) for row in rows.values())
    for (ux, uy, u_off), (vx, vy, v_off) in pairs:
        # differ somewhere in x, somewhere in y, and agree outside x | y
        if ux != vx and uy != vy and u_off == v_off:
            return True
    return False


def recursive_eval_oracle(m, s, f, holds) -> bool:
    """Truth of ``f`` at ``s``, dependency atoms answered by
    ``holds(m, s, kind, x, y)``; every box is re-evaluated at every world it
    is asked about."""
    match f:
        case Top():
            return True
        case Prop(name):
            return m.valuation[s][name] == 1
        case Not(g):
            return not recursive_eval_oracle(m, s, g, holds)
        case And(l, r):
            return (recursive_eval_oracle(m, s, l, holds)
                    and recursive_eval_oracle(m, s, r, holds))
        case Know(g):
            return all(recursive_eval_oracle(m, t, g, holds)
                       for t in _cell(m.epistemic_partition, s))
        case All(g):
            return all(recursive_eval_oracle(m, t, g, holds)
                       for t in _cell(m.nomic_partition, s))
        case DepG(x, y):
            return holds(m, s, GLOBAL, x, y)
        case DepL(x, y):
            return holds(m, s, LOCAL, x, y)
    raise TypeError(f"not a formula: {f!r}")


def collect_dep_atoms(f: Formula) -> set[tuple[str, VarSet, VarSet]]:
    """All dependency atoms occurring in ``f`` as (kind, left, right) triples,
    by a walk of the tree apart from any evaluation; the soundness suite finds
    them in its world-set pass instead."""
    out: set[tuple[str, VarSet, VarSet]] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        t = type(g)
        if t is And:
            stack.append(g.left)
            stack.append(g.right)
        elif t is Not or t is Know or t is All:
            stack.append(g.operand)
        elif t is DepG:
            out.add((GLOBAL, g.left, g.right))
        elif t is DepL:
            out.add((LOCAL, g.left, g.right))
    return out


def soundness_oracle(params, trials: int) -> SoundnessReport:
    """``harness.soundness_suite`` as a loop over worlds: each instance is
    checked with ``recursive_eval_oracle`` by the direct route, and both
    routes are asked for every atom at every world."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    t0 = time.perf_counter()
    report = SoundnessReport(trials=trials, schema_count=len(schema_names()),
                             atoms_checked=0)
    for i in range(trials):
        seed = params.seed + i
        m = random_model(replace(params, seed=seed))
        rng = random.Random(seed ^ 0x9E3779B9)
        atoms: set[tuple[str, VarSet, VarSet]] = set()
        for inst in draw_instances(rng, m):
            f = instantiate(inst)
            atoms |= collect_dep_atoms(f)
            bad = next((s for s in m.worlds if not recursive_eval_oracle(
                m, s, f, semantics.dep_holds_direct)), None)
            if bad is not None:
                report.counterexamples.append(
                    Counterexample(seed, inst.label(), render_formula(f), bad))
        for kind, x, y in sorted(atoms, key=lambda a: (a[0], sorted(a[1]), sorted(a[2]))):
            for s in m.worlds:
                report.atoms_checked += 1
                direct = semantics.dep_holds_direct(m, s, kind, x, y)
                routed = dependency.dep_holds_by_evidence(m, s, kind, x, y)
                if direct != routed:
                    atom_text = render_formula(dep_atom(kind, x, y))
                    report.counterexamples.append(
                        Counterexample(seed, ROUTE_CHECK,
                                       f"{atom_text} direct={direct} evidence={routed}",
                                       s))
    report.elapsed = time.perf_counter() - t0
    return report


# The formula syntax without the syntax module's connective tables: a
# tokenizer that scans character by character, a recursive-descent parser with
# one method per precedence level, and three mutually recursive render
# functions.

_PUNCT = {"(": "LPAREN", ")": "RPAREN", "{": "LBRACE", "}": "RBRACE",
          ";": "SEMI", ",": "COMMA", "&": "AND", "|": "OR", "!": "NOT"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text.startswith("->", i):
            tokens.append(("ARROW", "->", i))
            i += 2
        elif c in _PUNCT:
            tokens.append((_PUNCT[c], c, i))
            i += 1
        elif ident := IDENT_RE.match(text, i):
            tokens.append(("IDENT", ident[0], i))
            i = ident.end()
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("EOF", "", n))
    return tokens


class _DescentParser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            found = "end of input" if tok[0] == "EOF" else repr(tok[1])
            raise ParseError(f"expected {what}, found {found}", tok[2])
        return self.next()

    def done(self) -> None:
        tok = self.peek()
        if tok[0] != "EOF":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])

    # formula := impl ; impl := or ("->" impl)?
    def formula(self) -> Formula:
        left = self.disjunction()
        if self.peek()[0] == "ARROW":
            self.next()
            return implies(left, self.formula())
        return left

    def disjunction(self) -> Formula:
        out = self.conjunction()
        while self.peek()[0] == "OR":
            self.next()
            out = disj(out, self.conjunction())
        return out

    def conjunction(self) -> Formula:
        out = self.unary()
        while self.peek()[0] == "AND":
            self.next()
            out = And(out, self.unary())
        return out

    def unary(self) -> Formula:
        kind, text, _ = self.peek()
        if kind == "NOT":
            self.next()
            return Not(self.unary())
        if kind == "IDENT" and text == "K":
            self.next()
            return Know(self.unary())
        if kind == "IDENT" and text == "A":
            self.next()
            return All(self.unary())
        return self.atom()

    def atom(self) -> Formula:
        kind, text, pos = self.peek()
        if kind == "LPAREN":
            self.next()
            inner = self.formula()
            self.expect("RPAREN", "')'")
            return inner
        if kind == "IDENT":
            if text == "top":
                self.next()
                return TOP
            if text == "bot":
                self.next()
                return BOT
            if text in ("Dg", "Dl"):
                self.next()
                self.expect("LPAREN", "'('")
                x = self.varset()
                self.expect("SEMI", "';'")
                y = self.varset()
                self.expect("RPAREN", "')'")
                return DepG(x, y) if text == "Dg" else DepL(x, y)
            if text in RESERVED:
                raise ParseError(f"reserved word {text!r} cannot be used here", pos)
            self.next()
            return Prop(text)
        found = "end of input" if kind == "EOF" else repr(text)
        raise ParseError(f"expected a formula, found {found}", pos)

    def varset(self) -> VarSet:
        kind, text, pos = self.peek()
        if kind == "IDENT":
            self.ident("variable name")
            return frozenset({text})
        self.expect("LBRACE", "'{' or a variable name")
        names: set[str] = set()
        if self.peek()[0] == "RBRACE":
            self.next()
            return frozenset()
        while True:
            _, name, npos = self.ident("variable name")
            if name in names:
                raise ParseError(f"duplicate variable {name!r} in set", npos)
            names.add(name)
            kind, _, _ = self.peek()
            if kind == "COMMA":
                self.next()
                continue
            self.expect("RBRACE", "'}' or ','")
            return frozenset(names)

    def ident(self, what: str) -> tuple[str, str, int]:
        tok = self.expect("IDENT", what)
        if tok[1] in RESERVED:
            raise ParseError(f"reserved word {tok[1]!r} cannot be used as {what}", tok[2])
        return tok


def descent_parse_oracle(text: str, start: str = "formula"):
    """``parse_formula`` (or, with ``start="varset"``, ``parse_varset``) by
    recursive descent."""
    p = _DescentParser(text)
    if start == "varset":
        out = p.varset()
    else:
        try:
            out = p.formula()
        except RecursionError:
            raise ParseError("formula nested too deeply", p.peek()[2]) from None
    p.done()
    return out


def render_oracle(f: Formula) -> str:
    """``render_formula`` by three mutually recursive functions."""
    return _render_chain(f)


def _render_chain(f: Formula) -> str:
    if isinstance(f, And):
        return _render_chain(f.left) + " & " + _render_unary(f.right)
    return _render_unary(f)


def _render_unary(f: Formula) -> str:
    match f:
        case Not(g):
            return "!" + _render_unary(g)
        case Know(g):
            return "K " + _render_unary(g)
        case All(g):
            return "A " + _render_unary(g)
        case _:
            return _render_atom(f)


def _render_atom(f: Formula) -> str:
    match f:
        case Top():
            return "top"
        case Prop(name):
            return name
        case DepG(x, y):
            return f"Dg({render_varset(x)};{render_varset(y)})"
        case DepL(x, y):
            return f"Dl({render_varset(x)};{render_varset(y)})"
        case _:
            return "(" + _render_chain(f) + ")"
