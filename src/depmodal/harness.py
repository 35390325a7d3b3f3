"""Random model generation and the semantic soundness suite.

The suite generates seeded models, instantiates every axiom schema with
randomly drawn component formulas and variable sets, and checks each instance
for validity on the generated model.  It also cross-checks the two dependency
evaluation routes on every dependency atom occurring in the drawn instances,
so a corrupted evaluator surfaces as counterexamples even when it happens to
leave every schema valid.  Counterexamples carry their reproduction seed.

Each schema is stated once, in the table ``_SCHEMAS``, which gives its group,
what it draws and how its formula is built.  A box schema is instantiated
for K and for A over random formulas; a dependency schema for both kinds,
and a fixed schema once, over random variable sets.  A trial draws its
instances from one seeded generator in table order (the box schemas for K,
then for A; the dependency schemas for each kind in turn; then the fixed
ones), and the tests pin what each seed draws: the acceptance criteria and
the axioms benchmark re-run these instances, so a reordered draw would
silently change what they check.

Each trial is one bottom-up pass over its instances on int bitmasks of
worlds: each distinct node is evaluated once, so a subtree shared by both
sides of a biconditional costs one visit, and the pass finds the dependency
atoms in the same walk.  An atom's answer depends only on its anchor
(``KripkeModel._anchor``), so the pass asks each route once per atom and
anchor and sets the answer at every world of the anchor; validity and route
agreement are then read off the masks.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace

from . import dependency, semantics
from .model import KripkeModel
from .syntax import (BOT, GLOBAL, KINDS, LOCAL, TOP, All, And, DepG, DepL,
                     Formula, Know, Not, Prop, Top, VarSet, dep_atom, disj,
                     disj_all, iff, implies, mutual_dependence, proper_subsets,
                     render_formula, render_varset)


@dataclass(frozen=True)
class GenParams:
    """Shape of generated models.  Generation is deterministic given ``seed``;
    partition shapes, values and valuations all derive from it."""

    min_worlds: int = 1
    max_worlds: int = 8
    num_props: int = 2
    num_named: int = 4
    num_hidden: int = 1
    max_value: int = 3      # values are drawn from range(max_value)
    seed: int = 0

    def __post_init__(self):
        if self.min_worlds < 1:
            raise ValueError("min_worlds must be >= 1 (a model needs a world)")
        if self.max_worlds < self.min_worlds:
            raise ValueError("max_worlds must be >= min_worlds")
        if self.num_props < 0 or self.num_named < 0 or self.num_hidden < 0:
            raise ValueError("counts must be >= 0")
        if self.max_value < 1:
            raise ValueError("max_value must be >= 1")


def _random_partition(rng: random.Random, worlds: list[str]) -> list[list[str]]:
    ws = list(worlds)
    rng.shuffle(ws)
    k = rng.randint(1, len(ws))
    buckets: list[list[str]] = [[] for _ in range(k)]
    for w in ws:
        buckets[rng.randrange(k)].append(w)
    return [b for b in buckets if b]


def random_model(params: GenParams) -> KripkeModel:
    """A valid model drawn deterministically from the seed."""
    rng = random.Random(params.seed)
    n = rng.randint(params.min_worlds, params.max_worlds)
    worlds = [f"w{i + 1}" for i in range(n)]
    props = [f"p{i + 1}" for i in range(params.num_props)]
    named = [f"x{i + 1}" for i in range(params.num_named)]
    hidden = [f"h{i + 1}" for i in range(params.num_hidden)]
    pvs = [{p: rng.randint(0, 1) for p in props} for _ in worlds]
    avs = [{x: rng.randrange(params.max_value) for x in named + hidden} for _ in worlds]
    return KripkeModel({
        "propositions": props,
        "variables": ([{"name": x, "hidden": False} for x in named]
                      + [{"name": h, "hidden": True} for h in hidden]),
        "worlds": [{"id": w, "props": pv, "vals": av}
                   for w, pv, av in zip(worlds, pvs, avs)],
        "epistemic_partition": _random_partition(rng, worlds),
        "nomic_partition": _random_partition(rng, worlds),
    })


#: largest variable set the generators draw; it keeps the cover schema's
#: doubly exponential disjunction tractable
_MAX_VARSET = 3


def random_varset(rng: random.Random, names: list[str],
                  allow_empty: bool = False) -> VarSet:
    lo = 0 if allow_empty else 1
    size = rng.randint(lo, min(_MAX_VARSET, len(names)))
    return frozenset(rng.sample(names, size))


def random_formula(rng: random.Random, m: KripkeModel, depth: int = 2) -> Formula:
    """A random formula over the model's declared names."""
    named = sorted(m.named_variables)
    leaves = [Top]
    if m.propositions:
        leaves.append(Prop)
    if named:
        leaves.extend([DepG, DepL])
    if depth == 0 or rng.random() < 0.4:
        leaf = rng.choice(leaves)
        if leaf is Top:
            return TOP
        if leaf is Prop:
            return Prop(rng.choice(sorted(m.propositions)))
        return leaf(random_varset(rng, named), random_varset(rng, named))
    node = rng.choice((Not, And, Know, All))
    if node is And:
        return And(random_formula(rng, m, depth - 1),
                   random_formula(rng, m, depth - 1))
    return node(random_formula(rng, m, depth - 1))


# ---------------------------------------------------------------------------
# Axiom schemas
# ---------------------------------------------------------------------------

def _cover(kind: str, x: VarSet, y: VarSet) -> Formula:
    if not x or not y:
        raise ValueError("cover schema needs nonempty argument sets")
    blocks = sorted({xp | yp
                     for xp in (*proper_subsets(x), x)
                     for yp in (*proper_subsets(y), y)},
                    key=lambda s: (len(s), sorted(s)))
    return iff(dep_atom(kind, x, y),
               disj_all(mutual_dependence(kind, w) for w in blocks))


def _empty_chain(kind: str, x: VarSet) -> Formula:
    empty: VarSet = frozenset()
    return And(iff(dep_atom(kind, empty, x), dep_atom(kind, x, empty)),
               iff(dep_atom(kind, x, empty), BOT))


def _weakening(kind: str, x: VarSet, x_wide: VarSet, y: VarSet) -> Formula:
    if not x <= x_wide:
        raise ValueError("weakening schema needs the first set inside the second")
    return implies(dep_atom(kind, x, y), dep_atom(kind, x_wide, y))


def _separation(kind: str, x: VarSet, y: VarSet) -> Formula:
    return iff(dep_atom(kind, x, y),
               disj(dep_atom(kind, x - y, y), dep_atom(kind, x & y, y)))


#: name: (group, draws, build), in suite order.  ``draws`` names the
#: components in draw order: "f" a random formula, "s" a nonempty variable
#: set, "e" a possibly empty one, "w" the previous set joined with a possibly
#: empty one.  ``build`` takes the box (box group), the kind (dep group) or
#: None (fixed group), then the components.
_SCHEMAS = {
    "dist": ("box", "ff",
             lambda box, f, g: implies(box(implies(f, g)), implies(box(f), box(g)))),
    "t": ("box", "f", lambda box, f: implies(box(f), f)),
    "4": ("box", "f", lambda box, f: implies(box(f), box(box(f)))),
    "5": ("box", "f", lambda box, f: implies(Not(box(f)), box(Not(box(f))))),
    "cover": ("dep", "ss", _cover),
    "empty_chain": ("dep", "e", _empty_chain),
    "empty_set": ("dep", "e", lambda kind, x: iff(dep_atom(kind, frozenset(), x), BOT)),
    "symmetry": ("dep", "ss",
                 lambda kind, x, y: iff(dep_atom(kind, x, y), dep_atom(kind, y, x))),
    "weakening": ("dep", "sws", _weakening),
    "separation": ("dep", "ss", _separation),
    "global_stability": ("fixed", "ss",
                         lambda _, x, y: implies(DepG(x, y), All(DepG(x, y)))),
    "duality": ("fixed", "ss",
                lambda _, x, y: iff(DepG(x, y), Not(All(Not(DepL(x, y)))))),
}
_BOXES = {"k": Know, "a": All}


def _group(group: str) -> list[tuple[str, str]]:
    """The names and draws of the group's schemas, in table order."""
    return [(name, draws) for name, (g, draws, _) in _SCHEMAS.items() if g == group]


def schema_names() -> list[str]:
    """Every schema identifier the suite instantiates."""
    names = [f"{box}_{s}" for box in _BOXES for s, _ in _group("box")]
    names += [f"{s}_{kind[0]}" for s, _ in _group("dep") for kind in KINDS]
    return names + [s for s, _ in _group("fixed")]


@dataclass(frozen=True)
class SchemaInstance:
    """One concrete instantiation of an axiom schema."""

    schema: str
    kind: str | None = None
    formulas: tuple[Formula, ...] = ()
    varsets: tuple[VarSet, ...] = ()

    def label(self) -> str:
        base = self.schema if self.kind is None else f"{self.schema}[{self.kind}]"
        if self.varsets:
            base += "(" + ";".join(render_varset(v) for v in self.varsets) + ")"
        return base


def instantiate(inst: SchemaInstance) -> Formula:
    """The closed formula for a schema instance; biconditionals and
    implications are desugared into the core connectives.  ``ValueError``
    for an unknown schema, a kind its group does not take, or components
    that do not match its draws."""
    prefix, _, rest = inst.schema.partition("_")
    box = _BOXES.get(prefix)
    entry = _SCHEMAS.get(rest if box else inst.schema)
    if entry is None or (entry[0] == "box") != (box is not None):
        raise ValueError(f"unknown schema {inst.schema!r}")
    group, draws, build = entry
    if inst.kind not in (KINDS if group == "dep" else (None,)):
        raise ValueError(f"schema {inst.schema!r} does not take kind {inst.kind!r}")
    n = draws.count("f")
    if (len(inst.formulas), len(inst.varsets)) != (n, len(draws) - n):
        raise ValueError(f"schema {inst.schema!r} takes {n} formulas and "
                         f"{len(draws) - n} variable sets")
    return build(box or inst.kind, *inst.formulas, *inst.varsets)


def draw_instances(rng: random.Random, m: KripkeModel) -> list[SchemaInstance]:
    """One instance of every schema, with random components bounded to keep
    the cover schema's doubly exponential disjunction tractable; the
    dependency schemas need a named variable."""
    named = sorted(m.named_variables)

    def draw(draws: str) -> tuple:
        parts: list = []
        for c in draws:
            if c == "f":
                parts.append(random_formula(rng, m))
            elif c == "w":
                parts.append(parts[-1] | random_varset(rng, named, allow_empty=True))
            else:
                parts.append(random_varset(rng, named, allow_empty=c == "e"))
        return tuple(parts)

    out = [SchemaInstance(f"{box}_{s}", formulas=draw(draws))
           for box in _BOXES for s, draws in _group("box")]
    if not named:
        return out
    for kind in KINDS:
        out += [SchemaInstance(s, kind, varsets=draw(draws)) for s, draws in _group("dep")]
    return out + [SchemaInstance(s, varsets=draw(draws)) for s, draws in _group("fixed")]


# ---------------------------------------------------------------------------
# Soundness suite
# ---------------------------------------------------------------------------

ROUTE_CHECK = "route_agreement"


@dataclass(frozen=True)
class Counterexample:
    seed: int
    schema: str
    instance: str
    world: str

    def __str__(self) -> str:
        return (f"seed={self.seed} schema={self.schema} world={self.world} "
                f"formula: {self.instance}")


@dataclass
class SoundnessReport:
    trials: int
    schema_count: int
    atoms_checked: int
    counterexamples: list[Counterexample] = field(default_factory=list)
    elapsed: float = 0.0

    def summary(self) -> str:
        lines = [f"trials={self.trials} schemas={self.schema_count} "
                 f"atoms_checked={self.atoms_checked} "
                 f"counterexamples={len(self.counterexamples)} "
                 f"elapsed={self.elapsed:.1f}s"]
        lines += [str(ce) for ce in self.counterexamples]
        return "\n".join(lines)


def soundness_suite(params: GenParams, trials: int) -> SoundnessReport:
    """Generate ``trials`` seeded models, check every schema instance for
    validity on each, and cross-check the two dependency routes on every atom
    the instances mention.  Counterexamples are report content, not errors.

    Each trial is one bottom-up pass over the instances on world bitmasks
    (``_WorldSets``): each distinct node is evaluated once, and the atoms are
    found in the same walk.  Each route is asked once per atom and anchor,
    at the anchor's first world in model order: the direct route through
    ``semantics.dep_holds_direct``, the evidence route straight from the
    anchor's difference family, which is read once per anchor and serves
    every atom of its kind.  The answer stands for every world of the
    anchor, which is the rule the per-model memo already keys both routes
    by; a replaced direct route whose answer varies inside one anchor is
    read at the anchor's first world only.  Validity is decided with atoms
    read off the direct route, and an invalid instance is reported at its
    first false world in model order.  A disagreement is reported at each
    world where the two routes' world sets differ, in model order."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    t0 = time.perf_counter()
    report = SoundnessReport(trials=trials, schema_count=len(schema_names()),
                             atoms_checked=0)
    for i in range(trials):
        seed = params.seed + i
        m = random_model(replace(params, seed=seed))
        rng = random.Random(seed ^ 0x9E3779B9)
        # ``drawn`` keeps every node alive while the pass keys nodes by id
        drawn = [(inst, instantiate(inst)) for inst in draw_instances(rng, m)]
        sets = _WorldSets(m)
        for inst, f in drawn:
            bad = sets.full ^ sets.mask(f)
            if bad:
                report.counterexamples.append(
                    Counterexample(seed, inst.label(), render_formula(f),
                                   m.worlds[(bad & -bad).bit_length() - 1]))
        for atom in sorted(sets.atoms,
                           key=lambda a: (a[0], sorted(a[1]), sorted(a[2]))):
            report.atoms_checked += len(m.worlds)
            d, r = sets.atoms[atom]
            differ = d ^ r
            if not differ:
                continue
            atom_text = render_formula(dep_atom(*atom))
            for j, s in enumerate(m.worlds):
                if differ >> j & 1:
                    report.counterexamples.append(
                        Counterexample(seed, ROUTE_CHECK,
                                       f"{atom_text} direct={bool(d >> j & 1)} "
                                       f"evidence={bool(r >> j & 1)}", s))
    report.elapsed = time.perf_counter() - t0
    return report


class _WorldSets:
    """World sets of formulas on one model as int bitmasks: bit i stands for
    world i in model order.  ``mask`` evaluates each distinct node once,
    keyed by ``id``, so the caller keeps the formulas alive; the first time
    it meets a dependency atom it asks both routes, once per anchor of the
    atom's kind, and keeps the atom's direct and evidence masks in
    ``atoms``.  Every node is walked, so every atom is asked."""

    def __init__(self, m: KripkeModel):
        self.m = m
        bit = {w: 1 << i for i, w in enumerate(m.worlds)}
        self.full = (1 << len(m.worlds)) - 1
        self.props = {p: sum(bit[w] for w in m.worlds if m.valuation[w][p] == 1)
                      for p in m.propositions}
        self.cells = {Know: [sum(map(bit.__getitem__, c)) for c in m.epistemic_partition],
                      All: [sum(map(bit.__getitem__, c)) for c in m.nomic_partition]}
        # per kind, each anchor's first world, its worlds and its family
        self.anchors: dict = {}
        for kind in KINDS:
            by_anchor: dict = {}
            for s in m.worlds:
                group = by_anchor.setdefault(m._anchor(s, kind), [s, 0])
                group[1] |= bit[s]
            self.anchors[kind] = [(s, ws, dependency.p_family(m, s, kind))
                                  for s, ws in by_anchor.values()]
        self.atoms: dict = {}
        self.seen: dict = {}

    def mask(self, f: Formula) -> int:
        value = self.seen.get(id(f))
        if value is not None:
            return value
        t = type(f)
        if t is And:
            value = self.mask(f.left) & self.mask(f.right)
        elif t is Not:
            value = self.full ^ self.mask(f.operand)
        elif t is DepG or t is DepL:
            atom = (GLOBAL if t is DepG else LOCAL, f.left, f.right)
            routes = self.atoms.get(atom)
            if routes is None:
                routes = self.atoms[atom] = self._ask(*atom)
            value = routes[0]
        elif t is Know or t is All:
            g = self.mask(f.operand)
            value = 0
            for c in self.cells[t]:
                if c & g == c:
                    value |= c
        elif t is Prop:
            value = self.props[f.name]
        elif t is Top:
            value = self.full
        else:
            raise TypeError(f"not a formula: {f!r}")
        self.seen[id(f)] = value
        return value

    def _ask(self, kind: str, x: VarSet, y: VarSet) -> tuple[int, int]:
        """The atom's world sets by the direct and by the evidence route;
        both routes are looked up at call time, so a replaced one is asked."""
        direct = evidence = 0
        for s, ws, fam in self.anchors[kind]:
            if semantics.dep_holds_direct(self.m, s, kind, x, y):
                direct |= ws
            if dependency.atom_holds_from_family(fam, x, y):
                evidence |= ws
        return direct, evidence
