"""Random model generation and the semantic soundness suite.

The suite generates seeded models, instantiates every axiom schema with
randomly drawn component formulas and variable sets, and checks each instance
for validity on the generated model.  It also cross-checks the two dependency
evaluation routes on every dependency atom occurring in the drawn instances,
so a corrupted evaluator surfaces as counterexamples even when it happens to
leave every schema valid.  Counterexamples carry their reproduction seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace

from . import dependency, semantics
from .model import KripkeModel
from .syntax import (BOT, KINDS, LOCAL, TOP, All, And, DepG, Formula, Know,
                     Not, Prop, VarSet, collect_dep_atoms, dep_atom, disj,
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
    valuation = {w: {p: rng.randint(0, 1) for p in props} for w in worlds}
    assignment = {w: {x: rng.randrange(params.max_value) for x in named + hidden}
                  for w in worlds}
    return KripkeModel(
        worlds=worlds,
        propositions=props,
        variables=[(x, False) for x in named] + [(h, True) for h in hidden],
        valuation=valuation,
        assignment=assignment,
        epistemic_partition=_random_partition(rng, worlds),
        nomic_partition=_random_partition(rng, worlds),
    )


def random_varset(rng: random.Random, names: list[str], max_size: int,
                  allow_empty: bool = False) -> VarSet:
    lo = 0 if allow_empty else 1
    size = rng.randint(lo, min(max_size, len(names)))
    return frozenset(rng.sample(names, size))


def random_formula(rng: random.Random, m: KripkeModel, depth: int = 2,
                   max_varset: int = 3) -> Formula:
    """A random formula over the model's declared names."""
    named = sorted(m.named_variables)
    atoms = ["top"]
    if m.propositions:
        atoms.append("prop")
    if named:
        atoms.extend(["depg", "depl"])
    if depth == 0 or rng.random() < 0.4:
        match rng.choice(atoms):
            case "top":
                return TOP
            case "prop":
                return _random_prop(rng, m)
            case "depg":
                return DepG(random_varset(rng, named, max_varset),
                            random_varset(rng, named, max_varset))
            case _:
                return dep_atom(LOCAL, random_varset(rng, named, max_varset),
                                random_varset(rng, named, max_varset))
    match rng.choice(["not", "and", "know", "all"]):
        case "not":
            return Not(random_formula(rng, m, depth - 1, max_varset))
        case "and":
            return And(random_formula(rng, m, depth - 1, max_varset),
                       random_formula(rng, m, depth - 1, max_varset))
        case "know":
            return Know(random_formula(rng, m, depth - 1, max_varset))
        case _:
            return All(random_formula(rng, m, depth - 1, max_varset))


def _random_prop(rng: random.Random, m: KripkeModel) -> Formula:
    return Prop(rng.choice(sorted(m.propositions)))


# ---------------------------------------------------------------------------
# Axiom schemas
# ---------------------------------------------------------------------------

#: formula-parameterized schemas for the two boxes
BOX_SCHEMAS = ("dist", "t", "4", "5")
#: variable-set-parameterized schemas; instantiated for both dependency kinds
DEP_SCHEMAS = ("cover", "empty_chain", "empty_set", "symmetry",
               "weakening", "separation")
#: schemas with a fixed shape
FIXED_SCHEMAS = ("global_stability", "duality")


def schema_names() -> list[str]:
    """Every schema identifier the suite instantiates."""
    names = [f"{box}_{s}" for box in ("k", "a") for s in BOX_SCHEMAS]
    names += [f"{s}_{kind[0]}" for s in DEP_SCHEMAS for kind in KINDS]
    names += list(FIXED_SCHEMAS)
    return names


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


def _box(kind: str):
    return Know if kind == "k" else All


def instantiate(inst: SchemaInstance) -> Formula:
    """The closed formula for a schema instance; biconditionals and
    implications are desugared into the core connectives."""
    name = inst.schema
    if name in ("k_dist", "a_dist"):
        box = _box(name[0])
        f, g = inst.formulas
        return implies(box(implies(f, g)), implies(box(f), box(g)))
    if name in ("k_t", "a_t"):
        box = _box(name[0])
        (f,) = inst.formulas
        return implies(box(f), f)
    if name in ("k_4", "a_4"):
        box = _box(name[0])
        (f,) = inst.formulas
        return implies(box(f), box(box(f)))
    if name in ("k_5", "a_5"):
        box = _box(name[0])
        (f,) = inst.formulas
        return implies(Not(box(f)), box(Not(box(f))))

    kind = inst.kind
    if name == "cover":
        x, y = inst.varsets
        if not x or not y:
            raise ValueError("cover schema needs nonempty argument sets")
        blocks = sorted({xp | yp
                         for xp in (*proper_subsets(x), x)
                         for yp in (*proper_subsets(y), y)},
                        key=lambda s: (len(s), sorted(s)))
        return iff(dep_atom(kind, x, y),
                   disj_all(mutual_dependence(kind, w) for w in blocks))
    if name == "empty_chain":
        (x,) = inst.varsets
        empty: VarSet = frozenset()
        return And(iff(dep_atom(kind, empty, x), dep_atom(kind, x, empty)),
                   iff(dep_atom(kind, x, empty), BOT))
    if name == "empty_set":
        (x,) = inst.varsets
        return iff(dep_atom(kind, frozenset(), x), BOT)
    if name == "symmetry":
        x, y = inst.varsets
        return iff(dep_atom(kind, x, y), dep_atom(kind, y, x))
    if name == "weakening":
        x, x_wide, y = inst.varsets
        if not x <= x_wide:
            raise ValueError("weakening schema needs the first set inside the second")
        return implies(dep_atom(kind, x, y), dep_atom(kind, x_wide, y))
    if name == "separation":
        x, y = inst.varsets
        return iff(dep_atom(kind, x, y),
                   disj(dep_atom(kind, x - y, y), dep_atom(kind, x & y, y)))
    if name == "global_stability":
        x, y = inst.varsets
        return implies(DepG(x, y), All(DepG(x, y)))
    if name == "duality":
        x, y = inst.varsets
        return iff(DepG(x, y), Not(All(Not(dep_atom(LOCAL, x, y)))))
    raise ValueError(f"unknown schema {name!r}")


def draw_instances(rng: random.Random, m: KripkeModel,
                   max_varset: int = 3) -> list[SchemaInstance]:
    """One instance of every schema, with random components bounded to keep
    the cover schema's doubly exponential disjunction tractable."""
    named = sorted(m.named_variables)
    out: list[SchemaInstance] = []
    for box in ("k", "a"):
        for s in BOX_SCHEMAS:
            arity = 2 if s == "dist" else 1
            out.append(SchemaInstance(
                schema=f"{box}_{s}",
                formulas=tuple(random_formula(rng, m) for _ in range(arity))))

    if not named:
        return out

    def vs(allow_empty=False):
        return random_varset(rng, named, max_varset, allow_empty)

    for kind in KINDS:
        x, y = vs(), vs()
        out.append(SchemaInstance("cover", kind, varsets=(x, y)))
        out.append(SchemaInstance("empty_chain", kind, varsets=(vs(allow_empty=True),)))
        out.append(SchemaInstance("empty_set", kind, varsets=(vs(allow_empty=True),)))
        out.append(SchemaInstance("symmetry", kind, varsets=(vs(), vs())))
        x = vs()
        wide = x | vs(allow_empty=True)
        out.append(SchemaInstance("weakening", kind, varsets=(x, wide, vs())))
        out.append(SchemaInstance("separation", kind, varsets=(vs(), vs())))
    out.append(SchemaInstance("global_stability", varsets=(vs(), vs())))
    out.append(SchemaInstance("duality", varsets=(vs(), vs())))
    return out


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

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def summary(self) -> str:
        lines = [f"trials={self.trials} schemas={self.schema_count} "
                 f"atoms_checked={self.atoms_checked} "
                 f"counterexamples={len(self.counterexamples)} "
                 f"elapsed={self.elapsed:.1f}s"]
        lines += [str(ce) for ce in self.counterexamples]
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "schema_count": self.schema_count,
            "atoms_checked": self.atoms_checked,
            "elapsed": self.elapsed,
            "counterexamples": [{"seed": ce.seed, "schema": ce.schema,
                                 "instance": ce.instance, "world": ce.world}
                                for ce in self.counterexamples],
        }


def soundness_suite(params: GenParams, trials: int) -> SoundnessReport:
    """Generate ``trials`` seeded models, check every schema instance for
    validity on each, and cross-check the two dependency routes on every atom
    the instances mention.  Counterexamples are report content, not errors."""
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
            ext = semantics.extension(m, f)
            bad = next((s for s in m.worlds if s not in ext), None)
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
