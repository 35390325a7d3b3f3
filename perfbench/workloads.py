"""Seeded inputs for the three workloads, each op paired with its known answer.

An op is one ``depmodal`` command line plus the known answer ``verify``
compares its output with.  Known answers come from the reference evaluator
(``reference.py``), from the construction of the inputs, or from the
soundness theorem, never from the code under test.

Structural sizes (world counts, cell sizes, replication factors, formula
depths) cycle through fixed grids; the seed draws everything else (cell
membership, values, valuations, variable sets, connectives).  Two seeds thus
give different inputs of the same shape, which keeps the figures of a run
comparable across seeds.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import random
import sys
from dataclasses import asdict, dataclass

import reference as ref


@dataclass(frozen=True)
class Op:
    """``label`` is the command; ``expect`` is the known answer: the truth
    value for ``check``, the satisfying worlds for ``extension``, the verdict
    for ``bisim``, and None where the answer is fixed (``axioms``,
    ``examples``)."""

    label: str
    argv: tuple[str, ...]
    expect: object = None


def _write(workdir: str, name: str, doc: object) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _chunks(rng: random.Random, items: list, lo: int, hi: int) -> list[list]:
    """Shuffle ``items`` and cut them into runs of ``lo``..``hi``; a short
    tail joins the previous run."""
    items = list(items)
    rng.shuffle(items)
    out: list[list] = []
    i = 0
    while i < len(items):
        k = rng.randint(lo, hi)
        out.append(items[i:i + k])
        i += k
    if len(out) > 1 and len(out[-1]) < lo:
        out[-2].extend(out.pop())
    return out


# -- axioms ---------------------------------------------------------------------

AXIOM_TRIALS = 10
AXIOM_OPS = 2000
#: schema identifiers the suite instantiates in every trial
AXIOM_SCHEMAS = 22


def axioms_ops(seed: int) -> list[Op]:
    """``axioms --trials 10`` with the suite seed advancing by 10 per op, so
    consecutive ops draw disjoint trial seeds.  Known answer: the schemas are
    sound, so there is no counterexample; ``verify`` also recounts the work
    the suite reports."""
    base = seed * 1_000_003
    return [Op("axioms", ("axioms", "--trials", str(AXIOM_TRIALS),
                          "--seed", str(base + AXIOM_TRIALS * i), "--json"))
            for i in range(AXIOM_OPS)]


#: the suite's seed for drawing a trial's instances is the trial seed XOR this
AXIOM_INSTANCE_SALT = 0x9E3779B9


def axiom_trial(seed: int) -> tuple:
    """The model and the instantiated schema formulas of the suite's trial
    ``seed``, drawn with the suite's own generators.  That is input
    generation: no verdict of the program enters here."""
    from depmodal import harness
    m = harness.random_model(harness.GenParams(seed=seed))
    rng = random.Random(seed ^ AXIOM_INSTANCE_SALT)
    return m, [harness.instantiate(inst) for inst in harness.draw_instances(rng, m)]


def dep_atom_nodes(formulas: list) -> set:
    """The distinct dependency atoms (``DepG``/``DepL`` nodes) in the
    program's formula trees, found by walking their dataclass fields."""
    atoms, seen, stack = set(), set(), list(formulas)
    while stack:
        g = stack.pop()
        if id(g) in seen:
            continue
        seen.add(id(g))
        if type(g).__name__ in ("DepG", "DepL"):
            atoms.add(g)
        elif dataclasses.is_dataclass(g):
            stack.extend(v for v in (getattr(g, fl.name) for fl in dataclasses.fields(g))
                         if dataclasses.is_dataclass(v))
    return atoms


# -- check ----------------------------------------------------------------------

CHECK_WORLDS = (24, 32, 40, 48, 56, 64)
#: (nomic, epistemic) cell sizes; a model's cells all have one size, apart
#: from a remainder that joins the last cell
CHECK_CELLS = ((12, 6), (16, 8), (20, 10), (24, 12))
CHECK_MODELS = 48
CHECK_OPS_PER_MODEL = 32
CHECK_NAMED = tuple(f"x{i}" for i in range(1, 7))
CHECK_PROPS = ("p1", "p2")


def check_model_doc(rng: random.Random, n: int, nomic_size: int,
                    epistemic_size: int) -> dict:
    """``n`` worlds in nomic and epistemic cells of the given sizes, 6 named
    and 1 hidden variable over range(3), 2 propositions.  Worlds of a nomic
    cell perturb a shared value vector in 0-3 named variables, so many pairs
    agree outside small variable sets and dependency atoms are mixed."""
    worlds = [f"w{i}" for i in range(n)]
    nomic = _chunks(rng, worlds, nomic_size, nomic_size)
    epistemic = _chunks(rng, worlds, epistemic_size, epistemic_size)
    entries = {}
    for cell in nomic:
        base = {x: rng.randrange(3) for x in CHECK_NAMED + ("h1",)}
        for w in cell:
            vals = dict(base)
            for x in rng.sample(CHECK_NAMED, rng.choice((0, 1, 1, 2, 2, 3))):
                vals[x] = rng.randrange(3)
            if rng.random() < 0.1:
                vals["h1"] = rng.randrange(3)
            entries[w] = {"id": w,
                          "props": {p: rng.randint(0, 1) for p in CHECK_PROPS},
                          "vals": vals}
    return {"propositions": list(CHECK_PROPS),
            "variables": ([{"name": x, "hidden": False} for x in CHECK_NAMED]
                          + [{"name": "h1", "hidden": True}]),
            "worlds": [entries[w] for w in worlds],
            "epistemic_partition": epistemic,
            "nomic_partition": nomic}


def _literal(rng: random.Random) -> tuple:
    if rng.random() < 0.2:
        atom = ("prop", rng.choice(CHECK_PROPS))
    else:
        atom = (rng.choice(("Dg", "Dl")),
                frozenset(rng.sample(CHECK_NAMED, rng.randint(1, 3))),
                frozenset(rng.sample(CHECK_NAMED, rng.randint(1, 3))))
    return ("not", atom) if rng.random() < 0.3 else atom


def _fold(op: str, parts: list[tuple]) -> tuple:
    out = parts[0]
    for p in parts[1:]:
        out = (op, out, p)
    return out


def check_formula(rng: random.Random, depth: int, shape: int) -> tuple:
    """Modal depth exactly ``depth``: a K or A box over the next level,
    joined with a literal by & or |; the innermost level joins 2 or 3
    literals.  The bits of ``shape`` pick the boxes, the connectives and the
    literal count; ``rng`` picks atoms and negations."""
    op = ("and", "or")[shape & 1]
    if depth == 0:
        return _fold(op, [_literal(rng) for _ in range(2 + (shape >> 1 & 1))])
    boxed = ("KA"[shape >> 1 & 1], check_formula(rng, depth - 1, shape >> 2))
    if rng.random() < 0.3:
        boxed = ("not", boxed)
    parts = [boxed, _literal(rng)]
    rng.shuffle(parts)
    return _fold(op, parts)


#: bands of estimated cost (see ``short_circuit_cost``) that extension ops
#: alternate between, and the cap for a check op at its world; one unit took
#: about 30 us of op time with the recursive evaluator on a 2-vCPU Xeon
EXTENSION_COST_BANDS = ((100, 400), (400, 1600))
CHECK_COST_MAX = 1600


def short_circuit_cost(model: ref.RefModel, f: tuple) -> dict[str, float]:
    """Expected atom evaluations per world of a recursive evaluator that
    short-circuits & and | left to right and visits a box's cell in random
    order until the operand fails.  A property of the formula and the model,
    used to draw every run's ops from the same cost mix."""
    memo: dict[tuple, dict[str, float]] = {}

    def cost(g: tuple) -> dict[str, float]:
        out = memo.get(g)
        if out is not None:
            return out
        tag = g[0]
        if tag == "not":
            out = cost(g[1])
        elif tag in ("and", "or"):
            left, right = cost(g[1]), cost(g[2])
            ext = model.extension(g[1])
            go_on = tag == "and"
            out = {s: left[s] + (right[s] if (s in ext) == go_on else 0.0)
                   for s in model.worlds}
        elif tag in ("K", "A"):
            inner, ext = cost(g[1]), model.extension(g[1])
            out = {}
            for cell in model.epistemic if tag == "K" else model.nomic:
                total = sum(inner[t] for t in cell)
                misses = sum(1 for t in cell if t not in ext)
                # mean position of the first of `misses` failures in the cell
                visited = total if not misses else \
                    total / len(cell) * (len(cell) + 1) / (misses + 1)
                out.update(dict.fromkeys(cell, visited))
        else:
            out = dict.fromkeys(model.worlds, 1.0)
        memo[g] = out
        return out

    return cost(f)


def _draw(rng: random.Random, shapes: itertools.count, depth: int, fits) -> tuple:
    """The first formula of ``depth`` whose cost ``fits``; shapes cycle
    across draws so every shape can be tried."""
    for _ in range(2000):
        f = check_formula(rng, depth, next(shapes))
        if fits(f):
            return f
    raise RuntimeError(f"no depth-{depth} formula fits its cost band")


def check_ops(seed: int, workdir: str, fixtures: list[str]) -> list[Op]:
    """About 3/4 ``check`` and 1/4 ``extension`` ops over generated models,
    interleaved model by model, plus one ``examples`` op per named fixture
    per pass.  Extension formulas have depth 2 and alternate between the cost
    bands; check formulas have depth 2 or 3 and a capped cost at their world."""
    rng = random.Random(seed)
    shapes = itertools.count()
    per_model: list[list[Op]] = []
    bands = itertools.cycle(EXTENSION_COST_BANDS)
    for k in range(CHECK_MODELS):
        doc = check_model_doc(rng, CHECK_WORLDS[k % len(CHECK_WORLDS)],
                              *CHECK_CELLS[k % len(CHECK_CELLS)])
        path = _write(workdir, f"check_{k}.json", doc)
        model = ref.RefModel(doc)
        worlds = [w["id"] for w in doc["worlds"]]
        ops = []
        for i in range(CHECK_OPS_PER_MODEL):
            if i % 4 == 3:
                lo, hi = next(bands)
                f = _draw(rng, shapes, 2, lambda f: lo <= sum(
                    short_circuit_cost(model, f).values()) < hi)
                ops.append(Op("extension", ("extension", path, ref.render(f), "--json"),
                              sorted(model.extension(f))))
            else:
                w = rng.choice(worlds)
                f = _draw(rng, shapes, 2 + i % 2,
                          lambda f: short_circuit_cost(model, f)[w] < CHECK_COST_MAX)
                ops.append(Op("check", ("check", path, w, ref.render(f), "--json"),
                              model.holds(w, f)))
        per_model.append(ops)
    out = [ops[i] for i in range(CHECK_OPS_PER_MODEL) for ops in per_model]
    stride = len(out) // len(fixtures)
    for j, name in enumerate(fixtures):
        out.insert(j * (stride + 1), Op("examples", ("examples", name, "--json")))
    return out


# -- bisim ----------------------------------------------------------------------

#: (base worlds, named variables, replication factors, base cell sizes) per
#: population; the symmetric population stresses pair-deletion transfers on
#: large replicated cells, the wide one the generative families of cells
#: where many variables vary
BISIM_POPULATIONS = {
    "symmetric": ((6, 7, 8, 9, 10), (2, 3), (4, 5, 6, 7, 8), (1, 4)),
    "wide": ((12, 14, 16, 18, 20), (6, 7), (1, 2), (2, 5)),
}
BISIM_PAIRS_PER_POPULATION = 200
BISIM_SELFTEST_FORMULAS = 6


def base_model_doc(rng: random.Random, n: int, n_named: int,
                   cells: tuple[int, int]) -> dict:
    """A random base model: cells of ``cells[0]``-``cells[1]`` worlds, one
    proposition, ``n_named`` named and one hidden variable over range(3)."""
    worlds = [f"b{i}" for i in range(n)]
    named = [f"x{i}" for i in range(1, n_named + 1)]
    entries = []
    for w in worlds:
        vals = {x: rng.randrange(3) for x in named}
        vals["h1"] = 0 if rng.random() < 0.85 else 1
        entries.append({"id": w, "props": {"p1": rng.randint(0, 1)}, "vals": vals})
    return {"propositions": ["p1"],
            "variables": ([{"name": x, "hidden": False} for x in named]
                          + [{"name": "h1", "hidden": True}]),
            "worlds": entries,
            "epistemic_partition": _chunks(rng, worlds, *cells),
            "nomic_partition": _chunks(rng, worlds, *cells)}


def replicate(base: dict, r: int, q_worlds: set[str] | None = None) -> dict:
    """R(base, r): copy j of world w is ``w_j`` with w's valuation and values;
    each cell is the union of the copies of one base cell.  The projection to
    the base is a bisimulation, so any two replications of one base are
    bisimilar at corresponding worlds.  With ``q_worlds`` given, a proposition
    ``q`` is declared and is true exactly at those worlds."""
    props = list(base["propositions"])
    if q_worlds is not None:
        props.append("q")
    worlds = []
    for entry in base["worlds"]:
        for j in range(r):
            wid = f"{entry['id']}_{j}"
            pv = dict(entry["props"])
            if q_worlds is not None:
                pv["q"] = int(wid in q_worlds)
            worlds.append({"id": wid, "props": pv, "vals": dict(entry["vals"])})

    def lift(cells):
        return [[f"{w}_{j}" for w in cell for j in range(r)] for cell in cells]

    return {"propositions": props,
            "variables": base["variables"],
            "worlds": worlds,
            "epistemic_partition": lift(base["epistemic_partition"]),
            "nomic_partition": lift(base["nomic_partition"])}


#: marks a pair as non-bisimilar: true at M2's point (which sees the marked
#: sibling copy) and false at M1's point (q is false everywhere in M1)
SEPARATOR = ("not", ("K", ("not", ("prop", "q"))))


def bisim_pair(rng: random.Random, population: str, i: int, marked: bool):
    """(M1, point1, M2, point2) with a known verdict: bisimilar unless
    ``marked``, in which case M2 marks a sibling copy of its point with q.
    ``i`` picks the sizes from the population's grids."""
    sizes, nameds, factors, cells = BISIM_POPULATIONS[population]
    base = base_model_doc(rng, sizes[i % len(sizes)],
                          nameds[i % len(nameds)], cells)
    r1 = factors[i // len(sizes) % len(factors)]
    r2 = factors[(i // len(sizes) + 1) % len(factors)]
    if marked:
        r2 = max(r2, 2)
    w = rng.choice(base["worlds"])["id"]
    j1, j2 = rng.randrange(r1), rng.randrange(r2)
    p1, p2 = f"{w}_{j1}", f"{w}_{j2}"
    if marked:
        sibling = rng.choice([j for j in range(r2) if j != j2])
        m1 = replicate(base, r1, q_worlds=set())
        m2 = replicate(base, r2, q_worlds={f"{w}_{sibling}"})
    else:
        m1, m2 = replicate(base, r1), replicate(base, r2)
    return m1, p1, m2, p2


def selftest_pair(rng: random.Random, m1: dict, p1: str, m2: dict, p2: str,
                  marked: bool) -> None:
    """Random formulas over the base signature take equal values at
    corresponding worlds of the two replications, and the separator splits
    the points of a marked pair."""
    a, b = ref.RefModel(m1), ref.RefModel(m2)
    named = [v["name"] for v in m1["variables"] if not v["hidden"]]
    copies = {}
    for w in m1["worlds"]:
        copies.setdefault(w["id"].rsplit("_", 1)[0], []).append(w["id"])
    firsts = {w["id"].rsplit("_", 1)[0]: w["id"] for w in reversed(m2["worlds"])}
    for _ in range(BISIM_SELFTEST_FORMULAS):
        f = _random_formula(rng, named, 2)
        for base_world, ids in copies.items():
            for wid in (ids[0], ids[-1]):
                if a.holds(wid, f) != b.holds(firsts[base_world], f):
                    raise AssertionError(
                        f"replications disagree on {ref.render(f)} at {base_world}")
    if marked and a.holds(p1, SEPARATOR) == b.holds(p2, SEPARATOR):
        raise AssertionError(f"separator does not split {p1} and {p2}")


def _random_formula(rng: random.Random, named: list[str], depth: int) -> tuple:
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.3:
            return ("prop", "p1")
        return (rng.choice(("Dg", "Dl")),
                frozenset(rng.sample(named, rng.randint(1, min(3, len(named))))),
                frozenset(rng.sample(named, rng.randint(1, min(3, len(named))))))
    tag = rng.choice(("not", "and", "K", "A"))
    if tag == "and":
        return ("and", _random_formula(rng, named, depth - 1),
                _random_formula(rng, named, depth - 1))
    return (tag, _random_formula(rng, named, depth - 1))


def bisim_ops(seed: int, workdir: str) -> list[Op]:
    """``bisim`` ops over replication pairs, alternating the two populations
    and marked/unmarked pairs.  Every pair passes ``selftest_pair`` first."""
    rng = random.Random(seed)
    ops = []
    for i in range(BISIM_PAIRS_PER_POPULATION):
        for population in BISIM_POPULATIONS:
            marked = i % 2 == 1
            m1, p1, m2, p2 = bisim_pair(rng, population, i, marked)
            selftest_pair(rng, m1, p1, m2, p2, marked)
            f1 = _write(workdir, f"bisim_{len(ops)}_a.json", m1)
            f2 = _write(workdir, f"bisim_{len(ops)}_b.json", m2)
            ops.append(Op("bisim", ("bisim", f1, p1, f2, p2, "--json"), not marked))
    return ops


# -- known answers ----------------------------------------------------------------

def verify(op: Op, rc: int, out: str, fixtures: dict) -> str | None:
    """``None`` when the op's output matches its known answer, otherwise a
    description of the mismatch.  ``fixtures`` maps each bundled fixture's
    name to its reference model and its (formula, world, truth) claims."""
    if rc != 0:
        return f"exit status {rc!r}"
    payload = json.loads(out)
    if op.label == "axioms":
        return _check_axioms(payload, int(op.argv[4]))
    elif op.label == "check":
        if payload["value"] != op.expect:
            return f"value {payload['value']}, expected {op.expect}"
    elif op.label == "extension":
        if sorted(payload["worlds"]) != op.expect:
            return f"worlds {payload['worlds']}, expected {op.expect}"
    elif op.label == "examples":
        return _check_examples(payload["results"], *fixtures[op.argv[1]])
    elif op.label == "bisim":
        return _check_bisim(payload, op)
    return None


def _check_axioms(payload: dict, seed: int) -> str | None:
    """No counterexample, and the work reported is the work asked for: every
    schema, and one route check per dependency atom of a trial's instances
    per world of its model, summed over the trials.  One trial per op,
    chosen by the seed, is also checked with the reference evaluator: each
    of its instances must hold at every world."""
    from depmodal.syntax import render_formula
    if (payload["trials"], payload["schema_count"]) != (AXIOM_TRIALS, AXIOM_SCHEMAS):
        return f"trials={payload['trials']}, schema_count={payload['schema_count']}"
    if payload["counterexamples"]:
        return f"counterexamples {payload['counterexamples'][:2]}"
    atoms = 0
    sample = seed // AXIOM_TRIALS % AXIOM_TRIALS
    for i in range(AXIOM_TRIALS):
        m, formulas = axiom_trial(seed + i)
        atoms += len(dep_atom_nodes(formulas)) * len(m.worlds)
        if i == sample:
            model = ref.RefModel(m.to_dict())
            for f in formulas:
                g = ref.parse(render_formula(f))
                if model.extension(g) != model.worlds:
                    return f"{ref.render(g)} is not valid on trial {seed + i}"
    if payload["atoms_checked"] != atoms:
        return f"atoms_checked={payload['atoms_checked']}, expected {atoms}"
    return None


def _check_examples(results: list, model: ref.RefModel, claims: list) -> str | None:
    """Every claim is reported, at every world it is made for, with the
    truth value both the claim and the reference evaluator give."""
    wanted = {(text, w): expect for text, world, expect in claims
              for w in ([world] if world is not None else sorted(model.worlds))}
    got = {(r["formula"], r["world"]): r["got"] for r in results}
    if got != wanted or len(results) != len(wanted):
        return f"claims {sorted(got.items())}, expected {sorted(wanted.items())}"
    for (text, w), truth in wanted.items():
        if model.holds(w, ref.parse(text)) != truth:
            return f"reference evaluator disagrees with claim {text!r} at {w}"
    return None


def _check_bisim(payload: dict, op: Op) -> str | None:
    """The verdict is the construction's; a reported distinguishing formula
    must separate the points under the reference evaluator."""
    if payload["bisimilar"] != op.expect:
        return f"bisimilar={payload['bisimilar']}, expected {op.expect}"
    if op.expect:
        return None
    text = payload.get("distinguishing")
    if text is None:
        return "no distinguishing formula reported"
    _, path1, p1, path2, p2, _ = op.argv
    f = ref.parse(text)
    if _load(path1).holds(p1, f) == _load(path2).holds(p2, f):
        return f"{text!r} does not separate {p1} and {p2}"
    return None


def _load(path: str) -> ref.RefModel:
    with open(path, encoding="utf-8") as fh:
        return ref.RefModel(json.load(fh))


# -- generation in a separate process ---------------------------------------------

OPS_FILE = "ops.json"


def generate(workload: str, seed: int, workdir: str, fixtures: list[str]) -> list[Op]:
    if workload == "axioms":
        return axioms_ops(seed)
    if workload == "check":
        return check_ops(seed, workdir, fixtures)
    if workload == "bisim":
        return bisim_ops(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def load_ops(workdir: str) -> list[Op]:
    with open(os.path.join(workdir, OPS_FILE), encoding="utf-8") as fh:
        return [Op(d["label"], tuple(d["argv"]), d["expect"]) for d in json.load(fh)]


if __name__ == "__main__":
    # python3 workloads.py WORKLOAD SEED WORKDIR [FIXTURE ...]: writes the
    # model files and WORKDIR/ops.json, keeping the memory that generation
    # and its self-tests use out of the process that runs the ops
    name, seed_text, out_dir, *fixture_names = sys.argv[1:]
    generated = generate(name, int(seed_text), out_dir, fixture_names)
    _write(out_dir, OPS_FILE, [asdict(op) for op in generated])
