import hashlib
import itertools
import json
import random
from collections import Counter
from dataclasses import asdict, replace

import pytest

from depmodal import dependency, harness, semantics
from depmodal.harness import (GenParams, SchemaInstance, draw_instances,
                              instantiate, random_formula, random_model,
                              schema_names, soundness_suite, Counterexample,
                              ROUTE_CHECK)
from depmodal.model import load_model
from depmodal.syntax import (BOT, GLOBAL, KINDS, LOCAL, TOP, All, And, DepG,
                             DepL, Know, Not, dep_atom, iff, implies, disj,
                             mutual_dependence, parse_formula, render_formula)

from oracles import (agree_outside, collect_dep_atoms, delta, differs_on,
                     recursive_eval_oracle, soundness_oracle)


def vs(*names):
    return frozenset(names)


def dumps(m):
    return json.dumps(m.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# Model generation
# ---------------------------------------------------------------------------

class TestRandomModel:
    def test_same_seed_byte_identical(self):
        params = GenParams(seed=0)
        assert dumps(random_model(params)) == dumps(random_model(params))
        assert (dumps(random_model(replace(params, seed=3)))
                != dumps(random_model(replace(params, seed=4))))

    @pytest.mark.parametrize("params, digest", [
        # the model shapes of acceptance criteria 2, 3 and 5
        (GenParams(min_worlds=1, max_worlds=8, num_props=1, num_named=4,
                   num_hidden=1, max_value=3),
         "ad530909d02cf355dc6c2f7d74d098ddc25fd7deab7711ba56ce43e01fdde9c4"),
        (GenParams(),
         "24dc2dc6ad0fd5f9ab507a9010b719620ecfb4fc6f786ff7117c24bba763321d"),
        (GenParams(min_worlds=1, max_worlds=5, num_props=1, num_named=3,
                   num_hidden=1, max_value=3),
         "ad5015c5cd04baf4d3e3b4718a79dc24a12ab039538766174319d6a4d696661d"),
    ])
    def test_draws_are_pinned(self, params, digest):
        # the acceptance criteria and the axioms benchmark read these models;
        # a reordered draw would silently re-seed them
        h = hashlib.sha256()
        for seed in range(100):
            h.update(dumps(random_model(replace(params, seed=seed))).encode() + b"\n")
        assert h.hexdigest() == digest

    def test_single_world_partitions_forced(self):
        m = random_model(GenParams(min_worlds=1, max_worlds=1, seed=5))
        assert m.epistemic_partition == (frozenset({"w1"}),)
        assert m.nomic_partition == (frozenset({"w1"}),)

    def test_generated_models_are_valid(self):
        from depmodal.model import load_model
        for seed in range(30):
            m = random_model(GenParams(seed=seed))
            load_model(dumps(m))   # revalidates every invariant

    def test_hidden_variables_exercise_empty_difference_branch(self):
        params = GenParams(num_hidden=1, min_worlds=4, max_worlds=8)
        hits = 0
        for seed in range(100):
            m = random_model(replace(params, seed=seed))
            for cell in m.nomic_partition:
                for u in cell:
                    for v in cell:
                        hidden_differs = any(
                            m.assignment[u][h] != m.assignment[v][h]
                            for h in m.hidden_variables)
                        named_differs = any(
                            m.assignment[u][x] != m.assignment[v][x]
                            for x in m.named_variables)
                        if hidden_differs and named_differs:
                            assert delta(m, u, v) == frozenset()
                            hits += 1
        assert hits > 0

    def test_infeasible_params_rejected(self):
        with pytest.raises(ValueError):
            GenParams(min_worlds=0)
        with pytest.raises(ValueError):
            GenParams(min_worlds=3, max_worlds=2)
        with pytest.raises(ValueError):
            GenParams(max_value=0)

    def test_value_bound_respected(self):
        m = random_model(GenParams(seed=8, max_value=3))
        for w in m.worlds:
            for x in m.named_variables + m.hidden_variables:
                assert 0 <= m.assignment[w][x] < 3


@pytest.mark.parametrize("shape, digest", [
    ({}, "4a6f2f814f0e9eb8d4649c061c774abbf7d520a9dee8878ea703e36d461bdb0c"),
    ({"num_props": 0}, "8848ea68c6012522b8542f63bbe744458e6e840ca95145577f4e357aca5b3d82"),
    ({"num_named": 0}, "6f819547b7c963a1c8a158a1d89f9d3beacbb25ce81531387732abc79b9853d4"),
    ({"num_props": 0, "num_named": 0}, "bb49367fc212da480ee2071849851cfe8f3f7dd6f22d6920b9113d1b6f5b07ce"),
])
def test_random_formula_draws_are_pinned(shape, digest):
    # the schema instances and the contract tests draw these formulas; the
    # leaves a model offers and the order of the draws decide them
    h = hashlib.sha256()
    for seed in range(50):
        m = random_model(GenParams(seed=seed, **shape))
        for depth in range(5):
            f = random_formula(random.Random(seed), m, depth)
            h.update(render_formula(f).encode() + b"\n")
    assert h.hexdigest() == digest


def test_random_formula_names_are_declared():
    rng = random.Random(0)
    m = random_model(GenParams(seed=1))
    for _ in range(200):
        f = random_formula(rng, m)
        semantics.check_names(m, f)   # must not raise


# ---------------------------------------------------------------------------
# Schema instantiation
# ---------------------------------------------------------------------------

class TestInstantiate:
    def test_empty_chain_shape(self):
        f = instantiate(SchemaInstance("empty_chain", GLOBAL, varsets=(vs("x"),)))
        empty = frozenset()
        want = And(iff(DepG(empty, vs("x")), DepG(vs("x"), empty)),
                   iff(DepG(vs("x"), empty), BOT))
        assert f == want

    def test_global_stability_shape(self):
        f = instantiate(SchemaInstance("global_stability",
                                       varsets=(vs("x"), vs("y"))))
        assert f == implies(DepG(vs("x"), vs("y")), All(DepG(vs("x"), vs("y"))))

    def test_cover_single_disjunct_for_disjoint_singletons(self):
        f = instantiate(SchemaInstance("cover", LOCAL, varsets=(vs("x"), vs("y"))))
        # one nonempty sub-block pair only, so the right side is one block formula
        assert f == iff(DepL(vs("x"), vs("y")),
                        mutual_dependence(LOCAL, vs("x", "y")))

    def test_cover_disjuncts_deduplicated_and_ordered(self):
        f = instantiate(SchemaInstance("cover", LOCAL, varsets=(vs("x", "y"), vs("y"))))
        want = iff(DepL(vs("x", "y"), vs("y")),
                   disj(mutual_dependence(LOCAL, vs("y")),
                        mutual_dependence(LOCAL, vs("x", "y"))))
        assert f == want

    def test_cover_requires_nonempty_sides(self):
        with pytest.raises(ValueError):
            instantiate(SchemaInstance("cover", GLOBAL,
                                       varsets=(frozenset(), vs("y"))))

    def test_weakening_side_condition(self):
        with pytest.raises(ValueError):
            instantiate(SchemaInstance("weakening", GLOBAL,
                                       varsets=(vs("x"), vs("y"), vs("z"))))
        f = instantiate(SchemaInstance("weakening", GLOBAL,
                                       varsets=(vs("x"), vs("x", "y"), vs("z"))))
        assert f == implies(DepG(vs("x"), vs("z")), DepG(vs("x", "y"), vs("z")))

    def test_duality_shape(self):
        f = instantiate(SchemaInstance("duality", varsets=(vs("x"), vs("y"))))
        assert f == iff(DepG(vs("x"), vs("y")),
                        Not(All(Not(DepL(vs("x"), vs("y"))))))

    def test_box_schemas_shape(self):
        p = DepG(vs("x"), vs("y"))
        assert instantiate(SchemaInstance("k_t", formulas=(p,))) == \
            implies(Know(p), p)
        assert instantiate(SchemaInstance("a_4", formulas=(p,))) == \
            implies(All(p), All(All(p)))
        assert instantiate(SchemaInstance("k_5", formulas=(p,))) == \
            implies(Not(Know(p)), Know(Not(Know(p))))

    def test_unknown_schema(self):
        with pytest.raises(ValueError):
            instantiate(SchemaInstance("modus_ponens"))

    @pytest.mark.parametrize("inst", [
        SchemaInstance("k_t"),
        SchemaInstance("k_t", formulas=(TOP, TOP)),
        SchemaInstance("a_dist", formulas=(TOP,)),
        SchemaInstance("symmetry", GLOBAL, varsets=(vs("x"),)),
        SchemaInstance("weakening", LOCAL, varsets=(vs("x"), vs("x", "y"))),
        SchemaInstance("duality", varsets=(vs("x"), vs("y"), vs("z"))),
        SchemaInstance("cover", None, varsets=(vs("x"), vs("y"))),
        SchemaInstance("empty_set", "sideways", varsets=(vs("x"),)),
        SchemaInstance("b_t", formulas=(TOP,)),
        SchemaInstance("k_cover", GLOBAL, varsets=(vs("x"), vs("y"))),
        SchemaInstance("k_t", GLOBAL, formulas=(TOP,)),
    ], ids=["k_t-0", "k_t-2", "a_dist-1", "symmetry-1", "weakening-2",
            "duality-3", "cover-no-kind", "empty_set-bad-kind", "b_t", "k_cover",
            "k_t-with-kind"])
    def test_malformed_instance_rejected(self, inst):
        with pytest.raises(ValueError):
            instantiate(inst)


@pytest.mark.parametrize("first, digest", [
    (0, "9961d2d4215f811c7fbea2c877b49a74b1327d48c7a487d30e2400b3e32c607c"),
    # the first 100 trial seeds of ``perfbench/workloads.py::axioms_ops(1)``
    (1_000_003, "e12c854d199b514d37db0850da189d6fd61c01ca03277020749785bd0bd5081b"),
])
def test_drawn_instances_are_pinned(first, digest):
    # the suite's trials draw these instances; a reordered draw would
    # silently re-seed acceptance criterion 3 and the axioms benchmark
    h = hashlib.sha256()
    for seed in range(first, first + 100):
        m = random_model(GenParams(seed=seed))
        for inst in draw_instances(random.Random(seed ^ 0x9E3779B9), m):
            h.update(f"{inst.label()} {render_formula(instantiate(inst))}\n".encode())
    assert h.hexdigest() == digest


def test_schema_names_are_pinned():
    # the suite's schema count and the order its instances are drawn in
    assert schema_names() == [
        "k_dist", "k_t", "k_4", "k_5", "a_dist", "a_t", "a_4", "a_5",
        "cover_g", "cover_l", "empty_chain_g", "empty_chain_l",
        "empty_set_g", "empty_set_l", "symmetry_g", "symmetry_l",
        "weakening_g", "weakening_l", "separation_g", "separation_l",
        "global_stability", "duality"]


def test_draw_instances_covers_every_schema():
    rng = random.Random(0)
    m = random_model(GenParams(seed=0))
    drawn = {inst.schema if inst.kind is None else f"{inst.schema}_{inst.kind[0]}"
             for inst in draw_instances(rng, m)}
    assert drawn == set(schema_names())
    assert len(schema_names()) == 22


# ---------------------------------------------------------------------------
# Soundness suite
# ---------------------------------------------------------------------------

def _pairs(m, s, kind):
    cls = m.nomic_class(s)
    if kind == GLOBAL:
        return ((u, v) for u in cls for v in cls)
    return ((t, s) for t in cls)


def without_agreement_conjunct(m, s, kind, x, y):
    """The direct route without its agreement-outside conjunct."""
    m._check_named(x)
    m._check_named(y)
    return any(differs_on(m, u, v, x) and differs_on(m, u, v, y)
               for u, v in _pairs(m, s, kind))


def without_y_difference(m, s, kind, x, y):
    """The direct route without its difference-on-y conjunct."""
    m._check_named(x)
    m._check_named(y)
    return any(differs_on(m, u, v, x) and agree_outside(m, u, v, x | y)
               for u, v in _pairs(m, s, kind))


class TestSoundnessSuite:
    def test_small_run_clean(self):
        report = soundness_suite(GenParams(seed=0), trials=40)
        assert not report.counterexamples
        assert report.trials == 40
        assert report.atoms_checked > 0
        assert "counterexamples=0" in report.summary()

    def test_one_world_trial_vacuous(self):
        report = soundness_suite(GenParams(seed=0, min_worlds=1, max_worlds=1),
                                 trials=1)
        assert not report.counterexamples

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            soundness_suite(GenParams(), trials=0)

    def test_mutated_evaluator_detected(self, monkeypatch):
        monkeypatch.setattr(semantics, "dep_holds_direct",
                            without_agreement_conjunct)
        report = soundness_suite(GenParams(seed=0), trials=40)
        assert report.counterexamples
        route_hits = [ce for ce in report.counterexamples
                      if ce.schema == ROUTE_CHECK]
        assert route_hits
        first = route_hits[0]
        assert first.seed >= 0 and first.world

    def test_schema_counterexample_is_first_false_world(self, monkeypatch):
        monkeypatch.setattr(semantics, "dep_holds_direct", without_y_difference)
        params = GenParams(seed=0)
        report = soundness_suite(params, trials=40)
        found = [ce for ce in report.counterexamples if ce.schema != ROUTE_CHECK]
        assert len(found) == 16
        past_first = 0
        for ce in found:
            m = random_model(replace(params, seed=ce.seed))
            f = parse_formula(ce.instance)
            i = m.worlds.index(ce.world)
            mutant = semantics.dep_holds_direct
            assert not recursive_eval_oracle(m, ce.world, f, mutant)
            assert all(recursive_eval_oracle(m, s, f, mutant) for s in m.worlds[:i])
            past_first += i > 0
        assert past_first

    def test_report_serialization(self):
        report = soundness_suite(GenParams(seed=1), trials=5)
        d = asdict(report)
        assert d["trials"] == 5
        assert d["counterexamples"] == []


# ---------------------------------------------------------------------------
# Per-anchor asking against the per-world loop
# ---------------------------------------------------------------------------

def _masked(report):
    d = asdict(report)
    d["elapsed"] = None
    return d


def _trial_atoms(m, seed):
    """The dependency atoms of a trial's instances, as the suite draws them."""
    rng = random.Random(seed ^ 0x9E3779B9)
    return set().union(*(collect_dep_atoms(instantiate(inst))
                         for inst in draw_instances(rng, m)))


def test_suite_matches_per_world_oracle_on_200_seeds():
    params = GenParams(seed=0)
    assert _masked(soundness_suite(params, 200)) == _masked(soundness_oracle(params, 200))


SHAPES = [(named, hidden, worlds) for named in range(5) for hidden in range(3)
          for worlds in ((1, 1), (8, 8), (1, 8))]


@pytest.mark.parametrize("named,hidden,worlds", SHAPES)
def test_suite_matches_per_world_oracle_across_shapes(named, hidden, worlds):
    params = GenParams(num_named=named, num_hidden=hidden, min_worlds=worlds[0],
                       max_worlds=worlds[1], seed=1000 + 10 * SHAPES.index(
                           (named, hidden, worlds)))
    assert _masked(soundness_suite(params, 5)) == _masked(soundness_oracle(params, 5))


@pytest.mark.parametrize("mutant", [without_agreement_conjunct, without_y_difference])
@pytest.mark.parametrize("shape", [{}, {"num_hidden": 0, "min_worlds": 8},
                                   {"num_named": 2, "num_hidden": 2}])
def test_suite_matches_per_world_oracle_under_mutated_direct_route(
        monkeypatch, mutant, shape):
    monkeypatch.setattr(semantics, "dep_holds_direct", mutant)
    params = GenParams(seed=0, **shape)
    report = soundness_suite(params, 40)
    assert report.counterexamples
    assert _masked(report) == _masked(soundness_oracle(params, 40))


PASS_SHAPES = [{}, {"min_worlds": 1, "max_worlds": 1}, {"num_named": 0},
               {"num_props": 0},
               {"min_worlds": 1, "max_worlds": 1, "num_named": 0, "num_props": 0}]


def _pass_formulas(m, seed):
    """Seeded random formulas of depth 3 and 4, and formulas that share
    subtrees: both sides of an ``iff``, and one node under both boxes."""
    rng = random.Random(seed)
    formulas = [random_formula(rng, m, depth) for depth in (3, 4) for _ in range(8)]
    g, h = random_formula(rng, m), random_formula(rng, m)
    formulas += [iff(g, h), And(Know(g), All(g)), iff(Know(h), All(Not(h)))]
    return formulas


@pytest.mark.parametrize("mutant", [None, without_agreement_conjunct,
                                    without_y_difference])
@pytest.mark.parametrize("shape", PASS_SHAPES)
def test_world_set_pass_matches_per_world_extension(monkeypatch, mutant, shape):
    if mutant is not None:
        monkeypatch.setattr(semantics, "dep_holds_direct", mutant)
    direct = semantics.dep_holds_direct
    for seed in range(20):
        m = random_model(GenParams(seed=seed, **shape))
        first = {kind: {} for kind in KINDS}
        for kind in KINDS:
            for s in m.worlds:
                first[kind].setdefault(m._anchor(s, kind), s)

        def at_anchor(m, s, kind, x, y):
            # the direct route's answer at the anchor's first world, as the
            # suite asks it
            return direct(m, first[kind][m._anchor(s, kind)], kind, x, y)

        def worlds(mask):
            return {s for i, s in enumerate(m.worlds) if mask >> i & 1}

        formulas = _pass_formulas(m, seed)
        sets = harness._WorldSets(m)
        for f in formulas:
            assert worlds(sets.mask(f)) == {
                s for s in m.worlds if recursive_eval_oracle(m, s, f, at_anchor)}, \
                (seed, render_formula(f))
        assert set(sets.atoms) == set().union(*map(collect_dep_atoms, formulas))
        for (kind, x, y), (d, r) in sets.atoms.items():
            assert worlds(d) == {s for s in m.worlds if at_anchor(m, s, kind, x, y)}
            assert worlds(r) == {s for s in m.worlds
                                 if dependency.dep_holds_by_evidence(m, s, kind, x, y)}


def test_suite_asks_each_route_once_per_atom_and_anchor(monkeypatch):
    models = []
    real_model = harness.random_model

    def recording_model(params):
        m = real_model(params)
        models.append((m, params.seed))
        return m

    asked = Counter()
    real_direct = semantics.dep_holds_direct

    def counting_direct(m, s, kind, x, y):
        asked[m, kind, x, y, m._anchor(s, kind)] += 1
        return real_direct(m, s, kind, x, y)

    by_evidence = []
    monkeypatch.setattr(harness, "random_model", recording_model)
    monkeypatch.setattr(semantics, "dep_holds_direct", counting_direct)
    monkeypatch.setattr(dependency, "dep_holds_by_evidence",
                        lambda *args: by_evidence.append(args))
    report = soundness_suite(GenParams(seed=0), trials=40)
    assert not report.counterexamples
    assert by_evidence == []
    assert set(asked.values()) == {1}
    want = {(m, kind, x, y, anchor)
            for m, seed in models
            for kind, x, y in _trial_atoms(m, seed)
            for anchor in {m._anchor(s, kind) for s in m.worlds}}
    assert set(asked) == want
    # some anchor spans several worlds, so the per-world loop asks more
    assert report.atoms_checked > len(want)


def test_suite_reads_each_family_once_per_anchor(monkeypatch):
    models = []
    real_model = harness.random_model

    def recording_model(params):
        m = real_model(params)
        models.append(m)
        return m

    read = Counter()
    real_family = dependency.p_family

    def counting_family(m, s, kind):
        read[m, kind, m._anchor(s, kind)] += 1
        return real_family(m, s, kind)

    monkeypatch.setattr(harness, "random_model", recording_model)
    monkeypatch.setattr(dependency, "p_family", counting_family)
    report = soundness_suite(GenParams(seed=0), trials=40)
    assert not report.counterexamples
    assert len(models) == 40
    assert set(read.values()) == {1}
    assert set(read) == {(m, kind, m._anchor(s, kind))
                         for m in models for kind in KINDS for s in m.worlds}


def test_route_disagreement_reported_at_each_world_of_its_anchor(monkeypatch):
    # a1, a2 and a3 share a nomic class and a row, so they share one local
    # anchor; b is in their class with another hidden value, c in a class
    # of its own
    rows = {"a1": (0, 0), "b": (1, 1), "a2": (0, 0), "c": (1, 0), "a3": (0, 0)}
    m = load_model({
        "propositions": ["p"],
        "variables": [{"name": "x1", "hidden": False},
                      {"name": "x2", "hidden": False},
                      {"name": "h", "hidden": True}],
        "worlds": [{"id": w, "props": {"p": 0}, "vals": {"x1": x, "x2": x, "h": h}}
                   for w, (x, h) in rows.items()],
        "epistemic_partition": [list(rows)],
        "nomic_partition": [["a1", "b", "a2", "a3"], ["c"]]})
    assert {m._anchor(w, LOCAL) for w in ("a1", "a2", "a3")} == {"a1"}
    named = m.named_variables
    every_set = dependency.family(
        frozenset(c) for c in (named[:1], named[1:], named))
    real_family = dependency.p_family

    def wrong_at_a1(m, s, kind):
        # every local atom with two nonempty sides holds at a1's anchor
        if kind == LOCAL and m._anchor(s, kind) == "a1":
            return every_set
        return real_family(m, s, kind)

    monkeypatch.setattr(harness, "random_model", lambda params: m)
    monkeypatch.setattr(dependency, "p_family", wrong_at_a1)
    seed = 3
    report = soundness_suite(GenParams(seed=seed), trials=1)
    atoms = sorted((a for a in _trial_atoms(m, seed) if a[0] == LOCAL and a[1] and a[2]),
                   key=lambda a: (a[0], sorted(a[1]), sorted(a[2])))
    assert atoms
    want = [Counterexample(seed, ROUTE_CHECK,
                           f"{render_formula(dep_atom(*a))} direct=False evidence=True", w)
            for a in atoms for w in ("a1", "a2", "a3")]
    assert report.counterexamples == want


# ---------------------------------------------------------------------------
# Route agreement on every small model
# ---------------------------------------------------------------------------

SMALL_VARIABLES = (("x1", False), ("x2", False), ("h", True))
SMALL_SIDES = [frozenset(c) for size in range(3)
               for c in itertools.combinations(("x1", "x2"), size)]


def _set_partitions(items):
    """Every partition of ``items`` into nonempty cells."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first], *part]
        for i in range(len(part)):
            yield [*part[:i], [first, *part[i]], *part[i + 1:]]


def _small_models():
    """Every model of 1-3 worlds over binary named ``x1``, ``x2`` and hidden
    ``h``, with rows taken up to world permutation and every pair of
    partitions, fewest worlds first, as ``(rows, epistemic, nomic, model)``."""
    names = [name for name, _ in SMALL_VARIABLES]
    variables = [{"name": name, "hidden": hidden} for name, hidden in SMALL_VARIABLES]
    for n in (1, 2, 3):
        worlds = [f"w{i}" for i in range(n)]
        partitions = list(_set_partitions(worlds))
        for rows in itertools.combinations_with_replacement(
                itertools.product((0, 1), repeat=len(names)), n):
            entries = [{"id": w, "props": {}, "vals": dict(zip(names, row))}
                       for w, row in zip(worlds, rows)]
            for epistemic in partitions:
                for nomic in partitions:
                    yield rows, epistemic, nomic, load_model({
                        "propositions": [], "variables": variables,
                        "worlds": entries, "epistemic_partition": epistemic,
                        "nomic_partition": nomic})


def _first_route_disagreement():
    """Both routes asked every (kind, x, y, world) on every small model: the
    first disagreement, on a model with the fewest worlds, as
    ``(rows, epistemic, nomic, world, kind, x, y)``, or None; and how many
    models and asks it took to decide."""
    models = asks = 0
    for rows, epistemic, nomic, m in _small_models():
        models += 1
        for s in m.worlds:
            for kind in KINDS:
                for x in SMALL_SIDES:
                    for y in SMALL_SIDES:
                        asks += 1
                        if (semantics.dep_holds_direct(m, s, kind, x, y)
                                != dependency.dep_holds_by_evidence(m, s, kind, x, y)):
                            return (rows, epistemic, nomic, s, kind, x, y), models, asks
    return None, models, asks


def test_routes_agree_on_every_small_model():
    assert _first_route_disagreement() == (None, 3152, 297472)


# each mutant's smallest counterexample: two worlds in one nomic class, where
# the mutant answers true and the evidence route false.  Without agreement,
# a difference in the hidden h no longer voids the pair; without the
# difference on y, an empty y no longer makes the atom false.
@pytest.mark.parametrize("mutant, smallest", [
    (without_agreement_conjunct,
     (((0, 0, 0), (0, 1, 1)), [["w0"], ["w1"]], [["w0", "w1"]],
      "w0", GLOBAL, vs("x2"), vs("x2"))),
    (without_y_difference,
     (((0, 0, 0), (0, 1, 0)), [["w0"], ["w1"]], [["w0", "w1"]],
      "w0", GLOBAL, vs("x2"), vs())),
])
def test_every_small_model_catches_mutated_direct_route(monkeypatch, mutant, smallest):
    monkeypatch.setattr(semantics, "dep_holds_direct", mutant)
    found, _, _ = _first_route_disagreement()
    assert found == smallest


def test_collect_dep_atoms():
    f = instantiate(SchemaInstance("cover", GLOBAL, varsets=(vs("x"), vs("y"))))
    atoms = collect_dep_atoms(f)
    assert (GLOBAL, vs("x"), vs("y")) in atoms
    assert all(kind == GLOBAL for kind, _, _ in atoms)


def test_schema_instance_label():
    inst = SchemaInstance("cover", GLOBAL, varsets=(vs("x"), vs("y")))
    assert inst.label() == "cover[global]({x};{y})"
    assert SchemaInstance("k_t").label() == "k_t"
