import random
from dataclasses import replace

import pytest

from depmodal import semantics
from depmodal.harness import (GenParams, SchemaInstance, draw_instances,
                              instantiate, random_formula, random_model,
                              schema_names, soundness_suite, ROUTE_CHECK)
from depmodal.syntax import (BOT, GLOBAL, LOCAL, All, And, DepG, DepL, Know,
                             Not, collect_dep_atoms, iff, implies, disj,
                             mutual_dependence, parse_formula)


def vs(*names):
    return frozenset(names)


# ---------------------------------------------------------------------------
# Model generation
# ---------------------------------------------------------------------------

class TestRandomModel:
    def test_same_seed_byte_identical(self):
        params = GenParams(seed=0)
        assert random_model(params).dumps() == random_model(params).dumps()
        assert (random_model(replace(params, seed=3)).dumps()
                != random_model(replace(params, seed=4)).dumps())

    def test_single_world_partitions_forced(self):
        m = random_model(GenParams(min_worlds=1, max_worlds=1, seed=5))
        assert m.epistemic_partition == (frozenset({"w1"}),)
        assert m.nomic_partition == (frozenset({"w1"}),)

    def test_generated_models_are_valid(self):
        from depmodal.model import load_model
        for seed in range(30):
            m = random_model(GenParams(seed=seed))
            load_model(m.dumps())   # revalidates every invariant

    def test_hidden_variables_exercise_empty_difference_branch(self):
        params = GenParams(num_hidden=1, min_worlds=4, max_worlds=8)
        hits = 0
        for seed in range(100):
            m = random_model(replace(params, seed=seed))
            for cell in m.nomic_partition:
                for u in cell:
                    for v in cell:
                        hidden_differs = any(
                            m.value(u, h) != m.value(v, h)
                            for h in m.hidden_variables)
                        named_differs = any(
                            m.value(u, x) != m.value(v, x)
                            for x in m.named_variables)
                        if hidden_differs and named_differs:
                            assert m.delta(u, v) == frozenset()
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
                assert 0 <= m.value(w, x) < 3


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

class TestSoundnessSuite:
    def test_small_run_clean(self):
        report = soundness_suite(GenParams(seed=0), trials=40)
        assert report.ok
        assert report.trials == 40
        assert report.atoms_checked > 0
        assert "counterexamples=0" in report.summary()

    def test_one_world_trial_vacuous(self):
        report = soundness_suite(GenParams(seed=0, min_worlds=1, max_worlds=1),
                                 trials=1)
        assert report.ok

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            soundness_suite(GenParams(), trials=0)

    def test_mutated_evaluator_detected(self, monkeypatch):
        def without_agreement_conjunct(m, s, kind, x, y):
            m._check_named(x)
            m._check_named(y)
            cls = m.nomic_class(s)
            if kind == GLOBAL:
                pairs = ((u, v) for u in cls for v in cls)
            else:
                pairs = ((t, s) for t in cls)
            return any(m.differs_on(u, v, x) and m.differs_on(u, v, y)
                       for u, v in pairs)

        monkeypatch.setattr(semantics, "dep_holds_direct",
                            without_agreement_conjunct)
        report = soundness_suite(GenParams(seed=0), trials=40)
        assert not report.ok
        route_hits = [ce for ce in report.counterexamples
                      if ce.schema == ROUTE_CHECK]
        assert route_hits
        first = route_hits[0]
        assert first.seed >= 0 and first.world

    def test_schema_counterexample_is_first_false_world(self, monkeypatch):
        def without_y_difference(m, s, kind, x, y):
            m._check_named(x)
            m._check_named(y)
            cls = m.nomic_class(s)
            if kind == GLOBAL:
                pairs = ((u, v) for u in cls for v in cls)
            else:
                pairs = ((t, s) for t in cls)
            return any(m.differs_on(u, v, x) and m.agree_outside(u, v, x | y)
                       for u, v in pairs)

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
            assert not semantics.evaluate(m, ce.world, f)
            assert all(semantics.evaluate(m, s, f) for s in m.worlds[:i])
            past_first += i > 0
        assert past_first

    def test_report_serialization(self):
        report = soundness_suite(GenParams(seed=1), trials=5)
        d = report.to_dict()
        assert d["trials"] == 5
        assert d["counterexamples"] == []


def test_collect_dep_atoms():
    f = instantiate(SchemaInstance("cover", GLOBAL, varsets=(vs("x"), vs("y"))))
    atoms = collect_dep_atoms(f)
    assert (GLOBAL, vs("x"), vs("y")) in atoms
    assert all(kind == GLOBAL for kind, _, _ in atoms)


def test_schema_instance_label():
    inst = SchemaInstance("cover", GLOBAL, varsets=(vs("x"), vs("y")))
    assert inst.label() == "cover[global]({x};{y})"
    assert SchemaInstance("k_t").label() == "k_t"
